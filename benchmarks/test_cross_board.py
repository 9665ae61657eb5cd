"""Extension bench: attack generality across the Table I boards.

The paper's future work asks whether other FPGA SoCs are vulnerable.
Within our substrate the answer is structural: every cataloged board
ships INA226s behind hwmon, so the same unprivileged pipeline runs on
all of them — including the Versal parts with their different (0.775-
0.825 V) regulation band.  This bench mounts a small RSA sweep on each
board and confirms the leak.
"""

from conftest import print_table

from repro.boards import list_boards
from repro.core.rsa_attack import RsaHammingWeightAttack
from repro.session import AttackSession
from repro.soc import Soc

WEIGHTS = (1, 256, 512, 768, 1024)


def run_cross_board():
    rows = []
    for board in list_boards():
        soc = Soc(board.name, seed=0)
        attack = RsaHammingWeightAttack(AttackSession(soc))
        sweep = attack.sweep(weights=WEIGHTS, n_samples=3000)
        calibration = sweep.calibration()
        rows.append(
            (
                board.name,
                board.fpga_family,
                len(soc.hwmon.devices()),
                sweep.distinguishable_groups(),
                f"{calibration.r:.4f}",
            )
        )
    return rows


def test_cross_board_generality(benchmark):
    rows = benchmark.pedantic(run_cross_board, rounds=1, iterations=1)
    print_table(
        "Cross-board RSA Hamming-weight attack (5 test keys)",
        ("board", "family", "hwmon devices", "groups", "calibration r"),
        rows,
    )
    for name, family, devices, groups, r in rows:
        # The attack pipeline works unmodified on every board.
        assert groups == len(WEIGHTS), name
        assert float(r) > 0.999, name
        assert devices >= 14, name
    families = {row[1] for row in rows}
    assert families == {"Zynq UltraScale+", "Versal"}
