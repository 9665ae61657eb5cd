"""Bench: regenerate Fig 2 — channels vs. activated power-virus groups.

Paper numbers: current and power correlate with the activation level
at 0.999; voltage at |0.958|; the RO baseline at -0.996.  Current moves
~40 of its 1 mA LSBs per level, power 1-2 of its 25 mW LSBs, voltage
stays sub-LSB; and current varies ~261x more than the RO counts over
the same sweep (§I + §IV-A).
"""

from conftest import print_table

from repro.core.characterize import characterize


def run_sweep():
    return characterize(samples_per_level=10_000, seed=0)


def test_fig2_characterization(benchmark):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    paper = {
        "current": ("0.999", "~40"),
        "voltage": ("0.958 (|r|)", "<1 overall"),
        "power": ("0.999", "1-2"),
        "ro": ("-0.996", "n/a"),
    }
    for sweep in (result.current, result.voltage, result.power, result.ro):
        rows.append(
            (
                sweep.name,
                f"{sweep.pearson:+.4f}",
                f"{sweep.lsb_step:.2f}",
                paper[sweep.name][0],
                paper[sweep.name][1],
            )
        )
    print_table(
        "Fig 2: per-level means vs activation level (161 levels)",
        ("channel", "pearson", "LSB/step", "paper r", "paper LSB/step"),
        rows,
    )
    ratio = result.current_vs_ro_variation
    print(f"\ncurrent-vs-RO variation ratio: {ratio:.1f}x  (paper: 261x)")
    print(
        "series endpoints: current "
        f"{result.current.means[0]:.0f} -> {result.current.means[-1]:.0f} mA, "
        f"voltage {result.voltage.means[0]:.1f} -> "
        f"{result.voltage.means[-1]:.1f} mV, "
        f"RO {result.ro.means[0]:.2f} -> {result.ro.means[-1]:.2f} counts"
    )

    # Shape assertions (who wins, and by roughly what factor).
    assert result.current.pearson > 0.995
    assert result.power.pearson > 0.995
    assert 0.80 < abs(result.voltage.pearson) < 0.995
    assert result.ro.pearson < -0.98
    assert 30 < result.current.lsb_step < 50
    assert 0.8 < result.power.lsb_step < 2.5
    assert result.voltage.lsb_step < 0.1
    assert 180 < ratio < 360
    # Current's floor is non-zero (static power of deployed instances).
    assert result.current.means[0] > 500
