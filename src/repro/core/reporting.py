"""Evaluation report generation (artifact-evaluation tooling).

Runs a compact version of every headline experiment and renders one
markdown report with measured-vs-paper columns — the file an artifact
evaluator wants to diff against EXPERIMENTS.md.  Exposed on the CLI as
``python -m repro.cli report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.utils.validation import require_int_in_range


@dataclass
class ReportBuilder:
    """Accumulates sections and renders GitHub-flavored markdown."""

    title: str
    _chunks: List[str] = field(default_factory=list)

    def section(self, heading: str) -> "ReportBuilder":
        """Start a new section."""
        self._chunks.append(f"\n## {heading}\n")
        return self

    def paragraph(self, text: str) -> "ReportBuilder":
        """Add prose."""
        self._chunks.append(f"\n{text}\n")
        return self

    def table(
        self, header: Sequence[str], rows: Sequence[Sequence]
    ) -> "ReportBuilder":
        """Add a markdown table."""
        widths = [len(str(h)) for h in header]
        text_rows = [[str(cell) for cell in row] for row in rows]
        for row in text_rows:
            if len(row) != len(widths):
                raise ValueError("row width does not match header")
        lines = [
            "| " + " | ".join(str(h) for h in header) + " |",
            "|" + "|".join("---" for _ in header) + "|",
        ]
        for row in text_rows:
            lines.append("| " + " | ".join(row) + " |")
        self._chunks.append("\n" + "\n".join(lines) + "\n")
        return self

    def render(self) -> str:
        """The full markdown document."""
        return f"# {self.title}\n" + "".join(self._chunks)

    def write(self, path: Union[str, Path]) -> Path:
        """Render to a file and return its path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render())
        return path


def generate_report(
    seed: int = 0,
    samples_per_level: int = 500,
    rsa_samples: int = 6000,
    fingerprint_models: Optional[List[str]] = None,
    path: Optional[Union[str, Path]] = None,
    board: Optional[str] = None,
    workers: Optional[int] = None,
) -> str:
    """Run the compact evaluation and render the markdown report.

    Returns the markdown text; also writes it when ``path`` is given.
    The compact scale keeps the whole run in the ~1 minute range while
    hitting every headline number's band.  ``board`` selects the
    Table I platform (default ZCU102); ``workers`` caps the
    fingerprinting evaluation pool (the report is bit-identical at any
    worker count).
    """
    require_int_in_range(samples_per_level, 10, 1_000_000,
                         "samples_per_level")
    require_int_in_range(rsa_samples, 100, 100_000_000, "rsa_samples")
    from repro.core.characterize import characterize
    from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
    from repro.core.rsa_attack import RsaHammingWeightAttack
    from repro.boards.catalog import get_board
    from repro.session import AttackSession, DEFAULT_BOARD

    board = DEFAULT_BOARD if board is None else board
    report = ReportBuilder("AmpereBleed reproduction — compact evaluation")
    report.paragraph(
        f"Board {get_board(board).name}; seed {seed}; reduced scale "
        f"(see EXPERIMENTS.md for full runs)."
    )

    # Fig 2.
    sweep = characterize(
        AttackSession.create(board=board, seed=seed),
        samples_per_level=samples_per_level,
        seed=seed,
    )
    report.section("Fig 2 — channel characterization")
    report.table(
        ("channel", "pearson", "LSB/step", "paper"),
        [
            ("current", f"{sweep.current.pearson:+.4f}",
             f"{sweep.current.lsb_step:.1f}", "0.999 / ~40"),
            ("voltage", f"{sweep.voltage.pearson:+.4f}",
             f"{sweep.voltage.lsb_step:.2f}", "0.958 / sub-LSB"),
            ("power", f"{sweep.power.pearson:+.4f}",
             f"{sweep.power.lsb_step:.1f}", "0.999 / 1-2"),
            ("RO", f"{sweep.ro.pearson:+.4f}",
             f"{sweep.ro.lsb_step:.2f}", "-0.996 / n/a"),
        ],
    )
    report.paragraph(
        f"Current-vs-RO variation ratio: "
        f"**{sweep.current_vs_ro_variation:.0f}x** (paper: 261x)."
    )

    # Table III (subset).
    if fingerprint_models is None:
        fingerprint_models = [
            "mobilenet-v1-1.0", "squeezenet-1.1", "efficientnet-lite0",
            "inception-v3", "resnet-50", "vgg-19", "densenet-121",
        ]
    config = FingerprintConfig(
        duration=5.0, traces_per_model=8, n_folds=4, forest_trees=20
    )
    fingerprinter = DnnFingerprinter(
        AttackSession.create(board=board, seed=seed),
        config=config,
        workers=workers,
    )
    datasets = fingerprinter.collect_datasets(
        models=fingerprint_models,
        channels=[("fpga", "current"), ("fpga", "voltage")],
    )
    report.section("Table III — fingerprinting (subset)")
    rows = []
    for channel, dataset in datasets.items():
        result = fingerprinter.evaluate_channel(dataset)
        rows.append(
            (f"{channel[0]}/{channel[1]}", f"{result.top1:.3f}",
             f"{result.top5:.3f}")
        )
    report.table(("channel", "top-1", "top-5"), rows)

    # Fig 4.
    attack = RsaHammingWeightAttack(
        AttackSession.create(board=board, seed=seed)
    )
    current = attack.sweep(n_samples=rsa_samples)
    power = attack.sweep(quantity="power", n_samples=rsa_samples)
    report.section("Fig 4 — RSA Hamming weight")
    report.table(
        ("channel", "distinguishable groups (of 17)", "paper"),
        [
            ("current", current.distinguishable_groups(), "17"),
            ("power", power.distinguishable_groups(), "~5"),
        ],
    )
    calibration = current.calibration()
    report.paragraph(
        f"Current calibration: {calibration.slope:.4f} mA per unit "
        f"Hamming weight (r = {calibration.r:.4f})."
    )

    markdown = report.render()
    if path is not None:
        ReportBuilder(report.title, report._chunks).write(path)
    return markdown
