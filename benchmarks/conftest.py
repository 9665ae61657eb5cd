"""Shared helpers for the evaluation benches.

Every bench regenerates one table or figure from the paper and prints
the same rows/series the paper reports, alongside pytest-benchmark
timing.  Fig 2 and Fig 4 always run at the paper's sample counts.
``AMPEREBLEED_FULL=1`` scales Table III alone to the paper's protocol
(100-tree forests, 10-fold CV, all five durations); the default Table
III scale keeps the whole suite in the minutes range while preserving
the reported shapes.
"""

from typing import Iterable, Sequence

import pytest

from repro.perf.config import full_scale

__all__ = ["full_scale", "print_table", "table_printer"]


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]):
    """Render one paper table to stdout."""
    print(f"\n=== {title} ===")
    widths = [len(str(h)) for h in header]
    materialized = [[str(cell) for cell in row] for row in rows]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header))
    print(line)
    print("-" * len(line))
    for row in materialized:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


@pytest.fixture
def table_printer():
    """Inject the table renderer into benches."""
    return print_table
