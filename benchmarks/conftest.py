"""Shared helpers for the evaluation benches.

Every bench regenerates one table or figure from the paper and prints
the same rows/series the paper reports, alongside pytest-benchmark
timing.  Every bench runs at the paper's scale: Fig 2 and Fig 4 at
the paper's sample counts, Table III at the paper's protocol
(100-tree forests, 10-fold CV, all five durations).
"""

from typing import Iterable, Sequence

import pytest

__all__ = ["print_table", "table_printer"]


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
