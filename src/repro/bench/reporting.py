"""Emit the rows/series each bench regenerates, paper-figure style.

Every benchmark builds an :class:`ExperimentTable`, prints it (captured in
``bench_output.txt``), and appends it to ``results/`` as CSV so
EXPERIMENTS.md can reference stable artifacts.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")


@dataclass
class ExperimentTable:
    """A figure/table reproduction: id, column names, and data rows."""

    experiment: str              # e.g. "fig1_strong_scaling"
    columns: Sequence[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: str = ""

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def formatted(self) -> str:
        return format_table(self)

    def emit(self, results_dir: Optional[str] = None) -> str:
        """Print the table and persist it as CSV; returns the CSV path."""
        text = self.formatted()
        print("\n" + text)
        return save_table(self, results_dir)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.001:
            return f"{v:.3e}"
        return f"{v:.4f}".rstrip("0").rstrip(".")
    return str(v)


def format_table(table: ExperimentTable) -> str:
    cols = list(table.columns)
    str_rows = [[_fmt(v) for v in row] for row in table.rows]
    widths = [
        max(len(c), *(len(r[i]) for r in str_rows)) if str_rows else len(c)
        for i, c in enumerate(cols)
    ]
    lines = [f"== {table.experiment} =="]
    if table.notes:
        lines.append(f"   {table.notes}")
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def save_table(table: ExperimentTable, results_dir: Optional[str] = None) -> str:
    directory = os.path.abspath(results_dir or _RESULTS_DIR)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{table.experiment}.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(table.columns)
        writer.writerows(table.rows)
    return path
