"""Tabular reporting helpers for the figure drivers (``harness.py``).

Every benchmark regenerates one table or figure of the paper as a plain-text
table (series of rows), so results can be eyeballed against the published
plots without any plotting dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Sequence

def bandwidth_gbps(nbytes: float, seconds: float) -> float:
    """Bandwidth in GB/s (the unit of Figures 8–10)."""
    if seconds <= 0:
        return float("inf")
    return nbytes / seconds / 1e9


@dataclass
class Series:
    """One labelled series of (x, y) pairs, e.g. a line of Figure 8."""

    label: str
    x: List[Any] = field(default_factory=list)
    y: List[float] = field(default_factory=list)

    def add(self, x: Any, y: float) -> None:
        self.x.append(x)
        self.y.append(y)

    def as_rows(self) -> List[List[Any]]:
        return [[self.label, xi, yi] for xi, yi in zip(self.x, self.y)]

    def max(self) -> float:
        return max(self.y) if self.y else 0.0

    def min(self) -> float:
        return min(self.y) if self.y else 0.0


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render rows as a fixed-width text table (floats to three decimals)."""
    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return format(value, ".3f")
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    sep = "  ".join("-" * widths[i] for i in range(len(headers)))
    body = "\n".join("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)) for row in str_rows)
    return f"{line}\n{sep}\n{body}" if body else f"{line}\n{sep}"


@dataclass
class FigureReport:
    """A reproduced table/figure: metadata + one or more series."""

    figure: str
    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_series(self, label: str) -> Series:
        s = Series(label)
        self.series.append(s)
        return s

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_text(self) -> str:
        rows = [row for s in self.series for row in s.as_rows()]
        table = format_table(["series", self.x_label, self.y_label], rows)
        lines = [f"== {self.figure}: {self.title} ==", table]
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print("\n" + self.to_text() + "\n")

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series labelled {label!r}")
