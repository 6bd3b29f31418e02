"""Paper-style table formatting for the benchmark harness.

Every benchmark prints its results as an ASCII table whose columns match the
corresponding table/figure of the paper, so a run reads side by side with
the paper.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["format_table", "print_table"]


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def format_table(rows: Iterable[Mapping[str, object]], *, title: str | None = None,
                 columns: list[str] | None = None) -> str:
    """Render a list of dict rows as a fixed-width ASCII table."""
    rows = list(rows)
    if not rows:
        return f"{title or 'table'}: (no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {c: len(str(c)) for c in columns}
    rendered: list[list[str]] = []
    for row in rows:
        line = [_cell(row.get(c, "")) for c in columns]
        rendered.append(line)
        for c, cell in zip(columns, line):
            widths[c] = max(widths[c], len(cell))
    sep = "-+-".join("-" * widths[c] for c in columns)
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    body = "\n".join(" | ".join(cell.ljust(widths[c]) for c, cell in zip(columns, line))
                     for line in rendered)
    parts = []
    if title:
        parts.append(title)
    parts.extend([header, sep, body])
    return "\n".join(parts)


def print_table(rows: Iterable[Mapping[str, object]], *, title: str | None = None,
                columns: list[str] | None = None) -> None:
    print("\n" + format_table(rows, title=title, columns=columns) + "\n")
