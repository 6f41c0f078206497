"""Plain-text rendering of experiment results (tables and CSV)."""

from __future__ import annotations

import io
import math
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import SweepResult


def _format_value(value: float, precision: int = 3) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_sweep(sweep: SweepResult, precision: int = 3) -> str:
    """Render a sweep as an aligned ASCII table (x rows, series columns)."""
    headers = [sweep.x_label] + list(sweep.series)
    rows: List[List[str]] = []
    for i, x in enumerate(sweep.xs):
        row = [_format_value(x, precision=0 if float(x).is_integer() else 2)]
        for label in sweep.series:
            row.append(_format_value(sweep.series[label][i], precision))
        rows.append(row)
    title = f"{sweep.name}  ({sweep.y_label})"
    return render_table(headers, rows, title=title)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    title: Optional[str] = None,
) -> str:
    """Generic aligned ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))

    out = io.StringIO()
    if title:
        out.write(title + "\n")
    header_line = line(headers)
    out.write(header_line + "\n")
    out.write("-" * len(header_line) + "\n")
    for row in rows:
        out.write(line(row) + "\n")
    return out.getvalue()


def sweep_to_csv(
    sweep: SweepResult, provenance: Optional[Dict[str, str]] = None
) -> str:
    """CSV text of a sweep (x column plus one column per series).

    ``provenance`` entries become leading ``# key: value`` comment rows
    (manifest path, seeds, ...); a reader skips them.
    """
    out = io.StringIO()
    for key, value in (provenance or {}).items():
        out.write(f"# {key}: {value}\n")
    labels = list(sweep.series)
    out.write(",".join([sweep.x_label] + labels) + "\n")
    for i, x in enumerate(sweep.xs):
        cells = [str(x)]
        for label in labels:
            value = sweep.series[label][i]
            cells.append("" if math.isnan(value) else repr(value))
        out.write(",".join(cells) + "\n")
    return out.getvalue()
