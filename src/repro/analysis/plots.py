"""Plain-text rendering of figure results: bar charts and CSV export.

The paper presents its studies as bar charts; these helpers render the
reproduction's result objects the same way for terminals and logs, and
export the underlying numbers as CSV for external plotting.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.analysis.report import cell

Number = Union[int, float]

#: Glyph used for bar bodies.
_BAR = "█"
_HALF = "▌"


def bar_chart(
    series: Mapping[str, Number],
    title: str = "",
    width: int = 48,
    unit: str = "",
    baseline: Optional[float] = None,
) -> str:
    """Render a horizontal bar chart.

    ``baseline`` draws a reference mark (e.g. 1.0 for IPC ratios) as a
    ``|`` at the corresponding position.
    """
    if not series:
        return title
    label_width = max(len(str(label)) for label in series)
    maximum = max(max(series.values()), baseline or 0.0, 1e-12)
    lines = [title] if title else []
    for label, value in series.items():
        filled = value / maximum * width
        bar = _BAR * int(filled)
        if filled - int(filled) >= 0.5:
            bar += _HALF
        if baseline is not None:
            mark = min(int(baseline / maximum * width), width - 1)
            padded = list(bar.ljust(width))
            if 0 <= mark < width and padded[mark] == " ":
                padded[mark] = "|"
            bar = "".join(padded).rstrip()
        lines.append(f"{str(label):<{label_width}}  {bar} {value:.4g}{unit}")
    return "\n".join(lines)


def grouped_bar_chart(
    groups: Mapping[str, Mapping[str, Number]],
    title: str = "",
    width: int = 40,
    unit: str = "",
) -> str:
    """Render groups of bars (one group per workload, one bar per config)."""
    lines = [title] if title else []
    all_values = [
        value for group in groups.values() for value in group.values()
    ]
    if not all_values:
        return title
    maximum = max(max(all_values), 1e-12)
    bar_labels = {label for group in groups.values() for label in group}
    label_width = max(len(str(label)) for label in bar_labels)
    for group_name, group in groups.items():
        lines.append(f"{group_name}:")
        for label, value in group.items():
            filled = int(value / maximum * width)
            lines.append(
                f"  {str(label):<{label_width}}  {_BAR * filled} {value:.4g}{unit}"
            )
    return "\n".join(lines)


def stacked_breakdown_chart(
    rows: Mapping[str, Mapping[str, float]],
    order: Sequence[str],
    title: str = "",
    width: int = 50,
) -> str:
    """Render 100%-stacked bars (the Figure 7 presentation).

    ``rows`` maps a workload to {category: fraction}; fractions should sum
    to ~1.  Each category gets a distinct fill glyph.
    """
    glyphs = ["█", "▓", "▒", "░", "▞", "▚"]
    lines = [title] if title else []
    label_width = max((len(str(label)) for label in rows), default=0)
    legend = "  ".join(
        f"{glyphs[index % len(glyphs)]}={category}"
        for index, category in enumerate(order)
    )
    lines.append(legend)
    for label, fractions in rows.items():
        bar = ""
        for index, category in enumerate(order):
            segment = int(round(fractions.get(category, 0.0) * width))
            bar += glyphs[index % len(glyphs)] * segment
        lines.append(f"{str(label):<{label_width}}  {bar[:width]}")
    return "\n".join(lines)


def to_csv(
    rows: List[Mapping[str, object]],
    field_order: Optional[Sequence[str]] = None,
) -> str:
    """Serialise a list of dict rows to CSV text."""
    if not rows:
        return ""
    fields = list(field_order) if field_order else list(rows[0].keys())
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def ipc_ratio_csv(result) -> str:
    """CSV for an :class:`~repro.analysis.figures.IpcRatioResult`; an
    abandoned workload's ratio reads ``n/a``."""
    rows = [
        {
            "workload": name,
            "ratio": cell(ratio),
            "baseline": result.baseline_name,
            "alternative": result.alternative_name,
        }
        for name, ratio in result.ratios.items()
    ]
    return to_csv(rows, ["workload", "ratio", "baseline", "alternative"])


def breakdown_csv(result) -> str:
    """CSV for a :class:`~repro.analysis.figures.Fig07Result`; each
    abandoned workload gets a row of ``n/a``."""
    columns = ["core", "branch", "ibs_tlb", "sx"]
    rows = [
        {"workload": item.trace_name, **{name: cell(getattr(item, name)) for name in columns}}
        for item in result.breakdowns
    ] + [{"workload": name, **dict.fromkeys(columns, cell(None))} for name in result.missing]
    return to_csv(rows, ["workload"] + columns)
