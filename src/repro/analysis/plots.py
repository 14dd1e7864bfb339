"""Plain-text rendering of figure results: stacked breakdown bars.

The paper presents its Figure 7 breakdown as 100%-stacked bars; this
helper renders the reproduction's breakdowns the same way for terminals
and logs.
"""

from __future__ import annotations

from typing import Mapping, Sequence


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
