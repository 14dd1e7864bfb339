"""Plain-text table rendering for experiment results."""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_table(headers: Sequence[str], rows: List[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    columns = [
        [str(header)] + [str(row[index]) for row in rows]
        for index, header in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    header_line = "  ".join(
        str(header).ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def percent(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * value:.{digits}f}%"


def cell(value: Optional[float], digits: Optional[int] = None) -> str:
    """A ratio to four decimals, or a percentage at ``digits``; ``n/a``
    for a point the failure policy abandoned."""
    if value is None:
        return "n/a"
    return f"{value:.4f}" if digits is None else percent(value, digits)


def partial_note(missing: Sequence[str], noun: str) -> str:
    """Footnote listing a table's abandoned entries; empty if none."""
    if not missing:
        return ""
    return (
        f"\npartial: {len(missing)} {noun}(s) skipped after "
        f"repeated failures ({', '.join(missing)})"
    )
