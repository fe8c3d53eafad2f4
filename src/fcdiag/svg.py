"""Deterministic SVG rendering of diagrams as arc pictures.

Dots sit on two horizontal rows; same-row arrows bow into the rectangle,
cross-row arrows run as gentle S-curves.  Output depends only on the
diagram, byte for byte.
"""

from __future__ import annotations

from .diagram import Diagram

_UNIT = 36.0  # column spacing
_MARGIN = 28.0
_DOT_RADIUS = 3.0


def diagram_to_svg(diagram: Diagram) -> str:
    k = diagram.strings
    row_gap = 2.0 * _UNIT
    width = 2 * _MARGIN + (k - 1) * _UNIT
    height = 2 * _MARGIN + row_gap

    def x_of(index: int) -> float:  # 1-based column
        return _MARGIN + (index - 1) * _UNIT

    y_top, y_bot = _MARGIN, _MARGIN + row_gap

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<g fill="none" stroke="black" stroke-width="1.5">',
    ]
    for x, y in diagram.arrows():
        if y < k:  # top arc
            xa, xb = x_of(x + 1), x_of(y + 1)
            depth = min(0.45 * row_gap, 0.4 * (xb - xa))
            parts.append(
                f'<path d="M {xa:.1f} {y_top:.1f} C {xa:.1f} {y_top + depth:.1f} '
                f'{xb:.1f} {y_top + depth:.1f} {xb:.1f} {y_top:.1f}"/>'
            )
        elif x >= k:  # bottom arc
            xa, xb = x_of(x - k + 1), x_of(y - k + 1)
            depth = min(0.45 * row_gap, 0.4 * (xb - xa))
            parts.append(
                f'<path d="M {xa:.1f} {y_bot:.1f} C {xa:.1f} {y_bot - depth:.1f} '
                f'{xb:.1f} {y_bot - depth:.1f} {xb:.1f} {y_bot:.1f}"/>'
            )
        else:  # cross arrow
            xa, xb = x_of(x + 1), x_of(y - k + 1)
            parts.append(
                f'<path d="M {xa:.1f} {y_top:.1f} C {xa:.1f} {y_top + 0.5 * row_gap:.1f} '
                f'{xb:.1f} {y_bot - 0.5 * row_gap:.1f} {xb:.1f} {y_bot:.1f}"/>'
            )
    parts.append("</g>")

    parts.append('<g fill="black">')
    for i in range(1, k + 1):
        parts.append(f'<circle cx="{x_of(i):.1f}" cy="{y_top:.1f}" r="{_DOT_RADIUS:.1f}"/>')
        parts.append(f'<circle cx="{x_of(i):.1f}" cy="{y_bot:.1f}" r="{_DOT_RADIUS:.1f}"/>')
    parts.append("</g>")

    parts.append('<g fill="gray" font-size="10" text-anchor="middle">')
    for i in range(1, k + 1):
        parts.append(f'<text x="{x_of(i):.1f}" y="{y_top - 8:.1f}">{i}</text>')
        parts.append(f'<text x="{x_of(i):.1f}" y="{y_bot + 16:.1f}">{i}′</text>')
    parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
