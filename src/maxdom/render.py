"""Static SVG rendering of the cell structure, representatives, and a pick set.

Everything is drawn in rank coordinates, where the cell partition lives and
a cell's ``data-col`` is its right edge's x (``CellKey.col``).  File
emission only; there is no interactive viewer.
"""

from __future__ import annotations

from typing import Iterable

from .cells import build_grid, cell_boxes, compress
from .model import Instance
from .ranking import drop_uncovered, rank_transform

MAX_RENDER_M = 200
MAX_DRAWN_POINTS = 2000


def render_svg(inst: Instance, chosen: Iterable[int] | None = None, *, scale: int = 14) -> str:
    """SVG with query points, grid lines, shaded non-empty cells, representative
    points, and (optionally) the union of the chosen queries' quadrants.
    A chosen id that names no query raises ``ValueError``.

    Ground points are drawn individually only when there are at most
    ``MAX_DRAWN_POINTS`` of them; the representatives are always drawn.
    """
    if inst.m > MAX_RENDER_M:
        raise ValueError(f"rendering is capped at m <= {MAX_RENDER_M}")
    unknown = sorted(set(chosen or ()) - set(inst.Q.ids))
    if unknown:
        raise ValueError(f"unknown query ids: {', '.join(map(str, unknown))}")
    rr = drop_uncovered(rank_transform(inst))
    grid = build_grid(rr)
    comp = compress(grid, rr)
    boxes = cell_boxes(grid, rr)
    by_id = {q.id: q for q in rr.Q}
    qs = [by_id[t] for t in grid.stair]
    top = 2 * rr.m + 2
    pad = scale

    def sx(x):
        return pad + x * scale

    def sy(y):
        return pad + (top - y) * scale

    width = height = 2 * pad + top * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]

    for key in sorted(boxes):
        x0, y0, x1, y1 = boxes[key]
        parts.append(
            f'<rect data-row="{key.row}" data-col="{key.col}" x="{sx(x0)}" y="{sy(y1)}" '
            f'width="{(x1 - x0) * scale}" height="{(y1 - y0) * scale}" '
            f'fill="#f6d58a" fill-opacity="0.6" stroke="none"/>'
        )

    if chosen:
        for qid in sorted(chosen):
            q = by_id[qid]
            parts.append(
                f'<rect data-chosen="{qid}" x="{sx(0)}" y="{sy(q.y)}" width="{q.x * scale}" '
                f'height="{q.y * scale}" fill="#2e8b57" fill-opacity="0.18" '
                f'stroke="#2e8b57" stroke-width="1.5"/>'
            )

    right = 0
    for q in qs:
        right = max(right, q.x)
        parts.append(
            f'<line x1="{sx(0)}" y1="{sy(q.y)}" x2="{sx(right)}" y2="{sy(q.y)}" '
            f'stroke="#999" stroke-width="0.6"/>'
        )
        parts.append(
            f'<line x1="{sx(q.x)}" y1="{sy(q.y)}" x2="{sx(q.x)}" y2="{sy(0)}" '
            f'stroke="#999" stroke-width="0.6"/>'
        )

    if len(rr.P) <= MAX_DRAWN_POINTS:
        for p in rr.P:
            parts.append(
                f'<circle cx="{sx(p.x)}" cy="{sy(p.y)}" r="2" fill="#888">'
                f"<title>w={p.w}</title></circle>"
            )

    for pt, key in zip(comp.points, comp.provenance):
        parts.append(
            f'<circle data-row="{key.row}" data-col="{key.col}" cx="{sx(pt.x)}" cy="{sy(pt.y)}" '
            f'r="3.2" fill="#c0392b"><title>cell ({key.row},{key.col}) w={pt.w}</title></circle>'
        )

    for q in qs:
        parts.append(
            f'<circle data-query="{q.id}" cx="{sx(q.x)}" cy="{sy(q.y)}" r="3.5" '
            f'fill="#1f4e8c"><title>q id={q.id}</title></circle>'
        )

    parts.append("</svg>")
    return "\n".join(parts)
