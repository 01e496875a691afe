"""Self-contained SVG plot of the two reaction curves on the strategy square.

No plotting dependency: the figure is assembled from polyline segments.
Both axes run 0..180 degrees (alpha horizontal, beta vertical).  A curve
is drawn solid between its flags, which mark where the reply crosses the
0/180 edge; each crossing is drawn as a thin line between the two samples
around it.  The curve is open at 180, so a reply that wraps exactly there,
as the unit instance's Bob reply does, has no thin line.  Equilibria are
marked with filled circles.
"""

from __future__ import annotations

from typing import Sequence

from wisealice.solver import Equilibrium, ReactionCurve

_SIZE = 560
_MARGIN = 60
_PLOT = _SIZE - 2 * _MARGIN

_STYLE = """
  .axis { stroke: #333; stroke-width: 1; fill: none; }
  .grid { stroke: #ddd; stroke-width: 0.5; }
  .alice { stroke: #1f66b0; stroke-width: 1.8; fill: none; }
  .bob { stroke: #c03a2b; stroke-width: 1.8; fill: none; }
  .alice-jump { stroke: #1f66b0; stroke-width: 0.5; fill: none; }
  .bob-jump { stroke: #c03a2b; stroke-width: 0.5; fill: none; }
  .eq { fill: #111; }
  .label { font: 13px sans-serif; fill: #333; }
  .title { font: 15px sans-serif; fill: #111; }
"""


def _sx(alpha_deg: float) -> float:
    return _MARGIN + alpha_deg / 180.0 * _PLOT


def _sy(beta_deg: float) -> float:
    return _SIZE - _MARGIN - beta_deg / 180.0 * _PLOT


def _polyline(points: Sequence[tuple[float, float]], css: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline class="{css}" points="{coords}"/>'


def _curve_paths(curve: ReactionCurve) -> list[str]:
    """Solid runs between wraps plus thin segments across each wrap.

    The jumps cut the points into runs; a run of one point draws nothing.
    """
    x, y = ((curve.response_deg, curve.input_deg) if curve.player == "alice"
            else (curve.input_deg, curve.response_deg))
    points = list(zip(_sx(x).tolist(), _sy(y).tolist()))
    css = curve.player
    paths: list[str] = []
    cuts = [0, *curve.jumps.tolist(), len(points)]
    for start, end in zip(cuts, cuts[1:]):
        if end - start >= 2:
            paths.append(_polyline(points[start:end], css))
        if end < len(points):
            paths.append(_polyline(points[end - 1:end + 1], f"{css}-jump"))
    return paths


def render_curves_svg(
    alice: ReactionCurve,
    bob: ReactionCurve,
    equilibria: Sequence[Equilibrium],
    title: str,
) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f"<style>{_STYLE}</style>",
        f'<rect x="0" y="0" width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<text class="title" x="{_MARGIN}" y="{_MARGIN - 30}">{title}</text>',
    ]
    for tick in range(0, 181, 45):
        x, y = _sx(tick), _sy(tick)
        parts.append(
            f'<line class="grid" x1="{x:.1f}" y1="{_sy(0):.1f}" x2="{x:.1f}" y2="{_sy(180):.1f}"/>'
        )
        parts.append(
            f'<line class="grid" x1="{_sx(0):.1f}" y1="{y:.1f}" x2="{_sx(180):.1f}" y2="{y:.1f}"/>'
        )
        parts.append(
            f'<text class="label" x="{x - 10:.1f}" y="{_sy(0) + 18:.1f}">{tick}</text>'
        )
        parts.append(
            f'<text class="label" x="{_MARGIN - 32:.1f}" y="{y + 4:.1f}">{tick}</text>'
        )
    parts.append(
        f'<rect class="axis" x="{_sx(0):.1f}" y="{_sy(180):.1f}" '
        f'width="{_PLOT}" height="{_PLOT}"/>'
    )
    parts.append(
        f'<text class="label" x="{_sx(90) - 40:.1f}" y="{_SIZE - 12}">'
        "alpha (degrees)</text>"
    )
    parts.append(
        f'<text class="label" transform="rotate(-90 16 {_sy(90):.1f})" '
        f'x="16" y="{_sy(90):.1f}">beta (degrees)</text>'
    )
    legend_y = _MARGIN - 12
    parts.append(
        f'<line class="alice" x1="{_sx(0):.1f}" y1="{legend_y}" '
        f'x2="{_sx(0) + 30:.1f}" y2="{legend_y}"/>'
    )
    parts.append(f'<text class="label" x="{_sx(0) + 36:.1f}" y="{legend_y + 4}">Alice</text>')
    parts.append(
        f'<line class="bob" x1="{_sx(0) + 100:.1f}" y1="{legend_y}" '
        f'x2="{_sx(0) + 130:.1f}" y2="{legend_y}"/>'
    )
    parts.append(f'<text class="label" x="{_sx(0) + 136:.1f}" y="{legend_y + 4}">Bob</text>')

    parts.extend(_curve_paths(alice))
    parts.extend(_curve_paths(bob))
    for eq in equilibria:
        parts.append(
            f'<circle class="eq" cx="{_sx(eq.alpha.degrees):.2f}" '
            f'cy="{_sy(eq.beta.degrees):.2f}" r="4"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
