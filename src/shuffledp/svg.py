"""A minimal SVG line chart (no plotting dependency): `curve --svg` renders the curve with it."""

import numpy as np

# the chart's fixed axis titles and size in pixels
_SVG_XLABEL, _SVG_YLABEL = "epsilon", "delta"
_SVG_WIDTH, _SVG_HEIGHT = 640, 440


def svg_line_chart(x, y, log_x: bool = False, log_y: bool = False) -> str:
    """Render one polyline with axes and tick labels as a standalone SVG.

    Log axes silently drop nonpositive points (a privacy curve hits exactly
    zero); an empty or single-point series still renders valid axes.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = np.isfinite(x) & np.isfinite(y)
    if log_x:
        keep &= x > 0.0
    if log_y:
        keep &= y > 0.0
    x, y = x[keep], y[keep]
    tx = np.log10(x) if log_x else x
    ty = np.log10(y) if log_y else y
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0
    pw, ph = _SVG_WIDTH - left - right, _SVG_HEIGHT - top - bottom

    def span(t):
        if t.size == 0:
            return 0.0, 1.0
        lo, hi = float(t.min()), float(t.max())
        if hi == lo:
            lo, hi = lo - 0.5, hi + 0.5
        return lo, hi

    x0, x1 = span(tx)
    y0, y1 = span(ty)
    px = left + (tx - x0) / (x1 - x0) * pw
    py = top + (y1 - ty) / (y1 - y0) * ph
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{left}" y1="{_SVG_HEIGHT - bottom}" x2="{_SVG_WIDTH - right}" '
        f'y2="{_SVG_HEIGHT - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{_SVG_HEIGHT - bottom}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gx = left + frac * pw
        gy = top + (1.0 - frac) * ph
        vx = x0 + frac * (x1 - x0)
        vy = y0 + frac * (y1 - y0)
        lx = 10.0**vx if log_x else vx
        ly = 10.0**vy if log_y else vy
        parts.append(
            f'<line x1="{gx:.2f}" y1="{_SVG_HEIGHT - bottom}" x2="{gx:.2f}" '
            f'y2="{_SVG_HEIGHT - bottom + 5}" stroke="black"/>'
            f'<text x="{gx:.2f}" y="{_SVG_HEIGHT - bottom + 18}" font-size="11" '
            f'text-anchor="middle">{lx:.3g}</text>'
        )
        parts.append(
            f'<line x1="{left - 5}" y1="{gy:.2f}" x2="{left}" y2="{gy:.2f}" stroke="black"/>'
            f'<text x="{left - 8}" y="{gy + 4:.2f}" font-size="11" '
            f'text-anchor="end">{ly:.3g}</text>'
        )
    parts.append(
        f'<text x="{left + pw / 2:.2f}" y="{_SVG_HEIGHT - 10}" font-size="13" '
        f'text-anchor="middle">{_SVG_XLABEL}{" (log)" if log_x else ""}</text>'
    )
    parts.append(
        f'<text x="16" y="{top + ph / 2:.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + ph / 2:.2f})">'
        f'{_SVG_YLABEL}{" (log)" if log_y else ""}</text>'
    )
    if x.size >= 2:
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="1.5"/>')
    elif x.size == 1:
        parts.append(f'<circle cx="{px[0]:.2f}" cy="{py[0]:.2f}" r="3" fill="#1f5fa8"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
