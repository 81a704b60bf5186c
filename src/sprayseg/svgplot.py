"""Minimal hand-rolled SVG line plots (no plotting dependency)."""

from __future__ import annotations

from .kvio import write_file

_COLORS = ("#1f6fb2", "#c44e52", "#55a868", "#8172b2")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def line_plot(path, xs, series: dict[str, list[float]], xlabel: str, ylabel: str,
              title: str) -> None:
    """Write an SVG with one polyline per named series over common x values."""
    xs = [float(x) for x in xs]
    if not xs or not series:
        raise ValueError("need at least one x value and one series")
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 55
    pw, ph = width - ml - mr, height - mt - mb
    ys_all = [float(v) for vals in series.values() for v in vals]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return ml + pw * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return mt + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
           f'font-family="sans-serif" font-size="15">{title}</text>']
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#444"/>')
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" y2="{mt + ph + 5}" stroke="#444"/>')
        out.append(f'<text x="{px:.1f}" y="{mt + ph + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{tx:.4g}</text>')
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        out.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="#444"/>')
        out.append(f'<text x="{ml - 8}" y="{py + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{ty:.4g}</text>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    out.append(f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>')
    for i, (name, values) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(float(v)):.2f}" for x, v in zip(xs, values))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, v in zip(xs, values):
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(float(v)):.2f}" r="3" fill="{color}"/>')
        ly = mt + 16 + 16 * i
        out.append(f'<line x1="{ml + pw - 130}" y1="{ly}" x2="{ml + pw - 105}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{ml + pw - 100}" y="{ly + 4}" font-family="sans-serif" '
                   f'font-size="12">{name}</text>')
    out.append("</svg>")
    write_file(path, "\n".join(out) + "\n")
