"""Tiny dependency-free SVG charts (one line series or grouped bars).

Output is deterministic for identical input: coordinates are formatted to
fixed precision and no timestamps or ids are embedded, so files can be
compared byte for byte in tests.
"""

import math

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 36, 48


def _fmt(v):
    return f"{v:.2f}"


def _ticks(lo, hi, count=5):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def _axes(x_lo, x_hi, y_lo, y_hi, title, xlabel, ylabel, x_ticks=True):
    px = lambda x: _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)
    py = lambda y: _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)
    parts = [
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 10}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{xlabel}</text>',
        f'<text x="14" y="{(_MT + _H - _MB) // 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 14 {(_MT + _H - _MB) // 2})">{ylabel}</text>',
    ]
    if x_ticks:
        for t in _ticks(x_lo, x_hi):
            parts.append(
                f'<line x1="{_fmt(px(t))}" y1="{_H - _MB}" x2="{_fmt(px(t))}" '
                f'y2="{_H - _MB + 4}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{_fmt(px(t))}" y="{_H - _MB + 18}" text-anchor="middle" '
                f'font-size="10" font-family="sans-serif">{t:.4g}</text>'
            )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_ML - 4}" y1="{_fmt(py(t))}" x2="{_ML}" '
            f'y2="{_fmt(py(t))}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{_fmt(py(t) + 3)}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{t:.4g}</text>'
        )
    return parts, px, py


def _document(parts):
    """The <svg> element around the chart's parts, one per line."""
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n{body}\n</svg>\n'
    )


def _pad(lo, hi):
    if hi <= lo:
        span = abs(lo) if lo else 1.0
        return lo - 0.05 * span - 1e-9, hi + 0.05 * span + 1e-9
    span = hi - lo
    return lo - 0.05 * span, hi + 0.05 * span


def line_chart(points, title="", xlabel="", ylabel="") -> str:
    """Single polyline through (x, y) points; non-finite y values are dropped."""
    pts = [(float(x), float(y)) for x, y in points if math.isfinite(float(y))]
    if not pts:
        raise ValueError("line_chart needs at least one finite point")
    x_lo, x_hi = _pad(min(p[0] for p in pts), max(p[0] for p in pts))
    y_lo, y_hi = _pad(min(p[1] for p in pts), max(p[1] for p in pts))
    parts, px, py = _axes(x_lo, x_hi, y_lo, y_hi, title, xlabel, ylabel)
    path = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
    parts.append(
        f'<polyline points="{path}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
    )
    return _document(parts)


_BAR_COLORS = ("#1f6fb2", "#d1651f", "#3a923a", "#b03a3a")


def bar_chart(labels, series, title="", xlabel="", ylabel="") -> str:
    """Grouped bars: one group per label, one bar per (name, values) series."""
    series = [(str(name), [float(v) for v in vals]) for name, vals in series]
    if not series or not labels:
        raise ValueError("bar_chart needs labels and at least one series")
    for _, vals in series:
        if len(vals) != len(labels):
            raise ValueError("every series must have one value per label")
    flat = [v for _, vals in series for v in vals]
    y_lo = min(0.0, min(flat))
    _, y_hi = _pad(y_lo, max(flat))
    parts, px, py = _axes(
        0.0, float(len(labels)), y_lo, y_hi, title, xlabel, ylabel, x_ticks=False
    )
    group_w = (_W - _ML - _MR) / len(labels)
    bar_w = group_w * 0.8 / len(series)
    y0 = py(0.0)
    for si, (name, vals) in enumerate(series):
        color = _BAR_COLORS[si % len(_BAR_COLORS)]
        for gi, v in enumerate(vals):
            x = _ML + gi * group_w + group_w * 0.1 + si * bar_w
            yt = py(v)
            top, height = (yt, y0 - yt) if v >= 0 else (y0, yt - y0)
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(top)}" width="{_fmt(bar_w)}" '
                f'height="{_fmt(height)}" fill="{color}"/>'
            )
        lx = _W - _MR - 110
        ly = _MT + 14 * si
        parts.append(f'<rect x="{lx}" y="{ly}" width="10" height="10" fill="{color}"/>')
        parts.append(
            f'<text x="{lx + 14}" y="{ly + 9}" font-size="10" '
            f'font-family="sans-serif">{name}</text>'
        )
    for gi, lab in enumerate(labels):
        cx = _ML + (gi + 0.5) * group_w
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{lab}</text>'
        )
    return _document(parts)
