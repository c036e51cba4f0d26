"""The SVG line chart of sweep rows and convergence traces.

:func:`svg` returns the chart as text; :func:`pilotopt.report.emit`
writes it, and imports this module only when a chart is asked for, so a
CSV or JSON run never compiles it.
"""

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 80, 200, 40, 60
_LEGEND_ROW = 18


def _stroke(i):
    """Stroke attributes of series ``i``: a palette colour, dashed past the palette.

    Each pass through the palette lengthens the dashes, so no two series
    share a style.
    """
    style = f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="1.5"'
    dash = 3 * (i // len(_PALETTE))
    return style + (f' stroke-dasharray="{dash} 3"' if dash else "")


def _escape(text):
    """Escape ``&``, ``<`` and ``>`` for SVG text content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks_linear(lo, hi, count=6):
    return [float(v) for v in np.linspace(lo, hi, count)]


def svg(series, x_label="", y_label="", title=""):
    """Hand-rolled single-panel line chart: one ``<polyline>`` per series.

    ``series`` is a list of ``(label, xs, ys)``. The y axis is log
    scaled when all values are positive (the usual case for MSE curves),
    otherwise it falls back to linear. The legend is one column right of
    the plot; the canvas grows taller when the legend would outgrow it.
    A series of one point, which its polyline cannot draw, gets a small
    ``<circle>`` marker in its series' colour instead. Returns the SVG
    text, newline-terminated.
    """
    all_x = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in series]) if series else np.array([0.0, 1.0])
    all_y = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in series]) if series else np.array([0.1, 1.0])
    log_y = not np.any(all_y <= 0)
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if log_y:
        y_lo, y_hi = np.log10(all_y.min()), np.log10(all_y.max())
    else:
        y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    height = max(_HEIGHT, _TOP + _LEGEND_ROW * len(series) + _BOTTOM)
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = height - _TOP - _BOTTOM

    def sx(x):
        return _LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        v = np.log10(y) if log_y else y
        return _TOP + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_LEFT + plot_w / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="15">{_escape(title)}</text>'
        )
    # frame
    parts.append(
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    # x ticks
    for xv in _ticks_linear(x_lo, x_hi):
        px = sx(xv)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_TOP + plot_h}" x2="{px:.1f}" '
            f'y2="{_TOP + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-size="11">{xv:g}</text>'
        )
    # y ticks
    if log_y:
        decades = range(int(np.floor(y_lo)), int(np.ceil(y_hi)) + 1)
        y_ticks = [(10.0**d, f"1e{d}") for d in decades]
    else:
        y_ticks = [(v, f"{v:g}") for v in _ticks_linear(y_lo, y_hi)]
    for yv, label in y_ticks:
        ref = np.log10(yv) if log_y else yv
        if ref < y_lo - 1e-12 or ref > y_hi + 1e-12:
            continue
        py = sy(yv)
        parts.append(
            f'<line x1="{_LEFT - 5}" y1="{py:.1f}" x2="{_LEFT}" y2="{py:.1f}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 9}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-size="11">{label}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{_LEFT + plot_w / 2:.1f}" y="{height - 16}" '
            f'text-anchor="middle" font-size="13">{_escape(x_label)}</text>'
        )
    if y_label:
        cy = _TOP + plot_h / 2
        parts.append(
            f'<text x="22" y="{cy:.1f}" text-anchor="middle" font-size="13" '
            f'transform="rotate(-90 22 {cy:.1f})">{_escape(y_label)}</text>'
        )
    # series
    for i, (label, xs, ys) in enumerate(series):
        stroke = _stroke(i)
        xy = [(f"{sx(float(x)):.2f}", f"{sy(float(y)):.2f}") for x, y in zip(xs, ys)]
        parts.append(f'<polyline points="{" ".join(f"{px},{py}" for px, py in xy)}" '
                     f'fill="none" {stroke}/>')
        parts += [f'<circle cx="{px}" cy="{py}" r="2.5" fill="{_PALETTE[i % len(_PALETTE)]}"/>'
                  for px, py in xy if len(xy) == 1]
        ly = _TOP + 16 + _LEGEND_ROW * i
        lx = _LEFT + plot_w + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" {stroke}/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def sweep_series(rows):
    """The x axis label and one series per algorithm and per value of the other axis.

    The x axis is the pilot length when the rows hold more than one,
    otherwise the SNR. A label names its SNR only when the rows hold more
    than one.
    """
    by_n = len({r.n for r in rows}) > 1
    x_field, other = ("n", "snr_db") if by_n else ("snr_db", "n")
    several = len({getattr(r, other) for r in rows}) > 1
    series = []
    for key in dict.fromkeys((r.algorithm, getattr(r, other)) for r in rows):
        sub = [r for r in rows if (r.algorithm, getattr(r, other)) == key]
        xs = [getattr(r, x_field) for r in sub]
        ys = [r.wsmse_analytic for r in sub]
        series.append((f"{key[0]}, {key[1]:g} dB" if several else key[0], xs, ys))
    return ("pilot length" if by_n else "SNR (dB)"), series


def trace_series(results):
    """One series per initialization: its objective against the update index."""
    series = []
    for res in results:
        ys = [res.trace.initial_objective] + [
            float(v) for v in res.trace.objective_per_update
        ]
        series.append((res.init, list(range(len(ys))), ys))
    return series
