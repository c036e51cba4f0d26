"""Result emitters: CSV, JSON, and single-panel SVG line charts."""

import csv
import json
from dataclasses import asdict, fields

import numpy as np

from .errors import ConfigurationError
from .harness import ConvergenceResult, SweepRow
from .model import _open_out

SWEEP_HEADER = [f.name for f in fields(SweepRow)]

TRACE_HEADER = ["init", "update_index", "objective"]

FORMATS = ("csv", "json", "svg")


def _fmt(value):
    # repr of a float is the shortest digit string that round-trips exactly
    return repr(float(value))


def write_sweep_csv(rows, path):
    """Write sweep rows with the fixed header; deterministic bytes."""
    with _open_out(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_HEADER)
        for r in rows:
            writer.writerow(
                [
                    _fmt(r.snr_db),
                    str(int(r.n)),
                    r.algorithm,
                    _fmt(r.wsmse_analytic),
                    _fmt(r.wsmse_empirical),
                    _fmt(r.stderr),
                    str(int(r.trials)),
                    "" if r.sweeps is None else str(int(r.sweeps)),
                ]
            )


def read_sweep_csv(path):
    """Parse a sweep CSV back into :class:`SweepRow` objects."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != SWEEP_HEADER:
            raise ConfigurationError(f"{path}: unexpected sweep CSV header {header}")
        rows = []
        for rec in reader:
            rows.append(
                SweepRow(
                    snr_db=float(rec[0]),
                    n=int(rec[1]),
                    algorithm=rec[2],
                    wsmse_analytic=float(rec[3]),
                    wsmse_empirical=float(rec[4]),
                    stderr=float(rec[5]),
                    trials=int(rec[6]),
                    sweeps=None if rec[7] == "" else int(rec[7]),
                )
            )
    return rows


def write_trace_csv(results, path):
    """Write convergence traces; update index 0 is the starting objective."""
    with _open_out(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for res in results:
            writer.writerow([res.init, "0", _fmt(res.trace.initial_objective)])
            for i, obj in enumerate(res.trace.objective_per_update, start=1):
                writer.writerow([res.init, str(i), _fmt(obj)])


def read_trace_csv(path):
    """Parse a convergence CSV into ``{init: [objective, ...]}`` keyed by init."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != TRACE_HEADER:
            raise ConfigurationError(f"{path}: unexpected trace CSV header {header}")
        out = {}
        for rec in reader:
            out.setdefault(rec[0], []).append(float(rec[2]))
    return out


def _trace_dict(res):
    return {
        "init": res.init,
        "snr_db": res.snr_db,
        "initial_objective": res.trace.initial_objective,
        "objective_per_update": [float(v) for v in res.trace.objective_per_update],
        "sweeps_completed": res.trace.sweeps_completed,
        "converged": res.trace.converged,
        "updates_to_converge": res.updates_to_converge,
        "final_objective": res.final_objective,
    }


def write_json(items, path):
    """Write sweep rows or convergence results as a JSON array."""
    payload = [
        asdict(item) if isinstance(item, SweepRow) else _trace_dict(item)
        for item in items
    ]
    with _open_out(path) as fh:
        json.dump(payload, fh, indent=2, allow_nan=True)
        fh.write("\n")


# --- SVG ------------------------------------------------------------------

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
    if lo == hi:
        return [lo]
    raw = np.linspace(lo, hi, count)
    return [float(v) for v in raw]


def write_svg(path, series, x_label="", y_label="", title=""):
    """Hand-rolled single-panel line chart: one ``<polyline>`` per series.

    ``series`` is a list of ``(label, xs, ys)``. The y axis is log
    scaled when all values are positive (the usual case for MSE curves),
    otherwise it falls back to linear. The legend is one column right of
    the plot; the canvas grows taller when the legend would outgrow it.
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
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" {stroke}/>')
        ly = _TOP + 16 + _LEGEND_ROW * i
        lx = _LEFT + plot_w + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" {stroke}/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    with _open_out(path) as fh:
        fh.write("\n".join(parts) + "\n")


def _sweep_series(rows, x_field):
    """One series per algorithm and per value of the axis ``x_field`` is not.

    The label names that other value only when the rows hold more than one.
    """
    other = "n" if x_field == "snr_db" else "snr_db"
    unit = "{:g} dB" if other == "snr_db" else "N = {}"
    several = len({getattr(r, other) for r in rows}) > 1
    series = []
    for key in dict.fromkeys((r.algorithm, getattr(r, other)) for r in rows):
        sub = [r for r in rows if (r.algorithm, getattr(r, other)) == key]
        xs = [getattr(r, x_field) for r in sub]
        ys = [r.wsmse_analytic for r in sub]
        label = f"{key[0]}, {unit.format(key[1])}" if several else key[0]
        series.append((label, xs, ys))
    return series


def _trace_series(results):
    series = []
    for res in results:
        ys = [res.trace.initial_objective] + [
            float(v) for v in res.trace.objective_per_update
        ]
        series.append((res.init, list(range(len(ys))), ys))
    return series


def emit(items, fmt, path, x_field="snr_db"):
    """Write sweep rows or convergence results in the requested format.

    CSV uses the fixed headers above; JSON mirrors the row fields; SVG
    draws one polyline per algorithm and value of the other sweep axis
    (sweeps, against ``x_field``) or per initialization (traces, against
    the update index).
    """
    if fmt not in FORMATS:
        raise ConfigurationError(f"format must be one of {FORMATS}, got {fmt!r}")
    items = list(items)
    is_trace = bool(items) and isinstance(items[0], ConvergenceResult)
    if fmt == "csv":
        if is_trace:
            write_trace_csv(items, path)
        else:
            write_sweep_csv(items, path)
    elif fmt == "json":
        write_json(items, path)
    else:
        if is_trace:
            write_svg(
                path,
                _trace_series(items),
                x_label="update index",
                y_label="design objective",
                title="optimizer convergence",
            )
        else:
            label = "SNR (dB)" if x_field == "snr_db" else "pilot length"
            write_svg(
                path,
                _sweep_series(items, x_field),
                x_label=label,
                y_label="normalized WSMSE",
                title="normalized WSMSE",
            )
    return path
