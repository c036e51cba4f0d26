"""Every output file: CSV/JSON/SVG results, the pilot text file and the estimate report.

The SVG chart itself is drawn by :mod:`pilotopt.plot`, and ``json`` is
imported by :func:`write_json`: each loads only in a run that writes
that format.
"""

import sys
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .harness import ConvergenceResult

# The type of each SweepRow field's CSV cell, in header order. A field
# whose value is None (``sweeps``: no optimizer ran) writes an empty cell.
_CELL_TYPES = {"snr_db": float, "n": int, "algorithm": str, "wsmse_analytic": float,
               "wsmse_empirical": float, "stderr": float, "trials": int, "sweeps": int}

SWEEP_HEADER = list(_CELL_TYPES)

TRACE_HEADER = ["init", "update_index", "objective"]

FORMATS = ("csv", "json", "svg")


@contextmanager
def _open_out(path):
    """Text stream for writing ``path``, or the open standard output for ``"-"``.

    Standard output is written where it already points, so a shell
    redirection that appends (``>>``) keeps what the file held.
    """
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _fmt(value):
    # repr of a float is the shortest digit string that round-trips exactly
    return repr(float(value))


def _cell(kind, value):
    if value is None:
        return ""
    return _fmt(value) if kind is float else str(kind(value))


def _csv_line(cells):
    # no cell needs quoting: each is a float's repr, an int, a fixed
    # algorithm or init name, or empty
    return ",".join(cells) + "\n"


def write_sweep_csv(rows, path):
    """Write sweep rows with the fixed header; deterministic bytes."""
    with _open_out(path) as fh:
        fh.write(_csv_line(SWEEP_HEADER))
        for r in rows:
            fh.write(_csv_line([_cell(kind, getattr(r, name))
                                for name, kind in _CELL_TYPES.items()]))


def write_trace_csv(results, path):
    """Write convergence traces; update index 0 is the starting objective."""
    with _open_out(path) as fh:
        fh.write(_csv_line(TRACE_HEADER))
        for res in results:
            fh.write(_csv_line([res.init, "0", _fmt(res.trace.initial_objective)]))
            for i, obj in enumerate(res.trace.objective_per_update, start=1):
                fh.write(_csv_line([res.init, str(i), _fmt(obj)]))


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


def write_json(payload, path):
    """Write ``payload`` as strict JSON, indented, with a final newline.

    A non-finite number raises ``ValueError`` before ``path`` is opened,
    since strict JSON has no token for it.
    """
    import json

    text = json.dumps(payload, indent=2, allow_nan=False)
    with _open_out(path) as fh:
        fh.write(text + "\n")


def save_pilots(path, x):
    """Write a pilot matrix as text: header ``N K``, then ``re im`` lines.

    Entries are listed column by column at 17 significant digits, which
    round-trips IEEE doubles exactly. A ``path`` of ``"-"`` writes to
    standard output.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2:
        raise ContractViolation("pilot matrix must be 2-D")
    with _open_out(path) as fh:
        fh.write(f"{x.shape[0]} {x.shape[1]}\n")
        for col in range(x.shape[1]):
            for row in range(x.shape[0]):
                v = x[row, col]
                fh.write(f"{v.real:.17g} {v.imag:.17g}\n")


def write_svg(path, series, x_label="", y_label="", title=""):
    """Write :func:`pilotopt.plot.svg`'s line chart of ``series`` to ``path``.

    ``series`` is a list of ``(label, xs, ys)``.
    """
    from .plot import svg

    text = svg(series, x_label, y_label, title)
    with _open_out(path) as fh:
        fh.write(text)


def emit(items, fmt, path):
    """Write sweep rows or convergence results in the requested format.

    CSV uses the fixed headers above; JSON mirrors the row fields; SVG
    draws one polyline per initialization against the update index
    (traces), or per algorithm and SNR point against the pilot length
    when the rows hold several, otherwise per algorithm against the SNR
    (sweeps).
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
        write_json([_trace_dict(i) if is_trace else asdict(i) for i in items], path)
    else:
        from .plot import sweep_series, trace_series

        if is_trace:
            write_svg(path, trace_series(items), x_label="update index",
                      y_label="design objective", title="optimizer convergence")
        else:
            x_label, series = sweep_series(items)
            write_svg(path, series, x_label=x_label, y_label="normalized WSMSE",
                      title="normalized WSMSE")
