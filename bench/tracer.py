"""Outside-in span tracing of the pilotopt layers.

``python3 bench/tracer.py SUMMARY.json SPANS.json -- <pilotopt arguments>``
runs the command line in this process with every public function of the
layer modules wrapped, then writes the recorded spans to ``SPANS.json``
and the per-function figures to ``SUMMARY.json``. The program itself is
not edited: the wrappers are installed from outside, in every namespace
that holds a reference to a wrapped function.

A span is ``(id, parent id, name, start, end)``. Spans stay in memory
until the command finishes. A span's self time is its duration minus
the part of its interval covered by its child spans.
"""

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("numerics", "model", "conventional", "optimizer", "harness", "report", "cli")

# rayleigh_update returns (column, degenerate); the flag is counted here
DEGENERATE_COUNTER = "optimizer.rayleigh_update.degenerate"


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counters = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped so that each call records a span named ``name``."""
        index = len(self.names)
        self.names.append(name)
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, index, start, end))
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def _count_degenerate(tracer, result):
    tracer.counters[DEGENERATE_COUNTER] += int(bool(result[1]))


_OBSERVERS = {"optimizer.rayleigh_update": _count_degenerate}


def install(tracer):
    """Wrap the public functions of the layer modules.

    The modules bind each other's functions with ``from .x import y`` and
    keep some in dicts (``harness._ESTIMATORS``), so every module global
    and every module-level dict value of the package that is one of the
    originals is replaced. ``RandomStream.generator`` is a method of a
    frozen dataclass and is replaced on the class.
    """
    wrappers = {}
    for short in LAYERS:
        module = importlib.import_module(f"pilotopt.{short}")
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                name = f"{short}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, _OBSERVERS.get(name))

    stream_cls = importlib.import_module("pilotopt.numerics").RandomStream
    stream_cls.generator = tracer.wrap("numerics.RandomStream.generator", stream_cls.generator)

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "pilotopt" and not mod_name.startswith("pilotopt."):
            continue
        namespace = vars(module)
        for attr, obj in list(namespace.items()):
            if id(obj) in wrappers:
                namespace[attr] = wrappers[id(obj)]
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]


def self_times(spans):
    """Map span id to its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for span_id, _, _, start, end in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (end - start) - covered
    return out


def aggregate(names, spans):
    """Per-name ``calls``, inclusive ``total_s``, ``self_s`` and ``us_per_call``.

    Every name in ``names`` is present, with zeros when it was never called.
    """
    own = self_times(spans)
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for span_id, _, index, start, end in spans:
        entry = stats[names[index]]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own[span_id]
    for entry in stats.values():
        entry["us_per_call"] = 1e6 * entry["total_s"] / entry["calls"] if entry["calls"] else 0.0
    return stats


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SUMMARY.json SPANS.json -- <pilotopt arguments>", file=sys.stderr)
        return 2
    summary_path, spans_path, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    install(tracer)
    from pilotopt import cli

    import probe

    code = cli.main(cli_args)
    tracer.dump(spans_path)
    # aggregated here so that the benchmark process never holds the spans:
    # a child inherits its parent's peak RSS, which would spoil peak_rss_mb
    summary = {
        "exit_code": code,
        "blas_runtime": probe.openblas_runtime(),
        "counters": dict(tracer.counters),
        "functions": aggregate(tracer.names, tracer.spans),
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
