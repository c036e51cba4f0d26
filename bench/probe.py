"""What a pilotopt process runs on: interpreter, libraries, BLAS and its threads.

``python3 bench/probe.py`` prints one JSON object describing the
environment it was started in. The benchmark starts it with the same
environment as the command line runs it measures, so the BLAS thread
count it reports is the one those runs used. The traced runs call
:func:`openblas_runtime` from inside the measured process as well.
"""

import ctypes
import glob
import json
import os
import platform
import sys

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# numpy and scipy wheels each bundle their own OpenBLAS with prefixed symbols
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _call(lib, symbols, restype):
    for symbol in symbols:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def openblas_runtime():
    """Thread count and build string of each OpenBLAS that numpy and scipy load.

    Loading a library that the process already holds returns the same
    handle, so the counts are those of the live thread pools.
    """
    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    out = []
    for package in ("numpy", "scipy"):
        site = os.path.dirname(os.path.dirname(sys.modules[package].__file__))
        for path in sorted(glob.glob(os.path.join(site, f"{package}.libs", "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            config = _call(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
            out.append(
                {
                    "package": package,
                    "library": os.path.basename(path),
                    "config": config.decode() if config else None,
                    "threads": _call(lib, _THREAD_SYMBOLS, ctypes.c_int),
                }
            )
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build(show_config):
    deps = show_config(mode="dicts").get("Build Dependencies", {})
    return {
        key: {field: deps[key].get(field) for field in ("name", "version", "openblas configuration")}
        for key in ("blas", "lapack")
        if key in deps
    }


def environment():
    """Versions, machine and BLAS thread setup of the current process."""
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    runtime = openblas_runtime()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": {
            "numpy": _blas_build(numpy.show_config),
            "scipy": _blas_build(scipy.show_config),
        },
        "blas_runtime": runtime,
        "thread_env": {
            name: os.environ.get(name, "unset → nproc") for name in THREAD_ENV
        },
        "blas_threads": sorted({lib["threads"] for lib in runtime if lib["threads"]}),
    }


if __name__ == "__main__":
    print(json.dumps(environment()))
