"""Pilot optimization and MMSE channel estimation for multiuser massive MIMO.

The package provides three layers:

* :mod:`pilotopt.numerics` and :mod:`pilotopt.model` — small complex
  linear algebra kernels, reproducible Gaussian streams, the uplink
  training signal model and its input files (gains and powers),
* :mod:`pilotopt.conventional` and :mod:`pilotopt.optimizer` — the
  reused-orthogonal-pilot MMSE baseline and the WSMSE-optimal pilot
  design (constructed in closed form, or by the paper's cyclic
  updates) with its matched estimator,
* :mod:`pilotopt.harness`, :mod:`pilotopt.report`, :mod:`pilotopt.plot`,
  :mod:`pilotopt.cli` — Monte Carlo experiment drivers, every output file
  (CSV/JSON/SVG results and the pilot text file), the SVG chart that
  ``report`` writes, and the command line front end.

Importing the package pins numpy's OpenBLAS to one thread, because its
matrices are too small for a second thread to do anything but spin. The
pin applies only when numpy is not loaded yet and none of
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is
set; setting any of them chooses the count instead.

numpy and the modules import with automatic collection off, so no
collection walks the roughly 23 000 objects they leave (it took 1.8-1.9
ms); a caller's disabled collector and thresholds are left as found.
Every tracked object then moves to the oldest generation in O(1) by
``gc.freeze(); gc.unfreeze()``, unless the caller has frozen objects
already, which the unfreeze would thaw: then the import leaves the
generations as they are, and the first young collection walks it. The
cyclic garbage the skipped collections freed, 346 objects, stays until a
full collection: about 0.25 MB of peak RSS (README, Process cost).
"""

import gc
import os
import sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_collecting = gc.isenabled()
gc.disable()
try:
    if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
        # OpenBLAS reads the variable once, as numpy loads it, so it is
        # removed again and child processes inherit the caller's environment.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy  # noqa: F401
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]

    from .conventional import conventional_estimator, design_reuse_pilots
    from .errors import ConfigurationError, ContractViolation, NumericalError, SingularMatrixError
    from .harness import (
        ExperimentConfig, ConvergenceResult, SweepRow, convergence_trace, design_pilots,
        run_monte_carlo, sweep_snr,
    )
    from .model import SystemConfig, WsmseReport, load_gains, reference_gains, sigma2_from_snr
    from .numerics import RandomStream, draw_cn, hermitian_eig, solve_hermitian
    from .optimizer import (
        OptimizerTrace, analytic_wsmse, combiner, construct_pilots, gram_matrix, init_pilots,
        leave_one_out, objective, optimality_bound, optimize_pilots, proposed_estimator,
        rayleigh_update, receiver_scalar,
    )
    from .report import save_pilots
finally:
    # before collection resumes: generation 0 counts the whole import, so
    # the first allocation after gc.enable() would walk it
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    if _collecting:
        gc.enable()

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ContractViolation",
    "ConvergenceResult",
    "ExperimentConfig",
    "NumericalError",
    "OptimizerTrace",
    "RandomStream",
    "SingularMatrixError",
    "SweepRow",
    "SystemConfig",
    "WsmseReport",
    "analytic_wsmse",
    "combiner",
    "construct_pilots",
    "conventional_estimator",
    "convergence_trace",
    "design_pilots",
    "design_reuse_pilots",
    "draw_cn",
    "gram_matrix",
    "hermitian_eig",
    "init_pilots",
    "leave_one_out",
    "load_gains",
    "objective",
    "optimality_bound",
    "optimize_pilots",
    "proposed_estimator",
    "rayleigh_update",
    "receiver_scalar",
    "reference_gains",
    "run_monte_carlo",
    "save_pilots",
    "sigma2_from_snr",
    "solve_hermitian",
    "sweep_snr",
]
