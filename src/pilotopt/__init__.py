"""Pilot optimization and MMSE channel estimation for multiuser massive MIMO.

The package provides three layers:

* :mod:`pilotopt.numerics` and :mod:`pilotopt.model` — small complex
  linear algebra kernels, reproducible Gaussian streams, and the uplink
  training signal model,
* :mod:`pilotopt.conventional` and :mod:`pilotopt.optimizer` — the
  reused-orthogonal-pilot MMSE baseline and the WSMSE-optimal pilot
  design with its matched estimator,
* :mod:`pilotopt.harness`, :mod:`pilotopt.report`, :mod:`pilotopt.cli`
  — Monte Carlo experiment drivers, CSV/JSON/SVG emitters, and the
  command line front end.
"""

from .conventional import (
    conventional_estimate,
    conventional_estimator,
    design_reuse_pilots,
)
from .errors import (
    ConfigurationError,
    ContractViolation,
    NumericalError,
    SingularMatrixError,
)
from .harness import (
    ExperimentConfig,
    ConvergenceResult,
    SweepRow,
    convergence_trace,
    design_pilots,
    run_monte_carlo,
    sweep_snr,
    trial_errors,
)
from .model import (
    SystemConfig,
    WsmseReport,
    generate_channel,
    load_gains,
    received_pilot_signal,
    reference_gains,
    save_gains,
    sigma2_from_snr,
)
from .numerics import (
    RandomStream,
    draw_cn,
    hermitian_eig,
    inv_sqrt_psd,
    solve_hermitian,
)
from .optimizer import (
    OptimizerTrace,
    analytic_wsmse,
    combiner,
    gram_matrix,
    init_pilots,
    leave_one_out,
    load_pilots,
    objective,
    optimize_pilots,
    proposed_estimate,
    proposed_estimator,
    rayleigh_update,
    receiver_scalar,
    save_pilots,
)

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
    "conventional_estimate",
    "conventional_estimator",
    "convergence_trace",
    "design_pilots",
    "design_reuse_pilots",
    "draw_cn",
    "generate_channel",
    "gram_matrix",
    "hermitian_eig",
    "init_pilots",
    "inv_sqrt_psd",
    "leave_one_out",
    "load_gains",
    "load_pilots",
    "objective",
    "optimize_pilots",
    "proposed_estimate",
    "proposed_estimator",
    "rayleigh_update",
    "received_pilot_signal",
    "receiver_scalar",
    "reference_gains",
    "run_monte_carlo",
    "save_gains",
    "save_pilots",
    "sigma2_from_snr",
    "solve_hermitian",
    "sweep_snr",
    "trial_errors",
]
