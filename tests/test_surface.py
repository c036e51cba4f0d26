"""Pins of the package surface that the roadmap tracks.

The public names, the number of settable (command, flag) values of the
command line, and the rule that no module reaches into the harness for
a private name. A change to any of them is deliberate and updates the
pin here.
"""

import argparse
import ast
from pathlib import Path

import pilotopt
from pilotopt.cli import build_parser

PACKAGE = Path(pilotopt.__file__).resolve().parent

PUBLIC_NAMES = {
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
    "optimality_bound",
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
}


def test_public_names():
    assert len(pilotopt.__all__) == len(PUBLIC_NAMES) == 44
    assert set(pilotopt.__all__) == PUBLIC_NAMES


def test_cli_settable_values():
    # every (command, flag) pair a caller can set; -h sets nothing
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    settable = [
        (name, action.dest)
        for name, sub in commands.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    assert len(settable) == len(set(settable)) == 67


def test_no_module_imports_private_harness_names():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if (node.level, node.module) in ((1, "harness"), (0, "pilotopt.harness")):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from the harness"
