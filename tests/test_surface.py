"""Pins of the package surface that the roadmap tracks.

The public names, the field names of the records a run builds and of
``ExperimentConfig``, the number of settable (command, flag) values of
the command line, the rule that no module reaches into the harness for
a private name, the rule that only ``model`` opens files to read and
only ``report`` opens files to write, the rule that the package binds
no public attribute it does not export and that every public name has
a use in a package module or a demo, and the parser token counts of the
modules a CSV sweep compiles. A change to any of them is deliberate and
updates the pin here. A guard keeps every function the benchmark's
tracer names one that it can wrap.
"""

import argparse
import ast
import importlib
import inspect
import tokenize
from dataclasses import fields
from pathlib import Path
from types import ModuleType

import pilotopt
from pilotopt.cli import build_parser

PACKAGE = Path(pilotopt.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# public names that nothing outside the tests uses: the paper's combiner
# u_k and receiver scalar c_k, which proposed_estimator folds into b
UNUSED_KEPT = {"combiner", "receiver_scalar"}

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
}


def test_public_names():
    assert len(pilotopt.__all__) == len(PUBLIC_NAMES) == 36
    assert set(pilotopt.__all__) == PUBLIC_NAMES


def test_package_attributes_are_the_public_names():
    # an import in __init__ binds its name in the package, exported or not
    names = {name for name, value in vars(pilotopt).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert names == set(pilotopt.__all__)


# the fields of the records a run builds: a field nothing reads is no
# longer built, so adding one is a deliberate change
RECORD_FIELDS = {
    "SweepRow": ["snr_db", "n", "algorithm", "wsmse_analytic", "wsmse_empirical",
                 "stderr", "trials", "sweeps"],
    "ConvergenceResult": ["init", "snr_db", "trace", "final_objective",
                          "updates_to_converge"],
    "OptimizerTrace": ["objective_per_update", "sweeps_completed", "converged",
                       "initial_objective", "gap"],
    "WsmseReport": ["wsmse", "per_user", "stderr"],
}


def test_record_fields():
    for name, expected in RECORD_FIELDS.items():
        assert [f.name for f in fields(getattr(pilotopt, name))] == expected, name


# the settable values of an experiment: the scenario every point shares, the
# two sweep axes and the run options. Each is read by a driver, so adding one
# is a deliberate change
EXPERIMENT_FIELDS = ["antennas", "users", "snr_db_list", "n_list", "powers", "gains",
                     "trials", "seed", "mode", "init", "tol", "max_sweeps"]


def test_experiment_fields():
    assert [f.name for f in fields(pilotopt.ExperimentConfig)] == EXPERIMENT_FIELDS


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


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _open_mode(call):
    """The mode string of an ``open`` call, ``"r"`` when it is not given."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return mode.value


def test_only_model_reads_and_only_report_writes_files():
    opens = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "open"
                    or getattr(node.func, "attr", None) == "open"):
                opens.append((path.stem, "w" if "w" in _open_mode(node) else "r"))
    assert set(opens) == {("model", "r"), ("report", "w")}


def _bench_constant(script, name):
    for node in _tree(ROOT / "bench" / script).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == name:
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{script} has no {name}")


def test_every_public_name_has_a_use_outside_the_tests():
    # a use is a reference in a package module other than __init__ or in a demo
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert set(pilotopt.__all__) - used == UNUSED_KEPT


def test_benchmark_traces_only_existing_functions():
    # bench/tracer.py wraps each public function defined in a LAYERS module,
    # and RandomStream.generator on its class; bench/run.py reads the figures
    # of every LAYER_FUNCTIONS entry, so each must be one of those
    layers = _bench_constant("tracer.py", "LAYERS")
    for entry in _bench_constant("run.py", "LAYER_FUNCTIONS"):
        layer, *path = entry.split(".")
        assert layer in layers, entry
        module = importlib.import_module(f"pilotopt.{layer}")
        if path == ["RandomStream", "generator"]:
            assert inspect.isfunction(vars(module.RandomStream).get("generator")), entry
            continue
        (attr,) = path
        obj = vars(module).get(attr)
        assert not attr.startswith("_") and inspect.isfunction(obj), entry
        assert obj.__module__ == module.__name__, entry


# CPython's parser holds a module's tokens in an array that doubles past
# 2048, and with no bytecode cache every process compiles what it imports,
# so a module past the step raises every process's peak RSS by about 0.1 MB.
# optimizer.py is already past it; the chart module loads only for SVG output.
PARSER_TOKEN_STEP = 2048
PAST_THE_STEP = {"optimizer"}


def _parser_tokens(path):
    """The tokens the parser holds for ``path``: ``tokenize``'s, less comments and blank lines."""
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in skipped)


def test_csv_sweep_modules_stay_under_the_parser_token_step():
    counts = {p.stem: _parser_tokens(p) for p in PACKAGE.glob("*.py") if p.stem != "plot"}
    assert {name for name, n in counts.items() if n >= PARSER_TOKEN_STEP} == PAST_THE_STEP
