"""Pins of the package surface that the roadmap tracks.

The public names, the field names of the records a run builds and of
``ExperimentConfig``, the number of settable (command, flag) values of
the command line, the rule that no module reaches into the harness for
a private name, the rule that only ``model`` opens files to read and
only ``report`` opens files to write, the rule that the package binds
no public attribute it does not export and that every public name has
a use in a package module or a demo, the names the package resolves from
the optimizer on first access, and the parser token counts of the modules
a gated sweep compiles. A change to any of them is deliberate and updates
the pin here. Two guards keep every function the benchmark's tracer names
one that it can wrap, and its wrappers seen where the optimizer is
imported on first use.
"""

import argparse
import ast
import importlib
import inspect
import os
import subprocess
import sys
import tokenize
from dataclasses import fields
from pathlib import Path
from types import ModuleType

import pilotopt
import pilotopt.optimizer as optimizer
from pilotopt.cli import build_parser
from test_cli import GATED_SWEEPS, _new_modules

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


# the public names the package resolves from pilotopt.optimizer on first
# access, so that importing the package does not compile the cyclic optimizer
OPTIMIZER_NAMES = {
    "OptimizerTrace",
    "analytic_wsmse",
    "combiner",
    "gram_matrix",
    "leave_one_out",
    "objective",
    "optimize_pilots",
    "proposed_estimator",
    "rayleigh_update",
    "receiver_scalar",
}


def _run_python(code):
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True,
    )
    return [ast.literal_eval(line) for line in done.stdout.splitlines()]


def test_package_attributes_are_the_public_names():
    # an import in __init__ binds its name in the package, exported or not;
    # a fresh import binds the eager names and leaves the optimizer unloaded
    eager, loaded = _run_python(
        "import sys, types, pilotopt\n"
        "print(sorted(n for n, v in vars(pilotopt).items()\n"
        "             if not n.startswith('_') and not isinstance(v, types.ModuleType)))\n"
        "print('pilotopt.optimizer' in sys.modules)\n"
    )
    assert not loaded
    assert set(eager) | OPTIMIZER_NAMES == set(pilotopt.__all__)
    assert not set(eager) & OPTIMIZER_NAMES
    # each lazy name is the optimizer's own object, and kept once resolved
    for name in OPTIMIZER_NAMES:
        obj = getattr(pilotopt, name)
        assert obj is vars(optimizer)[name] and obj.__module__ == "pilotopt.optimizer", name
        assert vars(pilotopt)[name] is obj, name
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


def test_function_level_imports_see_the_tracer_wrappers():
    # harness imports the optimizer inside the functions that run it, so the
    # benchmark's tracer, which wraps the optimizer module's globals before
    # the run, still counts its calls. The probe drives bench/tracer.py's
    # install and aggregate as its main does, without the BLAS probe, which
    # imports scipy
    argv = ["sweep-snr", "--profile", "desk", "--snr-db", "0", "--n", "2", "--init", "random",
            "--trials", "20", "--seed", "1", "--out", os.devnull]
    (calls,) = _run_python(
        f"import sys; sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "import tracer\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        "from pilotopt import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "stats = tracer.aggregate(t.names, t.spans)\n"
        "print({name: entry['calls'] for name, entry in stats.items()})\n"
    )
    assert calls["optimizer.rayleigh_update"] == 16
    assert calls["optimizer.optimize_pilots"] == 1
    assert calls["cli.main"] == 1


# CPython's parser holds a module's tokens in an array that doubles past
# 2048, and with no bytecode cache every process compiles what it imports,
# so a module past the step raises every process's peak RSS by about 0.1 MB.
# No module a gated sweep loads is past it; the cyclic optimizer and the
# chart module load only on their own routes.
PARSER_TOKEN_STEP = 2048
PAST_THE_STEP = set()


def _parser_tokens(path):
    """The tokens the parser holds for ``path``: ``tokenize``'s, less comments and blank lines."""
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in skipped)


def test_csv_sweep_modules_stay_under_the_parser_token_step(tmp_path):
    # the package modules each gated sweep loads, read from sys.modules
    runs = [[*argv, "--seed", "1"] for argv in GATED_SWEEPS.values()]
    for found in _new_modules(tmp_path, runs, ("pilotopt",)):
        for loaded in found:
            assert {"pilotopt.cli", "pilotopt.closedform", "pilotopt.harness"} <= set(loaded)
            counts = {name: _parser_tokens(importlib.import_module(name).__file__)
                      for name in loaded}
            assert {n for n, c in counts.items() if c >= PARSER_TOKEN_STEP} == PAST_THE_STEP
