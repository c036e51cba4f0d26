"""Command line front end.

Subcommands: ``sweep-snr`` (alias ``sweep-n``), ``convergence``,
``optimize``, ``estimate``. Exit codes: 0 success, 2 configuration error,
3 numerical failure. Flag choices, option defaults and value checks come
from the library types that own them; this module parses text, and
:mod:`pilotopt.model` reads the input files and :mod:`pilotopt.report`
writes every output.
"""

import argparse
import atexit
import gc
import os
import sys
from dataclasses import fields

from .closedform import INIT_KINDS, optimality_bound
from .errors import ConfigurationError, ContractViolation, NumericalError
from .harness import (
    MODES,
    ExperimentConfig,
    convergence_trace,
    design_pilots,
    run_monte_carlo,
    sweep_snr,
)
from .model import load_gains, reference_gains
from .report import FORMATS, emit, save_pilots, write_json

DEFAULT_SNR_GRID = [float(v) for v in range(-10, 21, 2)]

# desk-scale defaults keep full sweeps fast; --profile paper switches to
# the 128-antenna 32-user reference scenario
_PROFILES = {
    "desk": {"m": 32, "k": 8, "n": [4], "trials": 5000, "gains": 1.0},
    "paper": {"m": 128, "k": 32, "n": [16], "trials": 20000, "gains": "paper"},
}


def _help_width():
    """The width argparse's formatter would take, found without importing ``shutil``.

    That is ``shutil.get_terminal_size().columns - 2``: ``COLUMNS`` when
    it is a positive integer, else the width of the terminal on
    ``sys.__stdout__``, else 80.
    """
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return (columns or 80) - 2


def build_parser():
    # a formatter of fixed width for every parser: argparse's default finds
    # its width through shutil, a few milliseconds of imports per process
    width = _help_width()

    def formatter(prog):
        return argparse.HelpFormatter(prog, width=width)

    parser = argparse.ArgumentParser(
        prog="pilotopt",
        description="Pilot optimization and channel estimation experiments.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every command reads the scenario, optimizer and output flags
    common = argparse.ArgumentParser(add_help=False, formatter_class=formatter)
    common.add_argument("--profile", choices=sorted(_PROFILES), default="desk",
                        help="named scenario preset; explicit flags override it")
    common.add_argument("--m", type=int, default=None, help="base station antennas")
    common.add_argument("--k", type=int, default=None, help="number of users")
    common.add_argument("--n", default=None,
                        help="pilot length; sweep-snr (sweep-n) accepts a comma list")
    common.add_argument("--snr-db", default=None,
                        help="comma list of SNR points in dB (default -10..20 step 2)")
    common.add_argument("--seed", type=int)
    common.add_argument("--gains", default=None,
                        help="gains file, or 'paper' for the bundled 32-user table")
    common.add_argument("--power", default="1.0",
                        help="per-user power budget: a number or a file")
    common.add_argument("--tol", type=float,
                        help="relative per-sweep objective decrease for convergence")
    common.add_argument("--max-sweeps", type=int)
    common.add_argument("--out", default="-", help="output path, '-' for stdout")

    # the flags only some commands read (the sweep reads all four). An
    # ExperimentConfig option left unset takes that field's default.
    optional = {
        "trials": {"type": int, "help": "Monte Carlo trials per point"},
        "init": {"choices": INIT_KINDS,
                 "help": "run the cyclic optimizer from this start instead of "
                         "constructing the optimum"},
        "mode": {"choices": MODES},
        "format": {"default": "csv", "choices": FORMATS},
    }
    for name, aliases, run, extra, text in [
        ("sweep-snr", ["sweep-n"], _cmd_sweep, tuple(optional),
         "normalized WSMSE across SNR points and pilot lengths"),
        ("convergence", [], _cmd_convergence, ("format",),
         "optimizer objective traces from all three initializations"),
        ("optimize", [], _cmd_optimize, ("init",),
         "emit one optimized pilot matrix in the text format"),
        ("estimate", [], _cmd_estimate, ("init", "mode"),
         "one seeded Monte Carlo trial of each design (JSON report)"),
    ]:
        sp = sub.add_parser(name, aliases=aliases, help=text, parents=[common],
                            formatter_class=formatter)
        sp.set_defaults(run=run)
        for flag in extra:
            sp.add_argument(f"--{flag}", **optional[flag])
    return parser


def _parse_float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"bad numeric list {text!r}") from exc


def _parse_int_list(text):
    values = _parse_float_list(text)
    if not all(v.is_integer() for v in values):
        raise ConfigurationError(f"pilot lengths must be whole numbers, got {text!r}")
    return [int(v) for v in values]


def _resolve_scenario(args):
    """The :class:`ExperimentConfig` that ``args`` describe."""
    profile = _PROFILES[args.profile]
    gains = args.gains if args.gains is not None else profile["gains"]
    if gains == "paper":
        gains = reference_gains()
    elif isinstance(gains, str):
        gains = load_gains(gains)
    try:
        powers = float(args.power)
    except ValueError:
        powers = load_gains(args.power)

    scenario = {
        "antennas": args.m if args.m is not None else profile["m"],
        "users": args.k if args.k is not None else profile["k"],
        "powers": powers,
        "gains": gains,
        "n_list": _parse_int_list(args.n) if args.n is not None else profile["n"],
        "snr_db_list": (_parse_float_list(args.snr_db) if args.snr_db is not None
                        else DEFAULT_SNR_GRID),
    }
    # unset options are left to ExperimentConfig, except that the commands
    # with --trials take the profile's trial count
    flags = vars(args)
    options = {f.name: flags[f.name] for f in fields(ExperimentConfig)
               if f.name not in scenario and flags.get(f.name) is not None}
    if "trials" in flags:
        options.setdefault("trials", profile["trials"])
    return ExperimentConfig(**scenario, **options)


def _cmd_sweep(ecfg, args):
    emit(sweep_snr(ecfg), args.format, args.out)
    return 0


def _cmd_convergence(ecfg, args):
    emit(convergence_trace(ecfg), args.format, args.out)
    return 0


def _cmd_optimize(ecfg, args):
    from .optimizer import objective

    _, cfg = ecfg.single_point()
    x_opt, _, _, trace = design_pilots("proposed", cfg, ecfg)
    save_pilots(args.out, x_opt)
    how = ("constructed" if trace is None
           else f"after {trace.sweeps_completed} sweeps (converged={trace.converged})")
    final = objective(x_opt, cfg)
    bound = optimality_bound(cfg)
    print(f"objective {final:.12g} {how}, {(final - bound) / bound:.2e} "
          f"relative above the bound {bound:.12g}", file=sys.stderr)
    return 0


def _cmd_estimate(ecfg, args):
    """Design each algorithm's pilots and report a one-trial Monte Carlo run on each.

    Every algorithm's trial is ``run_monte_carlo(cfg, x, b, 1, seed)``, on one draw.
    """
    snr, cfg = ecfg.single_point()
    payload = {"snr_db": snr, "n": cfg.pilot_len, "algorithms": {}}
    for algorithm in ecfg.algorithms:
        x, b, ana, _ = design_pilots(algorithm, cfg, ecfg)
        trial = run_monte_carlo(cfg, x, b, 1, ecfg.seed)
        payload["algorithms"][algorithm] = {
            "wsmse_analytic": ana.wsmse,
            "wsmse_realized": trial.wsmse,
            "per_user_realized": [float(v) for v in trial.per_user],
        }
    write_json(payload, args.out)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        ecfg = _resolve_scenario(args)
        return args.run(ecfg, args)
    except (ConfigurationError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def _observed():
    """Whether a tracer, profiler or debugger watches the process, or ``-i`` asked for a prompt.

    Each needs the interpreter's own exit: ``python -m cProfile -o`` writes
    its file as ``SystemExit`` unwinds, and ``-i`` opens its prompt after it.
    """
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, tool ids 0-5
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or sys.flags.inspect
            or (monitoring is not None
                and any(monitoring.get_tool(i) is not None for i in range(6))))


def entrypoint():
    """Run :func:`main` on ``sys.argv`` and end the process with its exit code.

    The imported modules live until exit, so ``gc.freeze()`` first keeps
    the run's collections off them. After ``main`` returns, the exit hooks
    that are registered run (``atexit._run_exitfuncs`` is what the
    interpreter's exit calls), the standard streams that exist are
    flushed, and ``os._exit`` ends the process without tearing down the
    heap: every file the package writes is closed inside a ``with``, so no
    buffered output is lost. That exit takes 0.85 ms against 2.5 ms with
    the teardown (README, Process cost). A failed flush is reported as
    :func:`main` reports a failed write, and ``os._exit(2)`` keeps the
    exit from flushing that buffer again; ``sys.exit`` is kept while
    :func:`_observed` and for a closed stream.
    """
    gc.freeze()
    code = main()
    if not _observed():
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except ValueError:
            pass
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr, flush=True)
            os._exit(2)
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
