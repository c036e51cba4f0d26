"""Command line front end.

Subcommands: ``sweep-snr``, ``sweep-n``, ``convergence``, ``optimize``,
``estimate``. Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigurationError, ContractViolation, NumericalError
from .harness import (
    ExperimentConfig,
    convergence_trace,
    design_pilots,
    sweep_snr,
    trial_errors,
)
from .model import (
    SystemConfig,
    _open_out,
    load_gains,
    reference_gains,
    sigma2_from_snr,
)
from .optimizer import save_pilots
from .report import emit

DEFAULT_SNR_GRID = [float(v) for v in range(-10, 21, 2)]

# desk-scale defaults keep full sweeps fast; --profile paper switches to
# the 128-antenna 32-user reference scenario
_PROFILES = {
    "desk": {"m": 32, "k": 8, "n": 4, "trials": 5000, "gains": None},
    "paper": {"m": 128, "k": 32, "n": 16, "trials": 20000, "gains": "paper"},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pilotopt",
        description="Pilot optimization and channel estimation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags only some commands read (the sweeps read all four);
    # add_flags gives every command the scenario, optimizer and output flags
    optional = {
        "trials": {"type": int, "default": None, "help": "Monte Carlo trials per point"},
        "init": {"default": "dft-reuse", "choices": ["dft-reuse", "dft-k", "random"]},
        "mode": {"default": "both", "choices": ["proposed", "conventional", "both"]},
        "format": {"default": "csv", "choices": ["csv", "json", "svg"]},
    }

    def add_flags(sp, extra):
        sp.add_argument("--profile", choices=sorted(_PROFILES), default="desk",
                        help="named scenario preset; explicit flags override it")
        sp.add_argument("--m", type=int, default=None, help="base station antennas")
        sp.add_argument("--k", type=int, default=None, help="number of users")
        sp.add_argument("--n", default=None,
                        help="pilot length; sweep-n accepts a comma list")
        sp.add_argument("--snr-db", default=None,
                        help="comma list of SNR points in dB (default -10..20 step 2)")
        sp.add_argument("--seed", type=int, default=12345)
        sp.add_argument("--gains", default=None,
                        help="gains file, or 'paper' for the bundled 32-user table")
        sp.add_argument("--power", default="1.0",
                        help="per-user power budget: a number or a file")
        sp.add_argument("--tol", type=float, default=1e-8,
                        help="relative per-sweep objective decrease for convergence")
        sp.add_argument("--max-sweeps", type=int, default=100)
        sp.add_argument("--out", default="-", help="output path, '-' for stdout")
        for flag in extra:
            sp.add_argument(f"--{flag}", **optional[flag])

    sweep_flags = tuple(optional)
    for name, extra, text in [
        ("sweep-snr", sweep_flags,
         "normalized WSMSE across an SNR grid at fixed pilot length"),
        ("sweep-n", sweep_flags, "normalized WSMSE across pilot lengths and SNR points"),
        ("convergence", ("format",),
         "optimizer objective traces from all three initializations"),
        ("optimize", ("init",), "emit one optimized pilot matrix in the text format"),
        ("estimate", ("init", "mode"),
         "single-realization estimation demo (JSON report)"),
    ]:
        add_flags(sub.add_parser(name, help=text), extra)
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
    profile = _PROFILES[args.profile]
    m = args.m if args.m is not None else profile["m"]
    k = args.k if args.k is not None else profile["k"]
    gains_arg = args.gains if args.gains is not None else profile["gains"]

    if gains_arg is None:
        gains = np.ones(k)
    elif gains_arg == "paper":
        gains = reference_gains()
        if len(gains) != k:
            raise ConfigurationError(
                f"the bundled gain table has {len(gains)} users but --k is {k}"
            )
    else:
        gains = load_gains(gains_arg)
        if len(gains) != k:
            raise ConfigurationError(
                f"{gains_arg}: expected {k} gains, found {len(gains)}"
            )

    try:
        powers = np.full(k, float(args.power))
    except ValueError:
        powers = load_gains(args.power)
        if len(powers) != k:
            raise ConfigurationError(
                f"{args.power}: expected {k} powers, found {len(powers)}"
            )

    n_text = args.n if args.n is not None else str(profile["n"])
    n_list = _parse_int_list(n_text)
    if not n_list:
        raise ConfigurationError("--n must name at least one pilot length")

    snr_list = (
        _parse_float_list(args.snr_db) if args.snr_db is not None else DEFAULT_SNR_GRID
    )
    if not snr_list:
        raise ConfigurationError("--snr-db must name at least one SNR point")

    base = SystemConfig(
        antennas=m,
        users=k,
        pilot_len=n_list[0],
        sigma2=1.0,
        powers=powers,
        gains=gains,
    )
    # a command without --trials, --init or --mode runs the ExperimentConfig
    # defaults
    options = {
        key: getattr(args, key) for key in ("mode", "init") if hasattr(args, key)
    }
    if hasattr(args, "trials"):
        options["trials"] = args.trials if args.trials is not None else profile["trials"]
    return ExperimentConfig(
        base=base,
        snr_db_list=snr_list,
        n_list=n_list,
        seed=args.seed,
        tol=args.tol,
        max_sweeps=args.max_sweeps,
        **options,
    )


def _require_single(values, flag):
    if len(values) != 1:
        raise ConfigurationError(f"this command needs exactly one {flag} value")
    return values[0]


def _cmd_sweep_snr(ecfg, args):
    _require_single(ecfg.n_list, "--n")
    emit(sweep_snr(ecfg), args.format, args.out, x_field="snr_db")
    return 0


def _cmd_sweep_n(ecfg, args):
    emit(sweep_snr(ecfg), args.format, args.out, x_field="n")
    return 0


def _cmd_convergence(ecfg, args):
    snr = _require_single(ecfg.snr_db_list, "--snr-db")
    _require_single(ecfg.n_list, "--n")
    results = convergence_trace(replace(ecfg, snr_db_list=[snr]))
    emit(results, args.format, args.out)
    return 0


def _single_point_config(ecfg):
    snr = _require_single(ecfg.snr_db_list, "--snr-db")
    n = _require_single(ecfg.n_list, "--n")
    base = ecfg.base
    return replace(
        base, pilot_len=n, sigma2=sigma2_from_snr(snr, base.powers)
    ), snr


def _cmd_optimize(ecfg, args):
    cfg, _ = _single_point_config(ecfg)
    x_opt, _, _, trace = design_pilots("proposed", cfg, ecfg)
    save_pilots(args.out, x_opt)
    print(
        f"objective {trace.objective_per_update[-1]:.12g} after "
        f"{trace.sweeps_completed} sweeps (converged={trace.converged})",
        file=sys.stderr,
    )
    return 0


def _cmd_estimate(ecfg, args):
    """Design each algorithm's pilots and run Monte Carlo trial 0 on them."""
    cfg, snr = _single_point_config(ecfg)
    payload = {"snr_db": snr, "n": cfg.pilot_len, "algorithms": {}}
    for algorithm in ecfg.algorithms:
        x, _, ana, _ = design_pilots(algorithm, cfg, ecfg)
        per_user = trial_errors(cfg, x, algorithm, ecfg.seed, 0)
        payload["algorithms"][algorithm] = {
            "wsmse_analytic": ana.wsmse,
            "wsmse_realized": float(per_user.mean()),
            "per_user_realized": [float(v) for v in per_user],
        }
    with _open_out(args.out) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    return 0


_COMMANDS = {
    "sweep-snr": _cmd_sweep_snr,
    "sweep-n": _cmd_sweep_n,
    "convergence": _cmd_convergence,
    "optimize": _cmd_optimize,
    "estimate": _cmd_estimate,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        ecfg = _resolve_scenario(args)
        return _COMMANDS[args.command](ecfg, args)
    except (ConfigurationError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
