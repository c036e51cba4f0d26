"""Generated-scenario properties of the pilot design, Monte Carlo and command line layers.

Design scenarios cover one user, pilot lengths above, at and below the
user count, tied gains and gains spread down to 1e-12 of the largest,
with powers from 0.1 to 10 and SNRs from -10 to 30 dB, and up to
3000 dB (a noise variance down to 1e-300 of the power) where only the
singularity rule may stop a design. Monte Carlo scenarios cover 1 to 12
antennas, also fewer than users plus pilot symbols, with unequal gains
and varied seeds. Hermitian solves cover Gram matrices from diagonal to
far from diagonally dominant, with noise variances from 1e-16 to 1e2
and eigenvalue ratios near the singularity floor. Command lines are
built from the parser's own flag table with edge values. The examples are derandomized, so every run
checks the same scenarios.
"""

import argparse
import csv
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pilotopt.cli as cli
from pilotopt import (
    RandomStream,
    SingularMatrixError,
    SystemConfig,
    analytic_wsmse,
    construct_pilots,
    conventional_estimator,
    design_reuse_pilots,
    draw_cn,
    init_pilots,
    objective,
    optimality_bound,
    optimize_pilots,
    proposed_estimator,
    run_monte_carlo,
    sigma2_from_snr,
    solve_hermitian,
)
from pilotopt.numerics import SINGULARITY_FLOOR
from pilotopt.optimizer import INIT_KINDS, _covariance, _optimal_spectrum
from test_harness import summed_direct_route, weight_matrix
from test_numerics import eigensolve_route, outcome

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def scenarios(draw, snr_db=st.floats(-10.0, 30.0)):
    users = draw(st.integers(1, 16))
    pilot_len = draw(st.one_of(st.integers(1, users), st.integers(users, users + 3)))
    # gain exponents drawn from a pool of at most three values tie gains
    exponent = st.floats(-12.0, 0.0)
    if draw(st.booleans()):
        exponent = st.sampled_from(draw(st.lists(exponent, min_size=1, max_size=3)))
    exponents = np.array(draw(st.lists(exponent, min_size=users, max_size=users)))
    powers = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=users,
                                    max_size=users)))
    snr_db = draw(snr_db)
    return SystemConfig(
        antennas=4, users=users, pilot_len=pilot_len,
        sigma2=sigma2_from_snr(snr_db, powers), powers=powers,
        gains=10.0 ** (exponents - exponents.max()),
    )


@PROPERTY
@given(scenarios())
def test_constructed_pilots_meet_the_bound_at_full_power(cfg):
    x = construct_pilots(cfg)
    bound = optimality_bound(cfg)
    assert abs(objective(x, cfg) - bound) <= 1e-12 * bound
    energies = np.sum(np.abs(x) ** 2, axis=0)
    assert np.all(np.abs(energies - cfg.powers) <= 1e-10 * cfg.powers)


@PROPERTY
@given(scenarios(snr_db=st.one_of(st.floats(-10.0, 30.0), st.floats(30.0, 3000.0))))
def test_constructed_pilots_meet_the_bound_or_are_singular(cfg):
    # the Gram matrix A = S + sigma2 I of the optimum has the spectrum
    # lambda* + sigma2; below the singularity floor of its eigenvalue ratio
    # the design is singular, above it the bound is met. The objective reads
    # the spectrum from the singular values s of x diag(sqrt(g)), each within
    # a few eps of s_max, so 1/lambda_min carries a relative error of a few
    # eps / sqrt(ratio).
    eps = np.finfo(float).eps
    spectrum = _optimal_spectrum(cfg) + cfg.sigma2
    ratio = spectrum.min() / spectrum.max()
    x = construct_pilots(cfg)
    if ratio < SINGULARITY_FLOOR - 64 * eps:
        with pytest.raises(SingularMatrixError):
            objective(x, cfg)
        with pytest.raises(SingularMatrixError):
            proposed_estimator(x, cfg)
    elif ratio > SINGULARITY_FLOOR + 64 * eps:
        bound = optimality_bound(cfg)
        assert objective(x, cfg) <= bound * (1 + 1e-12 + 4 * eps / np.sqrt(ratio))
        assert np.isfinite(analytic_wsmse(x, proposed_estimator(x, cfg), cfg).wsmse)


@settings(PROPERTY, max_examples=60)
@given(scenarios(), st.sampled_from(["dft-reuse", "dft-k", "random"]))
def test_cyclic_optimizer_stays_above_the_bound(cfg, kind):
    x0 = init_pilots(kind, cfg, stream=RandomStream(3, 2**33))
    _, trace = optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=5)
    bound = optimality_bound(cfg)
    assert trace.objective_per_update[-1] >= bound * (1 - 1e-12)
    assert trace.gap >= -1e-12


@PROPERTY
@given(scenarios().filter(lambda cfg: cfg.pilot_len == 1 or cfg.pilot_len >= cfg.users))
def test_cyclic_optimizer_meets_the_bound_at_one_symbol_and_from_k_symbols(cfg):
    # the paper's claim: at N = 1 and N >= K the cyclic updates reach the
    # optimum from any start. The tolerance is measured: over 32000 runs
    # drawn at random from this space the pilots ended at most 5.4e-13 above
    # the bound, where tiny energies whose eigenvalues fall within
    # DEGENERACY_GAP of each other are taken as ties, and every run stopped
    # within 2 sweeps
    bound = optimality_bound(cfg)
    for kind in INIT_KINDS:
        x0 = init_pilots(kind, cfg, stream=RandomStream(3, 2**33))
        x, trace = optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=100)
        assert trace.converged and trace.sweeps_completed <= 2, kind
        assert abs(objective(x, cfg) - bound) <= 1e-12 * bound, kind


@settings(PROPERTY, max_examples=100)
@given(scenarios(), st.booleans(), st.booleans(), st.integers(0, 2**32))
def test_weight_mean_is_analytic_wsmse(cfg, constructed, matched, seed):
    # a trial's WSMSE u C u^H summed over the M rows of Z has mean M tr(C)
    # and sd sqrt(M) ||C||_F, a one-trial run's standard error; the pilots
    # are constructed or random, the estimator matched or random
    if constructed:
        x = construct_pilots(cfg)
    else:
        x = init_pilots("random", cfg, stream=RandomStream(seed, 2**33))
    b = proposed_estimator(x, cfg) if matched else draw_cn(
        RandomStream(seed, 1), cfg.pilot_len, cfg.users)
    c = weight_matrix(cfg, x, b)
    mean = cfg.antennas * np.trace(c).real
    assert mean == pytest.approx(analytic_wsmse(x, b, cfg).wsmse, rel=1e-12, abs=0.0)
    sd = np.sqrt(cfg.antennas) * np.linalg.norm(c)
    assert run_monte_carlo(cfg, x, b, 1, seed).stderr == pytest.approx(sd, rel=1e-12, abs=0.0)


@st.composite
def monte_carlo_scenarios(draw):
    users = draw(st.integers(1, 6))
    pilot_len = draw(st.integers(1, users + 3))
    exponents = np.array(draw(st.lists(st.floats(-3.0, 0.0), min_size=users,
                                       max_size=users)))
    # one power for every user, which the reuse baseline needs
    power = draw(st.floats(0.1, 10.0))
    snr_db = draw(st.floats(-10.0, 30.0))
    cfg = SystemConfig(
        antennas=draw(st.integers(1, 12)), users=users, pilot_len=pilot_len,
        sigma2=sigma2_from_snr(snr_db, np.full(users, power)), powers=power,
        gains=10.0 ** exponents,
    )
    return cfg, draw(st.integers(0, 2**64))


@settings(PROPERTY, max_examples=200)
@given(monte_carlo_scenarios())
def test_gram_evaluation_equals_the_direct_route(scenario):
    cfg, seed = scenario
    for x, build in ((construct_pilots(cfg), proposed_estimator),
                     (design_reuse_pilots(cfg), conventional_estimator)):
        b = build(x, cfg)
        gram = run_monte_carlo(cfg, x, b, 1, seed).per_user
        direct = summed_direct_route(cfg, x, b, 1, seed, np.clongdouble)
        assert np.allclose(gram, direct, rtol=1e-12, atol=0.0)


@st.composite
def gram_stacks(draw):
    """``a = X diag(g) X^H + sigma2 I``, one matrix or a stack, and a right-hand side.

    ``X`` is the leading columns of the identity plus ``spread`` times
    CN(0, 1) entries: a diagonal ``a`` at spread 0, a diagonally dominant
    one at small spreads, a far from dominant one at 1. ``sigma2`` is
    log-uniform over 1e-16 ... 1e2, or puts each matrix's eigenvalue
    ratio near the floor, up to ten times either side of it and of the
    discs' 1e-10 margin, as do gains spread down to 1e-14.
    """
    n, users = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    stack = draw(st.sampled_from([(), (1,), (3,)]))
    spread = draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.1, 1.0]))
    seed = draw(st.integers(0, 2**32))
    x = np.eye(n, users) + spread * draw_cn(RandomStream(seed, 1), int(np.prod(stack)) * n,
                                            users).reshape(stack + (n, users))
    least = draw(st.sampled_from([-3.0, -14.0]))
    gains = 10.0 ** np.array(draw(st.lists(st.floats(least, 0.0), min_size=users,
                                           max_size=users)))
    if draw(st.booleans()):
        sigma2 = 10.0 ** draw(st.floats(-16.0, 2.0))
    else:
        largest = np.linalg.eigvalsh(_covariance(x, gains, 0.0))[..., -1:]
        sigma2 = 10.0 ** draw(st.floats(-13.0, -9.0)) * largest
    b = draw_cn(RandomStream(seed, 2), int(np.prod(stack)) * n, 2).reshape(stack + (n, 2))
    return _covariance(x, gains, sigma2), b


@settings(PROPERTY, max_examples=300)
@given(gram_stacks())
def test_solve_raises_exactly_when_the_eigenvalue_floor_does(case):
    # the Gershgorin discs only skip an eigensolve whose floor cannot raise:
    # the same bytes or the same SingularMatrixError, message included
    a, b = case
    assert outcome(solve_hermitian, a, b) == outcome(eigensolve_route, a, b)


# every flag of every command, by dest; --out is pinned to a file
CLI_FLAGS = {
    name: [a for a in sub._actions if a.option_strings and a.dest not in ("help", "out")]
    for name, sub in next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)).choices.items()
}
EDGE_VALUES = ["nan", "inf", "-1", "0", "1e-300", "1e300", "2.6", ""]
# what a flag left undrawn is pinned to, to keep every run cheap
CHEAP = {"trials": "2", "snr_db": "0", "max_sweeps": "3"}


@st.composite
def command_lines(draw):
    # each choices flag is drawn half the time, and up to three other flags
    # take edge values, so that most runs get past the first rejected value
    command = draw(st.sampled_from(sorted(CLI_FLAGS)))
    flags = CLI_FLAGS[command]
    picked = {a.dest: draw(st.sampled_from(a.choices))
              for a in flags if a.choices and draw(st.booleans())}
    edges = draw(st.lists(st.sampled_from([a for a in flags if not a.choices]),
                          max_size=3, unique_by=lambda a: a.dest))
    picked.update((a.dest, draw(st.sampled_from(EDGE_VALUES))) for a in edges)
    argv = [command]
    for action in flags:
        value = picked.get(action.dest, CHEAP.get(action.dest))
        if value is not None:
            # attached, so that "-1" is not read as a flag
            argv.append(f"{action.option_strings[0]}={value}")
    return argv


def _assert_finite_output(argv, path):
    """Every number ``path`` holds is finite."""
    text = path.read_text()
    fmt = next((a.split("=", 1)[1] for a in argv if a.startswith("--format=")), "csv")
    if argv[0] == "optimize":
        assert np.all(np.isfinite(np.loadtxt(path, skiprows=1, ndmin=2)))
    elif argv[0] == "estimate" or fmt == "json":
        json.loads(text, parse_constant=pytest.fail)
    elif fmt == "svg":
        assert not re.search(r"\b(nan|inf)\b", text, flags=re.IGNORECASE)
    else:
        for row in csv.DictReader(text.splitlines()):
            for name, cell in row.items():
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert np.isfinite(value), (name, row)


@settings(PROPERTY, max_examples=300)
@given(command_lines())
# a pilot length past the address space once raised a bare ValueError
@example(argv=["sweep-snr", "--n=1e300", "--snr-db=0", "--trials=2"])
def test_command_lines_exit_cleanly_with_finite_output(tmp_path_factory, argv):
    out = tmp_path_factory.getbasetemp() / "cli-property.out"
    out.unlink(missing_ok=True)
    code = cli.main(argv + [f"--out={out}"])
    assert code in (0, 2, 3)
    if code == 0:
        _assert_finite_output(argv, out)
