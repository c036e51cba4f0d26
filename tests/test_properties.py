"""Generated-scenario properties of the pilot design, Monte Carlo and command line layers.

Design scenarios cover one user, pilot lengths above, at and below the
user count, tied gains and gains spread down to 1e-12 of the largest,
with powers from 0.1 to 10 and SNRs from -10 to 30 dB, and up to
3000 dB (a noise variance down to 1e-300 of the power) where only the
singularity rule may stop a design. The constructed route's own
scenarios take pilot lengths up to eight past the user count, gains over
six decades and noise variances from 1e-8 to 1e3 or at the singularity
floor. The closed form's bookkeeping is compared bit for bit with
numpy's sorts on 1 to 40 users with gains and powers tied or spread up
to 1e12. Monte Carlo scenarios cover 1 to 12 antennas, also fewer than
users plus pilot symbols, with unequal gains
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
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pilotopt.cli as cli
from pilotopt import (
    ExperimentConfig,
    RandomStream,
    SingularMatrixError,
    SystemConfig,
    analytic_wsmse,
    construct_pilots,
    conventional_estimator,
    design_pilots,
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
from pilotopt.optimizer import (
    INIT_KINDS,
    _construction_spectra,
    _covariance,
    _optimal_spectrum,
)
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


@st.composite
def constructed_scenarios(draw):
    """``(cfg, near_floor)`` of the constructed design, ``1 <= pilot_len <= users + 8``.

    Gains spread over six decades and powers over 0.1 ... 10. The noise
    variance is log-uniform over 1e-8 ... 1e3, or, when ``near_floor``, within a
    decade of the singularity floor times the largest of ``lambda*``.
    """
    users = draw(st.integers(1, 16))
    pilot_len = draw(st.integers(1, users + 8))
    gains = 10.0 ** np.array(draw(st.lists(st.floats(-6.0, 0.0), min_size=users,
                                           max_size=users)))
    powers = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=users, max_size=users)))
    cfg = SystemConfig(antennas=4, users=users, pilot_len=pilot_len, sigma2=1.0,
                       powers=powers, gains=gains)
    near_floor = draw(st.booleans())
    if near_floor:
        sigma2 = 10.0 ** draw(st.floats(-13.0, -11.0)) * _optimal_spectrum(cfg)[0]
    else:
        sigma2 = 10.0 ** draw(st.floats(-8.0, 3.0))
    return replace(cfg, sigma2=sigma2), near_floor


# the constructed route's analytic WSMSE against the solve route's, relative.
# Over four runs of 20000 random draws of constructed_scenarios away from the
# floor the largest difference was 5.6e-15, each run's at sigma2 near 1e-8
# with pilot_len > users, where A's condition number nears 1e9. It is the LU
# solve's error: on one such worst case the constructed route's WSMSE equalled
# a 60-digit evaluation of 1 - g_k x_k^H A^-1 x_k on the same pilots, and the
# solve route's was 1.7e-15 from it
CONSTRUCTED_WSMSE_RTOL = 1e-14


@settings(PROPERTY, max_examples=300)
@given(constructed_scenarios())
def test_constructed_route_matches_the_solve_route(scenario):
    # the sweeps build the constructed design's estimators by dividing by its
    # known spectrum. The route raises exactly where lambda* + sigma2 fails
    # the floor, and elsewhere its WSMSE is that of proposed_estimator's LU
    # solve. The WSMSE is stationary in b, so b itself is not compared; near
    # the floor the LU solve's own error, which grows with A's condition
    # number, moves even the WSMSE, so there only the floor is checked
    cfg, near_floor = scenario
    experiment = ExperimentConfig(antennas=4, users=cfg.users, snr_db_list=[0.0],
                                  n_list=[cfg.pilot_len], powers=cfg.powers, gains=cfg.gains)
    w = _optimal_spectrum(cfg)[::-1] + cfg.sigma2
    if not (w[-1] > 0 and w[0] > SINGULARITY_FLOOR * w[-1]):
        with pytest.raises(SingularMatrixError):
            design_pilots("proposed", cfg, experiment)
        return
    x, _, analytic, _ = design_pilots("proposed", cfg, experiment)
    assert x.tobytes() == construct_pilots(cfg).tobytes()
    assert np.isfinite(analytic.wsmse)
    if not near_floor:
        reference = analytic_wsmse(x, proposed_estimator(x, cfg), cfg).wsmse
        assert abs(analytic.wsmse - reference) <= CONSTRUCTED_WSMSE_RTOL * reference


def _numpy_optimal_spectrum(cfg):
    # the closed form's bookkeeping as it was on numpy's sort and scalars,
    # the reference for the bits of the plain Python one
    energies = np.sort(cfg.gains * cfg.powers)[::-1]
    dims = cfg.pilot_len
    oversized = []
    while dims > 1 and energies.size and energies[0] > energies[1:].sum() / (dims - 1):
        oversized.append(energies[0])
        energies = energies[1:]
        dims -= 1
    return np.concatenate([oversized, np.full(dims, energies.sum() / dims)])


def _numpy_construction_spectra(cfg):
    spectrum = _numpy_optimal_spectrum(cfg)
    frame = np.bincount(np.arange(cfg.users) % cfg.pilot_len, weights=cfg.gains * cfg.powers,
                        minlength=cfg.pilot_len)
    if np.all(np.abs(np.sort(frame)[::-1] - spectrum) <= 1e-12 * spectrum):
        return spectrum, frame
    return spectrum, None


def _numpy_construct_pilots(cfg):
    spectrum, frame = _numpy_construction_spectra(cfg)
    if frame is not None:
        return init_pilots("dft-reuse", cfg)
    energies = cfg.gains * cfg.powers
    level = np.concatenate([spectrum, np.zeros(cfg.users - cfg.pilot_len)])
    basis = np.eye(cfg.users)
    free = np.ones(cfg.users, dtype=bool)
    w = np.empty((cfg.users, cfg.users))
    for k in np.argsort(-energies, kind="stable"):
        e = energies[k]
        idx = np.flatnonzero(free)
        vals = level[idx]
        above, below = vals >= e, vals <= e
        if above.any() and below.any():
            i = idx[above][np.argmin(vals[above])]
            j = idx[below][np.argmax(vals[below])]
        else:
            i = j = idx[np.argmin(np.abs(vals - e))]
        span = level[i] - level[j]
        if span > 0:
            c, s = np.sqrt((e - level[j]) / span), np.sqrt((level[i] - e) / span)
            w[:, k] = c * basis[:, i] + s * basis[:, j]
            basis[:, j] = c * basis[:, j] - s * basis[:, i]
            level[j] = level[i] + level[j] - e
        else:
            w[:, k] = basis[:, i]
        free[i] = False
    x = np.sqrt(spectrum)[:, np.newaxis] * w[: cfg.pilot_len] / np.sqrt(cfg.gains)
    x[0, ~np.any(x, axis=0)] = 1.0
    x *= np.sqrt(cfg.powers) / np.linalg.norm(x, axis=0)
    return x.astype(np.complex128)


@st.composite
def tied_spread_scenarios(draw):
    """1 to 40 users, ``1 <= pilot_len <= users + 8``, gains and powers tied or spread up to 1e12.

    Each of the gains and the powers spans 1, 10, 1e6 or 1e12, and is
    drawn from a pool of at most three values half the time, so that
    energies tie.
    """
    users = draw(st.integers(1, 40))
    pilot_len = draw(st.integers(1, users + 8))

    def values():
        exponent = st.floats(-draw(st.sampled_from([0.0, 1.0, 6.0, 12.0])), 0.0)
        if draw(st.booleans()):
            exponent = st.sampled_from(draw(st.lists(exponent, min_size=1, max_size=3)))
        return 10.0 ** np.array(draw(st.lists(exponent, min_size=users, max_size=users)))

    return SystemConfig(antennas=4, users=users, pilot_len=pilot_len, sigma2=1.0,
                        gains=values(), powers=values())


@settings(PROPERTY, max_examples=300)
@given(tied_spread_scenarios())
def test_closed_form_keeps_the_bits_of_numpy_sorting(cfg):
    # the sorts, tie orders, coordinate choices and rotation angles run on
    # Python floats and lists; every sum and rotation stays numpy's
    assert _optimal_spectrum(cfg).tobytes() == _numpy_optimal_spectrum(cfg).tobytes()
    (spectrum, frame), (spectrum_ref, frame_ref) = (_construction_spectra(cfg),
                                                    _numpy_construction_spectra(cfg))
    assert spectrum.tobytes() == spectrum_ref.tobytes()
    assert (frame is None) == (frame_ref is None)
    assert frame is None or frame.tobytes() == frame_ref.tobytes()
    assert construct_pilots(cfg).tobytes() == _numpy_construct_pilots(cfg).tobytes()


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
