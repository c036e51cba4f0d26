"""Generated-scenario properties of the pilot design layer.

Scenarios cover one user, pilot lengths above, at and below the user
count, tied gains and gains spread down to 1e-12 of the largest, with
powers from 0.1 to 10 and SNRs from -10 to 30 dB. The examples are
derandomized, so every run checks the same scenarios.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotopt import (
    RandomStream,
    SystemConfig,
    construct_pilots,
    init_pilots,
    objective,
    optimality_bound,
    optimize_pilots,
    sigma2_from_snr,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def scenarios(draw):
    users = draw(st.integers(1, 16))
    pilot_len = draw(st.one_of(st.integers(1, users), st.integers(users, users + 3)))
    # gain exponents drawn from a pool of at most three values tie gains
    exponent = st.floats(-12.0, 0.0)
    if draw(st.booleans()):
        exponent = st.sampled_from(draw(st.lists(exponent, min_size=1, max_size=3)))
    exponents = np.array(draw(st.lists(exponent, min_size=users, max_size=users)))
    powers = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=users,
                                    max_size=users)))
    snr_db = draw(st.floats(-10.0, 30.0))
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


@settings(PROPERTY, max_examples=60)
@given(scenarios(), st.sampled_from(["dft-reuse", "dft-k", "random"]))
def test_cyclic_optimizer_stays_above_the_bound(cfg, kind):
    if kind == "dft-k" and cfg.pilot_len > cfg.users:
        kind = "random"
    x0 = init_pilots(kind, cfg, stream=RandomStream(3, 2**33))
    _, trace = optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=5)
    bound = optimality_bound(cfg)
    assert trace.objective_per_update[-1] >= bound * (1 - 1e-12)
    assert trace.gap >= -1e-12
