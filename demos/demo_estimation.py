"""One training block, end to end: who estimates whose channel how well.

Builds a single contaminated scenario (8 users, 4 pilot symbols), draws
one channel and noise realization, and walks through both estimators,
printing the per-user squared errors next to their analytic
expectations. Users sharing a pilot column under reuse are listed with
their clash partners so the contamination penalty is easy to attribute.

Run:  python demos/demo_estimation.py
"""

import numpy as np

from pilotopt import (
    ExperimentConfig,
    SystemConfig,
    design_pilots,
    reference_gains,
    sigma2_from_snr,
    trial_errors,
)

SNR_DB = 10.0
SEED = 7

cfg = SystemConfig(
    antennas=32,
    users=8,
    pilot_len=4,
    sigma2=sigma2_from_snr(SNR_DB, np.ones(8)),
    powers=1.0,
    gains=reference_gains()[:8],
)

experiment = ExperimentConfig(base=cfg, snr_db_list=[SNR_DB], seed=SEED)

# Monte Carlo trial 0 of each design: both estimators see the same
# channel and noise realization
x_reuse, _, conv_ana, _ = design_pilots("conventional", cfg, experiment)
conv_per_user = trial_errors(cfg, x_reuse, "conventional", SEED, 0)
conv_expect = conv_ana.per_user

# optimized pilots (from the DFT-reuse start) with the matched combiner
x_opt, _, prop_ana, trace = design_pilots("proposed", cfg, experiment)
prop_per_user = trial_errors(cfg, x_opt, "proposed", SEED, 0)
prop_expect = prop_ana.per_user

print(f"SNR {SNR_DB:g} dB, {cfg.users} users, {cfg.pilot_len} pilot symbols, "
      f"optimizer converged in {trace.sweeps_completed} sweeps\n")
print(f"{'user':>4} {'gain':>7} {'clashes':>9} "
      f"{'reuse err':>10} {'(expect)':>9} {'optimized':>10} {'(expect)':>9}")
n = cfg.pilot_len
for k in range(cfg.users):
    partners = ",".join(str(j) for j in range(k % n, cfg.users, n) if j != k) or "-"
    print(
        f"{k:4d} {cfg.gains[k]:7.4f} {partners:>9} "
        f"{conv_per_user[k]:10.4f} {conv_expect[k]:9.4f} "
        f"{prop_per_user[k]:10.4f} {prop_expect[k]:9.4f}"
    )

print(f"\nnormalized WSMSE, this realization: "
      f"reuse {conv_per_user.mean():.4f}, optimized {prop_per_user.mean():.4f}")
print(f"normalized WSMSE, analytic:         "
      f"reuse {conv_expect.mean():.4f}, optimized {prop_expect.mean():.4f}")
