"""One training block, end to end: who estimates whose channel how well.

Builds a single contaminated scenario (8 users, 4 pilot symbols), draws
one channel and noise realization, and walks through both estimators,
printing the per-user squared errors next to their analytic
expectations. Users sharing a pilot column under reuse are listed with
their clash partners so the contamination penalty is easy to attribute.

Run:  python demos/demo_estimation.py
"""

from pilotopt import ExperimentConfig, design_pilots, reference_gains, run_monte_carlo

SEED = 7

experiment = ExperimentConfig(antennas=32, users=8, gains=reference_gains()[:8],
                              snr_db_list=[10.0], n_list=[4], seed=SEED)
SNR_DB, cfg = experiment.single_point()

# one seeded Monte Carlo trial of each design: both estimators see the same
# channel and noise realization
x_reuse, b_reuse, conv_ana, _ = design_pilots("conventional", cfg, experiment)
conv_trial = run_monte_carlo(cfg, x_reuse, b_reuse, 1, SEED)
conv_expect = conv_ana.per_user

# optimized pilots with the matched combiner: constructed as the optimum
# unless the experiment names an optimizer start
x_opt, b_opt, prop_ana, trace = design_pilots("proposed", cfg, experiment)
prop_trial = run_monte_carlo(cfg, x_opt, b_opt, 1, SEED)
prop_expect = prop_ana.per_user

how = "constructed" if trace is None else f"optimized in {trace.sweeps_completed} sweeps"
print(f"SNR {SNR_DB:g} dB, {cfg.users} users, {cfg.pilot_len} pilot symbols, "
      f"optimized pilots {how}\n")
print(f"{'user':>4} {'gain':>7} {'clashes':>9} "
      f"{'reuse err':>10} {'(expect)':>9} {'optimized':>10} {'(expect)':>9}")
n = cfg.pilot_len
for k in range(cfg.users):
    partners = ",".join(str(j) for j in range(k % n, cfg.users, n) if j != k) or "-"
    print(
        f"{k:4d} {cfg.gains[k]:7.4f} {partners:>9} "
        f"{conv_trial.per_user[k]:10.4f} {conv_expect[k]:9.4f} "
        f"{prop_trial.per_user[k]:10.4f} {prop_expect[k]:9.4f}"
    )

print(f"\nnormalized WSMSE, this realization: "
      f"reuse {conv_trial.wsmse:.4f}, optimized {prop_trial.wsmse:.4f}")
print(f"normalized WSMSE, analytic:         "
      f"reuse {conv_expect.mean():.4f}, optimized {prop_expect.mean():.4f}")
