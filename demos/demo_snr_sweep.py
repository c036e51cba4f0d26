"""Effect of SNR on estimation quality, optimized pilots vs pilot reuse.

A desk-scale scenario (32 antennas, 8 users, 4 pilot symbols) is swept
across SNR. At every point the baseline reuses orthogonal DFT columns
and the proposed design uses the optimal pilots, built once since they
are the same at every SNR, with the matched estimator; both analytic
and Monte Carlo WSMSE values are reported. Watch the baseline curve
turn back upward at high SNR: with pilot reuse the contamination error
does not fade with the noise, and the contamination-ignorant MMSE
scalar overweights the corrupted statistic.

Run:  python demos/demo_snr_sweep.py
"""

import numpy as np

from pilotopt import ExperimentConfig, reference_gains, sweep_snr
from pilotopt.report import emit

experiment = ExperimentConfig(
    antennas=32,
    users=8,
    gains=reference_gains()[:8],
    snr_db_list=[float(s) for s in range(-10, 21, 2)],
    n_list=[4],
    trials=2000,
    seed=42,
)

rows = sweep_snr(experiment)

print(f"{'SNR (dB)':>9} {'algorithm':>13} {'analytic':>10} {'empirical':>10} {'stderr':>9}")
for row in rows:
    print(
        f"{row.snr_db:9.0f} {row.algorithm:>13} {row.wsmse_analytic:10.5f} "
        f"{row.wsmse_empirical:10.5f} {row.stderr:9.2e}"
    )

emit(rows, "csv", "snr_sweep.csv")
emit(rows, "svg", "snr_sweep.svg")
print("\nwrote snr_sweep.csv and snr_sweep.svg")

proposed = np.array([r.wsmse_analytic for r in rows if r.algorithm == "proposed"])
conventional = np.array(
    [r.wsmse_analytic for r in rows if r.algorithm == "conventional"]
)
print(f"optimized pilots win at every point: {np.all(proposed <= conventional)}")
print(f"largest gap: {np.max(conventional - proposed):.4f} normalized WSMSE")
