"""Trading training overhead for estimation quality.

Sweeps the pilot sequence length from a single symbol up to the user
count at two SNR points. Below the user count the optimal pilots spread
the contamination that cannot be avoided; at full length both schemes coincide
with orthogonal pilots and the curves meet exactly.

Run:  python demos/demo_pilot_length.py
"""

from pilotopt import ExperimentConfig, reference_gains, sweep_snr
from pilotopt.report import emit

experiment = ExperimentConfig(
    antennas=32,
    users=8,
    gains=reference_gains()[:8],
    snr_db_list=[0.0, 10.0],
    n_list=[1, 2, 4, 8],
    trials=2000,
    seed=42,
)

rows = sweep_snr(experiment)

for snr in (0.0, 10.0):
    print(f"\nSNR = {snr:g} dB")
    print(f"{'N':>3} {'optimized':>10} {'reuse':>10}")
    for n in (1, 2, 4, 8):
        pair = {
            r.algorithm: r.wsmse_analytic
            for r in rows
            if r.n == n and r.snr_db == snr
        }
        print(f"{n:3d} {pair['proposed']:10.5f} {pair['conventional']:10.5f}")

full = [r for r in rows if r.n == 8 and r.snr_db == 0.0]
gap = abs(full[0].wsmse_analytic - full[1].wsmse_analytic)
print(f"\nat N = K the two schemes agree to {gap:.1e}")

emit(rows, "csv", "pilot_length_sweep.csv")
emit(rows, "svg", "pilot_length_sweep.svg")
print("wrote pilot_length_sweep.csv and pilot_length_sweep.svg")
