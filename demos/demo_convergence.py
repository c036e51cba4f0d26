"""How fast the pilot optimizer settles, from three starting points.

Runs the coordinate search at the 32-user reference scenario from the
DFT-reuse, truncated-DFT, and random initializations and prints the
objective trajectory statistics. Two things are worth noticing:

* every trace is monotone, and most of the improvement lands within the
  first couple of sweeps;
* the DFT-reuse start never leaves the span of its 16 orthogonal
  directions (the per-user update maps that set to itself), so it stops
  on a saddle, a hair above the objective the off-frame starts agree
  on; a small perturbation off those directions descends further. The
  gap is invisible on a plot but real: the exact update keeps whatever
  invariant the starting point has.

Run:  python demos/demo_convergence.py
"""

from pilotopt import ExperimentConfig, convergence_trace, reference_gains
from pilotopt.report import emit

experiment = ExperimentConfig(
    antennas=128,
    users=32,
    gains=reference_gains(),
    snr_db_list=[0.0],
    n_list=[16],
    trials=1,
    seed=12345,
    tol=1e-8,
    max_sweeps=200,
)

results = convergence_trace(experiment)

print(f"{'init':>10} {'start':>10} {'final':>12} {'sweeps':>7} {'updates to 1e-6':>16}")
for res in results:
    print(
        f"{res.init:>10} {res.trace.initial_objective:10.4f} "
        f"{res.final_objective:12.6f} {res.trace.sweeps_completed:7d} "
        f"{res.updates_to_converge:16d}"
    )

finals = [r.final_objective for r in results]
print(f"\nspread of final objectives: {max(finals) - min(finals):.2e} "
      f"({(max(finals) - min(finals)) / min(finals):.2%} relative)")

emit(results, "csv", "convergence.csv")
emit(results, "svg", "convergence.svg")
print("wrote convergence.csv and convergence.svg")
