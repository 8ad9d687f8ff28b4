"""Envelope experiment: how private-model fairness concentrates as data grows.

For each sample size on a log grid, the sweep trains the optimum, samples
private releases, and records the attained fairness range next to the
a-priori certificate, the measured-distance diagnostic, and the refined
direction-aware diagnostic for the farthest draw.  Everything lands in a
byte-reproducible CSV keyed by a config hash.
"""

import csv
import os
import tempfile
import textwrap
import warnings

import numpy as np

from fairbound.experiment import ExperimentConfig, run_experiment

warnings.filterwarnings("ignore")

# the work directory and the sweep it holds are removed once the rows are read
with tempfile.TemporaryDirectory(prefix="fairbound_demo_") as workdir:
    spec_path = os.path.join(workdir, "synth.cfg")
    with open(spec_path, "w", encoding="utf-8") as fh:
        fh.write(textwrap.dedent("""\
            features = 2
            cell.0.0.count = 3000
            cell.0.0.mean = 2.0, 0.6
            cell.0.0.cov = 1.0, 1.0
            cell.0.1.count = 2000
            cell.0.1.mean = 2.0, -0.6
            cell.0.1.cov = 1.0, 1.0
            cell.1.0.count = 2500
            cell.1.0.mean = -2.0, -0.6
            cell.1.0.cov = 1.0, 1.0
            cell.1.1.count = 2500
            cell.1.1.mean = -2.0, 0.6
            cell.1.1.cov = 1.0, 1.0
            """))

    cfg = ExperimentConfig(
        data=spec_path,
        data_format="synthetic",
        lam=1.0,
        notions=("equality_of_opportunity",),
        mechanism="output_perturbation",
        sweep_axis="n",
        grid_start=100,
        grid_stop=8000,
        grid_count=4,
        draws=50,
        zeta=0.01,
        delta_policy="inverse_n_squared",
        seed=17,
    )
    result = run_experiment(cfg, os.path.join(workdir, "results"))
    print(f"wrote {result.rows} rows to {result.sweep_path}")
    print(f"failures: {len(result.failures)}\n")

    with open(result.sweep_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))

print("envelope for the desirable-label / group-0 cell:")
print(f"{'n':>6} {'f(h*)':>9} {'attained range':>22} {'certificate':>12} "
      f"{'measured':>10} {'refined':>10}")
for row in rows:
    if row["k"] != "3":  # (label 1, sensitive 1) cell of equality of opportunity
        continue
    band = f"[{float(row['f_priv_min']):+.4f}, {float(row['f_priv_max']):+.4f}]"
    print(f"{row['n']:>6} {float(row['f_star']):>+9.4f} {band:>22} "
          f"{float(row['bound_lemma']):>12.4f} {float(row['bound_measured']):>10.4f} "
          f"{float(row['bound_refined']):>10.4f}")
print("\nthe attained band narrows and every diagnostic tightens as n grows")
