"""From empirical to true fairness: the finite-sample slack terms.

The gap certificates compare two models on the same sample.  Relating the
*true* fairness of one model to the *empirical* fairness of another costs an
extra concentration slack, in two regimes: models fixed in advance, or
models fit on the sample (paying a capacity price through the Natarajan
dimension).  The combined statement then holds with probability at least
1 - delta - zeta.
"""

import numpy as np

import fairbound as fb


data = fb.synthesize(
    fb.SyntheticSpec(
        num_features=2,
        cells={
            (y, s): fb.CellSpec(
                count=2500,
                mean=np.array([2.0 if y == 0 else -2.0, 0.5 * (1 if s else -1)]),
                cov=np.ones(2),
            )
            for y in (0, 1)
            for s in (0, 1)
        },
    ),
    seed=3,
)
spec = fb.coefficients(data, "equalized_odds")
delta = 0.05

print("slack per group at different sample sizes (equalized odds, delta=0.05):")
print(f"{'n':>8} {'precondition':>13} {'independent':>12} {'dependent':>11}")
for n in (1_000, 10_000, 100_000, 1_000_000):
    ok = fb.sample_size_sufficient(spec, n, delta)
    independent, dependent = (
        fb.finite_sample_slacks(spec, n, delta, data.num_labels, data.p, mode)[0]
        for mode in ("independent", "dependent")
    )
    print(f"{n:>8} {str(ok):>13} {independent:>12.5f} {dependent:>11.5f}")

print("\nthe dependent regime pays for fitting on the sample: its slack")
print("carries the Natarajan dimension (default |labels| * features =",
      f"{data.num_labels * data.p}) and only helps once n is much larger.")

# Combined statement: add the slack to a privacy gap certificate.
model = fb.fit_erm(data, lam=1.0)
c = fb.constants(data, lam=1.0, radius=model.radius)
params = fb.PrivacyParams(epsilon=1.0, delta=1.0 / data.n**2, zeta=0.01,
                          mechanism="output_perturbation", seed=0)
report = fb.theorem3_report(model, data, spec, c, data.n, params)
slack = fb.finite_sample_slacks(spec, data.n, delta, data.num_labels, data.p, "independent")
print(f"\ncombined true-vs-empirical bound, probability >= {1 - delta - params.zeta}:")
for entry, s in zip(report.entries, slack):
    print(f"  group {entry.description}: gap bound {entry.best:.4f} "
          f"+ slack {s:.4f} = {entry.best + s:.4f}")
