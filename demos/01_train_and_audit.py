"""Train a regularized linear classifier and audit its group fairness.

Walks the first half of the pipeline: synthesize a labeled dataset with a
sensitive attribute, split it, fit the strongly convex optimum, and measure
per-group fairness under all supported notions, double-checking the affine
coefficient form against the definitional formulas.
"""

import numpy as np

import fairbound as fb

# A planted task: the label follows the first feature, and the sensitive
# attribute shifts the second feature so the classes are easier to separate
# for one group than for the other.
spec = fb.SyntheticSpec(
    num_features=2,
    cells={
        (0, 0): fb.CellSpec(count=900, mean=np.array([2.0, 0.8]), cov=np.array([1.0, 1.0])),
        (0, 1): fb.CellSpec(count=600, mean=np.array([2.0, -0.8]), cov=np.array([1.0, 1.0])),
        (1, 0): fb.CellSpec(count=750, mean=np.array([-2.0, -0.8]), cov=np.array([1.0, 1.0])),
        (1, 1): fb.CellSpec(count=750, mean=np.array([-2.0, 0.8]), cov=np.array([1.0, 1.0])),
    },
)
data = fb.synthesize(spec, seed=7)
train, test = fb.split(data, fraction=0.9, seed=7)
print(f"dataset: n={data.n}, features={data.p - 1} (+ intercept), "
      f"train/test = {train.n}/{test.n}")

model = fb.fit_erm(train, lam=1.0, tol=1e-10)
accuracy = np.mean(fb.model.predict_many(model, test.features) == test.labels)
print(f"trained optimum: ||W|| = {np.linalg.norm(model.weights):.4f}, "
      f"test accuracy = {accuracy:.3f}\n")

for notion in fb.NOTIONS:
    desirable = frozenset({1}) if notion == "equality_of_opportunity" else None
    fairness_spec = fb.coefficients(test, notion, desirable=desirable)
    levels = fb.group_fairness_all(model, test, fairness_spec)
    print(f"{notion} (K={fairness_spec.num_groups}):")
    for k, level in enumerate(levels):
        direct = fb.direct_fairness(model, test, notion, k, desirable=desirable)
        if notion == "accuracy":
            tag = "plain accuracy, single group"
        else:
            tag = "advantaged" if level > 0 else ("disadvantaged" if level < 0 else "fair")
        print(f"  group {fairness_spec.partition.descriptions[k]:>10}: "
              f"F = {level:+.4f} ({tag}); definitional check {direct:+.4f}")
    print(f"  aggregate |F| mean = {np.mean(np.abs(levels)):.4f}\n")
