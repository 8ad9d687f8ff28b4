"""Private training with DP-SGD and its distance certificate.

DP-SGD iterates projected stochastic gradient steps with per-step Gaussian
noise.  The step count follows a geometric-decay schedule derived from the
loss constants, and the certificate bounds the distance to the non-private
optimum with probability 1 - zeta.  The noise calibration deliberately uses
the more conservative T-squared variance; the T-linear alternative is shown
for comparison.
"""

import warnings

import numpy as np

import fairbound as fb

# the advisory of PrivacyParams at epsilon >= 1, which DP-SGD alone gives
warnings.filterwarnings("ignore", message=r"epsilon=\S+ >= 1: the closed-form DP-SGD",
                        category=UserWarning)

data = fb.synthesize(
    fb.SyntheticSpec(
        num_features=2,
        cells={
            (y, s): fb.CellSpec(
                count=250,
                mean=np.array([2.0 if y == 0 else -2.0, 0.5 * (1 if s else -1)]),
                cov=np.ones(2),
            )
            for y in (0, 1)
            for s in (0, 1)
        },
    ),
    seed=99,
)
optimum = fb.fit_erm(data, lam=1.0)
c = fb.constants(data, lam=1.0, radius=optimum.radius)
params = fb.PrivacyParams(epsilon=1.0, delta=1.0 / data.n**2, zeta=0.5,
                          mechanism="dp_sgd", seed=31)

schedule = fb.dpsgd_distance_bound(optimum.num_params, c, data.n, params)
print(f"schedule: T = {schedule.steps} steps, per-step noise variance "
      f"{schedule.noise_variance:.3g} (T-squared calibration)")
print(f"T-linear alternative would use "
      f"{fb.dpsgd_noise(c.loss_lipschitz, schedule.steps, data.n, params.epsilon, params.delta, 'T_linear'):.3g}")
print(f"distance certificate at zeta={params.zeta}: {schedule.distance:.4f}")

cfg = fb.DpSgdConfig.calibrated(c, data.n, params, schedule.steps)
print(f"step size {cfg.step_size:.5f} = 1/(2*smoothness), ball radius {cfg.radius:.4f}")

distances = []
for j in range(20):
    released = fb.dpsgd(data, c, params, cfg, substream=j)
    distances.append(fb.distance(optimum, released))
distances = np.array(distances)
print(f"\n20 runs: attained distances min {distances.min():.4f} / "
      f"median {np.median(distances):.4f} / max {distances.max():.4f} "
      f"(certificate {schedule.distance:.4f})")

# The certificate assumes the injected noise dominates the optimum's
# per-example gradient second moment; the check warns when it does not.
with warnings.catch_warnings():
    warnings.simplefilter("always")
    flagged = fb.privacy.warn_if_gradient_noise_dominates(
        optimum, data, 1.0, cfg.noise_variance
    )
print(f"gradient-noise domination violated: {flagged}")

# Noise-free sanity run: with zero noise the iterates behave like SGD and
# approach the optimum.
quiet = fb.DpSgdConfig(steps=5000, step_size=cfg.step_size, noise_variance=0.0,
                       radius=cfg.radius)
near = fb.dpsgd(data, c, params, quiet, substream=0)
print(f"noise-free run lands at distance {fb.distance(optimum, near):.5f} from the optimum")
