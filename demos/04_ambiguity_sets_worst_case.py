"""
Distributionally robust backups over noise ambiguity sets
=========================================================

Instead of one noise law, fix only its marginals, its per-action standard
deviations, or its covariance; the worst case over the set is again a
regularized backup, sometimes in closed form.
"""

import numpy as np

from mdpkit import (CovarianceModel, CovarianceRegularizer,
                    DistributionalInstance, ExponentialInverseCdf,
                    MarginalDistributionModel, MarginalMomentModel,
                    UniformInverseCdf, ds_backup, ds_lower_bound_check,
                    random_mdp, value_iteration)

w = np.array([0.8, 0.1, -0.3])

# Marginals fixed to unit-rate exponentials: the robust backup is the
# softmax backup plus one.
mdm = MarginalDistributionModel([[ExponentialInverseCdf(1.0)] * 3])
res = ds_backup(w, mdm)
shifted = np.exp(w - w.max())
print("exponential marginals:", res.value, "=",
      1.0 + w.max() + np.log(shifted.sum()))
print("policy matches softmax:",
      np.max(np.abs(res.argmax - shifted / shifted.sum())))

# Mixed marginal families have no closed form; one scalar root on the
# simplex multiplier solves the stationarity condition instead.
mixed = MarginalDistributionModel(
    [[ExponentialInverseCdf(1.2), UniformInverseCdf(-0.5, 0.5),
      ExponentialInverseCdf(0.8)]])
print("mixed marginals value:", ds_backup(w, mixed).value)

# Moment set: only standard deviations are pinned down.
mmm = MarginalMomentModel([[0.4, 0.4, 0.4]])
print("moment-set value     :", ds_backup(w, mmm).value)

# Covariance set with an isotropic matrix reduces to sigma*sqrt(2 p (1-p))
# in the two-action case.
sigma = 0.5
phi = CovarianceRegularizer(sigma**2 * np.eye(2))
p = np.array([0.3, 0.7])
print("cov regularizer check:", phi.value(p), sigma * np.sqrt(2 * 0.3 * 0.7))

# Sanity: the worst case really upper-bounds sampled members of the set.
check = ds_lower_bound_check(w, mmm, seed=4, samples=200000)
print(f"member E[max] {check.mc_value:.4f} <= robust value {check.ds_value:.4f}:",
      check.ok)

# The robust operator is the regularized operator under each state's
# equivalent regularizer, so it plugs into the same value iteration.
model = random_mdp(4, 3, seed=31, discount=0.9)
robust = value_iteration(model, DistributionalInstance(
    model, MarginalMomentModel(np.full((4, 3), 0.4))).operator())
print("robust values:", np.round(robust.value, 4))
