"""
Noisy-reward backups: closed-form Gumbel and Monte Carlo
========================================================

With mean-zero i.i.d. Gumbel noise on the rewards, E[max_a (w_a + eps_a)]
is exactly the entropy-softened maximum.  Any other noise goes through a
sampled backup with common random numbers, and a uniform-noise chooser
shows that one softmax temperature cannot explain every noise model.
"""

import numpy as np

from mdpkit import (GumbelIid, entropy_backup, mc_emax,
                    mc_counterexample_ratio, random_mdp, refute_single_eta_fit,
                    smdp_backup_operator, uniform_counterexample_ratio,
                    value_iteration, regularized_backup_operator,
                    EntropyRegularizer)

w = np.array([1.0, 0.0, -1.0])
eta = 1.0

# A Gumbel law's expected max is the backup of its regularizer, entropy
# plus the noise mean; at mean zero that is the entropy backup itself.
closed = GumbelIid.mean_zero(eta).regularizer().conjugate(w)
soft = entropy_backup(w, eta)
print("expected-max value:", closed.value)
print("soft backup value :", soft.value, "(identical arithmetic)")

# Monte Carlo agrees within sampling error.
noise = GumbelIid.mean_zero(eta, num_actions=3)
est = mc_emax(w, noise, samples=200000, seed=3)
print(f"MC estimate: {est.mean:.5f} +- {est.std_error:.5f}")

# Full value iteration with frozen draws per state (common random numbers).
model = random_mdp(4, 3, seed=21, discount=0.85)
mc = value_iteration(model, smdp_backup_operator(noise, samples=200000, seed=9),
                     tol=1e-8)
exact = value_iteration(model, regularized_backup_operator(EntropyRegularizer(eta)))
print("MC fixed point vs closed:", np.max(np.abs(mc.value - exact.value)))

# Uniform noise on one action produces choice-probability ratios that no
# single softmax temperature can fit.  The chooser prints t/(1-t); sampling
# the same chooser estimates the reciprocal, and both refute a single eta.
for t in (0.25, 0.5, 0.75):
    printed = uniform_counterexample_ratio(0.0, t)
    sampled = mc_counterexample_ratio(0.0, t, samples=200000, seed=5)
    print(f"t={t:4.2f}  printed ratio={printed:.4f}  sampled ratio={sampled:.4f}")

fit = refute_single_eta_fit([-0.25, -0.75], [1.0 / 3.0, 3.0])
print("best single-temperature fit residual:", round(fit.residual, 4),
      "(> 0.1, so refuted)")
