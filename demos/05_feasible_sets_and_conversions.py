"""
Feasible-set backups and the penalty/constraint dictionary
==========================================================

Restrict the policy row to a ball around a reference instead of penalizing
it.  KL balls solve by a search on the multiplier of the constraint
(shared with every regularizer level set), L1 balls by an exact greedy move,
chi-square balls by one exact sorted-prefix KKT solve; a brute-force grid
oracle keeps everyone honest.  A feasible set is the indicator
regularizer of itself: each set answers `conjugate(w)`, so one backup
operator, `regularized_backup_operator`, solves penalized and constrained
models alike, and the whole simplex is the zero regularizer.  Conversions
translate between the penalty and constraint views in both directions.
"""

import numpy as np

from mdpkit import (EntropyRegularizer, KlBall, ct_to_r_convert,
                    grid_oracle_backup, kl_constrained_backup,
                    l1_constrained_backup, l1_dual_discrepancy,
                    l2_constrained_backup, r_to_ct_convert, random_mdp,
                    regularized_backup_operator, value_iteration)

w = np.array([1.0, 0.2, -0.5])
ref = np.full(3, 1.0 / 3.0)

# A ball backup is the conjugate of the ball's indicator, so it returns the
# regularized backups' result: the value, the maximizing row `argmax`, and
# here the ball's multiplier too.  `KlBall(ref, 0.1).conjugate(w)` gives the
# same result as the function below.
kl = kl_constrained_backup(w, ref, 0.1)
print("KL ball   value:", kl.value, " multiplier:", round(kl.multiplier, 4))
l1 = l1_constrained_backup(w, ref, 0.4)
print("L1 ball   value:", l1.value, " policy:", np.round(l1.argmax, 4))
l2 = l2_constrained_backup(w, ref, 0.2)
print("chi2 ball value:", l2.value, " policy:", np.round(l2.argmax, 4))

gval, _ = grid_oracle_backup(w, KlBall(ref, 0.1))
print("grid oracle for the KL ball:", gval, " gap:", kl.value - gval)

# The published L1 dual expression disagrees with the exact optimum; the
# library reports the discrepancy instead of asserting it away.
d = l1_dual_discrepancy(w, ref, 0.4)
print(f"\nL1 dual: exact {d.value:.4f} vs published {d.paper_dual_value:.4f} "
      f"(gap {d.gap:.4f})")
print("note:", d.note)

# Penalty -> feasible set: an entropy-regularized model becomes a KL-ball
# constrained model whose solve reproduces the same policy.
model = random_mdp(4, 3, seed=41, discount=0.9)
conv = r_to_ct_convert(model, EntropyRegularizer(0.6))
twin = value_iteration(conv.ct_model,
                       regularized_backup_operator(conv.constraints))
print("\npenalty->set policy gap:",
      np.max(np.abs(twin.policy - conv.base_policy)))
print("per-state ball radii:", [round(float(c.radius), 4) for c in conv.constraints])

# Feasible set -> penalty: multipliers become penalty weights; the induced
# regularized solve reproduces the constrained value with zero slack.
rng = np.random.default_rng(17)
balls = []
for _ in range(4):
    raw = rng.uniform(0.2, 1.0, 3)
    balls.append(KlBall(raw / raw.sum(), float(rng.uniform(0.05, 0.3))))
back = ct_to_r_convert(model, balls)
re_solved = value_iteration(model, regularized_backup_operator(back.regularizers))
print("set->penalty value gap:",
      np.max(np.abs(re_solved.value - back.ct_value)))
print("multipliers:", np.round(back.multipliers, 4),
      " max slackness:", np.max(np.abs(back.slackness)))
