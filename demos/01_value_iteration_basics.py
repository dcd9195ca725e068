"""
Solving a tabular MDP with synchronous value iteration
======================================================

Build a two-state chain by hand, solve it, and cross-check the result
against exact policy evaluation.
"""

import numpy as np

from mdpkit import (MdpModel, ZeroRegularizer, policy_evaluation_exact,
                    random_mdp, regularized_backup_operator, value_iteration)

# State 0: action 0 stays (reward 1), action 1 hops to state 1 (reward 0.2).
# State 1: action 0 hops back (reward 0), action 1 stays (reward 2).
transition = np.array([
    [[1.0, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, 1.0]],
])
reward = np.array([[1.0, 0.2], [0.0, 2.0]])
chain = MdpModel(num_states=2, num_actions=2, transition=transition,
                 reward=reward, discount=0.5)

# The plain Bellman backup is the regularized backup with phi = 0, whose
# conjugate is the hard max: one `standard_backup` call per sweep.
hard_max = regularized_backup_operator(ZeroRegularizer())

# Staying at 1 forever is worth 2/(1-0.5) = 4, so hopping there first is
# worth 0.2 + 0.5*4 = 2.2, beating the stay-at-0 value of 2.
result = value_iteration(chain, hard_max, tol=1e-12)
print("chain values :", result.value)          # [2.2, 4] analytically
print("chain policy :\n", result.policy)
print("iterations   :", result.iterations, " residual:", result.residual)

# The greedy policy should be a fixed point of exact evaluation.
exact = policy_evaluation_exact(chain, result.policy)
print("evaluation gap:", np.max(np.abs(exact - result.value)))

# The same loop handles any (S, A) table; draw a random model to show scale.
model = random_mdp(6, 3, seed=7, reward_range=(-1.0, 1.0), discount=0.9)
res = value_iteration(model, hard_max)
print("\nrandom 6-state model values:", np.round(res.value, 4))
print("greedy actions:", res.policy.argmax(axis=1))
