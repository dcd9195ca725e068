"""Tabular MDP model, validation, and the shared value-iteration engine.

A model is the tuple (states, actions, transition kernel, reward table,
discount).  Everything downstream (regularized, stochastic, distributionally
robust, constrained) plugs into `value_iteration` through a backup operator:
a callable mapping the action-value vector of one state to a scalar backup
value and a probability row over actions.  Each sweep computes the (S, A)
action-value table in one product and passes the operator its row s, which
may differ from the one-state `q_vector` in the last ulp (BLAS kernel shape).

A backup's row maximizes sup_p {w.p + phi(p)}, so it is the gradient of its
value in w (Danskin): `value_iteration` takes Newton (policy iteration) steps
with the rows as the Jacobian, with no per-family code.

The (S, A, S) kernel is the one large array, and it exists once: writeable
inputs are copied, frozen ones are shared, so a model with new rewards or a
converted model reuses its parent's kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12
POLICY_ROW_TOL = 1e-10


class ModelValidationError(ValueError):
    """Raised when a model (or model file) violates a structural invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine exhausts its budget.

    Carries the last residual and, when available, the best iterate so the
    caller can inspect how close the run came.
    """

    def __init__(self, message, residual=None, best=None):
        super().__init__(message)
        self.residual = residual
        self.best = best


def _frozen(a):
    # C order, so the (S*A, S) reshape of the kernel in `q_vector` is a
    # view; a read-only view is copied, as its base may still be written
    if (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.c_contiguous and a.flags.owndata
            and not a.flags.writeable):
        return a
    arr = np.array(a, dtype=float, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MdpModel:
    """Finite MDP: reward[s, a], transition[s, a, s'], discount in [0, 1).

    Arrays are held read-only, so a model can be shared across threads;
    parallel sweeps over states are safe.  Writeable inputs are copied;
    frozen ones (read-only, C-ordered float64 arrays that own their data)
    are shared, so models built from one kernel hold one copy of it.
    """

    num_states: int
    num_actions: int
    transition: np.ndarray
    reward: np.ndarray
    discount: float

    def __post_init__(self):
        object.__setattr__(self, "transition", _frozen(self.transition))
        object.__setattr__(self, "reward", _frozen(self.reward))
        violations = validate_model(self)
        if violations:
            raise ModelValidationError(violations)


@dataclass
class SolveResult:
    """Outcome of value iteration: value per state, policy rows, diagnostics.

    `error_bound` = gamma / (1 - gamma) * residual bounds the sup-norm
    distance of `value` from the fixed point and from the value of `policy`.
    """

    value: np.ndarray
    policy: np.ndarray
    iterations: int
    residual: float
    error_bound: float


def validate_model(model) -> list:
    """Return a list of human-readable invariant violations (empty if valid)."""
    v = []
    S, A = model.num_states, model.num_actions
    if S < 1 or A < 1:
        v.append(f"need at least one state and one action, got ({S}, {A})")
        return v
    if model.transition.shape != (S, A, S):
        v.append(f"transition shape {model.transition.shape} != {(S, A, S)}")
    if model.reward.shape != (S, A):
        v.append(f"reward shape {model.reward.shape} != {(S, A)}")
    if v:
        return v
    if not np.all(np.isfinite(model.reward)):
        bad = np.argwhere(~np.isfinite(model.reward))[0]
        v.append(f"reward not finite at (s={bad[0]}, a={bad[1]})")
    # reductions, no kernel-sized temporaries: min and max propagate NaN
    # and +-inf, so both are finite iff every entry is
    low, high = model.transition.min(), model.transition.max()
    if not (math.isfinite(low) and math.isfinite(high)):
        v.append("transition has non-finite entries")
    else:
        if low < 0:
            s, a = np.argwhere(model.transition.min(axis=2) < 0)[0]
            v.append(f"negative transition probability at (s={s}, a={a})")
        rowsum = model.transition.sum(axis=2)
        off = np.abs(rowsum - 1.0)
        if np.any(off > ROW_SUM_TOL):
            s, a = np.argwhere(off > ROW_SUM_TOL)[0]
            v.append(
                f"transition row (s={s}, a={a}) sums to {rowsum[s, a]:.17g}, "
                f"outside 1 +/- {ROW_SUM_TOL}"
            )
    if not (0.0 <= model.discount < 1.0):
        v.append(f"discount {model.discount:.17g} outside [0, 1)")
    return v


def validate_policy_matrix(probs, num_states=None, num_actions=None) -> list:
    """Check that `probs` is a row-stochastic matrix within tolerance."""
    probs = np.asarray(probs, dtype=float)
    v = []
    if probs.ndim != 2:
        return [f"policy must be 2-d, got shape {probs.shape}"]
    if num_states is not None and probs.shape[0] != num_states:
        return [f"policy has {probs.shape[0]} rows, expected {num_states}"]
    if num_actions is not None and probs.shape[1] != num_actions:
        return [f"policy has {probs.shape[1]} columns, expected {num_actions}"]
    if not np.all(np.isfinite(probs)):
        v.append("policy has non-finite entries")
        return v
    if np.any(probs < -POLICY_ROW_TOL):
        s, a = np.argwhere(probs < -POLICY_ROW_TOL)[0]
        v.append(f"negative policy entry at (s={s}, a={a})")
    off = np.abs(probs.sum(axis=1) - 1.0)
    if np.any(off > POLICY_ROW_TOL):
        s = int(np.argmax(off))
        v.append(f"policy row s={s} sums to {probs[s].sum():.17g}")
    return v


def q_vector(model, value, state=None) -> np.ndarray:
    """Action values r + discount * P @ value: the (S, A) table, or one row.

    The table is one (S*A, S) product, whose row s may differ from the
    one-state form in the last ulp (BLAS uses other kernel shapes).
    """
    if state is None:
        S, A = model.num_states, model.num_actions
        q = model.transition.reshape(S * A, S) @ value
        return model.reward + model.discount * q.reshape(S, A)
    return model.reward[state] + model.discount * (model.transition[state] @ value)


def standard_backup(w):
    """Hard max backup: (max_a w_a, one-hot at the argmax, lowest index on ties)."""
    w = np.asarray(w, dtype=float)
    a = int(np.argmax(w))
    row = np.zeros(w.shape[0])
    row[a] = 1.0
    return float(w[a]), row


def standard_backup_operator():
    """Backup operator for the plain (unregularized) Bellman update."""
    return lambda w, state, sweep: standard_backup(w)


def bellman_sweep(model, backup, value, sweep=0):
    """One synchronous sweep: returns (new value vector, policy matrix).

    The operator gets row s of the table `q_vector(model, value)` as
    (w, state, sweep).  States are independent given `value`, so this loop
    could run in parallel; the operator must not mutate shared state.
    """
    S = model.num_states
    new_value = np.empty(S)
    policy = np.empty((S, model.num_actions))
    for s, w in enumerate(q_vector(model, value)):
        val, row = backup(w, s, sweep)
        new_value[s] = val
        policy[s] = row
    return new_value, policy


def _evaluation_matrix(model, policy):
    """I - gamma P_pi, P_pi the kernel under `policy`, in one (S, S) buffer.

    When every row of `policy` has one nonzero, P_pi is the kernel rows it
    picks, scaled by their weights: a gather of S rows, not a product over
    all S*A of them.  Either way it equals np.eye(S) - gamma * P_pi
    exactly.
    """
    S = model.num_states
    nonzero = policy != 0
    if np.all(np.count_nonzero(nonzero, axis=1) == 1):
        states = np.arange(S)
        actions = np.argmax(nonzero, axis=1)
        mat = model.transition[states, actions]
        mat *= policy[states, actions][:, None]
    else:
        mat = np.matmul(policy[:, None, :], model.transition)[:, 0, :]
    mat *= -model.discount
    mat.flat[::S + 1] += 1.0
    return mat


def value_iteration(model, backup, tol=1e-10, max_iter=100000,
                    newton=True) -> SolveResult:
    """Iterate synchronous sweeps until the sup-norm residual |TV - V| <= tol.

    Returns TV with that sweep's rows.  A sweep that misses tol steps to
    V + (I - gamma P_pi)^-1 (TV - V), P_pi the kernel under its rows: Newton's
    step (policy iteration), to the value of those rows.  Exact rows then let
    the next sweep lower no value (TV >= V), and each step lands between TV
    and the fixed point.  From the first later sweep that lowers a value by
    more than tol (rows that are not the gradient), the steps are the plain
    V <- TV, as they all are with `newton=False`.

    Raises ConvergenceError (carrying the last residual and the last sweep's
    result as `best`) if max_iter sweeps do not reach the tolerance, or at
    once on a sweep whose residual is not a finite number.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    gamma = model.discount
    value = np.zeros(model.num_states)
    for sweep in range(1, max_iter + 1):
        new_value, policy = bellman_sweep(model, backup, value, sweep - 1)
        step = new_value - value
        residual = float(np.max(np.abs(step)))
        result = SolveResult(value=new_value, policy=policy, iterations=sweep,
                             residual=residual,
                             error_bound=gamma / (1.0 - gamma) * residual)
        if residual <= tol:
            return result
        if not np.isfinite(residual):
            raise ConvergenceError(
                f"value iteration residual is {residual} at sweep {sweep}",
                residual=residual, best=result)
        newton = newton and (sweep == 1 or np.min(step) >= -tol)
        if newton:
            value = value + np.linalg.solve(
                _evaluation_matrix(model, policy), step)
        else:
            value = new_value
    raise ConvergenceError(
        f"value iteration did not reach tol={tol} in {max_iter} sweeps "
        f"(last residual {residual})",
        residual=residual, best=result)


def policy_evaluation_exact(model, policy) -> np.ndarray:
    """Value of a fixed policy via the linear system (I - gamma P_pi) V = r_pi."""
    policy = np.asarray(policy, dtype=float)
    bad = validate_policy_matrix(policy, model.num_states, model.num_actions)
    if bad:
        raise ModelValidationError(bad)
    r_pi = np.einsum("sa,sa->s", policy, model.reward)
    mat = _evaluation_matrix(model, policy)
    value = np.linalg.solve(mat, r_pi)
    res = float(np.max(np.abs(mat @ value - r_pi)))
    if res > 1e-8 * max(1.0, float(np.max(np.abs(r_pi)))):
        raise ConvergenceError(
            f"policy evaluation linear solve residual {res} too large",
            residual=res,
        )
    return value


def random_mdp(num_states, num_actions, seed, reward_range=(-1.0, 1.0),
               discount=0.9) -> MdpModel:
    """Random dense model: normalized positive transition rows, uniform rewards."""
    lo, hi = reward_range
    if not lo < hi:
        raise ValueError(f"empty reward range {reward_range}")
    rng = np.random.default_rng(seed)
    # normalized in place and frozen, so the model shares the one draw
    transition = rng.random((num_states, num_actions, num_states))
    transition += 1e-9
    transition /= transition.sum(axis=2, keepdims=True)
    transition.setflags(write=False)
    reward = rng.uniform(lo, hi, size=(num_states, num_actions))
    return MdpModel(num_states=num_states, num_actions=num_actions,
                    transition=transition, reward=reward, discount=discount)


def derive_rng(seed, *key) -> np.random.Generator:
    """Independent generator for (seed, *key); reproducible under any schedule.

    Recreating the generator for the same key replays the same stream, which
    is how common random numbers across sweeps are implemented.  The key
    length goes into the entropy so (0, 1) and (0, 1, 0) do not collide
    through SeedSequence zero padding.
    """
    return np.random.default_rng([int(seed), len(key)] + [int(k) for k in key])
