"""Tabular MDP model, validation, and the shared value-iteration engine.

A model is the tuple (states, actions, transition kernel, reward table,
discount).  Everything downstream (regularized, stochastic, distributionally
robust, constrained) plugs into `value_iteration` through a backup operator
`op(table, states, sweep) -> (values, rows)`: `table` is a (k, A) block of
action-value rows, `states` their k state indices, and the operator returns
k backup values and k probability rows over actions.  Each sweep computes
the (S, A) table in one product and makes one call, `op(table,
np.arange(S), sweep)`; the table's row s may differ from the one-state
`q_vector` in the last ulp (BLAS kernel shape).  Closed forms act on the
last axis of the whole table; the Monte Carlo backup spreads its states
over threads (`stochastic.smdp_backup_operator`); any other backup runs
through `rowwise_operator`, the one per-row loop.  `states` is what per-state
structure (regularizer or constraint lists, Monte Carlo draws) keys on, so
an operator can also be called on any subset of rows.  No built-in
operator reads `sweep`; it stays in the protocol because wrappers pass it
on (the traced wrapper of `bench/spans.py` does).

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
_EPS = float(np.finfo(float).eps)


def _falsi(f, lo, hi, g_lo, g_hi, x_lo, x_hi, done=lambda x, g: False):
    """Narrow a bracket g_lo > 0 > g_hi of the root of a falling f.

    f(x) returns (g, payload), g = 0.0 within rounding of the root; x_lo
    and x_hi are the ends' payloads.  Anderson-Bjorck regula falsi steps,
    bisected when a step leaves the bracket or, as in Brent's method, is
    not half the step before last (at a kink the secant creeps).  Stops on
    a root, a bracket closed to rounding, done(hi, g_hi) or 200 steps, and
    returns (lo, g_lo, x_lo, hi, g_hi, x_hi).
    """
    f_lo, f_hi, kept = g_lo, g_hi, 0
    last, step, prev = hi, np.inf, np.inf
    for _ in range(200):
        if (not g_lo > 0.0 > g_hi or done(hi, g_hi)
                or hi - lo <= 4 * _EPS * max(1.0, abs(lo), abs(hi))):
            break
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi or abs(x - last) > 0.5 * prev:
            x = 0.5 * (lo + hi)
        last, prev, step = x, step, abs(x - last)
        g, payload = f(x)
        if g > 0.0:
            # Anderson-Bjorck: shrink the weight of the end kept twice
            m = 1.0 - g / g_lo if kept == 1 else 1.0
            f_hi *= m if m > 0.0 else 0.5
            lo, x_lo, g_lo, f_lo, kept = x, payload, g, g, 1
        else:
            m = 1.0 - g / g_hi if kept == -1 else 1.0
            f_lo *= m if m > 0.0 else 0.5
            hi, x_hi, g_hi, f_hi, kept = x, payload, g, g, -1
    return lo, g_lo, x_lo, hi, g_hi, x_hi


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

    Arrays are held read-only, so a model can be shared across threads and
    by concurrent solves.  Writeable inputs are copied;
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


def _float_or_array(x):
    """A 0-d result as a Python float; a result over table rows as is."""
    return float(x) if np.ndim(x) == 0 else x


def _param(x, name, low=-math.inf, high=math.inf, strict=False):
    """float(x) if finite and in [low, high], low excluded when `strict`.

    The one check of a scalar parameter: anything else, NaN included,
    raises ValueError naming the parameter and its range.
    """
    x = float(x)
    if math.isfinite(x) and (low < x if strict else low <= x) and x <= high:
        return x
    where = "" if (low, high) == (-math.inf, math.inf) else (
        f" in {'(' if strict else '['}{low:g}, {high:g}"
        f"{']' if high < math.inf else ')'}")
    raise ValueError(f"{name} must be a finite number{where}, got {x}")


def _per_state(x, num_states=None, what=None):
    """Whether x holds one entry per state: a list, tuple or array does.

    Anything else is one object for every state.  Given num_states, a
    per-state x of another length raises ModelValidationError.
    """
    if not isinstance(x, (list, tuple, np.ndarray)):
        return False
    if num_states is not None and len(x) != num_states:
        raise ModelValidationError([f"per-state {what} list has {len(x)} "
                                    f"entries for {num_states} states"])
    return True


def standard_backup(w):
    """Hard max backup: (max_a w_a, one-hot at the argmax, lowest index on ties).

    Acts on the last axis: a row gives (float, row), an (n, A) table gives
    (n values, n rows).
    """
    w = np.asarray(w, dtype=float)
    a = np.argmax(w, axis=-1)[..., None]
    rows = np.zeros(w.shape)
    np.put_along_axis(rows, a, 1.0, axis=-1)
    return _float_or_array(np.take_along_axis(w, a, axis=-1)[..., 0]), rows


def standard_backup_operator():
    """Backup operator for the plain (unregularized) Bellman update."""
    return lambda table, states, sweep: standard_backup(table)


def rowwise_operator(backup):
    """Table operator from a one-row backup `backup(w, state) -> (value, row)`.

    The per-row loop behind every backup with no batched form: each row of
    the table is backed up with its own state index, in order.
    """
    def op(table, states, sweep):
        table = np.asarray(table, dtype=float)
        values = np.empty(len(states))
        rows = np.empty(table.shape)
        for i, (w, state) in enumerate(zip(table, states)):
            values[i], rows[i] = backup(w, int(state))
        return values, rows

    return op


def bellman_sweep(model, backup, value, sweep=0):
    """One synchronous sweep: returns (new value vector, policy matrix).

    One call backs up the whole table: `backup(q_vector(model, value),
    np.arange(S), sweep)`.
    """
    return backup(q_vector(model, value), np.arange(model.num_states), sweep)


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
    tol = _param(tol, "tol", 0.0, strict=True)
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
