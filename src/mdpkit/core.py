"""Tabular MDP model, validation, and the shared value-iteration engine.

A model is the tuple (states, actions, transition kernel, reward table,
discount).  Every framework plugs into `value_iteration` through a backup
operator `op(table, states, sweep) -> (values, rows)`: `table` is a (k, A)
block of action-value rows, `states` their k state indices, and the
operator returns k backup values and k probability rows over actions.  Each
sweep computes the (S, A) table in one product and makes one call,
`op(table, np.arange(S), sweep)`; the table's row s may differ from the
one-state `q_vector` in the last ulp (BLAS kernel shape).  At V = 0, where
every solve starts, the table is the reward, bit for bit, with no product.
A stack of N reward tables on one kernel sweeps as one (N*S, A) table, its
states repeated.  `states` is what per-state structure keys on, so an
operator can also be called on any subset of rows, or on a row more than
once.  No built-in operator reads `sweep`; it stays in the protocol because
wrappers pass it on (the traced wrapper of `bench/spans.py` does).

A backup's row maximizes sup_p {w.p + phi(p)}, so it is the gradient of its
value in w (Danskin): `value_iteration` takes Newton (policy iteration) steps
with the rows as the Jacobian, with no per-family code.

The (S, A, S) kernel is the one large array, and it exists once: writeable
inputs are copied, frozen ones are shared, so a model with new rewards or a
converted model reuses its parent's kernel.  It is built (`random_mdp`) and
checked (`validate_model`) in one pass of blocks of states, `_blocks` of
about 1 MB each, so neither holds a temporary the size of the kernel.

Every parameter from outside the program is read by the class that holds
it, through one rule per shape: `_param` for a scalar, `_count` for a
count or a seed, `_array` for an array (`_row` for one per-action row).  A
value of the wrong type or out of range raises ValueError naming its
field, so a model file needs no reader of its own for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12
POLICY_ROW_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


def _falsi(f, lo, hi, g_lo, g_hi, x_lo, x_hi):
    """Narrow a bracket g_lo > 0 > g_hi of the root of a falling f.

    f(x) returns (g, payload), g = 0.0 at a point it accepts as the root:
    within rounding of it, or, for the ball multiplier, an end certified
    by its duality gap.  x_lo and x_hi are the ends' payloads.
    Anderson-Bjorck regula falsi steps, bisected when a step leaves the
    bracket or, as in Brent's method, is not half the step before last (at
    a kink the secant creeps).  Stops on a root, a bracket closed to
    rounding or 200 steps, and returns (lo, g_lo, x_lo, hi, g_hi, x_hi).
    """
    f_lo, f_hi, kept = g_lo, g_hi, 0
    last, step, prev = hi, np.inf, np.inf
    for _ in range(200):
        if (not g_lo > 0.0 > g_hi
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
    caller can inspect how close the run came; a stacked `value_iteration`
    also names the failing reward table as `trial`.
    """

    def __init__(self, message, residual=None, best=None, trial=None):
        super().__init__(message)
        self.residual = residual
        self.best = best
        self.trial = trial


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
        for name in ("num_states", "num_actions"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
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
    if model.transition.shape != (S, A, S):
        v.append(f"transition shape {model.transition.shape} != {(S, A, S)}")
    if model.reward.shape != (S, A):
        v.append(f"reward shape {model.reward.shape} != {(S, A)}")
    if v:
        return v
    v += _reward_violations(model.reward)
    # one read of the kernel, block by block: its min, its max and its row
    # sums; min and max propagate NaN and +-inf, so both are finite iff
    # every entry is
    low, high, rowsum = np.inf, -np.inf, np.empty((S, A))
    for blk in _blocks(S, model.transition[0].nbytes):
        block = model.transition[blk]
        low, high = np.minimum(low, block.min()), np.maximum(high, block.max())
        block.sum(axis=2, out=rowsum[blk])
    if not (math.isfinite(low) and math.isfinite(high)):
        v.append("transition has non-finite entries")
    else:
        if low < 0:
            s, a = np.argwhere(model.transition.min(axis=2) < 0)[0]
            v.append(f"negative transition probability at (s={s}, a={a})")
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


def _reward_violations(reward) -> list:
    """The first non-finite entry of a reward table, or of the lowest table
    of an (n, S, A) stack, as a one-item list of violations; else []."""
    if np.all(np.isfinite(reward)):
        return []
    bad = np.argwhere(~np.isfinite(reward))[0]
    return [f"reward not finite at (s={bad[-2]}, a={bad[-1]})"]


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


def q_vector(model, value, state=None, reward=None) -> np.ndarray:
    """Action values reward + discount * P @ value: the (S, A) table, or one row.

    `reward` defaults to the model's.  An (n, S) stack of values with an
    (n, S, A) stack of rewards gives the (n, S, A) stack of tables, each the
    one its value and reward give alone, bit for bit: the product is one
    (S*A, S) matrix-vector product per value.  A table's row s may differ
    from the one-state form in the last ulp (BLAS uses other kernel shapes).
    At V = 0 (every entry +0.0, as every solve starts) there is no product:
    P @ 0 is +0.0 for a finite, nonnegative kernel, so the result is
    `reward + 0.0`, the table the product gives, bit for bit.
    """
    reward = model.reward if reward is None else reward
    value = np.asarray(value, dtype=float)
    S, A = model.num_states, model.num_actions
    if not value.view(np.uint64).any():  # all bits 0: every entry +0.0
        return (reward + np.zeros(value.shape[:-1] + (S, A)) if state is None
                else reward[state] + 0.0)
    if state is None:
        q = np.matmul(model.transition.reshape(S * A, S), value[..., None])
        return reward + model.discount * q.reshape(value.shape[:-1] + (S, A))
    return reward[state] + model.discount * (model.transition[state] @ value)


def _blocks(count, item_bytes, nbytes=2**20):
    """Slices that cover range(count) in order, each about `nbytes` of
    items of `item_bytes` and at least one item: the rule of every blocked
    pass, so a pass over a large array keeps its temporaries cache-sized."""
    step = max(1, nbytes // item_bytes)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _float_or_array(x):
    """A 0-d result as a Python float; a result over table rows as is."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _param(x, name, low=-math.inf, high=math.inf, strict=False):
    """float(x) if finite and in [low, high], low excluded when `strict`.

    The one check of a scalar parameter: anything else, NaN, None, a list
    or an object included, raises ValueError naming the parameter and its
    range.
    """
    try:
        x = float(x)
    except (TypeError, ValueError):
        pass  # kept as given, for the message
    if isinstance(x, float) and math.isfinite(x) and x <= high \
            and (low < x if strict else low <= x):
        return x
    where = "" if (low, high) == (-math.inf, math.inf) else (
        f" in {'(' if strict else '['}{low:g}, {high:g}"
        f"{']' if high < math.inf else ')'}")
    raise ValueError(f"{name} must be a finite number{where}, got {x}")


def _count(x, name, low=1):
    """int(x) for an int or numpy integer, not a bool, of at least `low`.

    The one check of a count or a seed, as `_param` is of a scalar: a bool,
    a float, a string, None or a number below `low` raises ValueError
    naming the argument, a string quoted.
    """
    if type(x) is not bool and isinstance(x, (int, np.integer)) and x >= low:
        return int(x)
    kind = "positive" if low else "nonnegative"
    shown = repr(x) if isinstance(x, str) else x
    raise ValueError(f"{name} must be a {kind} integer, got {shown}")


def _array(x, name, low=None):
    """x as a float array, finite and at least `low` where `low` is given.

    The one reader of an array from outside the program, as `_param` is of
    a scalar: anything that is no array of numbers (an object, a string, a
    ragged list, a JSON null) raises ValueError naming the field, and so
    does an entry out of range.
    """
    if x is None:  # np.asarray would read it as a 0-d NaN
        raise ValueError(f"{name} must be an array of numbers, got null")
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") \
            from None
    if low is not None and not np.all(np.isfinite(x) & (x >= low)):
        where = "" if low == -math.inf else f" and >= {low:g}"
        raise ValueError(f"{name} entries must be finite{where}")
    return x


def _row(x, name, low=None):
    """`_array(x, name, low)` as per-action entries: one row, or a scalar
    as one entry; ValueError naming the field for more than one axis."""
    x = _array(x, name, low)
    if x.ndim > 1:
        raise ValueError(f"{name} must be one row of per-action entries, "
                         f"got shape {x.shape}")
    return x


def _actions(w, n):
    """w as a float array of n action values on its last axis; ValueError
    naming both counts otherwise.  A table's rows pass together.  n None
    (a feasible set or a phi that holds no row) takes any length."""
    w = np.asarray(w, dtype=float)
    if n is not None and w.shape[-1:] != (n,):
        raise ValueError(f"expected {n} action values on the last axis, "
                         f"got shape {w.shape}")
    return w


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


def bellman_sweep(model, backup, value, sweep=0, reward=None):
    """One synchronous sweep: returns (new value vector, policy matrix).

    One call backs up the whole table: `backup(q_vector(model, value),
    np.arange(S), sweep)`; at V = 0 that table is the reward, made with no
    kernel product.  An (n, S) stack of values, each under its table
    of an (n, S, A) `reward` stack, is one call too, on the (n*S, A) table
    with states `np.tile(np.arange(S), n)`; it returns (n, S) values and
    (n, S, A) rows.
    """
    q = q_vector(model, value, reward=reward)
    S, A = model.num_states, model.num_actions
    values, rows = backup(q.reshape(-1, A), np.arange(q.size // A) % S,
                          sweep)
    return (np.asarray(values).reshape(q.shape[:-1]),
            np.asarray(rows).reshape(q.shape))


def _evaluation_matrix(model, policy):
    """I - gamma P_pi, P_pi the kernel under `policy`, in one buffer.

    (S, S) for an (S, A) policy, (k, S, S) for a (k, S, A) stack.  When
    every row of every policy has one nonzero, P_pi is the kernel rows they
    pick, scaled by their weights: a gather of S rows per policy, not a
    product over all S*A of them.  Otherwise each P_pi is that product,
    broadcast over the stack.  Either way it equals np.eye(S) - gamma * P_pi
    exactly: a one-hot row's product adds only exact zeros to the gather.
    """
    S, A = model.num_states, model.num_actions
    nonzero = policy != 0
    if np.all(nonzero.sum(axis=-1) == 1):
        # a one-hot row sums to its one weight exactly
        mat = model.transition.reshape(S * A, S)[
            np.arange(S) * A + np.argmax(nonzero, axis=-1)]
        weight = policy.sum(axis=-1)
        if np.any(weight != 1.0):  # x * 1.0 is x: no pass for 0/1 rows
            mat *= weight[..., None]
    else:
        mat = np.matmul(policy[..., None, :], model.transition).reshape(
            policy.shape[:-1] + (S,))
    mat *= -model.discount
    mat.reshape(-1, S * S)[:, ::S + 1] += 1.0  # C-ordered, so a view
    return mat


# a stacked Newton step builds and solves at most this many bytes of
# (S, S) matrices at once (at least one matrix)
_NEWTON_CHUNK_BYTES = 16 * 2**20


def value_iteration(model, backup, tol=1e-10, max_iter=100000,
                    newton=True, rewards=None):
    """Iterate synchronous sweeps until the sup-norm residual |TV - V| <= tol.

    Returns TV with that sweep's rows.  A sweep that misses tol steps to
    V + (I - gamma P_pi)^-1 (TV - V), P_pi the kernel under its rows: Newton's
    step (policy iteration), to the value of those rows.  Exact rows then let
    the next sweep lower no value (TV >= V), and each step lands between TV
    and the fixed point.  From the first later sweep that lowers a value by
    more than tol (rows that are not the gradient), the steps are the plain
    V <- TV, as they all are with `newton=False`.

    `rewards`, an (N, S, A) stack of reward tables on the model's kernel,
    solves them together and returns a list of N results; the model's own
    reward is the one-table case.  Each sweep is one `bellman_sweep` of the
    open tables, each table keeps its own residual, stop test and Newton
    switch, and a table that meets tol is frozen with its result.  The
    Newton steps of a sweep are one stacked linear solve, in chunks of
    (S, S) matrices of at most 16 MB.  Every table starts at V = 0, so the
    first sweep backs up the rewards themselves and reads no kernel.  Each
    result equals the one solve of its table alone, bit for bit.

    Raises ConvergenceError (carrying the last residual, the last sweep's
    result as `best`, and the table's index as `trial`) if max_iter sweeps
    do not reach the tolerance, or on a sweep whose residual is not a finite
    number: for a stack, the error of the lowest table that fails.  A stack
    with a non-finite entry raises ModelValidationError first.
    """
    tol = _param(tol, "tol", 0.0, strict=True)
    max_iter = _count(max_iter, "max_iter")
    S, A, gamma = model.num_states, model.num_actions, model.discount
    stack = model.reward[None]
    if rewards is not None:
        stack = _array(rewards, "rewards")
        bad = ([f"reward stack shape {stack.shape} != (N, {S}, {A})"]
               if stack.ndim != 3 or stack.shape[1:] != (S, A)
               else _reward_violations(stack))
        if bad:
            raise ModelValidationError(bad)
        if not len(stack):
            return []
    value = np.zeros((len(stack), S))
    live = list(range(len(stack)))  # the index of each open table
    stepping = [bool(newton)] * len(stack)
    results = [None] * len(stack)
    failure = None
    chunk = max(1, _NEWTON_CHUNK_BYTES // (8 * S * S))

    def result(i):
        r = residual[i]
        return SolveResult(value=new_value[i], policy=policy[i],
                           iterations=sweep, residual=r,
                           error_bound=gamma / (1.0 - gamma) * r)

    for sweep in range(1, max_iter + 1):
        new_value, policy = bellman_sweep(model, backup, value, sweep - 1,
                                          stack)
        # a sweep that is not finite raises below, with no warning here
        with np.errstate(invalid="ignore", over="ignore"):
            step = new_value - value
        residual = np.abs(step).max(axis=1).tolist()
        lowest = step.min(axis=1).tolist()
        keep = []
        for i, r in enumerate(residual):
            if r <= tol:
                results[live[i]] = result(i)
            elif sweep == max_iter or not math.isfinite(r):
                failure = ConvergenceError(
                    f"value iteration did not reach tol={tol} in {max_iter} "
                    f"sweeps (last residual {r})" if math.isfinite(r) else
                    f"value iteration residual is {r} at sweep {sweep}",
                    residual=r, best=result(i), trial=live[i])
                break  # the tables after the lowest failure change nothing
            else:
                keep.append(i)
                stepping[i] = stepping[i] and (sweep == 1
                                               or lowest[i] >= -tol)
        if not keep:
            break
        # plain steps V <- TV; the Newton steps overwrite their rows
        value, old = new_value.copy(), value
        stepped = [i for i in keep if stepping[i]]
        for lo in range(0, len(stepped), chunk):
            rows = stepped[lo:lo + chunk]
            if len(rows) == len(value):
                rows = slice(None)  # every table: views, not copies
            value[rows] = old[rows] + np.linalg.solve(
                _evaluation_matrix(model, policy[rows]),
                step[rows][..., None])[..., 0]
        if len(keep) < len(live):
            value, stack = value.take(keep, axis=0), stack.take(keep, axis=0)
            live = [live[i] for i in keep]
            stepping = [stepping[i] for i in keep]
    if failure is not None:
        raise failure
    return results[0] if rewards is None else results


def policy_evaluation_exact(model, policy) -> np.ndarray:
    """Value of a fixed policy via the linear system (I - gamma P_pi) V = r_pi."""
    policy = _array(policy, "policy")
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
    num_states = _count(num_states, "num_states")
    num_actions = _count(num_actions, "num_actions")
    lo, hi = reward_range
    if not lo < hi:
        raise ValueError(f"empty reward range {reward_range}")
    rng = np.random.default_rng(seed)
    # drawn and normalized in place block by block (the draws come in the
    # order of one whole draw), then frozen, so the model shares it
    transition = np.empty((num_states, num_actions, num_states))
    for blk in _blocks(num_states, transition[0].nbytes):
        block = transition[blk]
        rng.random(out=block)
        block += 1e-9
        block /= block.sum(axis=2, keepdims=True)
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
    return np.random.default_rng([_count(seed, "seed", 0), len(key)]
                                 + [int(k) for k in key])
