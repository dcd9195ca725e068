"""Concave action-simplex regularizers and the smoothed Bellman backup.

The regularized backup of an action-value vector w is the convex conjugate
sup_p { w . p + phi(p) } over the probability simplex.  Entropy and
KL-to-reference regularizers have closed forms (log-sum-exp / softmax); a
regularizer may solve its own conjugate (the ambiguity-set regularizers of
`distributional` do, by a stationarity root or Newton ascent).  Anything
else inherits `Regularizer.conjugate`, which runs `numeric_conjugate`, an
entropic mirror-ascent solver with a step-halving line search.  So every
`conjugate` call answers; `AffineRegularizer` (scale * phi + offset) passes
the call on to its base.

Every built-in `value` acts on the last axis: one row gives a float, an
(n, A) array n values.  The closed forms' `conjugate` acts on the last axis
too, so one call backs up a whole (S, A) table; every other regularizer is
backed up row by row.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (ConvergenceError, _actions, _float_or_array, _param,
                   _per_state, _row)

_FLOOR = 1e-16
_REF_FLOOR = 1e-12
_MAX_STEPS = 20000


def _clean_reference(reference):
    """The reference row floored at 1e-12 and renormalized to sum to 1.

    Read by `core._row` with entries finite and nonnegative, at least one
    of them positive: no floor could turn a negative or non-finite entry,
    or a row with no mass, into the row that was meant.  A row whose sum
    overflows is first divided by its largest entry.
    """
    ref = _row(reference, "reference", 0.0)
    if not ref.any():
        raise ValueError("reference must have a positive entry")
    ref = np.clip(ref, _REF_FLOOR, None)
    with np.errstate(over="ignore"):
        total = ref.sum()
    if not np.isfinite(total):
        ref /= ref.max()
        total = ref.sum()
    return ref / total


def _log_softmax(z):
    """ln sum_a exp(z_a) and softmax(z) on the last axis, shifted by its max.

    The shift guards against overflow.  Row i of a 2-d z gives the same bits
    as `_log_softmax(z[i])`.
    """
    top = z.max(axis=-1, keepdims=True)
    e = np.exp(z - top)
    s = e.sum(axis=-1, keepdims=True)
    return (top + np.log(s))[..., 0], e / s


def kl_divergence(p, reference):
    """KL(p || reference) on the last axis, 0 ln 0 = 0: a float for one row."""
    p = np.asarray(p, dtype=float)
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0) / reference), 0.0)
    return _float_or_array(terms.sum(axis=-1))


@dataclass
class ConjugateResult:
    """Backup value and the maximizing probability row: every backup's result.

    A closed form given an (n, A) table returns n values and n rows.  A
    feasible-set backup, the conjugate of the set's indicator, also sets
    the set's Lagrange `multiplier` (0 where it is slack, None where the
    backup reads none), the `dual_value` of its multiplier search and
    `dual_evals`, the number of conjugates that search took.
    """

    value: float
    argmax: np.ndarray
    multiplier: float | None = None
    dual_value: float | None = None
    dual_evals: int = 0


class Regularizer:
    """Concave function on the action simplex.

    Subclasses implement `value` and `gradient` (interior points); those with
    a closed form, or a solver of their own, override `conjugate`, and the
    rest inherit `numeric_conjugate`.  A backup calls `value` on one row;
    the grid oracle and `constraint_violation` call it on an (n, A) array
    and expect n values, so every built-in `value` acts on the last axis.
    `batched` is true where `conjugate` also takes an (n, A) table, acting on
    its last axis; the backup operator then makes one call per sweep.  A
    feasible set answers `conjugate` too, as the conjugate of its
    indicator, so one backup operator serves both.
    `num_actions` is the number of entries of the per-action row it holds
    (a reference, sigma or covariance; a scalar counts as one), None where
    it holds none and fits any action count.
    """

    batched = False
    num_actions = None

    def value(self, p):
        raise NotImplementedError

    def gradient(self, p) -> np.ndarray:
        raise NotImplementedError

    def conjugate(self, w):
        """sup_p { w.p + phi(p) } by `numeric_conjugate` (mirror ascent)."""
        # the module global, read at call time, so that a wrapper of it
        # (bench/spans.py counts its work) sees every call
        return numeric_conjugate(w, self)


class EntropyRegularizer(Regularizer):
    """phi(p) = -eta * sum_a p_a ln p_a, with 0 ln 0 = 0."""

    batched = True

    def __init__(self, eta):
        self.eta = _param(eta, "eta", 0.0, strict=True)

    def value(self, p):
        return -self.eta * kl_divergence(p, 1.0)

    def gradient(self, p):
        p = np.asarray(p, dtype=float)
        return -self.eta * (np.log(p) + 1.0)

    def conjugate(self, w):
        return entropy_backup(w, self.eta)


class KlRegularizer(Regularizer):
    """phi(p) = -eta * KL(p || reference); reference floored at 1e-12."""

    batched = True

    def __init__(self, eta, reference):
        self.eta = _param(eta, "eta", 0.0, strict=True)
        self.reference = _clean_reference(reference)
        self.num_actions = np.size(self.reference)

    def value(self, p):
        return -self.eta * kl_divergence(p, self.reference)

    def gradient(self, p):
        p = np.asarray(p, dtype=float)
        return -self.eta * (np.log(p / self.reference) + 1.0)

    def conjugate(self, w):
        return kl_backup(w, self.eta, self.reference)


class AffineRegularizer(Regularizer):
    """scale * phi + offset, with conj(w) = scale * conj_phi(w / scale) + offset.

    The offset shifts backup values without changing the argmax.  Nested
    wrappers are kept as built; the file writer folds them into one.
    """

    def __init__(self, base, scale=1.0, offset=0.0):
        self.base = base
        self.scale = _param(scale, "scale", 0.0, strict=True)
        self.offset = _param(offset, "offset")
        self.num_actions = base.num_actions

    @property
    def batched(self):
        return self.base.batched

    def value(self, p):
        return self.scale * self.base.value(p) + self.offset

    def gradient(self, p):
        return self.scale * self.base.gradient(p)

    def conjugate(self, w):
        inner = self.base.conjugate(np.asarray(w, dtype=float) / self.scale)
        return ConjugateResult(value=self.scale * inner.value + self.offset,
                               argmax=inner.argmax)


def entropy_backup(w, eta) -> ConjugateResult:
    """Soft backup: eta * ln sum_a exp(w_a / eta) and the softmax row.

    `_log_softmax` on w / eta gives both, on the last axis, so a table's
    rows are backed up in one call; the Gumbel expected max and the
    equal-rate exponential-marginal robust backup reuse this function.
    """
    eta = _param(eta, "eta", 0.0, strict=True)
    lse, row = _log_softmax(np.asarray(w, dtype=float) / eta)
    return ConjugateResult(value=_float_or_array(eta * lse), argmax=row)


def kl_backup(w, eta, reference) -> ConjugateResult:
    """KL-to-reference backup, computed as the entropy backup on shifted values.

    Shares the entropy code path exactly, on the last axis: the value is
    eta * ln sum_a ref_a exp(w_a / eta) and the argmax is proportional to
    ref_a exp(w_a / eta).
    """
    reference = np.asarray(reference, dtype=float)
    if not np.all((reference > 0) & np.isfinite(reference)):
        raise ValueError("reference policy must be finite and strictly "
                         "positive")
    w = _actions(w, reference.size)
    return entropy_backup(w + eta * np.log(reference), eta)


def numeric_conjugate(w, phi) -> ConjugateResult:
    """Maximize w.p + phi(p) over the simplex by entropic mirror ascent.

    Multiplicative updates keep iterates strictly interior; a step-halving
    line search guarantees monotone objective ascent.  Returns once the
    objective improvement over 50 consecutive accepted steps falls below
    1e-12 max(1, |f|), or once no ascent step of any size improves; the
    halving stops early once a rejected step rounds back to the current row.
    The input is max-shifted first, so the result is translation-consistent to
    floating-point accuracy.  ConvergenceError, carrying the best row, after
    `_MAX_STEPS` accepted steps.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.shape[0] < 1:
        raise ValueError(f"expected a 1-d action-value vector, got shape {w.shape}")
    shift = float(w.max())
    wc = w - shift
    n = w.shape[0]
    p = np.full(n, 1.0 / n)
    f = float(wc @ p) + phi.value(p)
    step = 1.0
    history = deque(maxlen=51)
    history.append(f)
    for _ in range(_MAX_STEPS):
        g = wc + phi.gradient(p)
        g = g - g.max()
        accepted = False
        while step >= 1e-18:
            cand = p * np.exp(step * g)
            cand = np.clip(cand, _FLOOR, None)
            cand /= cand.sum()
            fc = float(wc @ cand) + phi.value(cand)
            if fc > f:
                accepted = True
                break
            if np.array_equal(cand, p):
                break  # the step no longer moves p: smaller ones round to p
            step *= 0.5
        if not accepted:
            # no ascent direction at any step size: stationary to precision
            return ConjugateResult(value=shift + f, argmax=p)
        p, f = cand, fc
        step = min(step * 2.0, 1e6)
        history.append(f)
        if len(history) == 51 and f - history[0] <= 1e-12 * max(1.0, abs(f)):
            return ConjugateResult(value=shift + f, argmax=p)
    raise ConvergenceError(
        f"numeric conjugate did not settle within {_MAX_STEPS} steps",
        residual=f - history[0] if len(history) > 1 else None,
        best=ConjugateResult(value=shift + f, argmax=p),
    )


def regularized_backup_operator(phi_per_state):
    """Backup operator using each state's regularizer or feasible set.

    `phi_per_state` is a list, tuple or array of objects that answer
    `conjugate(w)` (regularizers, or feasible sets, whose backup is the
    conjugate of their indicator), one per state, or a single one applied
    to every state.  A single `batched` regularizer backs up the whole table
    in one `conjugate` call (a set has no `batched`, so reads as False).
    Otherwise this is the package's one per-row loop: each row of the table
    is backed up by its own state's `conjugate`, in order.
    """
    each = _per_state(phi_per_state)
    if not each and getattr(phi_per_state, "batched", False):
        def op(table, states, sweep):
            res = phi_per_state.conjugate(table)
            return res.value, res.argmax

        return op

    def op(table, states, sweep):
        table = np.asarray(table, dtype=float)
        values = np.empty(len(states))
        rows = np.empty(table.shape)
        for i, (w, state) in enumerate(zip(table, states)):
            phi = phi_per_state[state] if each else phi_per_state
            res = phi.conjugate(w)
            values[i], rows[i] = res.value, res.argmax
        return values, rows

    return op


def bregman_divergence(phi, p, q) -> float:
    """Divergence of the convex function -phi: -phi(p) + phi(q) + grad_phi(q).(p-q).

    Nonnegative for concave phi.  Requires the gradient to exist at q; a
    boundary q (any zero entry for entropy-like phi) raises ValueError.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise ValueError("gradient undefined at boundary point q")
    g = np.asarray(phi.gradient(q), dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient not finite at q")
    return -phi.value(p) + phi.value(q) + float(g @ (p - q))
