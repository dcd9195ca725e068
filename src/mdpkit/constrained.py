"""Bellman backups over per-state feasible policy sets.

Feasible regions: L1 balls (exact greedy mass transfer), chi-square-weighted
L2 balls (an exact KKT solve: the support is a prefix of the actions sorted
by value, found in one pass over prefix sums), singletons, the full simplex
(`ZeroRegularizer`: the indicator of the whole simplex is phi = 0), and
regularizer level sets {p : -phi(p) <= radius} ("phi balls", used by the
regularized-to-constrained conversion).  The KL ball is the level set of
phi = -KL(.||ref), so KL and phi balls share one multiplier search: the
backup at multiplier lam is the conjugate of lam*phi (an
`AffineRegularizer`), and lam is found by `core._falsi`, the safeguarded
regula falsi that also solves the stationarity root of the separable
ambiguity sets, until one fixed certificate holds: a feasible row with
duality gap at most 1e-12.  No ball backup takes a tolerance, so a solve, a
direct call and a conversion's multiplier read give the same row.

The published dual expressions for the L1 and L2 balls are evaluated
verbatim by `l1_dual_discrepancy` / `l2_dual_discrepancy` and reported next
to the primal solutions; their orientation does not match a direct
derivation, so no equality is asserted anywhere.

Each feasible-set kind owns its operations, so no caller branches on the
kind: `violation(p)` (l(p) - radius on the last axis, <= 0 inside) and
`conjugate(w)`, the conjugate of the set's indicator and so a
`ConjugateResult` with its multiplier, on every kind, so
`regularized_backup_operator` backs up sets as it backs up regularizers;
`penalty(lam)`, the regularizer -lam (l(p) - radius) of its Lagrangian,
on the kinds that `ct_to_r_convert` accepts (KL, chi-square and phi
balls, the full simplex); `dual_note(w)`, the published-dual report, on
the L1 and chi-square balls.  Each kind's `num_actions` is the length of
the row it holds (reference or row; a scalar counts as one), its phi's
for a phi ball, None for the full simplex.

`grid_oracle_backup` brute-forces small instances on a barycentric grid and
is the reference the analytic routines are tested against.  It walks the
grid in `core._blocks` of rows, one `constraint_violation` call per block,
so its memory is bounded at any resolution.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (_EPS, MdpModel, _actions, _blocks, _count, _falsi,
                   _float_or_array, _param, _per_state, _row, q_vector,
                   standard_backup, value_iteration)
from .regularized import (AffineRegularizer, ConjugateResult,
                          EntropyRegularizer, KlRegularizer, Regularizer,
                          _clean_reference, kl_divergence,
                          regularized_backup_operator)


def _simplex_row(row, name):
    """row clipped at 0 and renormalized, if a finite probability row."""
    row = _row(row, name)
    # entries >= -1e-10 summing to 1 within 1e-10: NaN fails both tests, and
    # an infinite entry the sum's
    if not (row.min() >= -1e-10 and abs(row.sum() - 1.0) <= 1e-10):
        raise ValueError(f"{name} is not a probability vector")
    row = np.clip(row, 0.0, None)
    return row / row.sum()


def _ball_args(reference, radius):
    """The cleaned reference and radius of a KL or chi-square ball."""
    return _clean_reference(reference), _param(radius, "radius", 0.0)


def _l1_args(reference, radius):
    """The reference and radius of an L1 ball: a probability row, [0, 2]."""
    return (_simplex_row(reference, "reference"),
            _param(radius, "radius", 0.0, 2.0))


def chi_square(p, reference):
    """sum (p - ref)^2 / ref on the last axis: a float for one row."""
    d = np.asarray(p, dtype=float) - reference
    d *= d  # in place: a grid of rows holds one array of temporaries
    d /= reference
    return _float_or_array(d.sum(axis=-1))


@dataclass
class _Ball:
    """{ p : l(p) <= radius } around a probability row `reference`.

    Each kind's `_args` rule cleans and checks both fields, and its
    `_divergence(p, reference)` is l on the last axis.
    """

    reference: np.ndarray
    radius: float
    _args = staticmethod(_ball_args)

    def __post_init__(self):
        self.reference, self.radius = self._args(self.reference, self.radius)
        self.num_actions = np.size(self.reference)

    def violation(self, p):
        d = self._divergence(_actions(p, self.num_actions), self.reference)
        return _float_or_array(d - self.radius)

    @property
    def interior(self):
        """Whether the ball has a Slater point: radius > 0."""
        return self.radius > 0


class KlBall(_Ball):
    """{ p : KL(p || reference) <= radius }."""

    _divergence = staticmethod(kl_divergence)

    def conjugate(self, w):
        return kl_constrained_backup(w, self.reference, self.radius)

    def penalty(self, lam):
        return AffineRegularizer(KlRegularizer(lam, self.reference),
                                 offset=lam * self.radius)


class L1Ball(_Ball):
    """{ p : sum |p - reference| <= radius }, radius in [0, 2]."""

    _args = staticmethod(_l1_args)
    _divergence = staticmethod(lambda p, reference: abs(p - reference).sum(-1))

    def conjugate(self, w):
        return l1_constrained_backup(w, self.reference, self.radius)

    def dual_note(self, w):
        return {"kind": "l1", **asdict(
            l1_dual_discrepancy(w, self.reference, self.radius))}


class L2ChiSquareBall(_Ball):
    """{ p : sum (p - ref)^2 / ref <= radius }."""

    _divergence = staticmethod(chi_square)

    def conjugate(self, w):
        return l2_constrained_backup(w, self.reference, self.radius)

    def penalty(self, lam):
        return ChiSquareLagrangeRegularizer(lam, self.reference, self.radius)

    def dual_note(self, w):
        return {"kind": "l2", **asdict(
            l2_dual_discrepancy(w, self.reference, self.radius))}


@dataclass
class Singleton:
    """Exactly one feasible row."""

    row: np.ndarray

    def __post_init__(self):
        self.row = _simplex_row(self.row, "row")
        self.num_actions = np.size(self.row)

    def violation(self, p):
        p = _actions(p, self.num_actions)
        return _float_or_array(np.max(np.abs(p - self.row), axis=-1))

    def conjugate(self, w):
        w = _actions(w, self.num_actions)
        return ConjugateResult(value=float(self.row @ w),
                               argmax=self.row.copy())


@dataclass
class PhiBall:
    """{ p : -phi(p) <= radius } for a concave regularizer phi.

    The radius may be negative (a superlevel set of phi); the set is convex
    and is how regularizer level sets round-trip through conversion.  The
    grid oracle admits points within 1e-10 of it, for phi's rounding.
    `violation` calls `phi.value` once on a row or a whole grid, so phi's
    `value` must act on the last axis (every built-in one does).
    """

    phi: Regularizer
    radius: float
    grid_tol = 1e-10

    def __post_init__(self):
        self.radius = _param(self.radius, "radius")
        self.num_actions = self.phi.num_actions

    def violation(self, p):
        return -self.phi.value(_actions(p, self.num_actions)) - self.radius

    def conjugate(self, w):
        return generic_phi_ball_backup(w, self.phi, self.radius)

    def penalty(self, lam):
        return AffineRegularizer(self.phi, lam, lam * self.radius)


def constraint_violation(constraint, p):
    """l(p) - radius for ball sets (<= 0 means feasible); sup gap for singletons.

    Acts on the last axis: a row gives a float, an (n, A) array n values.
    """
    return constraint.violation(np.asarray(p, dtype=float))


_GAP = 1e-12


def _multiplier_search(w, phi, radius) -> ConjugateResult:
    """max w.p subject to -phi(p) <= radius, by a search on its multiplier.

    p(lam) is the conjugate argmax of lam*phi at w, and h(lam) =
    -phi(p(lam)) - radius falls as lam rises.  A probe is the root when
    |h| <= 4 eps max(1, |radius|), or when it is feasible (h < 0) with
    duality gap lam*(radius + phi(p)) = -lam*h <= 1e-12 (`_GAP`); an
    infeasible probe never is.  A hard-max row inside the set is returned
    with multiplier 0.  Otherwise lam is bracketed by doubling from 1
    (ValueError without a Slater point) and narrowed by `core._falsi` to a
    root.  The certificate is absolute, so every backup's gap is at most
    1e-12 whatever the scale of w; a relative one let the gap grow with the
    dual value past the 1e-12 translation bound.  Where phi is flat along a
    segment (an atom of an MDM marginal), p(lam) and h jump over the level
    set and the bracket closes around the jump.  That test is relative,
    -lam_hi*h_hi > 1e-12 max(1, |dual|), as a bracket closed to rounding
    leaves a gap that scales with the dual value; both end rows then
    maximize the Lagrangian, so does the segment between them, and the
    optimum is its point on the level set, where h is linear.
    """
    w = _actions(w, phi.num_actions)
    evals = 0
    flat = 4 * _EPS * max(1.0, abs(radius))

    def probe(lam):
        nonlocal evals
        evals += 1
        res = AffineRegularizer(phi, lam).conjugate(w)
        h = -phi.value(res.argmax) - radius
        root = abs(h) <= flat or (h < 0.0 and -lam * h <= _GAP)
        return (0.0 if root else h), res

    val0, row0 = standard_backup(w)
    h_lo = -phi.value(row0) - radius
    if h_lo <= 0.0:
        return ConjugateResult(value=val0, argmax=row0, multiplier=0.0,
                               dual_value=val0)
    lam_lo, lam_hi, res_lo = 0.0, 1.0, ConjugateResult(val0, row0)
    h_hi, res_hi = probe(lam_hi)
    while h_hi > 0.0:
        if lam_hi >= 2.0 ** 60:
            raise ValueError("constraint admits no Slater point: phi stays "
                             f"below {-radius} on the simplex")
        lam_lo, h_lo, res_lo = lam_hi, h_hi, res_hi
        lam_hi *= 2.0
        h_hi, res_hi = probe(lam_hi)
    _, h_lo, res_lo, lam_hi, h_hi, res_hi = _falsi(
        probe, lam_lo, lam_hi, h_lo, h_hi, res_lo, res_hi)
    p, dual = res_hi.argmax, float(lam_hi * radius + res_hi.value)
    if -lam_hi * h_hi > _GAP * max(1.0, abs(dual)):
        p = p + h_hi / (h_hi - h_lo) * (res_lo.argmax - p)
    return ConjugateResult(value=float(w @ p), argmax=p, multiplier=lam_hi,
                           dual_value=dual, dual_evals=evals)


def _ball_exit(w, reference, radius, face_divergence):
    """(w, ref, result) for a ball of `radius` around the cleaned reference.

    result is the reference itself at radius 0 (multiplier None), or, when
    the argmax face fits, ref_S / m at value max(w) with multiplier 0; S is
    the argmax set, m its reference mass and face_divergence(m) the ball's
    divergence of ref_S / m.  It is None where the ball is active.
    """
    ref, radius = _ball_args(reference, radius)
    w = _actions(w, ref.size)
    if radius == 0.0:
        return w, ref, ConjugateResult(value=float(w @ ref), argmax=ref)
    val = float(w.max())
    top = w == val
    m = float(ref[top].sum())
    if face_divergence(m) <= radius:
        return w, ref, ConjugateResult(
            value=val, argmax=np.where(top, ref, 0.0) / m, multiplier=0.0,
            dual_value=val)
    return w, ref, None


def kl_constrained_backup(w, reference, radius) -> ConjugateResult:
    """max w.p over the KL ball, the level set of phi = -KL(.||ref).

    At multiplier y the maximizer p(y), proportional to ref_a exp(w_a/y), is
    one `kl_backup` (the KL dual of Nilim & El Ghaoui 2005 and Iyengar
    2005); `_multiplier_search` returns the feasible row with duality gap
    y*(radius - KL) <= 1e-12.  Radius 0 returns the reference, multiplier
    None.  The limit y -> 0 is the reference restricted to the argmax set,
    ref_S / m with KL = -ln m; when it fits, the ball is slack: that row,
    multiplier 0 (`_ball_exit`).
    """
    w, ref, res = _ball_exit(w, reference, radius, lambda m: -np.log(m))
    if res is not None:
        return res
    return _multiplier_search(w, KlRegularizer(1.0, ref), radius)


@dataclass
class DualDiscrepancy:
    """Primal solution value next to the published dual expression's value."""

    value: float
    paper_dual_value: float
    gap: float
    note: str = ""


def l1_constrained_backup(w, reference, radius) -> ConjugateResult:
    """Exact greedy optimum of max w.p over the L1 ball around `reference`.

    Move min(radius/2, 1 - ref[best]) mass onto the best action, draining the
    same amount from the worst actions upward (ties resolved toward lower
    indices).
    """
    ref, radius = _l1_args(reference, radius)
    w = _actions(w, ref.size)
    best = int(np.argmax(w))
    budget = min(radius / 2.0, 1.0 - ref[best])
    p = ref.copy()
    p[best] += budget
    need = budget
    for a in np.argsort(w, kind="stable"):
        if a == best or need <= 0:
            continue
        take = min(p[a], need)
        p[a] -= take
        need -= take
    return ConjugateResult(value=float(w @ p), argmax=p)


def l1_dual_discrepancy(w, reference, radius) -> DualDiscrepancy:
    """Evaluate the published L1 dual expression verbatim and report the gap.

    The expression w.ref + (radius/2) * min_{mu >= 0} [max(w + mu) -
    min(w + mu)] is minimized exactly by mu = max(w) - w, where the range
    term vanishes, so it evaluates to w.ref; the greedy primal exceeds it
    whenever the budget buys anything.
    """
    ref = _simplex_row(reference, "reference")
    w = _actions(w, ref.size)
    primal = l1_constrained_backup(w, ref, radius).value
    mu = w.max() - w
    shifted = w + mu
    paper = float(w @ ref) + (radius / 2.0) * float(shifted.max() - shifted.min())
    return DualDiscrepancy(
        value=primal, paper_dual_value=paper, gap=primal - paper,
        note="published min over mu >= 0 of the range is identically zero "
             "(mu = max(w) - w), so the expression reduces to dot(w, ref)")


def l2_dual_discrepancy(w, reference, radius) -> DualDiscrepancy:
    """Evaluate the published L2 dual expression verbatim and report the gap.

    Expression: min_{mu >= 0} sum_a ref_a (w_a + mu_a)
    + sqrt(radius * sum_a ref_a (w_a + mu_a)^2), convex in v = w + mu >= w.
    By KKT, v = max(w, c) with c^2 (radius - m) = Q, m the reference mass
    raised to c and Q = sum ref_a w_a^2 over the rest; the least value over
    these feasible candidates, v = w and v = max(w, 0) is the exact minimum.
    """
    ref = _simplex_row(reference, "reference")
    w = _actions(w, ref.size)
    primal = l2_constrained_backup(w, ref, radius).value
    rho = max(radius, 0.0)
    order = np.argsort(w)
    slack = rho - np.cumsum(ref[order])
    rest = float(ref @ (w * w)) - np.cumsum(ref[order] * w[order] ** 2)
    c = -np.sqrt(np.clip(rest[slack > 0], 0.0, None) / slack[slack > 0])
    v = np.vstack([w, np.maximum(w, 0.0), np.maximum(w, c[:, None])])
    paper = float(np.min(v @ ref + np.sqrt(rho * ((v * v) @ ref))))
    return DualDiscrepancy(value=primal, paper_dual_value=paper,
                           gap=primal - paper,
                           note="orientation of the published expression is "
                                "ambiguous; primal from the exact KKT solve is "
                                "authoritative")


def _chi_square_kkt(w, ref, radius=None, t=None):
    """Exact argmax of w.p - (t/2) chi_square(p, ref) over the simplex, and t.

    Stationarity gives p_a = ref_a (1 + (w_a - nu)/t) where w_a > nu - t and
    p_a = 0 elsewhere, so the support is the top k actions by w.  Sorting
    once (stable, so ties keep the lowest index first) and taking prefix
    sums m_k, R_k and var_k of ref, ref*w and the ref-weighted variance gives
    nu_k = (R_k - t (1 - m_k)) / m_k for every k; the answer is the k with
    w_(k) >= nu_k - t >= w_(k+1).  With `radius` given instead of `t`, t_k
    is the value that makes the ball active on support k,
    sqrt(var_k / (radius - b_k - b_k^2 / m_k)) with b_k = 1 - m_k, and
    prefixes where that is not a positive number are skipped.  Values are
    shifted by max(w) first, so the row is translation invariant.
    """
    wc = w - w.max()
    order = np.argsort(-wc, kind="stable")
    ws = wc[order]
    rs = ref[order]
    m = np.cumsum(rs)
    big_r = np.cumsum(rs * ws)
    beta = 1.0 - m
    below = np.append(ws[1:], -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        if t is None:
            var = np.cumsum(rs * ws * ws) - big_r * big_r / m
            t = np.sqrt(var / (radius - beta - beta * beta / m))
        t = np.broadcast_to(t, m.shape)
        nu = (big_r - t * beta) / m
        floor = nu - t
        miss = np.maximum(np.maximum(floor - ws, below - floor), 0.0)
    miss[~(np.isfinite(t) & (t > 0))] = np.inf
    k = int(np.argmin(miss)) + 1
    p = np.zeros_like(wc)
    p[order[:k]] = np.clip(rs[:k] * (1.0 + (ws[:k] - nu[k - 1]) / t[k - 1]),
                           0.0, None)
    return p / p.sum(), float(t[k - 1])


def l2_constrained_backup(w, reference, radius) -> ConjugateResult:
    """max w.p over the chi-square ball intersected with the simplex, exactly.

    When the argmax set S (mass m under the reference) fits in the ball,
    chi_square(ref_S / m, ref) = (1 - m) / m <= radius, the row ref_S / m
    attains max(w) and the multiplier is 0 (`_ball_exit`).  Otherwise the
    ball is active and one sorted-prefix KKT pass (`_chi_square_kkt`)
    returns the optimum and the multiplier lam = t/2 of the constraint
    chi_square <= radius.  Cost is one sort and a few O(|A|) prefix sums at
    any action count.
    """
    w, ref, res = _ball_exit(w, reference, radius, lambda m: (1.0 - m) / m)
    if res is not None:
        return res
    shift = float(w.max())
    p, t = _chi_square_kkt(w, ref, radius=radius)
    return ConjugateResult(value=shift + float((w - shift) @ p), argmax=p,
                           multiplier=t / 2.0)


def grid_oracle_backup(w, constraint, resolution=None):
    """Brute-force max of w.p over feasible grid points (2 or 3 actions).

    Resolution defaults to 1e5 intervals for two actions and 1e3 per
    dimension for three.  The reference row (or singleton row) is always
    included as a candidate so the feasible set is never empty.  The grid
    is walked in `core._blocks` of its rows i, p0 = i/res (two actions
    take the points of `np.linspace`): membership is one
    `constraint_violation` call per block, so memory stays bounded at any
    resolution, and a `PhiBall`'s phi must take an (n, A) array in
    `value`.  The first maximum is kept across blocks and the reference is
    checked last, so value and row are those of one pass over the grid.
    """
    w = _actions(w, constraint.num_actions)
    n = w.shape[0]
    res = ({2: 100000, 3: 1000}.get(n) if resolution is None
           else _count(resolution, "resolution"))
    if isinstance(constraint, Singleton):
        return float(w @ constraint.row), constraint.row.copy()
    if isinstance(constraint, ZeroRegularizer):
        return standard_backup(w)
    if n == 1:
        return float(w[0]), np.ones(1)
    if n > 3:
        raise ValueError("grid oracle supports at most 3 actions")
    tol = getattr(constraint, "grid_tol", 1e-12)
    best, row = -np.inf, None
    # a row i holds one point for two actions, res + 1 for three (kept where
    # j <= res - i); a block holds about 1 MB of points and temporaries
    width = 1 if n == 2 else res + 1
    for blk in _blocks(res + 1, 24 * n * width):
        i = np.arange(blk.start, blk.stop)
        if n == 2:
            p0 = np.where(i == res, 1.0, i * (1.0 / res))  # np.linspace
            pts = np.column_stack([p0, 1.0 - p0])
        else:
            i, j = np.meshgrid(i, np.arange(width), indexing="ij")
            keep = (i + j) <= res
            p0, p1 = i[keep] / res, j[keep] / res
            pts = np.column_stack([p0, p1, 1.0 - p0 - p1])
        cands = pts[constraint_violation(constraint, pts) <= tol]
        if cands.size:
            vals = cands @ w
            k = int(np.argmax(vals))
            if vals[k] > best:
                best, row = vals[k], cands[k]
    extra = getattr(constraint, "reference", None)
    if extra is not None and (row is None or extra @ w > best):
        best, row = extra @ w, extra.copy()
    if row is None:
        raise ValueError("no feasible grid point; constraint too tight")
    return float(best), row


def generic_phi_ball_backup(w, phi, radius) -> ConjugateResult:
    """max w.p subject to -phi(p) <= radius, for any concave phi.

    `_multiplier_search` over the conjugates of lam*phi, to the feasible
    row with duality gap <= 1e-12: the row `PhiBall(phi, radius).conjugate`
    returns.  ValueError when phi never exceeds -radius (no Slater point).
    """
    return _multiplier_search(w, phi, radius)


class ChiSquareLagrangeRegularizer(Regularizer):
    """phi(p) = -multiplier * (chi_square(p, ref) - radius), with a
    closed-form conjugate."""

    def __init__(self, multiplier, reference, radius):
        self.multiplier = _param(multiplier, "multiplier", 0.0, strict=True)
        self.reference = _clean_reference(reference)
        self.num_actions = np.size(self.reference)
        self.radius = _param(radius, "radius")

    def value(self, p):
        return -self.multiplier * (chi_square(p, self.reference) - self.radius)

    def gradient(self, p):
        p = np.asarray(p, dtype=float)
        return -2.0 * self.multiplier * (p - self.reference) / self.reference

    def conjugate(self, w):
        w = _actions(w, self.num_actions)
        p, _ = _chi_square_kkt(w, self.reference, t=2.0 * self.multiplier)
        return ConjugateResult(value=float(w @ p) + self.value(p), argmax=p)


class ZeroRegularizer(Regularizer):
    """phi identically 0; conjugate is the hard max.

    phi = 0 is also the indicator of the whole simplex, so this is the
    feasible set with no constraint beyond the simplex: its `violation` is
    its value, and its Lagrangian penalty at any multiplier is itself.
    """

    batched = True

    def value(self, p):
        return _float_or_array(np.zeros(np.shape(p)[:-1]))

    violation = value

    def gradient(self, p):
        return np.zeros(np.asarray(p).shape[0])

    def conjugate(self, w):
        return ConjugateResult(*standard_backup(w))

    def penalty(self, lam):
        return self


@dataclass
class CtConversion:
    """Constrained model induced by a solved regularized model."""

    ct_model: MdpModel
    constraints: list
    constants: np.ndarray
    base_value: np.ndarray
    base_policy: np.ndarray


def r_to_ct_convert(model, phi_per_state, solve_tol=1e-10) -> CtConversion:
    """Build the constrained twin of a regularized model.

    Solve the regularized model; per state, the constant c_s = -phi_s at the
    optimal row defines both the reward shift (r - c_s across the state's
    actions) and the feasible set {-phi_s(p) <= c_s}.  Entropy and
    KL-to-reference regularizers produce KL balls (radius c_s/eta + ln|A|
    around uniform, respectively c_s/eta around the reference); any other
    regularizer produces its own level set.
    """
    S = model.num_states
    phis = phi_per_state if _per_state(phi_per_state, S, "regularizer") \
        else [phi_per_state] * S
    base = value_iteration(model, regularized_backup_operator(phi_per_state),
                           tol=solve_tol)
    constants = np.array([-phi.value(row)
                          for phi, row in zip(phis, base.policy)])
    constraints = []
    for s, phi in enumerate(phis):
        c = float(constants[s])
        if isinstance(phi, EntropyRegularizer):
            n = model.num_actions
            radius = max(c / phi.eta + np.log(n), 0.0)
            constraints.append(KlBall(np.full(n, 1.0 / n), radius))
        elif isinstance(phi, KlRegularizer):
            constraints.append(KlBall(phi.reference, max(c / phi.eta, 0.0)))
        else:
            constraints.append(PhiBall(phi, c))
    reward = model.reward - constants[:, None]
    ct_model = MdpModel(num_states=S, num_actions=model.num_actions,
                        transition=model.transition, reward=reward,
                        discount=model.discount)
    return CtConversion(ct_model=ct_model, constraints=constraints,
                        constants=constants, base_value=base.value,
                        base_policy=base.policy)


@dataclass
class LagrangeConversion:
    """Regularized model induced by a solved constrained model."""

    multipliers: np.ndarray
    regularizers: list
    ct_value: np.ndarray
    ct_policy: np.ndarray
    slackness: np.ndarray


def ct_to_r_convert(model, constraints, tol=1e-10) -> LagrangeConversion:
    """Recover per-state multipliers and the induced regularizers.

    Solves the constrained model, then per state reads the Lagrange
    multiplier of the single smooth constraint at the optimal action values
    and forms the set's `penalty`, phi_s(p) = -lam_s * (l_s(p) - c_s).
    Requires a Slater point (radius > 0) for ball constraints; a set with no
    penalty, an L1 ball (non-smooth) or a singleton (no interior), is
    rejected.
    """
    S = model.num_states
    sets = constraints if _per_state(constraints, S, "constraint") \
        else [constraints] * S
    for s, con in enumerate(sets):
        if not hasattr(con, "penalty"):
            raise ValueError(
                f"state {s}: conversion needs a single smooth constraint "
                f"with interior, not {type(con).__name__}")
        if not getattr(con, "interior", True):
            raise ValueError(f"state {s}: radius 0 admits no Slater point")
    sol = value_iteration(model, regularized_backup_operator(sets), tol=tol)
    multipliers, slack, regs = np.zeros(S), np.zeros(S), []
    for s, (con, w) in enumerate(zip(sets, q_vector(model, sol.value))):
        lam = con.conjugate(w).multiplier
        multipliers[s] = lam = float(lam or 0.0)
        regs.append(con.penalty(lam) if lam else ZeroRegularizer())
        slack[s] = abs(lam * constraint_violation(con, sol.policy[s]))
    return LagrangeConversion(multipliers=multipliers, regularizers=regs,
                              ct_value=sol.value, ct_policy=sol.policy,
                              slackness=slack)

