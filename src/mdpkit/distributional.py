"""Distributionally robust backups: ambiguity sets as concave regularizers.

Three ambiguity families for the per-state noise distribution are supported,
each realized as an equivalent concave regularizer on the action simplex so
the smoothed-Bellman machinery solves them:

- marginal inverse-CDF constraints (regularizer: per-action upper-tail
  integrals of the inverse CDFs),
- marginal mean-zero / std constraints (regularizer: sum of
  sigma_a * sqrt(p_a (1 - p_a))),
- full covariance constraints (regularizer: trace of the square root of
  S^(1/2) (Diag(p) - p p^T) S^(1/2)).

The first two are separable: one scalar root of their stationarity
condition solves the backup.  The covariance backup is a Newton ascent;
where it cannot run, the inherited `Regularizer.conjugate` (mirror ascent)
answers, so every `conjugate` returns a backup.

Each ambiguity set owns `regularizer(state)`, its equivalent regularizer
at a state, and `_fill(state, cols, rng)`, the draw of one member
distribution of the set through the noise laws' draw method
(`stochastic.NoiseModel._fill`).  `ds_lower_bound_check` estimates the
member's expected max with `stochastic.mc_emax` and verifies it stays
below the robust value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_EPS, _actions, _array, _falsi, _float_or_array, _param,
                   _row, standard_backup)
from .regularized import (ConjugateResult, Regularizer, entropy_backup,
                          regularized_backup_operator)
from .stochastic import EULER_GAMMA, GaussianJoint, _require_psd, mc_emax

_PROBE_GRID = np.linspace(1e-3, 1.0 - 1e-3, 1000)


def _e1(z):
    """Exponential integral E1(z) = -Ei(-z) for z > 0.

    The power series (Abramowitz & Stegun 5.1.11) up to z = 1.  Above, the
    continued fraction of A&S 5.1.22 in its even form, summed backward from
    a depth at which its truncation error is below rounding; summed forward
    (modified Lentz) it gathers rounding error from every term.
    """
    z = float(z)
    if z <= 1.0:
        term = total = z
        k = 1
        while abs(term) > 1e-17 * total:
            k += 1
            term *= -z / k
            total += term / k
        return total - EULER_GAMMA - math.log(z)
    tail = 0.0
    for k in range(int(16 + 96 / z), 0, -1):
        tail = k * k / (z + 2 * k + 1 - tail)
    return math.exp(-z) / (z + 1 - tail)


class InverseCdf:
    """Inverse CDF of one noise marginal: callable on arrays of t in (0, 1).

    `__call__` must map an array elementwise.  `mass_integral(p)` is the
    upper-tail integral of the inverse CDF from 1 - p to 1, the building
    block of the marginal-CDF regularizer: a float for a scalar p, and
    elementwise on an array; 0 at p = 0.  A user marginal whose
    `mass_integral` takes scalars only still serves one-row values, and so
    every backup.  Applied to uniforms, `__call__` draws samples of the
    marginal (inverse-transform sampling).  `cdf(x)`, the forward CDF
    P(X <= x) on arrays, is optional: without it on every action the
    robust backup is the inherited mirror ascent (`Regularizer.conjugate`).
    """

    def __call__(self, t):
        raise NotImplementedError

    def mass_integral(self, p):
        raise NotImplementedError

    def validate(self):
        vals = np.asarray(self(_PROBE_GRID), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("inverse CDF not finite on the probe grid")
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("inverse CDF is not nondecreasing")
        if not np.isfinite(self.mass_integral(1.0)):
            raise ValueError("inverse CDF has no finite first moment")


class ExponentialInverseCdf(InverseCdf):
    """Exponential(rate) marginal: F^-1(t) = -ln(1 - t) / rate."""

    def __init__(self, rate=1.0):
        self.rate = _param(rate, "rate", 0.0, strict=True)

    def __call__(self, t):
        return -np.log1p(-np.asarray(t, dtype=float)) / self.rate

    def cdf(self, x):
        return -np.expm1(-self.rate * np.maximum(x, 0.0))

    def mass_integral(self, p):
        q = p * (p > 0)  # p <= 0 gives 0, and ln 1 = 0 stands for ln 0
        return (q - q * np.log(q + (q == 0))) / self.rate


class UniformInverseCdf(InverseCdf):
    def __init__(self, lo=0.0, hi=1.0):
        self.lo = _param(lo, "lo")
        self.hi = _param(hi, "hi", self.lo, strict=True)

    def __call__(self, t):
        return self.lo + (self.hi - self.lo) * np.asarray(t, dtype=float)

    def cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def mass_integral(self, p):
        return self.lo * p + (self.hi - self.lo) * p * (2.0 - p) / 2.0


class GumbelInverseCdf(InverseCdf):
    """Location-0 Gumbel marginal: F^-1(t) = -scale * ln(-ln t)."""

    def __init__(self, scale=1.0):
        self.scale = _param(scale, "scale", 0.0, strict=True)

    def __call__(self, t):
        return -self.scale * np.log(-np.log(np.asarray(t, dtype=float)))

    def cdf(self, x):
        return np.exp(-np.exp(-np.asarray(x, dtype=float) / self.scale))

    def mass_integral(self, p):
        # int_{1-p}^1 F^-1 = scale * (exp(-z) ln z + E1(z) + euler_gamma)
        # with z = -ln(1 - p) <= 37 for p < 1; the two-term expansion near
        # z = 0 avoids the ln z blowup.
        if isinstance(p, np.ndarray):
            # one entry at a time: E1's series and continued fraction
            # vectorized cost a 4-action row about 70 times more
            return np.vectorize(self.mass_integral, otypes=[float])(p)
        p = float(p)
        if p <= 0:
            return 0.0
        if p >= 1:
            return self.scale * EULER_GAMMA
        z = -np.log1p(-p)
        if z < 1e-6:
            return self.scale * (-z * np.log(z) + z)
        return self.scale * (np.exp(-z) * np.log(z) + _e1(z) + EULER_GAMMA)


class TabulatedInverseCdf(InverseCdf):
    """Piecewise-linear inverse CDF given on knots; clamped outside the knots."""

    def __init__(self, t, values):
        t, values = _array(t, "t"), _array(values, "values", -np.inf)
        if t.ndim != 1 or t.shape != values.shape or t.shape[0] < 2:
            raise ValueError("need matching 1-d knot and value arrays, length >= 2")
        if not (np.all(t > 0) and np.all(t < 1) and np.all(np.diff(t) > 0)):
            raise ValueError("knots must be strictly increasing inside (0, 1)")
        if np.any(np.diff(values) < 0):
            raise ValueError("values must be nondecreasing")
        self.t = t
        self.values = values
        # the knots with 1 appended, F^-1 there, and the integral of F^-1
        # from each up to 1: one trapezoid per segment, the clamped top end
        # included, summed downward
        self._knots = np.append(t, 1.0)
        self._heights = np.append(values, values[-1])
        seg = np.diff(self._knots) * (self._heights[1:] + self._heights[:-1])
        self._tail = np.append(np.cumsum(seg[::-1] / 2.0)[::-1], 0.0)

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self.t, self.values)

    def cdf(self, x):
        # on a flat run of values np.interp takes its last knot, so the CDF
        # is right-continuous at the atoms: flat segments and clamped ends
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.values[-1], 1.0,
                        np.interp(x, self.values, self.t, left=0.0))

    def mass_integral(self, p):
        # the trapezoid rule over the knots in [1 - p, 1], clamped ends
        # included, is exact for a piecewise-linear function: one trapezoid
        # from 1 - p up to the next knot j, then j's tail.  p <= 0 gives 0,
        # and a NaN, which sorts last, stays NaN
        x = 1.0 - np.maximum(p, 0.0)
        j = np.minimum(np.searchsorted(self._knots, x), self.t.size)
        return self._tail[j] + (self._knots[j] - x) * (
            self(x) + self._heights[j]) / 2.0


class MarginalDistributionModel:
    """Per-(state, action) inverse CDFs; validated on a 1000-point probe grid."""

    def __init__(self, inverse_cdfs):
        rows = [list(row) for row in inverse_cdfs]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("inverse_cdfs must be a rectangular (S, A) table")
        # a file's "mdm" block shares one object across the table: each
        # distinct object is probed once, at the first entry that holds it
        checked = set()
        for s, row in enumerate(rows):
            for a, cdf in enumerate(row):
                if id(cdf) in checked:
                    continue
                checked.add(id(cdf))
                try:
                    cdf.validate()
                except ValueError as exc:
                    raise ValueError(f"inverse CDF at (s={s}, a={a}): {exc}") from exc
        self.inverse_cdfs = rows
        self.num_states = len(rows)
        self.num_actions = len(rows[0])

    def regularizer(self, state):
        return MdmRegularizer(self.inverse_cdfs[state])

    def _fill(self, state, cols, rng):
        # the member: independent inverse-CDF draws, one per action
        rng.random(out=cols)
        for cdf, col in zip(self.inverse_cdfs[state], cols, strict=True):
            col[...] = cdf(col)


class MarginalMomentModel:
    """Mean-zero noise with per-(state, action) standard deviation bounds."""

    def __init__(self, sigma):
        sigma = _array(sigma, "sigma", 0.0)
        if sigma.ndim != 2:
            raise ValueError(f"sigma must be (S, A), got shape {sigma.shape}")
        self.sigma = sigma
        self.num_states, self.num_actions = sigma.shape

    def regularizer(self, state):
        return MmmRegularizer(self.sigma[state])

    def _fill(self, state, cols, rng):
        # the member: independent +-sigma two-point noise
        sigma = self.sigma[state][:, None]
        rng.random(out=cols)
        cols[...] = np.where(cols < 0.5, -sigma, sigma)


class CovarianceModel:
    """Mean-zero noise with a fixed per-state covariance matrix."""

    def __init__(self, matrices):
        # the joint Gaussian with these covariances, a member of the set;
        # building it checks the matrices (`stochastic._require_psd`)
        self.gaussian = GaussianJoint(_array(matrices, "matrices"))
        self.matrices = self.gaussian.cov
        self.num_states, self.num_actions = self.matrices.shape[:2]

    def regularizer(self, state):
        return CovarianceRegularizer(self.matrices[state])

    def _fill(self, state, cols, rng):
        # the member: the joint Gaussian
        self.gaussian._fill(state, cols, rng)


def _stationary_root(w, phi, cdf, quantile) -> ConjugateResult:
    """sup_p { w.p + phi(p) } for phi(p) = sum_a int_{1-p_a}^1 F_a^-1.

    Stationarity gives p_a(nu) = 1 - F_a(nu - w_a), whose sum falls as nu
    rises.  Action a takes exactly 1/A at nu_a = w_a + F_a^-1(1 - 1/A), so
    [min_a nu_a, max_a nu_a] brackets the root.  `core._falsi` narrows it
    until the row sums to 1 to rounding.  Where an atom of some F_a makes
    the sum jump over 1, the bracket closes around the jump and the leftover
    mass goes inside it, between the two end rows.  `cdf` and `quantile`
    apply F_a and F_a^-1 to entry a of a length-A array.
    """
    n = w.shape[0]
    p = np.full(n, 1.0 / n)
    edge = w + quantile(1.0 - p) if n > 1 else w
    lo, hi = float(edge.min()), float(edge.max())
    if lo < hi:
        p_lo, p_hi = 1.0 - cdf(lo - w), 1.0 - cdf(hi - w)
        # the actions that set an end take 1/A there, inside any jump
        p_lo[edge == lo] = p_hi[edge == hi] = 1.0 / n

        def excess(nu):
            row = 1.0 - cdf(nu - w)
            g = float(row.sum()) - 1.0
            return (0.0 if abs(g) <= n * _EPS else g), row

        _, g_lo, p_lo, _, g_hi, p_hi = _falsi(
            excess, lo, hi, float(p_lo.sum()) - 1.0, float(p_hi.sum()) - 1.0,
            p_lo, p_hi)
        if g_hi >= 0.0:
            p = p_hi
        elif g_lo <= 0.0:
            p = p_lo
        else:
            p = p_hi + g_hi / (g_hi - g_lo) * (p_lo - p_hi)
        p = p / p.sum()
    return ConjugateResult(value=float(w @ p) + phi.value(p), argmax=p)


class MdmRegularizer(Regularizer):
    """Marginal-CDF regularizer for one state; gradient F^-1_a(1 - p_a)."""

    def __init__(self, cdf_row):
        self.cdfs = list(cdf_row)
        self.num_actions = len(self.cdfs)

    def value(self, p):
        # one row passes each marginal its entry, a table its column
        cols = zip(self.cdfs, np.asarray(p, dtype=float).T, strict=True)
        return _float_or_array(sum(c.mass_integral(col) for c, col in cols))

    def _each(self, method, x):
        """`method` of each action's marginal at that action's entry of x;
        ValueError when x has another length."""
        return np.array([getattr(c, method)(v)
                         for c, v in zip(self.cdfs, x, strict=True)])

    def gradient(self, p):
        return self._each("__call__", 1.0 - np.asarray(p, dtype=float))

    def conjugate(self, w):
        w = _actions(w, self.num_actions)
        # equal-rate exponential marginals: entropy backup at 1/rate, + 1/rate
        if all(isinstance(c, ExponentialInverseCdf) for c in self.cdfs):
            rates = {c.rate for c in self.cdfs}
            if len(rates) == 1:
                eta = 1.0 / rates.pop()
                res = entropy_backup(w, eta)
                return ConjugateResult(value=res.value + eta, argmax=res.argmax)
        if any(getattr(c, "cdf", None) is None for c in self.cdfs):
            return super().conjugate(w)
        return _stationary_root(w, self, lambda x: self._each("cdf", x),
                                lambda t: self._each("__call__", t))


class MmmRegularizer(Regularizer):
    """Marginal-moment regularizer with a stationarity-based conjugate.

    phi is separable with F_sigma(x) = (1 + x / sqrt(x^2 + sigma^2)) / 2,
    so `_stationary_root` gives p_a = (1 + d_a / sqrt(d_a^2 + sigma_a^2))/2
    with d_a = w_a - nu.
    """

    def __init__(self, sigma_row):
        self.sigma = _row(sigma_row, "sigma", 0.0)
        self.num_actions = np.size(self.sigma)

    def value(self, p):
        p = np.asarray(p, dtype=float)
        inner = np.clip(p * (1.0 - p), 0.0, None)
        return _float_or_array(np.sum(self.sigma * np.sqrt(inner), axis=-1))

    def gradient(self, p):
        p = np.asarray(p, dtype=float)
        inner = np.clip(p * (1.0 - p), 1e-32, None)
        return self.sigma * (1.0 - 2.0 * p) / (2.0 * np.sqrt(inner))

    def conjugate(self, w):
        w = _actions(w, self.num_actions)
        if np.all(self.sigma == 0):
            value, row = standard_backup(w)
            return ConjugateResult(value=value, argmax=row)
        sig = np.clip(self.sigma, 1e-12, None)

        def cdf(x):
            return 0.5 * (1.0 + x / np.sqrt(x * x + sig * sig))

        def quantile(t):
            u = 2.0 * t - 1.0
            return sig * u / np.sqrt(1.0 - u * u)

        return _stationary_root(w, self, cdf, quantile)


class CovarianceRegularizer(Regularizer):
    """Covariance-trace regularizer phi(p) = trace((S M(p) S)^(1/2)).

    S is the symmetric square root of the covariance matrix (which must
    pass `stochastic._require_psd`) and M(p) = Diag(p) - p p^T.  All is read
    in the chart of p's largest entry k: r is p without entry k and R the
    square root of the covariance of eps_a - eps_k (a != k).  The
    eigenvalues of X = R (Diag(r) - r r^T) R are those of S M(p) S without
    its structural zero.  With C = R U for the eigenvectors U of X's
    nonzero eigenvalues s^2, and B = C diag(1/s) C^T, the gradient in r is
    diag(B) / 2 - B r, from d trace(X^(1/2)) = trace(X^(-1/2) dX) / 2; a
    zero eigenvalue carries no first-order term.
    """

    def __init__(self, cov):
        cov = _array(cov, "cov")
        _require_psd(cov[None])
        self.cov = cov
        # stacked over the charts k: the mask of the other actions, (A, A),
        # and the symmetric square root of the covariance of their
        # differences eps_a - eps_k, (A, A - 1, A - 1)
        self.num_actions = n = cov.shape[0]
        self._rest = ~np.eye(n, dtype=bool)
        a = np.nonzero(self._rest)[1].reshape(n, n - 1)[..., None]
        k, b = np.arange(n)[:, None, None], a.swapaxes(-1, -2)
        lam, u = np.linalg.eigh(cov[a, b] - cov[a, k] - cov[k, b] + cov[k, k])
        root = np.sqrt(np.clip(lam, 0.0, None))[..., None, :]
        self._diff_root = (u * root) @ u.swapaxes(-1, -2)

    def _spectrum(self, p):
        """(k, r, eigenvalues, eigenvectors of X) in the chart of p.

        On the last axis: a table gets one stacked `eigh`, each row in its
        own chart.  No entry of r exceeds 1/2, so no cancellation.  A
        singular covariance has true zero eigenvalues, rounding noise of
        either sign that the square root would lift to ~1e-8; each row's
        are flushed to zero.
        """
        k = p.argmax(-1)
        r = p[self._rest[k]].reshape(k.shape + (self.num_actions - 1,))
        root, col = self._diff_root[k], r[..., None]
        lam, vecs = np.linalg.eigh(
            root @ (col * np.eye(col.shape[-2]) - col * r[..., None, :]) @ root)
        lam[lam < lam.max(-1, initial=0.0, keepdims=True) * 1e-14] = 0.0
        return k, r, lam, vecs

    def value(self, p):
        lam = self._spectrum(np.asarray(p, dtype=float))[2]
        return _float_or_array(np.sqrt(lam).sum(-1))

    def _inverse_root(self, k, lam, vecs):
        """s, C and B for the nonzero eigenvalues lam of X in chart k."""
        keep = lam > 0.0
        s = np.sqrt(lam[keep])
        c = self._diff_root[k] @ vecs[:, keep]
        return s, c, (c / s) @ c.T

    def gradient(self, p):
        """The gradient in r on the other actions, 0 at k, less its mean."""
        p = np.asarray(p, dtype=float)
        k, r, lam, vecs = self._spectrum(p)
        _, _, b = self._inverse_root(k, lam, vecs)
        g = np.zeros(p.shape[0])
        g[self._rest[k]] = 0.5 * np.diag(b) - b @ r
        return g - g.mean()

    def conjugate(self, w):
        """Damped Newton ascent of w.p + phi(p), charted at every iterate.

        In r, phi'' along dr is sum_ij G_ij E_ij^2 - dr^T B dr, with
        E = C^T (Diag(dr) - dr r^T - r dr^T) C and
        G_ij = -1/(2 s_i s_j (s_i + s_j)); the step in p is dr on the other
        actions and -sum(dr) at k.  Steps cut to stay interior and
        backtracked to Armijo ascent stop when the predicted ascent is at
        rounding level, after about ten steps at any data (mirror ascent
        takes 14 to 450).  The accepted trial's decomposition charts the
        next step.  If X has a zero eigenvalue or Newton stalls, the
        inherited mirror ascent (`Regularizer.conjugate`) answers.
        """
        w = _actions(w, self.num_actions)
        n = w.shape[0]
        wc = w - w.max()
        p = np.full(n, 1.0 / n)
        spec = self._spectrum(p)
        f = float(wc @ p) + float(np.sqrt(spec[2]).sum())
        for _ in range(100):
            k, r, lam, vecs = spec
            if np.count_nonzero(lam) < n - 1:
                break
            s, c, b = self._inverse_root(k, lam, vecs)
            rest = self._rest[k]
            grad = wc[rest] - wc[k] + 0.5 * np.diag(b) - b @ r
            q = c.T @ r
            e = c[:, :, None] * (c[:, None, :] - q) - q[:, None] * c[:, None, :]
            gam = -0.5 / (np.outer(s, s) * (s[:, None] + s))
            hess = np.einsum("aij,ij,bij->ab", e, gam, e) - b
            try:
                dr = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                break
            rise = float(grad @ dr)
            if abs(rise) <= 1e-14 * max(1.0, abs(f)):
                return ConjugateResult(value=float(w.max()) + f, argmax=p)
            d = np.empty(n)
            d[rest] = dr
            d[k] = -dr.sum()
            inward = d < 0
            step = min(1.0, 0.99 * np.min(p[inward] / -d[inward],
                                          initial=np.inf))
            while rise > 0 and step >= 1e-12:
                cand = p + step * d
                spec = self._spectrum(cand)
                fc = float(wc @ cand) + float(np.sqrt(spec[2]).sum())
                if fc >= f + 1e-4 * step * rise:
                    break
                step *= 0.5
            else:
                break
            p, f = cand, fc
        return super().conjugate(w)


def regularizer_for(ambiguity, state) -> Regularizer:
    """The concave regularizer equivalent to `ambiguity` at `state`."""
    return ambiguity.regularizer(state)


def ds_backup(w, ambiguity, state=0) -> ConjugateResult:
    """Robust backup sup over the ambiguity set, via the regularizer conjugate."""
    return regularizer_for(ambiguity, state).conjugate(w)


def ds_backup_operator(ambiguity):
    """Backup operator for robust value iteration.

    Deliberately the same code path as the regularized operator: robust value
    iteration is regularized value iteration under the equivalent phi.
    """
    phis = [regularizer_for(ambiguity, s) for s in range(ambiguity.num_states)]
    return regularized_backup_operator(phis)


@dataclass
class LowerBoundCheck:
    mc_value: float
    mc_std_error: float
    ds_value: float
    ok: bool


def ds_lower_bound_check(w, ambiguity, seed, state=0,
                         samples=1000000) -> LowerBoundCheck:
    """Sanity check: E[max] under one member distribution <= robust value.

    The member is independent inverse-CDF sampling (marginal-CDF family),
    independent +/- sigma two-point noise (marginal-moment family), or the
    joint Gaussian (covariance family), each drawn by the set's `_fill`.
    `ok` allows 3 standard errors of Monte Carlo slack.
    """
    est = mc_emax(w, ambiguity, samples, seed, state)
    ds = ds_backup(w, ambiguity, state=state).value
    return LowerBoundCheck(mc_value=est.mean, mc_std_error=est.std_error,
                           ds_value=ds,
                           ok=est.mean <= ds + 3.0 * est.std_error)
