"""Ambiguity-set backups: marginal-CDF, marginal-moment, and covariance
families, each checked against an independent route."""

import re

import numpy as np
import pytest
from scipy.integrate import quad

from mdpkit import (
    ConvergenceError,
    CovarianceModel,
    CovarianceRegularizer,
    DistributionalInstance,
    EntropyRegularizer,
    ExponentialInverseCdf,
    GumbelInverseCdf,
    MarginalDistributionModel,
    MarginalMomentModel,
    MdmRegularizer,
    MmmRegularizer,
    ModelValidationError,
    TabulatedInverseCdf,
    UniformInverseCdf,
    ds_backup,
    ds_lower_bound_check,
    entropy_backup,
    numeric_conjugate,
    random_mdp,
    regularized_backup_operator,
    regularizer_for,
    value_iteration,
)
from mdpkit import stochastic
from mdpkit.core import derive_rng, standard_backup
from mdpkit.distributional import InverseCdf, _e1
from util import central_fd, random_interior, tangential_fd

EULER_GAMMA = float(np.euler_gamma)
W = np.array([1.3, -0.4, 0.25])

# [DERIVED] frozen oracles for the upper-tail inverse-CDF integrals,
# evaluated with mpmath at 50 digits and rounded here.
EXP_MASS_03 = 0.6611918412977807977868       # rate 1, p = 0.3
GUMBEL_MASS_04 = 0.7210308838566766288722    # scale 1, p = 0.4
GUMBEL_MASS_TINY = 1.94206807414523654652e-7  # scale 1, p = 1e-8
UNIFORM_MASS = 0.3125                        # lo -0.5, hi 1.5, p = 0.25


# ------------------------------------------------------------- inverse CDFs


def test_inverse_cdf_validation():
    with pytest.raises(ValueError):
        ExponentialInverseCdf(rate=0.0)
    with pytest.raises(ValueError):
        UniformInverseCdf(lo=1.0, hi=1.0)
    with pytest.raises(ValueError):
        GumbelInverseCdf(scale=-1.0)
    with pytest.raises(ValueError):
        TabulatedInverseCdf([0.2, 0.8], [1.0, 0.5])  # decreasing values
    with pytest.raises(ValueError):
        TabulatedInverseCdf([0.0, 0.5], [0.0, 1.0])  # knot at 0
    for knots in ([np.nan, 0.5], [0.2, np.nan], [0.2, np.nan, 0.8]):
        with pytest.raises(ValueError, match="knots must be"):
            TabulatedInverseCdf(knots, [0.0, 1.0, 2.0][:len(knots)])


def test_exponential_draw_is_inverse_transform():
    cdf = ExponentialInverseCdf(rate=2.0)
    u = np.array([0.1, 0.5, 0.9])
    assert np.allclose(cdf(u), -np.log1p(-u) / 2.0)


def test_mass_integral_frozen_oracles():
    assert ExponentialInverseCdf(1.0).mass_integral(0.3) == pytest.approx(
        EXP_MASS_03, abs=1e-14)
    assert GumbelInverseCdf(1.0).mass_integral(0.4) == pytest.approx(
        GUMBEL_MASS_04, abs=1e-13)
    assert UniformInverseCdf(-0.5, 1.5).mass_integral(0.25) == pytest.approx(
        UNIFORM_MASS, abs=1e-15)


def test_gumbel_mass_series_branch():
    # below the series cutoff the closed form would hit ln(z) cancellation
    assert GumbelInverseCdf(1.0).mass_integral(1e-8) == pytest.approx(
        GUMBEL_MASS_TINY, rel=1e-7)


def test_gumbel_mass_endpoints():
    g = GumbelInverseCdf(1.0)
    assert g.mass_integral(0.0) == 0.0
    # the full integral is the Gumbel mean
    assert g.mass_integral(1.0) == pytest.approx(EULER_GAMMA, abs=1e-14)


# E1(z) = -Ei(-z) from mpmath 1.3.0 (`mpmath.e1` at dps 50), rounded to
# float64; z = 1 is where `_e1` switches from its series to its fraction.
E1_FROZEN = [
    (1e-06, 13.23829589306249),
    (1.9123077163397643e-06, 12.589986064181462),
    (3.6569208019726124e-06, 11.941677067604035),
    (6.993157867655627e-06, 11.293369662644137),
    (1.337306975189999e-05, 10.645065301335457),
    (2.55734244777083e-05, 9.99676676038331),
    (4.8904256961953795e-05, 9.348479349593312),
    (9.35199879502069e-05, 8.700213222547667),
    (0.00017883899458918262, 8.051987794557146),
    (0.00034199518933533966, 7.403840188321384),
    (0.0006540000395170488, 6.755841374307965),
    (0.0012506493220549645, 6.108126998393614),
    (0.002391626349000806, 5.460956195945259),
    (0.0045735255217957405, 4.814823559165719),
    (0.008745988146206852, 4.170671418604487),
    (0.01672502061900749, 3.530289123381636),
    (0.03198338598566969, 2.897052492560313),
    (0.06116207581506923, 2.277251735285755),
    (0.11696070952851483, 1.6823292847514315),
    (0.22366486733995272, 1.1321456346122938),
    (0.42771605168830135, 0.6580818031277357),
    (0.5, 0.5597735947761608),
    (0.8179247060459179, 0.3007284726129979),
    (0.999999999999, 0.21938393439588816),
    (1.0, 0.21938393439552029),
    (1.000000000001, 0.21938393439515236),
    (1.5641237267565424, 0.09097035733189078),
    (2.0, 0.04890051070806112),
    (2.9910858719866456, 0.013197200055412748),
    (5.719876593234927, 0.0004970139147022948),
    (10.938164145754355, 1.4974275822088634e-06),
    (20.917135698517, 3.765774779532699e-11),
    (37.0, 2.2470206975885714e-18),
    (40.0, 1.036773261451657e-19),
]


@pytest.mark.parametrize("z,ref", E1_FROZEN)
def test_e1_matches_frozen_mpmath_values(z, ref):
    assert abs(_e1(z) - ref) <= 2e-15 * ref


@pytest.mark.parametrize("cdf,p", [
    (ExponentialInverseCdf(1.7), 0.45),
    (UniformInverseCdf(-1.0, 2.0), 0.6),
    (GumbelInverseCdf(0.8), 0.35),
])
def test_mass_integral_agrees_with_quadrature(cdf, p):
    # dual route: adaptive quadrature of the inverse CDF over [1-p, 1]
    ref, err = quad(cdf, 1.0 - p, 1.0, epsabs=1e-12, limit=500)
    assert cdf.mass_integral(p) == pytest.approx(ref, abs=max(1e-10, 10 * err))


def test_tabulated_cdf_interpolates_and_integrates():
    cdf = TabulatedInverseCdf([0.25, 0.5, 0.75], [-1.0, 0.0, 2.0])
    assert cdf(0.5) == 0.0
    assert cdf(0.375) == -0.5
    assert cdf(0.1) == -1.0  # clamped below the first knot
    ref, _ = quad(cdf, 0.6, 1.0, epsabs=1e-12, limit=500)
    assert cdf.mass_integral(0.4) == pytest.approx(ref, abs=1e-9)


def test_tabulated_mass_integral_is_exact_across_atoms():
    # 1 - p below the first knot, inside the flat segment [0.4, 0.6], and
    # above the last knot: the trapezoid sum equals the quadrature
    cdf = TabulatedInverseCdf([0.2, 0.4, 0.6, 0.8], [-1.0, 0.5, 0.5, 2.0])
    for p in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        knots = [k for k in cdf.t if k > 1.0 - p]
        ref, _ = quad(cdf, 1.0 - p, 1.0, points=knots or None,
                      epsabs=1e-13, limit=500)
        assert cdf.mass_integral(p) == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("cdf", [
    ExponentialInverseCdf(1.7),
    UniformInverseCdf(-1.0, 2.0),
    GumbelInverseCdf(0.8),
    TabulatedInverseCdf([0.2, 0.4, 0.6, 0.8], [-1.0, 0.5, 0.5, 2.0]),
], ids=["exponential", "uniform", "gumbel", "tabulated"])
def test_forward_cdf_inverts_the_quantile(cdf):
    # F(F^-1(t)) = t off the atoms; at an atom F jumps past t, and just
    # below the atom it stays at or below t
    t = np.linspace(0.01, 0.99, 99)
    x = cdf(t)
    f = cdf.cdf(x)
    assert f.shape == t.shape
    assert np.all(f >= t - 1e-12)
    assert np.all(cdf.cdf(x - 1e-9) <= t + 1e-8)
    if not isinstance(cdf, TabulatedInverseCdf):
        assert np.allclose(f, t, atol=1e-12)
    else:
        assert cdf.cdf(0.5) == 0.6  # right end of the flat segment
        assert cdf.cdf(2.0) == 1.0 and cdf.cdf(-1.0 - 1e-12) == 0.0


@pytest.mark.parametrize("cdf", [
    ExponentialInverseCdf(1.7),
    UniformInverseCdf(-1.0, 2.0),
    GumbelInverseCdf(0.8),
    TabulatedInverseCdf([0.2, 0.4, 0.6, 0.8], [-1.0, 0.5, 0.5, 2.0]),
], ids=["exponential", "uniform", "gumbel", "tabulated"])
def test_mass_integral_acts_elementwise(cdf):
    # p = -1e-16 is a grid oracle entry 1 - p0 - p1 after rounding
    p = np.array([[0.0, 1.0, -1e-16, 1e-8],
                  [0.2, 0.5, 0.6, 0.999]])
    each = np.array([cdf.mass_integral(x) for x in p.ravel()])
    assert np.array_equal(cdf.mass_integral(p), each.reshape(p.shape))
    assert cdf.mass_integral(p[0, 0]) == 0.0


@pytest.mark.parametrize("length", [1, 2, 4])
def test_mdm_rejects_a_row_of_another_length(length):
    phi = MdmRegularizer([GumbelInverseCdf(1.0)] * 3)
    row = np.arange(1.0, length + 1.0) / 10.0
    for call in (phi.value, phi.gradient, phi.conjugate):
        with pytest.raises(ValueError):
            call(row)


def test_validate_catches_non_monotone_probe():
    class Bad(ExponentialInverseCdf):
        def __call__(self, t):
            return -super().__call__(t)

    with pytest.raises(ValueError):
        Bad(1.0).validate()


# -------------------------------------------------------- marginal-CDF sets


def equal_rate_mdm(n, rate=1.0):
    return MdmRegularizer([ExponentialInverseCdf(rate)] * n)


def test_mdm_value_is_the_mass_sum():
    phi = MdmRegularizer([ExponentialInverseCdf(1.0),
                          UniformInverseCdf(-0.5, 1.5),
                          GumbelInverseCdf(1.0)])
    p = np.array([0.3, 0.25, 0.4])
    expected = EXP_MASS_03 + UNIFORM_MASS + GumbelInverseCdf(1.0).mass_integral(0.4)
    assert phi.value(p) == pytest.approx(expected, abs=1e-12)


def test_mdm_gradient_is_the_inverse_cdf_at_one_minus_p():
    cdfs = [ExponentialInverseCdf(1.3), GumbelInverseCdf(0.7),
            UniformInverseCdf(0.0, 1.0)]
    phi = MdmRegularizer(cdfs)
    rng = np.random.default_rng(2)
    for _ in range(4):
        p = random_interior(rng, 3)
        g = phi.gradient(p)
        direct = np.array([c(1.0 - p[a]) for a, c in enumerate(cdfs)])
        assert np.allclose(g, direct, atol=1e-12)
        fd = central_fd(phi.value, p, h=1e-6)
        assert np.max(np.abs(g - fd)) < 1e-5


def test_equal_rate_exponential_mdm_closed_conjugate():
    # analytic: (1 + ln sum exp(lam * w)) / lam, softmax weights
    lam = 1.0
    phi = equal_rate_mdm(3, lam)
    res = phi.conjugate(W)
    from scipy.special import logsumexp, softmax
    assert res.value == pytest.approx((1.0 + logsumexp(lam * W)) / lam,
                                      abs=1e-12)
    assert np.allclose(res.argmax, softmax(lam * W), atol=1e-12)
    # and it is the entropy backup plus the constant 1/lam
    ent = entropy_backup(W, 1.0 / lam)
    assert res.value == pytest.approx(ent.value + 1.0 / lam, abs=1e-12)


def test_equal_rate_mdm_matches_numeric_conjugate():
    phi = equal_rate_mdm(3, 1.6)
    closed = phi.conjugate(W)
    num = numeric_conjugate(W, phi)
    assert num.value == pytest.approx(closed.value, abs=1e-8)
    assert np.max(np.abs(num.argmax - closed.argmax)) < 1e-5


def test_gumbel_mdm_is_not_an_entropy_backup():
    # same noise scale, different family: the robust value differs from
    # every tested entropy temperature at this w.
    phi = MdmRegularizer([GumbelInverseCdf(1.0)] * 3)
    val = numeric_conjugate(W, phi).value
    gaps = [abs(val - (entropy_backup(W, eta).value + off))
            for eta in (0.5, 1.0, 2.0) for off in (0.0,)]
    assert min(gaps) > 1e-3


class _CountingMdm(MdmRegularizer):
    def __init__(self, cdf_row):
        super().__init__(cdf_row)
        self.value_evals = 0

    def value(self, p):
        self.value_evals += 1
        return super().value(p)


def _mirror_ascent_halving_to_the_floor(w, phi, tol=1e-12):
    """`numeric_conjugate`'s loop with a line search that always halves the
    step down to 1e-18 before it gives up."""
    shift = float(w.max())
    wc = w - shift
    p = np.full(w.shape[0], 1.0 / w.shape[0])
    f = float(wc @ p) + phi.value(p)
    step = 1.0
    history = [f]
    while True:
        g = wc + phi.gradient(p)
        g = g - g.max()
        while step >= 1e-18:
            cand = np.clip(p * np.exp(step * g), 1e-16, None)
            cand /= cand.sum()
            fc = float(wc @ cand) + phi.value(cand)
            if fc > f:
                break
            step *= 0.5
        else:
            return shift + f, p
        p, f = cand, fc
        step = min(step * 2.0, 1e6)
        history = (history + [f])[-51:]
        if len(history) == 51 and f - history[0] <= tol * max(1.0, abs(f)):
            return shift + f, p


def test_numeric_conjugate_line_search_exit_changes_no_result():
    # stopping the halving once a rejected step rounds back to the current
    # row must give the same value and row, bit for bit, with fewer
    # regularizer evaluations
    rng = np.random.default_rng(5)
    saved = 0
    for _ in range(40):
        cdfs = [GumbelInverseCdf(rng.uniform(0.2, 2.0)) if rng.random() < 0.5
                else UniformInverseCdf(-rng.uniform(0.0, 1.0),
                                       rng.uniform(0.1, 1.5))
                for _ in range(int(rng.integers(2, 6)))]
        w = rng.normal(size=len(cdfs))
        ref_phi, phi = _CountingMdm(cdfs), _CountingMdm(cdfs)
        ref_value, ref_row = _mirror_ascent_halving_to_the_floor(w, ref_phi)
        res = numeric_conjugate(w, phi)
        assert res.value == ref_value
        assert np.array_equal(res.argmax, ref_row)
        saved += ref_phi.value_evals - phi.value_evals
    assert saved > 0


def _random_marginal(rng, family):
    if family == "exponential":
        return ExponentialInverseCdf(rng.uniform(0.3, 3.0))
    if family == "uniform":
        lo = rng.normal()
        return UniformInverseCdf(lo, lo + rng.uniform(0.1, 2.0))
    if family == "gumbel":
        return GumbelInverseCdf(rng.uniform(0.2, 2.0))
    # knots at least 0.01 apart; about half the segments are flat (atoms)
    k = int(rng.integers(2, 6))
    t = 0.02 + np.cumsum(rng.uniform(0.01, 0.96 / k, k))
    steps = rng.exponential(1.0, k - 1) * (rng.random(k - 1) < 0.5)
    values = np.concatenate(([0.0], np.cumsum(steps)))
    return TabulatedInverseCdf(t, rng.normal() + values)


FAMILIES = ["exponential", "uniform", "gumbel", "tabulated"]


@pytest.mark.parametrize("family", FAMILIES + ["mixed"])
def test_mdm_stationarity_root_beats_mirror_ascent(family):
    # 5 x 60 draws: the root's row is feasible, its value is never below
    # mirror ascent's, and for continuous marginals w_a + F_a^-1(1 - p_a)
    # is one constant on the support
    rng = np.random.default_rng(40 + (FAMILIES + ["mixed"]).index(family))
    for _ in range(60):
        n = int(rng.integers(2, 7))
        cdfs = [_random_marginal(rng, family if family != "mixed"
                                 else FAMILIES[rng.integers(4)])
                for _ in range(n)]
        w = rng.normal(size=n) * rng.uniform(0.1, 3.0)
        phi = MdmRegularizer(cdfs)
        res = phi.conjugate(w)
        try:
            mirror = numeric_conjugate(w, phi).value
        except ConvergenceError as exc:  # flat segments can stall it
            mirror = exc.best.value
        p = res.argmax
        assert np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12
        assert res.value == float(w @ p) + phi.value(p)
        assert res.value >= mirror - 1e-12
        if not any(isinstance(c, TabulatedInverseCdf) for c in cdfs):
            # a row that is 1 to rounding has an infinite Gumbel gradient
            # and no second action to compare with
            support = (p > 1e-6) & (p < 1.0 - 1e-6)
            if support.any():
                assert np.ptp((w + phi.gradient(p))[support]) <= 1e-9


class _CountingExponential(ExponentialInverseCdf):
    evals = 0

    def cdf(self, x):
        _CountingExponential.evals += 1
        return super().cdf(x)


def test_mdm_root_takes_few_evaluations_at_a_kink():
    # where one exponential takes nearly all the mass the root sits next to
    # the kink nu = w_a of its p_a(nu), flat on the left; secant steps alone
    # creep along the flat side (117 sweeps of the row here)
    rates = [2.918798615683558, 1.6933851809792726, 0.6128371536710799]
    phi = MdmRegularizer([_CountingExponential(r) for r in rates])
    _CountingExponential.evals = 0
    phi.conjugate(np.array([-3.06935895, -1.0422515, 5.63838331]))
    assert _CountingExponential.evals / 3 <= 40
    rng = np.random.default_rng(9)
    sweeps = []
    for _ in range(100):
        n = int(rng.integers(2, 7))
        phi = MdmRegularizer([_CountingExponential(rng.uniform(0.3, 3.0))
                              for _ in range(n)])
        _CountingExponential.evals = 0
        phi.conjugate(rng.normal(size=n) * rng.uniform(0.1, 5.0))
        sweeps.append(_CountingExponential.evals / n)
    assert np.mean(sweeps) <= 20


@pytest.mark.parametrize("t,w,row", [
    # flat at 0.5 on t in [0.6, 0.8]: the root nu = 0.5 is inside the bracket
    ([0.2, 0.6, 0.8, 0.9], [0.0, 0.6], [0.3, 0.7]),
    # flat at 0.5 on t in [0.4, 0.6]: nu = 0.5 is the bracket's lower end
    ([0.2, 0.4, 0.6, 0.8], [0.0, 0.15], [0.45, 0.55]),
])
def test_mdm_root_puts_the_leftover_mass_inside_the_jump(t, w, row):
    # p_1(nu) jumps over the flat segment's mass at nu = 0.5, where the
    # uniform marginal's p_2 leaves a share inside the jump: both
    # stationarity values equal 0.5
    cdfs = [TabulatedInverseCdf(t, [-1.0, 0.5, 0.5, 2.0]),
            UniformInverseCdf(-1.0, 2.0)]
    res = MdmRegularizer(cdfs).conjugate(np.array(w))
    assert np.allclose(res.argmax, row, rtol=0.0, atol=1e-14)


class _LogisticNoCdf(InverseCdf):
    """A marginal with a quantile and a mass integral but no forward cdf."""

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.log(t) - np.log1p(-t)

    def mass_integral(self, p):
        # int_{1-p}^1 ln(t / (1 - t)) dt = -p ln p - (1 - p) ln(1 - p)
        p = float(p)
        return float(sum(-x * np.log(x) for x in (p, 1.0 - p) if x > 0))


def test_marginal_without_cdf_reaches_numeric_conjugate():
    phi = MdmRegularizer([_LogisticNoCdf(), GumbelInverseCdf(1.0),
                          _LogisticNoCdf()])
    assert phi.conjugate(W).value == numeric_conjugate(W, phi).value
    mdm = MarginalDistributionModel([phi.cdfs])
    assert ds_backup(W, mdm).value == numeric_conjugate(W, phi).value


def test_mixed_family_mdm_runs_through_numeric_conjugate():
    phi = MdmRegularizer([ExponentialInverseCdf(1.0),
                          UniformInverseCdf(0.0, 2.0),
                          GumbelInverseCdf(0.5)])
    res = numeric_conjugate(W, phi)
    attained = float(W @ res.argmax) + phi.value(res.argmax)
    assert abs(res.value - attained) <= 1e-8


# ----------------------------------------------------- marginal-moment sets


# [DERIVED] frozen oracle for the equal-sigma two-action closed form
# p1 = (1 + d/sqrt(d^2 + 4 s^2))/2 at w = [0.5, -0.2], sigma = 0.45,
# evaluated with mpmath at 50 digits.
MMM_ORACLE_P1 = 0.806970306757460225152
MMM_ORACLE_VALUE = 0.720087712549568989568


def test_mmm_two_action_closed_form():
    phi = MmmRegularizer(np.array([0.45, 0.45]))
    res = phi.conjugate(np.array([0.5, -0.2]))
    assert res.argmax[0] == pytest.approx(MMM_ORACLE_P1, abs=1e-12)
    assert res.value == pytest.approx(MMM_ORACLE_VALUE, abs=1e-12)


def test_mmm_value_formula():
    phi = MmmRegularizer(np.array([0.3, 0.6]))
    p = np.array([0.25, 0.75])
    expected = 0.3 * np.sqrt(0.25 * 0.75) + 0.6 * np.sqrt(0.75 * 0.25)
    assert phi.value(p) == pytest.approx(expected, abs=1e-14)


def test_mmm_zero_sigma_reduces_to_hard_max():
    phi = MmmRegularizer(np.zeros(3))
    res = phi.conjugate(W)
    value, row = standard_backup(W)
    assert res.value == value
    assert np.array_equal(res.argmax, row)


def test_mmm_conjugate_matches_numeric_route():
    phi = MmmRegularizer(np.array([0.2, 0.5, 0.35]))
    closed = phi.conjugate(W)
    num = numeric_conjugate(W, phi)
    assert num.value == pytest.approx(closed.value, abs=1e-8)
    assert np.max(np.abs(num.argmax - closed.argmax)) < 1e-5


def test_mmm_gradient_matches_finite_differences():
    phi = MmmRegularizer(np.array([0.2, 0.5, 0.35]))
    rng = np.random.default_rng(4)
    for _ in range(4):
        p = random_interior(rng, 3, floor=0.1)
        fd = central_fd(phi.value, p, h=1e-6)
        assert np.max(np.abs(phi.gradient(p) - fd)) < 1e-5


def test_mmm_rejects_negative_sigma():
    with pytest.raises(ValueError):
        MmmRegularizer(np.array([0.3, -0.1]))


# --------------------------------------------------------- covariance sets


def test_covariance_isotropic_two_action_formula():
    # for cov = s^2 I with two actions the penalty is s*sqrt(2 p (1-p))
    s = 0.8
    phi = CovarianceRegularizer(s * s * np.eye(2))
    for p1 in (0.2, 0.5, 0.9):
        p = np.array([p1, 1.0 - p1])
        assert phi.value(p) == pytest.approx(
            s * np.sqrt(2.0 * p1 * (1.0 - p1)), abs=1e-12)


def test_covariance_value_vanishes_at_vertices():
    phi = CovarianceRegularizer(np.array([[1.0, 0.3], [0.3, 2.0]]))
    assert phi.value(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-7)
    assert phi.value(np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-7)


def test_covariance_gradient_matches_tangential_fd():
    cov = np.array([[1.0, 0.3, 0.1],
                    [0.3, 2.0, -0.2],
                    [0.1, -0.2, 1.5]])
    phi = CovarianceRegularizer(cov)
    rng = np.random.default_rng(6)
    for _ in range(4):
        p = random_interior(rng, 3, floor=0.1)
        g = phi.gradient(p)
        for d, deriv in tangential_fd(phi.value, p, h=1e-6):
            assert g @ d == pytest.approx(deriv, abs=1e-6)


def test_covariance_value_is_smooth_near_a_vertex():
    # p_min about 1e-3: phi is linear to 1e-12 over a 5e-10 step, with no
    # rounding noise of a structural zero eigenvalue lifted by the sqrt
    rng = np.random.default_rng(23)
    for k in range(200):
        na = 2 + k % 3
        b = rng.normal(size=(na, na))
        phi = CovarianceRegularizer(b @ b.T / na
                                    + rng.uniform(0.05, 0.3) * np.eye(na))
        p = rng.uniform(0.5e-3, 2e-3, na)
        top = int(rng.integers(na))
        p[top] = 0.0
        p[top] = 1.0 - p.sum()
        d = rng.normal(size=na)
        d -= d.mean()
        q = p + 5e-10 * d / np.linalg.norm(d)
        gap = phi.value(q) - phi.value(p) - phi.gradient(p) @ (q - p)
        assert abs(gap) <= 1e-12


def test_covariance_rejects_non_psd():
    with pytest.raises(ValueError):
        CovarianceRegularizer(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_covariance_conjugate_against_two_action_grid():
    s = 0.6
    phi = CovarianceRegularizer(s * s * np.eye(2))
    w = np.array([0.4, -0.1])
    grid = np.linspace(0.0, 1.0, 100001)
    vals = w[0] * grid + w[1] * (1 - grid) + s * np.sqrt(2 * grid * (1 - grid))
    res = numeric_conjugate(w, phi)
    assert res.value == pytest.approx(float(vals.max()), abs=1e-7)
    assert phi.conjugate(w).value == pytest.approx(float(vals.max()), abs=1e-7)


def test_covariance_newton_conjugate_matches_mirror_ascent():
    # Newton's value is the objective at its row, never below the mirror
    # ascent's, and the rows agree; the tangential gradient is flat to 1e-5
    rng = np.random.default_rng(17)
    for k in range(30):
        na = 2 + k % 5
        b = rng.normal(size=(na, na))
        phi = CovarianceRegularizer(b @ b.T / na
                                    + rng.uniform(0.05, 0.3) * np.eye(na))
        w = rng.normal(size=na) * rng.uniform(0.1, 3.0)
        res = phi.conjugate(w)
        mirror = numeric_conjugate(w, phi)
        assert res.value == pytest.approx(
            float(w @ res.argmax) + phi.value(res.argmax), abs=1e-12)
        assert res.value >= mirror.value - 1e-12
        assert np.max(np.abs(res.argmax - mirror.argmax)) <= 1e-6
        assert np.ptp(w + phi.gradient(res.argmax)) <= 1e-5


def test_covariance_newton_switches_chart_to_the_last_action():
    # Newton starts at the uniform row, charted on action 0; the optimum's
    # largest entry is the last action, so the chart switches on the way
    cov = np.array([[0.5, 0.1, -0.1, 0.0],
                    [0.1, 0.4, 0.05, 0.1],
                    [-0.1, 0.05, 0.6, 0.2],
                    [0.0, 0.1, 0.2, 0.3]])
    phi = CovarianceRegularizer(cov)
    w = np.array([-0.2, 0.1, 0.3, 0.9])
    res = phi.conjugate(w)
    mirror = numeric_conjugate(w, phi)
    assert int(res.argmax.argmax()) == 3
    assert res.value == pytest.approx(
        float(w @ res.argmax) + phi.value(res.argmax), abs=1e-12)
    assert res.value >= mirror.value - 1e-12
    assert np.max(np.abs(res.argmax - mirror.argmax)) <= 1e-6
    assert np.ptp(w + phi.gradient(res.argmax)) <= 1e-5


@pytest.mark.parametrize("spectrum,psd", [
    ([100.0, 1.0, -5e-10], True),     # relative bound: -5e-10 > -1e-8
    ([1.0, 0.5, -5e-11], True),
    ([1.0, 0.5, -5e-10], False),
    ([100.0, 1.0, -2e-8], False),
    ([3.0, 1.0, -1.0], False),
    ([2.0, 0.0, 0.0], True),
])
def test_covariance_regularizer_and_model_share_one_psd_rule(spectrum, psd):
    q, _ = np.linalg.qr(derive_rng(8).normal(size=(3, 3)))
    cov = (q * spectrum) @ q.T
    cov = (cov + cov.T) / 2.0
    for build in (CovarianceRegularizer, lambda c: CovarianceModel([c])):
        if psd:
            build(cov)
        else:
            with pytest.raises(ValueError):
                build(cov)


def test_covariance_conjugate_defers_to_mirror_ascent_when_singular():
    # rank 1 on three actions: a second zero eigenvalue besides the
    # structural one, so the Newton model is undefined
    b = np.array([[1.0], [0.5], [-0.3]])
    phi = CovarianceRegularizer(b @ b.T)
    w = np.array([0.2, 0.1, -0.4])
    assert phi.conjugate(w).value == numeric_conjugate(w, phi).value
    res = ds_backup(w, CovarianceModel([b @ b.T]))
    assert res.value == numeric_conjugate(w, phi).value


# ----------------------------------------------------- operator and checks


def ambiguity_models():
    mdm = MarginalDistributionModel([[ExponentialInverseCdf(1.0)] * 2] * 3)
    mmm = MarginalMomentModel(np.full((3, 2), 0.4))
    cov = CovarianceModel(np.broadcast_to(0.25 * np.eye(2), (3, 2, 2)).copy())
    return [mdm, mmm, cov]


@pytest.mark.parametrize("ambiguity", ambiguity_models(),
                         ids=["mdm", "mmm", "cov"])
def test_ds_operator_is_the_regularized_operator(ambiguity):
    # the robust backup literally routes through the induced regularizer,
    # so whole solves agree bit for bit.
    m = random_mdp(3, 2, seed=8, discount=0.8)
    phis = [regularizer_for(ambiguity, s) for s in range(3)]
    a = value_iteration(m, DistributionalInstance(m, ambiguity).operator())
    b = value_iteration(m, regularized_backup_operator(phis))
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.policy, b.policy)


@pytest.mark.parametrize("ambiguity", ambiguity_models(),
                         ids=["mdm", "mmm", "cov"])
def test_member_distribution_never_beats_robust_value(ambiguity):
    check = ds_lower_bound_check(np.array([0.6, -0.3]), ambiguity, seed=3,
                                 samples=200000)
    assert check.ok
    assert check.mc_value <= check.ds_value + 3.0 * check.mc_std_error


@pytest.mark.parametrize("ambiguity", [
    MarginalMomentModel(np.full((1, 3), 0.4)),
    CovarianceModel(np.array([[[0.3, 0.1, 0.0], [0.1, 0.2, 0.05],
                               [0.0, 0.05, 0.4]]])),
    MarginalDistributionModel([[GumbelInverseCdf(0.7)] * 3]),
], ids=["mmm", "cov", "gumbel-mdm"])
def test_lower_bound_check_is_the_row_major_expected_max(ambiguity):
    # the (A, n) column reduction takes the same exact maxima as the
    # row-major (w + eps).max(axis=1); the tie in w makes the two-point
    # noise tie too
    w = np.array([0.2, 0.2, -0.1])
    check = ds_lower_bound_check(w, ambiguity, seed=5, samples=20000)
    eps = stochastic._drawn(ambiguity, 0, 3, 20000, derive_rng(5, 0)).T
    m = (w + eps).max(axis=1)
    assert check.mc_value == float(m.mean())
    assert check.mc_std_error == float(m.std(ddof=1) / np.sqrt(20000))


def test_ds_backup_per_state_dispatch():
    mdm = MarginalDistributionModel([
        [ExponentialInverseCdf(1.0)] * 2,
        [ExponentialInverseCdf(2.0)] * 2,
    ])
    w = np.array([0.5, -0.1])
    a = ds_backup(w, mdm, state=0)
    b = ds_backup(w, mdm, state=1)
    assert a.value != b.value


def test_marginal_model_validation():
    with pytest.raises(ValueError):
        MarginalDistributionModel([[ExponentialInverseCdf(1.0)],
                                   [ExponentialInverseCdf(1.0)] * 2])


def test_marginal_model_validates_each_object_once(monkeypatch):
    calls = []

    def counting(self):
        calls.append(self)

    monkeypatch.setattr(GumbelInverseCdf, "validate", counting)
    cdf = GumbelInverseCdf(1.0)
    MarginalDistributionModel([[cdf] * 4] * 6)
    assert calls == [cdf]
    calls.clear()
    table = [[GumbelInverseCdf(1.0) for _ in range(4)] for _ in range(6)]
    MarginalDistributionModel(table)
    assert calls == [c for row in table for c in row]


def test_a_shared_bad_marginal_is_named_at_its_first_entry():
    class Bad(ExponentialInverseCdf):
        def __call__(self, t):
            return -super().__call__(t)

    good, bad = ExponentialInverseCdf(1.0), Bad(1.0)
    with pytest.raises(ValueError, match=r"^inverse CDF at \(s=1, a=0\)"):
        MarginalDistributionModel([[good, good], [bad, good], [bad, bad]])
    with pytest.raises(ValueError):
        MarginalMomentModel(np.array([[0.3, -0.2]]))
    with pytest.raises(ValueError):
        CovarianceModel(np.array([[[1.0, 2.0], [2.0, 1.0]]]))


def test_an_ambiguity_table_must_fit_the_model():
    model = random_mdp(3, 2, seed=0)
    for ambiguity in (MarginalMomentModel(np.ones((3, 4))),
                      CovarianceModel(np.tile(np.eye(2), (5, 1, 1)))):
        shape = (ambiguity.num_states, ambiguity.num_actions)
        with pytest.raises(ModelValidationError, match=re.escape(
                f"ambiguity table is (S, A) = {shape}, the model is (3, 2)")):
            DistributionalInstance(model, ambiguity)
