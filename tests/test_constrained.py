"""Feasible-set backups (KL, L1, chi-square, generic level sets), the grid
oracle, dual-expression discrepancy reports, and both conversions."""

import numpy as np
import pytest
from scipy.optimize import minimize

from mdpkit import (
    ChiSquareLagrangeRegularizer,
    ConstrainedInstance,
    EntropyRegularizer,
    FullSimplex,
    KlBall,
    KlRegularizer,
    L1Ball,
    L2ChiSquareBall,
    MdpModel,
    MmmRegularizer,
    ModelValidationError,
    PhiBall,
    Regularizer,
    RegularizedInstance,
    Singleton,
    ZeroRegularizer,
    constrained_backup,
    constraint_violation,
    ct_backup_operator,
    ct_to_r_convert,
    generic_phi_ball_backup,
    grid_oracle_backup,
    kl_constrained_backup,
    l1_constrained_backup,
    l1_dual_discrepancy,
    l2_constrained_backup,
    l2_dual_discrepancy,
    numeric_conjugate,
    policy_evaluation_exact,
    q_vector,
    r_to_ct_convert,
    random_mdp,
    regularized_backup_operator,
    standard_backup,
    value_iteration,
)
import mdpkit.modelio as modelio
from mdpkit.constrained import kl_divergence, chi_square
from util import central_fd

W3 = np.array([1.0, 0.2, -0.5])
UNIF3 = np.full(3, 1.0 / 3.0)

# [DERIVED] frozen oracle for the KL-ball backup at W3, uniform reference,
# radius 0.1: high-precision bisection on the scalar dual with mpmath at
# 50 digits.
KL_ORACLE_VALUE = 0.5055691452857490099736
KL_ORACLE_MULT = 1.334104245101796709667


# ------------------------------------------------------------- constraints


def test_constraint_validation():
    with pytest.raises(ValueError):
        KlBall(UNIF3, -0.1)
    with pytest.raises(ValueError):
        L1Ball(UNIF3, 2.5)
    with pytest.raises(ValueError):
        L2ChiSquareBall(UNIF3, -0.3)
    with pytest.raises(ValueError):
        Singleton(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        L1Ball(np.array([0.7, 0.7]), 0.1)
    # reference measures are normalized, not rejected
    ball = L2ChiSquareBall(np.array([0.5, 0.5, 0.5]), 0.1)
    assert np.allclose(ball.reference, UNIF3)
    # negative radius is legal for level-set constraints
    PhiBall(EntropyRegularizer(1.0), -0.5)


def test_constraint_violation_per_kind():
    p = np.array([0.5, 0.3, 0.2])
    assert constraint_violation(FullSimplex(), p) == 0.0
    assert constraint_violation(Singleton(p.copy()), p) == 0.0
    assert constraint_violation(KlBall(UNIF3, 0.5), UNIF3) == pytest.approx(-0.5)
    v = constraint_violation(L1Ball(UNIF3, 0.1), p)
    assert v == pytest.approx(np.abs(p - UNIF3).sum() - 0.1)
    v = constraint_violation(L2ChiSquareBall(UNIF3, 0.2), p)
    assert v == pytest.approx(chi_square(p, UNIF3) - 0.2)
    phi = EntropyRegularizer(1.0)
    v = constraint_violation(PhiBall(phi, -0.5), p)
    assert v == pytest.approx(-phi.value(p) + 0.5)


@pytest.mark.parametrize("con", [
    KlBall(UNIF3, 0.2), L1Ball(UNIF3, 0.3), L2ChiSquareBall(UNIF3, 0.2),
    Singleton(np.array([0.5, 0.3, 0.2])), FullSimplex(),
    PhiBall(EntropyRegularizer(1.0), -0.5)])
def test_constraint_violation_of_many_rows_is_each_row_s(con):
    rows = np.random.default_rng(4).dirichlet(np.ones(3), size=6)
    rows[0] = [1.0, 0.0, 0.0]  # a zero entry takes 0 ln 0 = 0
    each = [constraint_violation(con, p) for p in rows]
    assert all(type(v) is float for v in each)
    assert np.array_equal(constraint_violation(con, rows), each)
    assert np.array_equal(kl_divergence(rows, UNIF3),
                          [kl_divergence(p, UNIF3) for p in rows])
    assert np.array_equal(chi_square(rows, UNIF3),
                          [chi_square(p, UNIF3) for p in rows])


# ---------------------------------------------------------------- KL balls


def test_kl_backup_matches_frozen_oracle():
    res = kl_constrained_backup(W3, UNIF3, 0.1)
    assert res.value == pytest.approx(KL_ORACLE_VALUE, abs=1e-9)
    assert res.multiplier == pytest.approx(KL_ORACLE_MULT, rel=1e-6)


@pytest.mark.parametrize("make", [
    lambda ref: KlBall(ref, 0.1),
    lambda ref: L2ChiSquareBall(ref, 0.1),
    lambda ref: KlRegularizer(0.5, ref),
], ids=["kl-ball", "chi2-ball", "kl-regularizer"])
@pytest.mark.parametrize("ref", [[0.5, -0.2, 0.7], [np.inf, 1.0, 1.0],
                                 [np.nan, 0.5, 0.5]],
                         ids=["negative", "inf", "nan"])
def test_invalid_reference_rows_are_rejected(make, ref):
    with pytest.raises(ValueError):
        make(np.array(ref))


def test_reference_rows_are_floored_and_renormalized():
    for make in (lambda r: KlBall(r, 0.1), lambda r: L2ChiSquareBall(r, 0.1),
                 lambda r: KlRegularizer(0.5, r)):
        ref = make(np.array([0.0, 2.0, 2.0])).reference
        assert ref.tolist() == [1e-12 / (4.0 + 1e-12), 2.0 / (4.0 + 1e-12),
                                2.0 / (4.0 + 1e-12)]


def test_kl_backup_zero_radius_returns_reference():
    res = kl_constrained_backup(W3, UNIF3, 0.0)
    assert res.value == pytest.approx(float(W3 @ UNIF3), abs=1e-15)
    assert np.array_equal(res.policy, UNIF3)
    assert res.dual_evals == 0


def test_kl_backup_wide_ball_acts_unconstrained():
    res = kl_constrained_backup(W3, UNIF3, 50.0)
    assert res.value == pytest.approx(np.max(W3), abs=1e-6)


def test_kl_backup_solution_is_feasible_and_certified():
    res = kl_constrained_backup(W3, UNIF3, 0.1, tol=1e-12)
    assert kl_divergence(res.policy, UNIF3) <= 0.1 + 1e-10
    assert res.dual_value >= res.value - 1e-9
    assert res.dual_value - res.value <= 1e-9


def test_kl_backup_work_scales_with_log_tolerance():
    loose = kl_constrained_backup(W3, UNIF3, 0.1, tol=1e-4)
    tight = kl_constrained_backup(W3, UNIF3, 0.1, tol=1e-12)
    assert loose.dual_evals < tight.dual_evals
    assert tight.dual_evals <= 200


def kl_slsqp(w, ref, radius, start):
    """max w.p over the KL ball by SLSQP, started at `start`."""
    floor = 1e-300
    cons = [{"type": "eq", "fun": lambda p: p.sum() - 1.0,
             "jac": lambda p: np.ones_like(p)},
            {"type": "ineq",
             "fun": lambda p: radius - kl_divergence(np.clip(p, floor, None),
                                                     ref),
             "jac": lambda p: -(np.log(np.clip(p, floor, None) / ref) + 1.0)}]
    res = minimize(lambda p: -float(w @ p), start, jac=lambda p: -w,
                   method="SLSQP", bounds=[(0.0, 1.0)] * w.shape[0],
                   constraints=cons, options={"ftol": 1e-14, "maxiter": 500})
    p = np.clip(res.x, 0.0, None)
    p /= p.sum()
    return float(w @ p) if kl_divergence(p, ref) <= radius + 1e-10 else -np.inf


@pytest.mark.parametrize("n", [3, 8, 20, 32])
def test_kl_backup_is_feasible_certified_and_optimal(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        w = rng.uniform(-3.0, 3.0, n)
        ref = rng.dirichlet(np.full(n, 2.0))
        radius = rng.uniform(0.05, 0.9) * -np.log(ref[np.argmax(w)])
        res = kl_constrained_backup(w, ref, radius)
        assert kl_divergence(res.policy, ref) <= radius + 1e-10
        assert res.dual_value - res.value <= 1e-9
        best = max(kl_slsqp(w, ref, radius, start)
                   for start in (ref, res.policy))
        assert res.value >= best - 1e-9


def test_ball_multiplier_search_takes_few_probes():
    kl = kl_constrained_backup(W3, UNIF3, 0.1, tol=1e-12)
    phi = generic_phi_ball_backup(W3, MmmRegularizer(np.full(3, 0.4)), -0.3,
                                  tol=1e-12)
    assert kl.dual_evals <= 15
    assert phi.dual_evals <= 15


def ball_rows(count, seed=0):
    """Random rows w with an active KL ball and an active MMM phi ball."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        w = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        ref = rng.dirichlet(np.full(n, 2.0))
        kl = KlBall(ref, rng.uniform(0.05, 0.9) * -np.log(ref[np.argmax(w)]))
        phi = MmmRegularizer(rng.uniform(0.2, 1.0, n))
        radius = -rng.uniform(0.3, 0.8) * phi.value(np.full(n, 1.0 / n))
        yield w, kl, PhiBall(phi, radius)


def certified_probes(w, con):
    """dual_evals of a ball backup, checked feasible to rounding and
    certified (duality gap <= tol = 1e-12)."""
    res = constrained_backup(w, con, tol=1e-12)
    assert constraint_violation(con, res.policy) <= 1e-14
    assert res.dual_value - res.value <= 1e-12
    return res.dual_evals


def test_ball_multiplier_search_probe_count_on_random_rows():
    # 8.7 KL and 8.2 MMM probes a row on these rows; Illinois steps with no
    # halving guard and no rounding-level root took 10.1 and 9.8
    evals = np.array([[certified_probes(w, kl), certified_probes(w, mmm)]
                      for w, kl, mmm in ball_rows(200)])
    assert np.all(evals.mean(axis=0) <= 9.2)


def test_ball_probe_within_rounding_of_the_boundary_ends_the_search():
    # on these rows a probe lands within rounding of h = 0; read as the root
    # it ends the search, where keeping the far end while the halving guard
    # narrows the bracket took 31 (KL) and 33 (MMM) probes
    kl = KlBall([0.20143391797116278, 0.012413845460908195,
                 0.22097903615213374, 0.13879251145787616,
                 0.2791809704429639, 0.14719971851495525], 0.8657113116064151)
    w = np.array([5.277710803674215, 0.5857569315694771, -1.185013392499619,
                  2.257731048217018, 6.927703685496583, 3.190475576689994])
    assert certified_probes(w, kl) <= 6
    mmm = PhiBall(MmmRegularizer([0.44412341962471236, 0.42674524351674664,
                                  0.563828222156292, 0.603449906450263,
                                  0.42711124168169223, 0.6294644650473273,
                                  0.4128923864498334, 0.49908120057144034]),
                  -0.47865133430533763)
    w = np.array([0.29561028047833987, 0.9681752025108634, -1.2299005966026026,
                  -0.17438131103142068, 3.576147670984531, -0.5246239030835392,
                  4.703263804115745, 1.8990688099844657])
    assert certified_probes(w, mmm) <= 6


def test_kl_backup_tied_face_inside_the_ball_has_multiplier_zero():
    # the hard-max vertex is outside (KL = ln 3 > 0.5), the tied face
    # ref_S / m = (1/2, 1/2, 0) is inside (KL = ln 1.5)
    res = kl_constrained_backup(np.array([1.0, 1.0, 0.0]), UNIF3, 0.5)
    assert res.multiplier == 0.0
    assert res.value == 1.0 == res.dual_value
    assert np.allclose(res.policy, [0.5, 0.5, 0.0], rtol=0, atol=1e-15)
    # just outside the face the search runs and finds a positive multiplier
    res = kl_constrained_backup(np.array([1.0, 1.0, 0.0]), UNIF3, 0.4)
    assert res.multiplier > 0
    assert kl_divergence(res.policy, UNIF3) <= 0.4 + 1e-12


def test_ct_to_r_tied_face_inside_the_kl_ball_gives_zero_regularizer():
    # discount 0 makes the action values the rewards, ties and all
    t = np.full((2, 3, 2), 0.5)
    m = MdpModel(2, 3, t, np.array([[1.0, 1.0, 0.0], [2.0, -1.0, 2.0]]), 0.0)
    conv = ct_to_r_convert(m, KlBall(UNIF3, 0.5))
    assert np.all(conv.multipliers == 0.0)
    assert all(isinstance(r, ZeroRegularizer) for r in conv.regularizers)
    assert np.array_equal(conv.ct_value, [1.0, 2.0])


def test_kl_backup_against_grid_oracle():
    # three-action grids have 1e-3 spacing, so allow spacing * ||w||_inf
    con = KlBall(UNIF3, 0.15)
    gval, _ = grid_oracle_backup(W3, con)
    res = kl_constrained_backup(W3, UNIF3, 0.15)
    assert res.value == pytest.approx(gval, abs=1e-3 * np.max(np.abs(W3)))
    assert res.value >= gval - 1e-9  # the grid can only undershoot


def test_kl_backup_rejects_negative_radius():
    with pytest.raises(ValueError):
        kl_constrained_backup(W3, UNIF3, -0.2)


# ---------------------------------------------------------------- L1 balls


def test_l1_backup_hand_case():
    # budget radius/2 = 0.2 moves onto action 0: p = [0.7, 0.3], value 0.7
    res = l1_constrained_backup(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 0.4)
    assert res.value == pytest.approx(0.7, abs=1e-15)
    assert np.allclose(res.policy, [0.7, 0.3])


def test_l1_backup_budget_caps_at_the_vertex():
    res = l1_constrained_backup(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 2.0)
    assert res.value == pytest.approx(1.0)
    assert np.allclose(res.policy, [1.0, 0.0])


def test_l1_backup_drains_worst_actions_first():
    w = np.array([1.0, 0.5, 0.0])
    ref = np.array([0.2, 0.4, 0.4])
    res = l1_constrained_backup(w, ref, 0.6)
    # 0.3 of mass moves to action 0, all of it from action 2
    assert np.allclose(res.policy, [0.5, 0.4, 0.1])


def test_l1_backup_zero_radius_returns_reference():
    ref = np.array([0.25, 0.75])
    res = l1_constrained_backup(np.array([3.0, -1.0]), ref, 0.0)
    assert np.array_equal(res.policy, ref)


def test_l1_backup_against_grid_oracle():
    ref = np.array([0.5, 0.3, 0.2])
    con = L1Ball(ref, 0.5)
    gval, _ = grid_oracle_backup(W3, con)
    res = l1_constrained_backup(W3, ref, 0.5)
    assert res.value == pytest.approx(gval, abs=1e-3)
    assert res.value >= gval - 1e-9


def test_l1_feasibility():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.uniform(-3, 3, 4)
        ref = rng.dirichlet(np.ones(4))
        radius = rng.uniform(0.0, 2.0)
        res = l1_constrained_backup(w, ref, radius)
        assert np.abs(res.policy - ref).sum() <= radius + 1e-12
        assert res.policy.min() >= -1e-15
        assert res.policy.sum() == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------- chi-square balls


def l2_interior_value(w, ref, radius):
    # KKT closed form when the solution stays interior:
    # value = w.ref + sqrt(radius * Var_ref(w))
    nu = float(ref @ w)
    var = float(ref @ ((w - nu) ** 2))
    return nu + np.sqrt(radius * var)


def test_l2_backup_interior_closed_form():
    res = l2_constrained_backup(W3, UNIF3, 0.2)
    assert res.value == pytest.approx(l2_interior_value(W3, UNIF3, 0.2),
                                      abs=1e-10)
    assert chi_square(res.policy, UNIF3) <= 0.2 + 1e-9


def test_l2_backup_huge_ball_reaches_the_vertex():
    res = l2_constrained_backup(W3, UNIF3, 100.0)
    assert res.value == pytest.approx(np.max(W3), abs=1e-10)


def test_l2_backup_zero_radius_returns_reference():
    res = l2_constrained_backup(W3, UNIF3, 0.0)
    assert np.array_equal(res.policy, UNIF3)
    assert res.value == pytest.approx(float(W3 @ UNIF3), abs=1e-15)


def test_l2_backup_against_grid_oracle():
    ref = np.array([0.5, 0.25, 0.25])
    con = L2ChiSquareBall(ref, 0.3)
    gval, _ = grid_oracle_backup(W3, con)
    res = l2_constrained_backup(W3, ref, 0.3)
    assert res.value == pytest.approx(gval, abs=1e-4)
    assert res.value >= gval - 1e-9


def test_l2_backup_translates_exactly():
    rng = np.random.default_rng(14)
    for _ in range(10):
        w = rng.uniform(-4, 4, 4)
        c = rng.uniform(-8, 8)
        ref = rng.dirichlet(np.ones(4) * 3)
        a = l2_constrained_backup(w, ref, 0.4).value
        b = l2_constrained_backup(w + c, ref, 0.4).value
        assert abs(b - (a + c)) <= 1e-11 * max(1.0, abs(a) + abs(c))


def test_l2_backup_boundary_case_with_clipped_actions():
    # strong pull on one action with a tight ball: some actions hit zero
    w = np.array([5.0, 0.0, -5.0])
    ref = np.array([0.1, 0.1, 0.8])
    res = l2_constrained_backup(w, ref, 1.5)
    gval, _ = grid_oracle_backup(w, L2ChiSquareBall(ref, 1.5))
    assert res.value == pytest.approx(gval, abs=1e-3 * np.max(np.abs(w)))
    assert res.value >= gval - 1e-9
    assert chi_square(res.policy, ref) <= 1.5 + 1e-9


def chi_square_slsqp(w, ref, radius, start):
    """max w.p over the chi-square ball by SLSQP, started at `start`."""
    cons = [{"type": "eq", "fun": lambda p: p.sum() - 1.0,
             "jac": lambda p: np.ones_like(p)},
            {"type": "ineq",
             "fun": lambda p: radius - np.sum((p - ref) ** 2 / ref),
             "jac": lambda p: -2.0 * (p - ref) / ref}]
    res = minimize(lambda p: -float(w @ p), start, jac=lambda p: -w,
                   method="SLSQP", bounds=[(0.0, 1.0)] * w.shape[0],
                   constraints=cons, options={"ftol": 1e-14, "maxiter": 500})
    p = np.clip(res.x, 0.0, None)
    p /= p.sum()
    assert chi_square(p, ref) <= radius + 1e-9
    return float(w @ p)


def chi_square_draws(n, seed, count=3):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (rng.uniform(-3, 3, n), rng.dirichlet(np.full(n, 2.0)),
               rng.uniform(0.2, 2.0))


@pytest.mark.parametrize("n", [13, 16, 20, 32])
def test_l2_backup_is_optimal_above_twelve_actions(n):
    # SLSQP from the reference and from the returned row finds nothing
    # better: the solve is exact at any action count
    for w, ref, radius in chi_square_draws(n, seed=n):
        res = l2_constrained_backup(w, ref, radius)
        best = max(chi_square_slsqp(w, ref, radius, start)
                   for start in (ref, res.policy))
        assert res.value >= best - 1e-9
        assert chi_square(res.policy, ref) <= radius + 1e-9


def assert_chi_square_kkt(w, ref, radius, res):
    """KKT certificate of the ball solve, with multiplier lam = t/2."""
    p, lam = res.policy, res.multiplier
    scale = max(1.0, float(np.max(np.abs(w))))
    assert p.min() >= 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.value == pytest.approx(float(w @ p), abs=1e-12 * scale)
    if lam == 0.0:
        assert chi_square(p, ref) <= radius + 1e-12
        assert res.value == np.max(w)
        return
    assert chi_square(p, ref) == pytest.approx(radius, rel=1e-9)
    # stationarity p_a = ref_a (1 + (w_a - nu)/t) names one nu on the support
    t = 2.0 * lam
    support = p > 0
    nus = w[support] - t * (p[support] / ref[support] - 1.0)
    nu = float(nus.mean())
    assert np.max(np.abs(nus - nu)) <= 1e-9 * scale
    assert np.all(w[support] >= nu - t - 1e-9 * scale)
    assert np.all(w[~support] <= nu - t + 1e-9 * scale)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 16, 20, 32])
def test_l2_backup_kkt_certificate(n):
    for w, ref, radius in chi_square_draws(n, seed=100 + n, count=6):
        for r in (radius, 0.05 * radius, 50.0 * radius):
            assert_chi_square_kkt(w, ref, r, l2_constrained_backup(w, ref, r))


@pytest.mark.parametrize("n", [3, 16, 32])
def test_l2_backup_row_is_the_lagrange_conjugate_row(n):
    for w, ref, radius in chi_square_draws(n, seed=200 + n):
        radius *= 0.1
        res = l2_constrained_backup(w, ref, radius)
        assert res.multiplier > 0
        phi = ChiSquareLagrangeRegularizer(res.multiplier, ref, radius)
        row = phi.conjugate(w).argmax
        assert np.max(np.abs(row - res.policy)) <= 1e-12


def test_l2_backup_with_a_tied_maximum():
    w = np.array([1.0, 1.0, 0.0])
    ref = np.array([0.2, 0.3, 0.5])
    # the argmax set has mass 0.5, so rows on it have chi-square 1
    slack = l2_constrained_backup(w, ref, 1.5)
    assert slack.multiplier == 0.0
    assert slack.value == 1.0 == slack.dual_value
    assert np.allclose(slack.policy, [0.4, 0.6, 0.0], rtol=0, atol=1e-15)
    active = l2_constrained_backup(w, ref, 0.3)
    assert active.multiplier > 0
    assert_chi_square_kkt(w, ref, 0.3, active)
    # tied actions scale the reference alike
    assert active.policy[0] / ref[0] == pytest.approx(
        active.policy[1] / ref[1], rel=1e-12)
    gval, _ = grid_oracle_backup(w, L2ChiSquareBall(ref, 0.3))
    assert active.value >= gval - 1e-9
    assert active.value == pytest.approx(gval, abs=1e-3)
    # a tie among many actions, with the ball active
    w16 = np.repeat(np.array([0.5, 0.5, -1.0, 2.0]), 4) - 3.0
    w16[[3, 7]] = np.max(w16)
    ref16 = np.full(16, 1.0 / 16)
    res = l2_constrained_backup(w16, ref16, 0.4)
    assert_chi_square_kkt(w16, ref16, 0.4, res)
    best = max(chi_square_slsqp(w16, ref16, 0.4, start)
               for start in (ref16, res.policy))
    assert res.value >= best - 1e-9


# -------------------------------------------------------------- grid oracle


def test_grid_oracle_special_cases():
    row = np.array([0.2, 0.8])
    val, pol = grid_oracle_backup(np.array([1.0, 3.0]), Singleton(row))
    assert val == pytest.approx(2.6)
    assert np.array_equal(pol, row)
    val, pol = grid_oracle_backup(np.array([1.0, 3.0]), FullSimplex())
    assert val == 3.0
    with pytest.raises(ValueError):
        grid_oracle_backup(np.zeros(4), KlBall(np.full(4, 0.25), 0.1))


def test_grid_oracle_resolution_override():
    con = KlBall(np.array([0.5, 0.5]), 0.05)
    coarse, _ = grid_oracle_backup(np.array([1.0, 0.0]), con, resolution=100)
    fine, _ = grid_oracle_backup(np.array([1.0, 0.0]), con, resolution=100000)
    assert fine >= coarse - 1e-12
    assert abs(fine - coarse) < 1e-2


def test_grid_oracle_always_offers_the_reference():
    # a ball of radius 0 keeps only the reference row
    con = L2ChiSquareBall(np.array([0.31, 0.69]), 0.0)
    val, pol = grid_oracle_backup(np.array([2.0, 1.0]), con)
    assert np.allclose(pol, [0.31, 0.69])
    assert val == pytest.approx(2.0 * 0.31 + 1.0 * 0.69)


# ------------------------------------------------------- generic level sets


def test_phi_ball_entropy_level_set_equals_a_kl_ball():
    # {p : eta*H(p) >= -c} is the KL ball of radius ln(n) + c/eta around
    # uniform, so the two backup routes must agree.
    eta, c = 0.8, -0.5
    n = 3
    via_phi = generic_phi_ball_backup(W3, EntropyRegularizer(eta), c)
    via_kl = kl_constrained_backup(W3, UNIF3, np.log(n) + c / eta)
    assert via_phi.value == pytest.approx(via_kl.value, abs=1e-7)
    assert np.max(np.abs(via_phi.policy - via_kl.policy)) < 1e-3


def test_phi_ball_inactive_when_vertices_are_feasible():
    # entropy vanishes at vertices, so any positive radius admits the hard max
    res = generic_phi_ball_backup(W3, EntropyRegularizer(1.0), 0.25)
    assert res.value == np.max(W3)
    assert res.multiplier == 0.0


def test_phi_ball_without_slater_point_raises():
    # entropy never exceeds eta*ln(n), so -phi never drops below -eta*ln(n)
    with pytest.raises(ValueError):
        generic_phi_ball_backup(W3, EntropyRegularizer(1.0),
                                -np.log(3.0) - 0.2)


def test_batched_regularizer_values_match_the_row_loop():
    grid = np.array([[i, j, 40 - i - j] for i in range(41)
                     for j in range(41 - i)]) / 40.0
    for phi in (MmmRegularizer(np.array([0.4, 0.1, 0.7])),
                EntropyRegularizer(0.5), KlRegularizer(0.5, UNIF3)):
        rows = np.array([phi.value(p) for p in grid])
        assert np.array_equal(phi.values(grid), rows)


def test_phi_ball_mmm_level_set_against_grid():
    phi = MmmRegularizer(np.array([0.4, 0.4, 0.4]))
    radius = -0.3  # requires sum sigma*sqrt(p(1-p)) >= 0.3
    res = generic_phi_ball_backup(W3, phi, radius)
    gval, _ = grid_oracle_backup(W3, PhiBall(phi, radius))
    assert res.value == pytest.approx(gval, abs=1e-3)
    assert -phi.value(res.policy) <= radius + 1e-8


def test_constrained_backup_dispatch_and_operator():
    cons = [KlBall(UNIF3, 0.1), L1Ball(UNIF3, 0.4),
            L2ChiSquareBall(UNIF3, 0.2)]
    for con in cons + [FullSimplex(), Singleton(UNIF3.copy())]:
        res = constrained_backup(W3, con)
        assert np.isfinite(res.value)
        assert constraint_violation(con, res.policy) <= 1e-8
    m = random_mdp(3, 3, seed=12, discount=0.8)
    sol = value_iteration(m, ct_backup_operator(cons))
    assert sol.residual <= 1e-10
    for s, con in enumerate(cons):
        assert constraint_violation(con, sol.policy[s]) <= 1e-8


# -------------------------------------------------- discrepancy reports


def test_l1_dual_discrepancy_report():
    rep = l1_dual_discrepancy(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 0.4)
    # the published expression collapses to dot(w, ref) identically
    assert rep.paper_dual_value == pytest.approx(0.5, abs=1e-12)
    assert rep.value == pytest.approx(0.7, abs=1e-12)
    assert rep.gap == pytest.approx(0.2, abs=1e-12)
    assert rep.note


def test_l1_dual_discrepancy_gap_is_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(10):
        w = rng.uniform(-2, 2, 3)
        ref = rng.dirichlet(np.ones(3))
        rep = l1_dual_discrepancy(w, ref, rng.uniform(0.0, 1.5))
        assert rep.gap >= -1e-12
        assert rep.paper_dual_value == pytest.approx(float(w @ ref), abs=1e-12)


def test_l2_dual_discrepancy_report_fields():
    rep = l2_dual_discrepancy(W3, UNIF3, 0.25)
    assert np.isfinite(rep.value)
    assert np.isfinite(rep.paper_dual_value)
    assert rep.gap == pytest.approx(rep.value - rep.paper_dual_value, abs=1e-12)
    assert rep.note
    # no agreement asserted: the two routes are reported side by side


def test_l2_dual_discrepancy_is_the_exact_minimum_of_the_expression():
    # the reported value is the expression at a feasible mu, so no start of
    # SLSQP may end below it; SLSQP from three starts comes within 1e-6
    rng = np.random.default_rng(31)
    for k in range(40):
        n = int(rng.integers(2, 13))
        w = rng.normal(size=n) * rng.uniform(0.1, 3.0)
        if k % 4 == 0:
            w = -np.abs(w)
        ref = rng.dirichlet(np.ones(n))
        radius = float(rng.choice([0.0, 0.05, 0.3, 1.0, 2.0]))

        def expression(mu):
            v = w + mu
            return float(ref @ v + np.sqrt(radius * float(ref @ (v * v))))

        rep = l2_dual_discrepancy(w, ref, radius)
        ends = [minimize(expression, start, method="SLSQP",
                         bounds=[(0.0, None)] * n,
                         options={"ftol": 1e-14, "maxiter": 500}).fun
                for start in (np.zeros(n), np.clip(-w, 0.0, None),
                              rng.uniform(0.0, 2.0, n))]
        assert rep.paper_dual_value <= min(ends) + 1e-12
        assert rep.paper_dual_value >= min(ends) - 1e-6


# ---------------------------------------------------------- regularizers


def test_chi_square_lagrange_conjugate_matches_numeric():
    phi = ChiSquareLagrangeRegularizer(0.7, UNIF3, 0.2)
    closed = phi.conjugate(W3)
    num = numeric_conjugate(W3, phi)
    assert closed.value == pytest.approx(num.value, abs=1e-8)
    assert abs(closed.argmax.sum() - 1.0) < 1e-12
    attained = float(W3 @ closed.argmax) + phi.value(closed.argmax)
    assert closed.value == pytest.approx(attained, abs=1e-12)


def test_chi_square_lagrange_gradient_matches_fd():
    phi = ChiSquareLagrangeRegularizer(0.9, np.array([0.5, 0.3, 0.2]), 0.1)
    p = np.array([0.4, 0.35, 0.25])
    fd = central_fd(phi.value, p, h=1e-6)
    assert np.max(np.abs(phi.gradient(p) - fd)) < 1e-6


def test_zero_regularizer_is_the_hard_max():
    phi = ZeroRegularizer()
    res = phi.conjugate(W3)
    val, row = standard_backup(W3)
    assert res.value == val
    assert np.array_equal(res.argmax, row)
    assert phi.value(np.array([0.5, 0.5])) == 0.0


# -------------------------------------------------------------- conversions


def test_r_to_ct_entropy_builds_kl_balls_around_uniform():
    m = random_mdp(3, 3, seed=20, discount=0.85)
    conv = r_to_ct_convert(m, EntropyRegularizer(0.6))
    for s, con in enumerate(conv.constraints):
        assert isinstance(con, KlBall)
        assert np.allclose(con.reference, UNIF3)
        expected = max(conv.constants[s] / 0.6 + np.log(3.0), 0.0)
        assert con.radius == pytest.approx(expected, abs=1e-12)
    # the reward shift is exactly the per-state constants
    assert np.allclose(m.reward - conv.constants[:, None],
                       conv.ct_model.reward)


def test_r_to_ct_kl_keeps_the_reference():
    ref = np.array([0.6, 0.25, 0.15])
    m = random_mdp(2, 3, seed=21, discount=0.8)
    conv = r_to_ct_convert(m, KlRegularizer(0.9, ref))
    for con in conv.constraints:
        assert isinstance(con, KlBall)
        assert np.allclose(con.reference, ref)


def test_r_to_ct_other_regularizers_become_level_sets():
    m = random_mdp(2, 2, seed=22, discount=0.8)
    phi = MmmRegularizer(np.array([0.3, 0.3]))
    conv = r_to_ct_convert(m, phi)
    for con in conv.constraints:
        assert isinstance(con, PhiBall)
        assert con.phi is phi


def test_r_to_ct_round_trip_reproduces_value_and_policy():
    m = random_mdp(4, 3, seed=23, discount=0.85)
    conv = r_to_ct_convert(m, EntropyRegularizer(0.7), solve_tol=1e-12)
    sol = value_iteration(m, regularized_backup_operator(EntropyRegularizer(0.7)),
                          tol=1e-12)
    ct = value_iteration(conv.ct_model, ct_backup_operator(conv.constraints),
                         tol=1e-12)
    # same policies; the constrained twin's value is the base value because
    # the reward shift pays out exactly the regularizer at the optimum
    assert np.max(np.abs(ct.policy - sol.policy)) < 1e-5
    assert np.max(np.abs(ct.value - sol.value)) < 1e-6


def test_ct_to_r_rejects_hopeless_constraints():
    m = random_mdp(2, 2, seed=24)
    with pytest.raises(ValueError):
        ct_to_r_convert(m, L1Ball(np.array([0.5, 0.5]), 0.4))
    with pytest.raises(ValueError):
        ct_to_r_convert(m, Singleton(np.array([0.5, 0.5])))
    with pytest.raises(ValueError):
        ct_to_r_convert(m, KlBall(np.array([0.5, 0.5]), 0.0))


def test_ct_to_r_full_simplex_gives_zero_regularizer():
    m = random_mdp(2, 2, seed=25)
    conv = ct_to_r_convert(m, FullSimplex())
    assert np.all(conv.multipliers == 0.0)
    assert all(isinstance(r, ZeroRegularizer) for r in conv.regularizers)
    assert np.all(conv.slackness == 0.0)


def test_ct_to_r_kl_ball_round_trip():
    m = random_mdp(3, 3, seed=26, discount=0.85)
    con = KlBall(UNIF3, 0.08)
    conv = ct_to_r_convert(m, con, tol=1e-12)
    # solving with the recovered regularizers reproduces the constrained value
    back = value_iteration(m, regularized_backup_operator(conv.regularizers),
                           tol=1e-12)
    assert np.max(np.abs(back.value - conv.ct_value)) < 1e-6
    assert np.max(np.abs(back.policy - conv.ct_policy)) < 1e-4
    assert np.max(conv.slackness) < 1e-6
    assert np.all(conv.multipliers > 0)


def test_ct_to_r_l2_ball_round_trip():
    m = random_mdp(3, 3, seed=27, discount=0.8)
    con = L2ChiSquareBall(UNIF3, 0.15)
    conv = ct_to_r_convert(m, con, tol=1e-12)
    back = value_iteration(m, regularized_backup_operator(conv.regularizers),
                           tol=1e-12)
    assert np.max(np.abs(back.value - conv.ct_value)) < 1e-6
    assert np.max(conv.slackness) < 1e-6


def test_ct_to_r_l2_ball_round_trip_with_sixteen_actions():
    m = random_mdp(3, 16, seed=30, discount=0.8)
    con = L2ChiSquareBall(np.full(16, 1.0 / 16), 0.3)
    conv = ct_to_r_convert(m, con, tol=1e-12)
    assert np.all(conv.multipliers > 0)
    back = value_iteration(m, regularized_backup_operator(conv.regularizers),
                           tol=1e-12)
    assert np.max(np.abs(back.value - conv.ct_value)) < 1e-6
    assert np.max(np.abs(back.policy - conv.ct_policy)) < 1e-6
    assert np.max(conv.slackness) < 1e-6


def test_ct_to_r_multipliers_are_the_per_kind_backups():
    # one state per kind: the conversion's multipliers are the ones each
    # kind's own backup reports at the solved action values, to the bit; at
    # this data a KL tolerance of 1e-12 or a phi tolerance of 1e-10 would
    # stop the search at another multiplier
    m = random_mdp(4, 3, seed=31, discount=0.8)
    ref = np.array([0.5, 0.3, 0.2])
    phi = EntropyRegularizer(1.0)
    sets = [KlBall(ref, 0.02), L2ChiSquareBall(ref, 0.1), PhiBall(phi, -0.6),
            FullSimplex()]
    conv = ct_to_r_convert(m, sets, tol=1e-12)
    w = q_vector(m, conv.ct_value)
    expected = [
        kl_constrained_backup(w[0], ref, 0.02, tol=1e-14).multiplier,
        l2_constrained_backup(w[1], ref, 0.1).multiplier,
        generic_phi_ball_backup(w[2], phi, -0.6, tol=1e-12).multiplier,
        0.0,
    ]
    assert conv.multipliers.tolist() == expected
    assert np.all(conv.multipliers[:3] > 0)


class _EntropyWithoutConjugate(EntropyRegularizer):
    """A user phi: the entropy, with no closed-form conjugate."""

    batched = False
    conjugate = Regularizer.conjugate


def test_ct_to_r_phi_ball_whose_phi_has_no_conjugate():
    # the multiplier search and the penalty's regularized solve both reach
    # the inherited conjugate, `numeric_conjugate`, under the wrapper; one
    # state, as each of its backups runs mirror ascent at every probe
    m = random_mdp(1, 2, seed=33, discount=0.5)
    con = PhiBall(_EntropyWithoutConjugate(1.0), -0.5)
    conv = ct_to_r_convert(m, con, tol=1e-12)
    assert np.all(conv.multipliers > 0)
    back = value_iteration(m, regularized_backup_operator(conv.regularizers),
                           tol=1e-12)
    assert np.max(np.abs(back.value - conv.ct_value)) < 1e-6
    assert np.max(np.abs(back.policy - conv.ct_policy)) < 1e-4
    assert np.max(conv.slackness) < 1e-6


_KIND_BLOCKS = {
    "kl_ball": {"reference": [0.5, 0.5], "radius": 0.1},
    "l1_ball": {"reference": [0.5, 0.5], "radius": 0.4},
    "l2_ball": {"reference": [0.5, 0.5], "radius": 0.1},
    "singleton": {"row": [0.25, 0.75]},
    "full": {},
    "phi_ball": {"phi": {"kind": "entropy", "eta": 0.5}, "radius": -0.2},
}


@pytest.mark.parametrize("kind", sorted(_KIND_BLOCKS))
def test_every_file_kind_owns_its_violation_backup_and_penalty(kind):
    assert set(_KIND_BLOCKS) == set(modelio._CONSTRAINTS)
    con = modelio.constraint_from_dict({"kind": kind, **_KIND_BLOCKS[kind]})
    w = np.array([1.0, -0.5])
    res = con.backup(w, 1e-12)
    assert res.value == pytest.approx(float(w @ res.policy), abs=1e-12)
    assert con.violation(res.policy) <= 1e-9
    assert con.violation(np.array([res.policy] * 2)).shape == (2,)
    assert hasattr(con, "dual_note") == (kind in ("l1_ball", "l2_ball"))
    m = random_mdp(2, 2, seed=34, discount=0.8)
    if hasattr(con, "penalty"):
        ct_to_r_convert(m, con)
    else:
        assert kind in ("l1_ball", "singleton")
        with pytest.raises(ValueError, match="conversion needs a single "
                           f"smooth constraint with interior, not "
                           f"{type(con).__name__}"):
            ct_to_r_convert(m, con)


def test_ct_to_r_wide_ball_recovers_zero_regularizer():
    m = random_mdp(2, 2, seed=28)
    conv = ct_to_r_convert(m, KlBall(np.array([0.5, 0.5]), 100.0))
    assert all(isinstance(r, ZeroRegularizer) for r in conv.regularizers)
    assert np.all(conv.multipliers == 0.0)


def test_conversion_policies_evaluate_consistently():
    # policy-evaluation cross-check: the converted model's policy evaluated
    # in the converted model matches the constrained solve's value
    m = random_mdp(3, 2, seed=29, discount=0.8)
    conv = r_to_ct_convert(m, EntropyRegularizer(0.5), solve_tol=1e-12)
    v = policy_evaluation_exact(conv.ct_model, conv.base_policy)
    ct = value_iteration(conv.ct_model, ct_backup_operator(conv.constraints),
                         tol=1e-12)
    assert np.max(np.abs(v - ct.value)) < 1e-6


# ----------------------------------------------------- per-state sequences


def test_an_array_of_regularizers_holds_one_per_state():
    m = random_mdp(3, 3, seed=30, discount=0.8)
    phis = [EntropyRegularizer(eta) for eta in (0.4, 0.7, 1.1)]
    listed = r_to_ct_convert(m, phis)
    arrayed = r_to_ct_convert(m, np.array(phis, dtype=object))
    assert np.array_equal(arrayed.constants, listed.constants)
    assert np.array_equal(arrayed.base_value, listed.base_value)


def test_an_array_of_constraints_holds_one_per_state():
    m = random_mdp(3, 3, seed=31, discount=0.8)
    sets = [KlBall(UNIF3, radius) for radius in (0.05, 0.1, 0.2)]
    listed = ct_to_r_convert(m, sets)
    arrayed = ct_to_r_convert(m, np.array(sets, dtype=object))
    assert np.array_equal(arrayed.ct_value, listed.ct_value)
    assert np.array_equal(arrayed.multipliers, listed.multipliers)


@pytest.mark.parametrize("count", [2, 4])
def test_a_per_state_list_of_another_length_is_rejected(count):
    # before any sweep: a short list would fail mid-sweep, a long one would
    # solve with its last entries ignored
    m = random_mdp(3, 3, seed=32, discount=0.8)
    phis = [EntropyRegularizer(0.5)] * count
    sets = [KlBall(UNIF3, 0.1)] * count
    builds = [("regularizer", lambda: RegularizedInstance(m, phis)),
              ("regularizer", lambda: r_to_ct_convert(m, phis)),
              ("constraint", lambda: ConstrainedInstance(m, sets)),
              ("constraint", lambda: ct_to_r_convert(m, sets))]
    for what, build in builds:
        with pytest.raises(ModelValidationError, match=f"per-state {what} "
                           f"list has {count} entries for 3 states"):
            build()


@pytest.mark.parametrize("ball, backup", [
    (KlBall, kl_constrained_backup),
    (L2ChiSquareBall, l2_constrained_backup),
    (L1Ball, l1_constrained_backup),
])
def test_a_ball_and_its_backup_reject_the_same_radii(ball, backup):
    ref, w = np.array([0.75, 0.25]), np.array([1.0, 0.0])
    bad = [float("nan"), float("inf"), -0.125]
    if ball is L1Ball:
        bad.append(2.125)
    for radius in bad:
        with pytest.raises(ValueError, match="radius must be a finite number"):
            ball(ref, radius)
        with pytest.raises(ValueError, match="radius must be a finite number"):
            backup(w, ref, radius)
    assert ball(ref, 2).radius == 2.0
    assert backup(w, ref, 2).value == 1.0


@pytest.mark.parametrize("row", [[float("nan"), 1.0], [float("inf"), 0.0],
                                 [1.5, -0.5]])
def test_a_non_finite_or_negative_row_is_no_probability_row(row):
    with pytest.raises(ValueError, match="not a probability vector"):
        Singleton(np.array(row))
    with pytest.raises(ValueError, match="not a probability vector"):
        L1Ball(np.array(row), 0.5)


def test_a_probability_row_message_names_its_field():
    # an L1 ball's reference was reported as "row"
    with pytest.raises(ValueError,
                       match="^reference is not a probability vector$"):
        L1Ball([0.5, 0.6], 0.1)
    with pytest.raises(ValueError, match="^row is not a probability vector$"):
        Singleton([0.5, 0.6])


def test_a_phi_ball_radius_may_be_negative_but_must_be_finite():
    phi = EntropyRegularizer(0.5)
    assert PhiBall(phi, -0.25).radius == -0.25
    with pytest.raises(ValueError, match="radius must be a finite number"):
        PhiBall(phi, float("nan"))
