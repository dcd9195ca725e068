"""Concave regularizers, their conjugate backups, and the numeric fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpkit import (
    AffineRegularizer,
    ConvergenceError,
    CovarianceRegularizer,
    EntropyRegularizer,
    ExponentialInverseCdf,
    GumbelIid,
    ChiSquareLagrangeRegularizer,
    KlBall,
    KlRegularizer,
    L1Ball,
    L2ChiSquareBall,
    MdmRegularizer,
    MmmRegularizer,
    PhiBall,
    Singleton,
    StochasticInstance,
    ZeroRegularizer,
    bregman_divergence,
    constraint_violation,
    entropy_backup,
    generic_phi_ball_backup,
    grid_oracle_backup,
    kl_backup,
    kl_constrained_backup,
    l1_constrained_backup,
    l1_dual_discrepancy,
    l2_constrained_backup,
    l2_dual_discrepancy,
    numeric_conjugate,
    random_mdp,
    regularized,
    regularized_backup_operator,
)
from util import central_fd, random_interior

W = np.array([1.3, -0.4, 0.25])

# [DERIVED] frozen oracle: eta*log(sum exp(w/eta)) and the softmax row for
# W and eta=0.7, evaluated with mpmath at 50 digits and rounded here.
ENT_ORACLE_VALUE = 1.489709490994109459721
ENT_ORACLE_ROW = np.array([
    0.7626061564913410773472,
    0.06723340968056744809831,
    0.1701604338280914745545,
])


# ------------------------------------------------------------ closed forms


def test_entropy_backup_matches_frozen_oracle():
    res = entropy_backup(W, 0.7)
    assert res.value == pytest.approx(ENT_ORACLE_VALUE, abs=1e-14)
    assert np.max(np.abs(res.argmax - ENT_ORACLE_ROW)) < 1e-14


def test_entropy_backup_rejects_bad_eta():
    with pytest.raises(ValueError):
        entropy_backup(W, 0.0)
    with pytest.raises(ValueError):
        entropy_backup(W, -1.0)


def test_entropy_backup_hardens_as_eta_shrinks():
    vals = [entropy_backup(W, eta).value for eta in (1.0, 0.5, 0.2)]
    assert np.all(np.diff(vals) < 0)
    assert entropy_backup(W, 1e-3).value == pytest.approx(np.max(W), abs=1e-6)


def test_kl_backup_uniform_reference_identity():
    # KL to uniform differs from entropy by the constant eta*ln(n).
    n = len(W)
    kl = kl_backup(W, 0.7, np.full(n, 1.0 / n))
    ent = entropy_backup(W, 0.7)
    assert kl.value == pytest.approx(ent.value - 0.7 * np.log(n), abs=1e-12)
    assert np.max(np.abs(kl.argmax - ent.argmax)) < 1e-12


def test_kl_backup_reduces_to_shifted_entropy_exactly():
    ref = np.array([0.6, 0.3, 0.1])
    eta = 1.3
    kl = kl_backup(W, eta, ref)
    shifted = entropy_backup(W + eta * np.log(ref), eta)
    assert kl.value == shifted.value
    assert np.array_equal(kl.argmax, shifted.argmax)


@pytest.mark.parametrize("seed", range(5))
def test_every_soft_backup_is_the_entropy_backup_bit_for_bit(seed):
    # The Gumbel expected max, the closed-form noisy-reward operator and the
    # equal-rate exponential-marginal robust backup are the entropy backup
    # plus a constant, so they must agree with it under ==, not to a tolerance.
    rng = np.random.default_rng([seed, 4])
    for _ in range(10):
        n = int(rng.integers(2, 8))
        w = rng.normal(scale=4.0, size=n)
        eta = float(rng.uniform(0.05, 5.0))
        ent = entropy_backup(w, eta)
        ev = GumbelIid.mean_zero(eta).regularizer().conjugate(w)
        assert ev.value == ent.value
        assert np.array_equal(ev.argmax, ent.argmax)
        noisy = StochasticInstance(random_mdp(1, n, seed=seed),
                                   GumbelIid.mean_zero(eta, num_actions=n),
                                   method="closed_form")
        value, row = noisy.operator()(w, 0, 0)
        assert value == ent.value
        assert np.array_equal(row, ent.argmax)
        for rate in (0.3, 0.7, 1.3, 2.0, 3.0):
            robust = MdmRegularizer([ExponentialInverseCdf(rate)] * n).conjugate(w)
            soft = entropy_backup(w, 1.0 / rate)
            assert robust.value == soft.value + 1.0 / rate
            assert np.array_equal(robust.argmax, soft.argmax)


def test_kl_backup_rejects_zero_reference_entries():
    with pytest.raises(ValueError):
        kl_backup(W, 1.0, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kl_backup_rejects_non_finite_reference_entries(bad):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        kl_backup(W, 1.0, np.array([bad, 0.5, 0.5]))


def test_scaled_regularizer_composes_with_entropy():
    # s * entropy(eta) is the same function as entropy(s * eta).
    phi = AffineRegularizer(EntropyRegularizer(0.5), 3.0)
    direct = entropy_backup(W, 1.5)
    res = phi.conjugate(W)
    assert res.value == pytest.approx(direct.value, abs=1e-12)
    assert np.max(np.abs(res.argmax - direct.argmax)) < 1e-12
    p = np.array([0.2, 0.5, 0.3])
    assert phi.value(p) == pytest.approx(EntropyRegularizer(1.5).value(p),
                                         abs=1e-12)


def test_scaled_regularizer_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        AffineRegularizer(EntropyRegularizer(1.0), 0.0)


def test_offset_regularizer_shifts_value_only():
    phi = AffineRegularizer(EntropyRegularizer(0.7), offset=-2.5)
    base = entropy_backup(W, 0.7)
    res = phi.conjugate(W)
    assert res.value == pytest.approx(base.value - 2.5, abs=1e-14)
    assert np.array_equal(res.argmax, base.argmax)
    p = np.array([0.2, 0.5, 0.3])
    assert phi.value(p) == pytest.approx(
        EntropyRegularizer(0.7).value(p) - 2.5, abs=1e-14)


# ------------------------------------------------------- gradients, duality


@pytest.mark.parametrize("phi", [
    EntropyRegularizer(0.7),
    KlRegularizer(1.2, np.array([0.5, 0.25, 0.25])),
    AffineRegularizer(EntropyRegularizer(0.5), 2.0),
    AffineRegularizer(KlRegularizer(0.8, np.array([0.4, 0.4, 0.2])),
                      offset=1.0),
])
def test_gradient_matches_finite_differences(phi):
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = random_interior(rng, 3)
        fd = central_fd(phi.value, p, h=1e-6)
        g = phi.gradient(p)
        assert np.max(np.abs(g - fd)) < 1e-6 * max(1.0, np.max(np.abs(g)))


@pytest.mark.parametrize("phi", [
    EntropyRegularizer(0.9),
    KlRegularizer(0.6, np.array([0.7, 0.2, 0.1])),
])
def test_closed_backup_has_no_duality_gap(phi):
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.uniform(-4, 4, 3)
        res = phi.conjugate(w)
        attained = float(w @ res.argmax) + phi.value(res.argmax)
        assert abs(res.value - attained) <= 1e-8


def test_envelope_derivative_is_the_argmax_row():
    # d/dw of the conjugate value equals the maximizing row.
    eta = 0.8
    fd = central_fd(lambda w: entropy_backup(w, eta).value, W, h=1e-6)
    assert np.max(np.abs(fd - entropy_backup(W, eta).argmax)) < 1e-6


# ---------------------------------------------------------- numeric fallback


def test_numeric_conjugate_recovers_entropy_closed_form():
    phi = EntropyRegularizer(0.7)
    res = numeric_conjugate(W, phi)
    assert res.value == pytest.approx(ENT_ORACLE_VALUE, abs=1e-9)
    assert np.max(np.abs(res.argmax - ENT_ORACLE_ROW)) < 1e-6


def test_numeric_conjugate_recovers_kl_closed_form():
    ref = np.array([0.5, 0.2, 0.3])
    phi = KlRegularizer(1.1, ref)
    res = numeric_conjugate(W, phi)
    closed = kl_backup(W, 1.1, ref)
    assert res.value == pytest.approx(closed.value, abs=1e-9)
    assert np.max(np.abs(res.argmax - closed.argmax)) < 1e-6


def test_numeric_conjugate_translates_exactly():
    phi = EntropyRegularizer(0.4)
    rng = np.random.default_rng(9)
    for _ in range(5):
        w = rng.uniform(-6, 6, 4)
        c = rng.uniform(-10, 10)
        a = numeric_conjugate(w, phi).value
        b = numeric_conjugate(w + c, phi).value
        assert abs(b - (a + c)) <= 1e-12 * max(1.0, abs(a) + abs(c))


def test_numeric_conjugate_budget_error_carries_best_iterate(monkeypatch):
    # small eta makes the ascent slow enough that 3 steps cannot finish
    monkeypatch.setattr(regularized, "_MAX_STEPS", 3)
    phi = EntropyRegularizer(0.01)
    with pytest.raises(ConvergenceError) as exc:
        numeric_conjugate(W, phi)
    best = exc.value.best
    assert best is not None
    assert best.argmax.shape == (3,)
    assert abs(best.argmax.sum() - 1.0) < 1e-12


REF3 = [0.2, 0.3, 0.5]
FIXED_LENGTH_CALLS = {
    "kl": lambda w: KlRegularizer(0.5, REF3).conjugate(w),
    "kl-backup": lambda w: kl_backup(w, 0.5, np.array(REF3)),
    "mmm": lambda w: MmmRegularizer(REF3).conjugate(w),
    "chi-square-lagrange":
        lambda w: ChiSquareLagrangeRegularizer(0.7, REF3, 0.3).conjugate(w),
    "mdm-equal-rate": lambda w: MdmRegularizer(
        [ExponentialInverseCdf(1.0)] * 3).conjugate(w),
    "covariance": lambda w: CovarianceRegularizer(np.eye(3)).conjugate(w),
}
# every feasible-set kind that holds a row, its conjugate and its violation
FIXED_LENGTH_SETS = {
    "kl-ball": KlBall(REF3, 0.1),
    "l1-ball": L1Ball(REF3, 0.1),
    "chi-square-ball": L2ChiSquareBall(REF3, 0.1),
    "singleton": Singleton(REF3),
    "phi-ball": PhiBall(MmmRegularizer([0.5, 0.6, 0.7]), -0.3),
}
for _kind, _set in FIXED_LENGTH_SETS.items():
    FIXED_LENGTH_CALLS[_kind + "-backup"] = _set.conjugate
    FIXED_LENGTH_CALLS[_kind + "-violation"] = _set.violation
    FIXED_LENGTH_CALLS[_kind + "-constraint-violation"] = (
        lambda w, c=_set: constraint_violation(c, w))
    FIXED_LENGTH_CALLS[_kind + "-grid-oracle"] = (
        lambda w, c=_set: grid_oracle_backup(w, c, resolution=10))
FIXED_LENGTH_CALLS.update({
    "kl-constrained-backup": lambda w: kl_constrained_backup(w, REF3, 0.1),
    "l1-constrained-backup": lambda w: l1_constrained_backup(w, REF3, 0.1),
    "l2-constrained-backup": lambda w: l2_constrained_backup(w, REF3, 0.1),
    "generic-phi-ball-backup": lambda w: generic_phi_ball_backup(
        w, MmmRegularizer(REF3), -0.3),
    "l1-dual-discrepancy": lambda w: l1_dual_discrepancy(w, REF3, 0.1),
    "l2-dual-discrepancy": lambda w: l2_dual_discrepancy(w, REF3, 0.1),
})


@pytest.mark.parametrize("name", sorted(FIXED_LENGTH_CALLS))
@pytest.mark.parametrize("length", [1, 2, 4])
def test_a_row_of_another_length_is_rejected(name, length):
    # the regularizer or set holds 3 actions; a row of any other length has
    # no answer, where zip, broadcasting or a boolean index would give one
    # or raise numpy's message
    with pytest.raises(ValueError, match=r"expected 3 action values"):
        FIXED_LENGTH_CALLS[name](np.ones(length))


@pytest.mark.parametrize("length", [1, 2, 4])
def test_a_set_that_holds_no_row_takes_any_length(length):
    w = np.arange(length, dtype=float)
    assert ZeroRegularizer().conjugate(w).value == length - 1
    assert ZeroRegularizer().violation(w) == 0.0
    ball = PhiBall(EntropyRegularizer(1.0), -0.1 * np.log(length))
    assert ball.violation(np.full(length, 1.0 / length)) <= 0.0
    assert ball.conjugate(w).value >= w.mean()


def test_numeric_conjugate_rejects_bad_input():
    with pytest.raises(ValueError):
        numeric_conjugate(np.zeros((2, 2)), EntropyRegularizer(1.0))


def test_numeric_conjugate_duality_gap_stays_small():
    rng = np.random.default_rng(21)
    phi = KlRegularizer(0.7, np.array([0.25, 0.5, 0.25]))
    for _ in range(5):
        w = rng.uniform(-3, 3, 3)
        res = numeric_conjugate(w, phi)
        attained = float(w @ res.argmax) + phi.value(res.argmax)
        assert abs(res.value - attained) <= 1e-8


# -------------------------------------------------------------- invariants


ETAS = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)
W_LISTS = st.lists(st.floats(min_value=-30, max_value=30, allow_nan=False),
                   min_size=2, max_size=5)


@settings(max_examples=80, deadline=None)
@given(w=W_LISTS, eta=ETAS)
def test_entropy_backup_bounds(w, eta):
    w = np.array(w)
    v = entropy_backup(w, eta).value
    n = w.shape[0]
    assert v >= np.max(w) - 1e-10
    assert v <= np.max(w) + eta * np.log(n) + 1e-10


@settings(max_examples=80, deadline=None)
@given(w=W_LISTS, eta=ETAS, c=st.floats(min_value=-20, max_value=20,
                                        allow_nan=False))
def test_entropy_backup_translates(w, eta, c):
    w = np.array(w)
    a = entropy_backup(w, eta).value
    b = entropy_backup(w + c, eta).value
    assert b == pytest.approx(a + c, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(w=W_LISTS, eta=ETAS)
def test_entropy_backup_monotone(w, eta):
    w = np.array(w)
    bigger = w + np.linspace(0.0, 1.0, w.shape[0])
    assert entropy_backup(bigger, eta).value >= entropy_backup(w, eta).value - 1e-10


# ---------------------------------------------------------------- operator


def test_operator_broadcasts_single_regularizer():
    from mdpkit import random_mdp, value_iteration

    m = random_mdp(3, 2, seed=5)
    phi = EntropyRegularizer(0.5)
    a = value_iteration(m, regularized_backup_operator(phi))
    b = value_iteration(m, regularized_backup_operator([phi] * 3))
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.policy, b.policy)


def test_operator_accepts_heterogeneous_regularizers():
    from mdpkit import random_mdp, value_iteration

    m = random_mdp(2, 3, seed=6)
    phis = [EntropyRegularizer(0.3),
            KlRegularizer(1.0, np.array([0.6, 0.2, 0.2]))]
    res = value_iteration(m, regularized_backup_operator(phis))
    assert res.residual <= 1e-10
    assert np.all(res.policy > 0)  # both regularizers keep rows interior


# ------------------------------------------------------------------ bregman


def test_bregman_divergence_properties():
    phi = EntropyRegularizer(1.0)
    p = np.array([0.3, 0.4, 0.3])
    q = np.array([0.6, 0.2, 0.2])
    assert bregman_divergence(phi, p, p) == pytest.approx(0.0, abs=1e-12)
    assert bregman_divergence(phi, p, q) > 0
    # entropy's divergence is the KL divergence between the rows
    kl = float(np.sum(p * np.log(p / q)))
    assert bregman_divergence(phi, p, q) == pytest.approx(kl, abs=1e-12)


def test_bregman_divergence_rejects_boundary_base_point():
    phi = EntropyRegularizer(1.0)
    with pytest.raises(ValueError):
        bregman_divergence(phi, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
