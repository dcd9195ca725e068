"""Cross-framework comparison: randomized equivalence checks, the offset
convention, Monte Carlo inflation, and the nested-relation suite."""

import threading

import numpy as np
import pytest
from util import tracemalloc_peak

from mdpkit import (
    AffineRegularizer,
    ConstrainedInstance,
    ConvergenceError,
    CovarianceModel,
    DistributionalInstance,
    EntropyRegularizer,
    ExponentialInverseCdf,
    GumbelIid,
    KlBall,
    L1Ball,
    MarginalDistributionModel,
    MarginalMomentModel,
    RegularizedInstance,
    StandardInstance,
    StochasticInstance,
    StructureMismatchError,
    UniformPerEntry,
    check_equivalence,
    counterexample_suite,
    derive_rng,
    entropy_backup,
    interior_policy_sweep,
    mc_emax,
    q_vector,
    random_mdp,
    regularizer_for,
    value_iteration,
)
from mdpkit.equivalence import _trial_rewards
from mdpkit.stochastic import NoiseModel


def base_model(seed=40):
    return random_mdp(3, 2, seed=seed, reward_range=(-2.0, 2.0), discount=0.85)


@pytest.fixture(scope="module")
def suite():
    return counterexample_suite(seed=0, trials=6, mc_samples=60000)


# -------------------------------------------------------------- structure


def test_shape_mismatch_raises():
    a = StandardInstance(random_mdp(3, 2, seed=1))
    b = StandardInstance(random_mdp(3, 3, seed=1))
    with pytest.raises(StructureMismatchError):
        check_equivalence(a, b)


def test_transition_mismatch_raises():
    a = StandardInstance(random_mdp(3, 2, seed=1))
    b = StandardInstance(random_mdp(3, 2, seed=2))
    with pytest.raises(StructureMismatchError):
        check_equivalence(a, b)


def test_discount_mismatch_raises():
    a = StandardInstance(random_mdp(3, 2, seed=1, discount=0.9))
    b = StandardInstance(random_mdp(3, 2, seed=1, discount=0.8))
    with pytest.raises(StructureMismatchError):
        check_equivalence(a, b)


def test_trial_rewards_layout():
    rewards = _trial_rewards((3, 2), trials=4, seed=0)
    assert len(rewards) == 7  # 4 random draws plus 3 fixed corners
    assert np.all(rewards[4] == 0.0)
    tied = rewards[5]
    assert np.all(tied[:, 0] == tied[:, 1])
    gap = rewards[6]
    assert np.all(gap[:, 0] == 50.0) and np.all(gap[:, 1:] == -50.0)
    # draws are reproducible
    again = _trial_rewards((3, 2), trials=4, seed=0)
    assert all(np.array_equal(a, b) for a, b in zip(rewards, again))


def test_with_rewards_names_its_field_and_still_broadcasts():
    inst = StandardInstance(random_mdp(3, 2, seed=1))
    with pytest.raises(ValueError, match="^reward must be an array of"):
        inst.with_rewards({"a": 1})
    assert np.array_equal(inst.with_rewards(1.5).model.reward,
                          np.full((3, 2), 1.5))


# --------------------------------------------------------------- verdicts


def test_entropy_vs_gumbel_closed_form_is_bit_exact():
    m = base_model()
    er = RegularizedInstance(m, EntropyRegularizer(1.0))
    ev = StochasticInstance(m, GumbelIid.mean_zero(1.0), method="closed_form")
    rep = check_equivalence(er, ev, trials=8, seed=3)
    assert rep.verdict == "consistent"
    assert not rep.mc_backed
    assert max(rep.value_gaps) == 0.0
    assert max(rep.policy_gaps) == 0.0
    assert rep.trials == 11


def test_a_noise_law_with_a_regularizer_solves_in_closed_form():
    # the instance asks the law for its regularizer, not for its class
    class SoftNoise(NoiseModel):
        def regularizer(self):
            return EntropyRegularizer(0.5)

    m = base_model()
    inst = StochasticInstance(m, SoftNoise())
    assert inst.method == "closed_form" and not inst.monte_carlo
    a = inst.solve()
    b = RegularizedInstance(m, EntropyRegularizer(0.5)).solve()
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.policy, b.policy)
    with pytest.raises(ValueError, match="closed form requires"):
        StochasticInstance(m, NoiseModel(), method="closed_form")


def test_closed_form_gumbel_is_entropy_backup_plus_its_bias_bit_for_bit():
    # location 0.3 is not the mean-zero -eta * euler_gamma, so the bias the
    # closed form adds to the soft backup is not zero
    m = random_mdp(8, 4, seed=12, discount=0.9)
    eta, location = 0.7, 0.3
    bias = location + eta * float(np.euler_gamma)

    def formula(w, state, sweep):
        res = entropy_backup(w, eta)
        return res.value + bias, res.argmax

    inst = StochasticInstance(m, GumbelIid(eta, location=location),
                              method="closed_form")
    op = inst.operator()
    for w in derive_rng(5).normal(size=(20, 4)) * 3.0:
        value, row = op(w, 0, 0)
        ref_value, ref_row = formula(w, 0, 0)
        assert value == ref_value
        assert np.array_equal(row, ref_row)
    got = inst.solve()
    ref = value_iteration(m, formula)
    assert np.array_equal(got.value, ref.value)
    assert np.array_equal(got.policy, ref.policy)


def test_bit_identity_edges_hold_on_a_larger_table():
    # every family reads the same Q-table rows, so the closed-form edges
    # stay bit-identical at a size where BLAS blocks the product, and the
    # Newton steps of both sides solve the same linear systems
    mdm = MarginalDistributionModel([[ExponentialInverseCdf(1.0)] * 5] * 60)
    mmm = MarginalMomentModel(np.full((60, 5), 0.7))
    mmm_phis = [regularizer_for(mmm, s) for s in range(60)]
    for discount in (0.9, 0.99):
        m = random_mdp(60, 5, seed=31, discount=discount)
        soft = RegularizedInstance(m, EntropyRegularizer(1.0)).solve()
        gumbel = StochasticInstance(m, GumbelIid.mean_zero(1.0, num_actions=5),
                                    method="closed_form").solve()
        robust = DistributionalInstance(m, mdm).solve()
        shifted = RegularizedInstance(
            m, AffineRegularizer(EntropyRegularizer(1.0), offset=1.0)).solve()
        moment = DistributionalInstance(m, mmm).solve()
        moment_reg = RegularizedInstance(m, mmm_phis).solve()
        for a, b in ((soft, gumbel), (robust, shifted), (moment, moment_reg)):
            assert a.iterations <= 6
            assert np.array_equal(a.value, b.value)
            assert np.array_equal(a.policy, b.policy)


def test_mc_std_error_reuses_the_draws_of_the_solve():
    m = random_mdp(4, 3, seed=41, discount=0.7)
    bounds = np.zeros((4, 3, 2))
    bounds[:, :, 1] = np.linspace(0.5, 2.0, 12).reshape(4, 3)
    noise = UniformPerEntry(bounds)
    inst = StochasticInstance(m, noise, mc_samples=5000, seed=3)
    calls = []
    fill = noise._fill
    noise._fill = lambda *args: calls.append(args[0]) or fill(*args)
    result, err = inst.solve_with_error(tol=1e-10)
    # one draw per state, none after the solve; workers draw in any order
    assert sorted(calls) == [0, 1, 2, 3]
    q = q_vector(m, result.value)
    redrawn = max(mc_emax(q[s], noise, 5000, 3, state=s).std_error
                  for s in range(4))
    assert err == redrawn / (1.0 - 0.7)
    assert np.array_equal(result.value, inst.solve(tol=1e-10).value)


def _one_table_at_a_time(x, y, offset, trials, seed, tol):
    """check_equivalence's gaps, inflation and witness, from one
    `with_rewards(r).solve_with_error` per table and side."""
    value_gaps, policy_gaps, inflation, witness = [], [], 0.0, None
    noise = sum(4.0 / np.sqrt(side.mc_samples) for side in (x, y)
                if side.monte_carlo)
    for r in _trial_rewards((3, 2), trials, seed):
        rx, ex = x.with_rewards(r).solve_with_error()
        ry, ey = y.with_rewards(r - offset).solve_with_error()
        vgap = float(np.max(np.abs(rx.value - ry.value)))
        pgap = float(np.max(np.abs(rx.policy - ry.policy)))
        value_gaps.append(vgap)
        policy_gaps.append(pgap)
        inflation = max(inflation, 4.0 * (ex + ey))
        breached = (vgap > tol + 4.0 * (ex + ey)
                    or pgap > tol + noise + 4.0 * (ex + ey))
        if breached and witness is None:
            witness = {"reward": r, "value_gap": vgap, "policy_gap": pgap,
                       "policy_x": rx.policy, "policy_y": ry.policy}
    return value_gaps, policy_gaps, inflation, witness


def test_mc_sides_draw_each_state_once_per_check():
    m = base_model()
    bounds = np.zeros((3, 2, 2))
    bounds[:, :, 1] = 2.0
    x = StochasticInstance(m, UniformPerEntry(bounds), mc_samples=3000,
                           seed=1)
    y = StochasticInstance(m, GumbelIid.mean_zero(1.0), mc_samples=3000,
                           seed=2, method="mc")
    lock, calls = threading.Lock(), {id(x): [], id(y): []}

    def counted(side):
        fill = side.noise._fill

        def count(state, cols, rng):
            with lock:
                calls[id(side)].append(state)
            return fill(state, cols, rng)
        return count

    x.noise._fill, y.noise._fill = counted(x), counted(y)
    rep = check_equivalence(x, y, offset=0.25, trials=4, seed=8)
    # one operator per side: each state drawn once, not once per table
    assert sorted(calls[id(x)]) == sorted(calls[id(y)]) == [0, 1, 2]
    gaps_v, gaps_p, inflation, witness = _one_table_at_a_time(
        x, y, 0.25, 4, 8, rep.tol)
    assert len(calls[id(x)]) == 3 * (1 + 7)
    assert rep.value_gaps == gaps_v and rep.policy_gaps == gaps_p
    assert rep.tol_inflation == inflation
    assert rep.verdict == "inconclusive" and witness is not None
    assert rep.witness.keys() == witness.keys()
    for key in witness:
        assert np.array_equal(rep.witness[key], witness[key])


def test_compare_solves_its_newton_steps_in_bounded_chunks():
    # 13 tables of (700, 700) evaluation matrices would hold 51 MB at once
    m = random_mdp(700, 2, seed=5, discount=0.9)
    x = RegularizedInstance(m, EntropyRegularizer(1.0))
    y = StandardInstance(m)
    rep, peak = tracemalloc_peak(check_equivalence, x, y, trials=10, seed=3)
    assert rep.verdict == "refuted"
    assert peak < 32 * 2**20


def test_an_earlier_failure_of_y_wins_over_a_later_one_of_x():
    # in two sweeps the standard side fails first at trial 2 (a Newton step
    # settles trial 0) and the entropy side already at trial 0: trial by
    # trial, y's trial 0 comes before x's trial 2
    m = random_mdp(3, 2, seed=1)
    x = StandardInstance(m)
    y = RegularizedInstance(m, EntropyRegularizer(0.5))
    rewards = _trial_rewards((3, 2), 1, 0)
    errors = {}
    for name, side, r in (("x", x, rewards[2]), ("y", y, rewards[0] - 0.5)):
        with pytest.raises(ConvergenceError) as exc:
            side.with_rewards(r).solve(max_iter=2)
        errors[name] = exc.value
    x.with_rewards(rewards[0]).solve(max_iter=2)
    with pytest.raises(ConvergenceError) as exc:
        check_equivalence(x, y, offset=0.5, trials=1, max_iter=2)
    assert exc.value.trial == 0
    assert str(exc.value) == str(errors["y"])
    assert exc.value.residual == errors["y"].residual != errors["x"].residual
    assert np.array_equal(exc.value.best.value, errors["y"].best.value)


def test_mismatched_temperatures_are_refuted_with_witness():
    m = base_model()
    a = RegularizedInstance(m, EntropyRegularizer(1.0))
    b = RegularizedInstance(m, EntropyRegularizer(1.5))
    rep = check_equivalence(a, b, trials=8, seed=4)
    assert rep.verdict == "refuted"
    w = rep.witness
    assert w is not None
    # replaying the witness reproduces the stored gaps
    ra = a.with_rewards(w["reward"]).solve(tol=1e-10)
    rb = b.with_rewards(w["reward"]).solve(tol=1e-10)
    vgap = float(np.max(np.abs(ra.value - rb.value)))
    pgap = float(np.max(np.abs(ra.policy - rb.policy)))
    assert vgap == pytest.approx(w["value_gap"], abs=1e-12)
    assert pgap == pytest.approx(w["policy_gap"], abs=1e-12)


def test_standard_vs_soft_refuted_on_policy():
    m = base_model()
    rep = check_equivalence(RegularizedInstance(m, EntropyRegularizer(1.0)),
                            StandardInstance(m), trials=5, seed=5)
    assert rep.verdict == "refuted"
    assert rep.witness["policy_gap"] > 0.1


def test_offset_shifts_the_second_instance():
    # exponential-family robust backup equals entropy plus the constant 1,
    # which the offset convention absorbs: x under r vs y under r - (-1)
    m = base_model()
    mdm = MarginalDistributionModel([[ExponentialInverseCdf(1.0)] * 2] * 3)
    ds = DistributionalInstance(m, mdm)
    er_shifted = RegularizedInstance(
        m, AffineRegularizer(EntropyRegularizer(1.0), offset=1.0))
    direct = check_equivalence(ds, er_shifted, trials=5, seed=6)
    assert direct.verdict == "consistent"


def test_offset_zero_identity():
    m = base_model()
    rep = check_equivalence(StandardInstance(m), StandardInstance(m),
                            trials=3, seed=7)
    assert rep.verdict == "consistent"
    assert max(rep.value_gaps) == 0.0


def test_mc_breach_is_inconclusive_never_refuted():
    # uniform noise vs an entropy backup genuinely differ, but the MC side
    # caps the verdict at inconclusive
    m = base_model()
    bounds = np.zeros((3, 2, 2))
    bounds[:, :, 1] = 2.0  # U[0, 2] on every entry
    noisy = StochasticInstance(m, UniformPerEntry(bounds), mc_samples=4000,
                               seed=1)
    er = RegularizedInstance(m, EntropyRegularizer(1.0))
    rep = check_equivalence(noisy, er, trials=3, seed=8)
    assert rep.mc_backed
    assert rep.verdict == "inconclusive"
    assert rep.tol_inflation > 0


def test_mc_gumbel_vs_closed_form_is_consistent():
    m = base_model()
    mc = StochasticInstance(m, GumbelIid.mean_zero(1.0), mc_samples=60000,
                            seed=2, method="mc")
    er = RegularizedInstance(m, EntropyRegularizer(1.0))
    rep = check_equivalence(mc, er, trials=2, seed=9)
    assert rep.mc_backed
    assert rep.verdict == "consistent"


def test_singleton_constrained_vs_standard_refuted():
    m = base_model()
    ct = ConstrainedInstance(m, [L1Ball(np.array([0.5, 0.5]), 0.0)] * 3)
    rep = check_equivalence(ct, StandardInstance(m), trials=4, seed=10)
    assert rep.verdict == "refuted"


def test_kl_ball_constrained_instance_solves_inside_check():
    m = base_model()
    ct = ConstrainedInstance(m, [KlBall(np.array([0.5, 0.5]), 0.05)] * 3)
    rep = check_equivalence(ct, ct, trials=2, seed=11)
    assert rep.verdict == "consistent"


# ------------------------------------------------------------ interior sweep


def test_interior_policy_sweep_is_distinct_and_interior():
    gaps, probs = interior_policy_sweep(eta=1.0, settings=50)
    assert gaps.shape == (50,)
    assert probs.shape == (50,)
    assert len(np.unique(probs)) == 50
    assert np.all(probs > 0.0) and np.all(probs < 1.0)
    # monotone in the reward gap and symmetric around 1/2
    assert np.all(np.diff(probs) > 0)
    assert probs[25] + probs[24] == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------- suite


def test_suite_edge_names_and_verdicts(suite):
    names = [e.name for e in suite.edges]
    assert names == [
        "entropy-regularized-equals-gumbel-expected-value",
        "regularized-strictly-contains-standard",
        "stochastic-strictly-contains-expected-value",
        "regularized-equals-distributionally-robust",
        "regularized-strictly-contains-stochastic",
        "feasible-set-incomparable-with-regularized",
    ]
    assert suite.all_expected()
    for e in suite.edges:
        assert e.verdict == "holds"


def test_suite_ratio_edge_details(suite):
    edge = suite.edges[2]
    printed = edge.details["ratio_pair_printed"]
    assert printed[0] == pytest.approx(1.0 / 3.0)
    assert printed[1] == pytest.approx(3.0)
    assert edge.details["fit_residual_printed"] > 0.1
    assert edge.details["fit_residual_mc"] > 0.1
    # the Monte Carlo orientation is the reciprocal of the printed one
    mc = edge.details["ratio_pair_mc"]
    assert mc[0] == pytest.approx(3.0, rel=0.1)
    assert mc[1] == pytest.approx(1.0 / 3.0, rel=0.1)


def test_suite_robust_edge_is_bit_identical(suite):
    edge = suite.edges[3]
    assert edge.details["exponential_mdm_bit_identical"] is True
    assert edge.details["marginal_moment_bit_identical"] is True
    assert edge.details["closed_vs_numeric_gap"] < 1e-6


def test_suite_robust_edge_names_the_families_it_builds(monkeypatch):
    # the edge's `families` are the ambiguity classes the suite constructs
    names = {MarginalDistributionModel: "marginal-cdf",
             MarginalMomentModel: "marginal-moment",
             CovarianceModel: "covariance"}
    built = set()
    for cls in names:
        def record(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built.add(names[_cls])
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", record)
    edge = counterexample_suite(seed=3, trials=2, mc_samples=20000).edges[3]
    assert edge.name == "regularized-equals-distributionally-robust"
    assert sorted(edge.details["families"]) == sorted(built)


def test_suite_incomparability_witnesses(suite):
    edge = suite.edges[5]
    d = edge.details
    assert d["interior_sweep_settings"] == 50
    assert d["interior_sweep_distinct"] and d["interior_sweep_all_interior"]
    assert d["singleton_policy_constant"]
    assert d["singleton_value_change"] > 1.0
    for probe in d["bounded_regularizer_probes"].values():
        assert probe["first_action_probability"] < 0.5
        assert probe["reward_gap"] > probe["phi_range_bound"]


def test_suite_is_deterministic_for_a_seed():
    a = counterexample_suite(seed=3, trials=2, mc_samples=20000)
    b = counterexample_suite(seed=3, trials=2, mc_samples=20000)
    for ea, eb in zip(a.edges, b.edges):
        assert ea.verdict == eb.verdict
        if "max_value_gap" in ea.details:
            assert ea.details["max_value_gap"] == eb.details["max_value_gap"]
