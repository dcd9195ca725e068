"""Noisy-reward backups: Gumbel closed form, Monte Carlo, and the ratio
counterexample showing general noise escapes every softmax temperature."""

import json
import math

import numpy as np
import pytest
from scipy import stats

import mdpkit.stochastic as stochastic
from mdpkit import (
    GaussianJoint,
    GumbelIid,
    StochasticInstance,
    UniformPerEntry,
    build_uniform_counterexample,
    derive_rng,
    entropy_backup,
    ev_backup,
    mc_counterexample_ratio,
    mc_emax,
    mc_policy,
    refute_single_eta_fit,
    smdp_backup_operator,
    uniform_counterexample_ratio,
    value_iteration,
)
from mdpkit.cli import main
from mdpkit.modelio import save_instance
from mdpkit.stochastic import (EMAX_BLOCK, NoiseModel, _column_emax,
                               _draw_columns)

EULER_GAMMA = float(np.euler_gamma)
W = np.array([1.0, 0.0, -1.0])

# [DERIVED] frozen oracle: ln(e + 1 + 1/e) via mpmath at 50 digits.
EV_ORACLE = 1.407605964444380304483


# ------------------------------------------------------------- noise models


def test_gumbel_location_conventions():
    g = GumbelIid(0.7, num_actions=2)
    assert np.allclose(g.mean(0), 0.7 * EULER_GAMMA)
    mz = GumbelIid.mean_zero(0.7, num_actions=2)
    assert np.allclose(mz.mean(0), 0.0)
    assert mz.location == -0.7 * EULER_GAMMA


def test_gumbel_sample_mean_matches_convention():
    mz = GumbelIid.mean_zero(1.0, num_actions=3)
    draws = mz.sample(0, 200000, np.random.default_rng(0))
    assert draws.shape == (200000, 3)
    assert abs(draws.mean()) < 0.01


def test_gumbel_sample_follows_the_gumbel_law():
    eta, location = 0.7, 0.3
    g = GumbelIid(eta, location=location, num_actions=4)
    draws = g.sample(0, 50000, np.random.default_rng(11)).ravel()
    assert draws.size == 200000

    def cdf(x):
        return np.exp(-np.exp(-(x - location) / eta))

    assert stats.kstest(draws, cdf).pvalue > 1e-3
    # mean location + eta * euler_gamma, standard deviation eta * pi / sqrt(6)
    se = eta * np.pi / np.sqrt(6.0 * draws.size)
    assert abs(draws.mean() - g.mean(0)[0]) < 4.0 * se


class _ExponentialZeros:
    """Generator stub: its first two exponential draws hold exact zeros."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def standard_exponential(self, size):
        out = self.rng.standard_exponential(size)
        if self.calls < 2:
            out.reshape(-1)[::3] = 0.0
        self.calls += 1
        return out


def test_gumbel_sample_redraws_exact_zero_exponentials():
    rng = _ExponentialZeros(12)
    draws = GumbelIid(0.5, num_actions=3).sample(0, 40, rng)
    assert rng.calls == 3
    assert draws.shape == (40, 3)
    assert np.all(np.isfinite(draws))


def test_gumbel_rejects_bad_scale():
    with pytest.raises(ValueError):
        GumbelIid(0.0)
    with pytest.raises(ValueError):
        ev_backup(W, -1.0)


def test_uniform_noise_validation():
    with pytest.raises(ValueError):
        UniformPerEntry(np.zeros((2, 2)))  # wrong rank
    bad = np.zeros((1, 2, 2))
    bad[0, 0] = [1.0, 0.0]  # lo > hi
    with pytest.raises(ValueError):
        UniformPerEntry(bad)


def test_uniform_noise_degenerate_bounds_are_deterministic():
    bounds = np.zeros((1, 3, 2))
    bounds[0, 1] = [0.25, 0.25]
    noise = UniformPerEntry(bounds)
    draws = noise.sample(0, 100, np.random.default_rng(1))
    assert np.all(draws[:, 0] == 0.0)
    assert np.all(draws[:, 1] == 0.25)
    est = mc_emax(W, noise, samples=64, seed=0)
    assert est.mean == pytest.approx(np.max(W + noise.mean(0)), abs=1e-12)
    assert est.std_error == 0.0


def test_gaussian_joint_rejects_non_psd():
    cov = np.array([[[1.0, 2.0], [2.0, 1.0]]])  # eigenvalues 3 and -1
    with pytest.raises(ValueError):
        GaussianJoint(cov)


def test_gaussian_joint_sample_covariance():
    cov = np.array([[[1.0, 0.5], [0.5, 2.0]]])
    noise = GaussianJoint(cov)
    draws = noise.sample(0, 200000, np.random.default_rng(2))
    emp = np.cov(draws.T)
    assert np.max(np.abs(emp - cov[0])) < 0.05


def test_gaussian_joint_samples_a_singular_covariance_on_its_support():
    b = np.array([[1.0, 0.2], [0.5, -0.7], [-0.3, 0.9]])
    cov = b @ b.T  # rank 2 of 3
    null = np.cross(b[:, 0], b[:, 1])
    noise = GaussianJoint(cov[None])
    n = 200000
    draws = noise.sample(0, n, np.random.default_rng(3))
    emp = draws.T @ draws / n
    # the mean is known to be 0: Var(x_i x_j) = cov_ii cov_jj + cov_ij^2
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
    assert np.all(np.abs(emp - cov) <= 4.0 * se)
    assert np.max(np.abs(draws @ null)) < 1e-12


def test_builtin_laws_draw_straight_into_the_column_cache():
    class RowMajor(NoiseModel):
        def sample(self, state, n, rng):
            return rng.random((n, 3))

    for noise in _tie_prone_noises() + [RowMajor()]:
        returned = []
        draw = noise.sample

        def capture(*args, draw=draw, **kwargs):
            returned.append(draw(*args, **kwargs))
            return returned[-1]

        noise.sample = capture
        cols = _draw_columns(W, noise, 500, derive_rng(4), 1)
        assert cols.shape == (3, 500) and cols.flags.c_contiguous
        assert np.array_equal(cols, returned[0].T)
        builtin = not isinstance(noise, RowMajor)
        assert returned[0].T.flags.c_contiguous == builtin
        assert np.shares_memory(cols, returned[0]) == builtin


# ------------------------------------------------------- closed form vs MC


def test_ev_backup_matches_frozen_oracle():
    res = ev_backup(W, 1.0)
    assert res.value == pytest.approx(EV_ORACLE, abs=1e-14)
    assert res.gumbel_location == -EULER_GAMMA


def test_ev_backup_equals_entropy_backup():
    # the Gumbel expected max and the entropy-smoothed max are the same
    # function of the action values, policy row included.
    for eta in (0.3, 1.0, 2.5):
        ev = ev_backup(W, eta)
        ent = entropy_backup(W, eta)
        assert ev.value == ent.value
        assert np.array_equal(ev.policy, ent.argmax)


def test_mc_emax_agrees_with_closed_form():
    eta = 0.8
    noise = GumbelIid.mean_zero(eta, num_actions=3)
    est = mc_emax(W, noise, samples=400000, seed=4)
    closed = ev_backup(W, eta).value
    assert abs(est.mean - closed) <= 4.0 * est.std_error
    assert est.std_error > 0


def test_mc_emax_location_zero_is_biased_up_by_eta_gamma():
    eta = 0.8
    noise = GumbelIid(eta, num_actions=3)
    est = mc_emax(W, noise, samples=400000, seed=5)
    closed = ev_backup(W, eta).value + eta * EULER_GAMMA
    assert abs(est.mean - closed) <= 4.0 * est.std_error


def test_mc_emax_is_reproducible():
    noise = GumbelIid.mean_zero(1.0, num_actions=3)
    a = mc_emax(W, noise, samples=1000, seed=7)
    b = mc_emax(W, noise, samples=1000, seed=7)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_mc_policy_matches_softmax():
    eta = 1.2
    noise = GumbelIid(eta, num_actions=3)  # location cancels in the argmax
    freq = mc_policy(W, noise, samples=400000, seed=8)
    soft = ev_backup(W, eta).policy
    assert freq.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(freq - soft)) < 4.0 / np.sqrt(400000)


# ----------------------------------------------------------------- operator


def test_smdp_operator_with_common_random_numbers_converges():
    from mdpkit import random_mdp

    m = random_mdp(4, 3, seed=10, discount=0.85)
    noise = GumbelIid.mean_zero(0.5, num_actions=3)
    op = smdp_backup_operator(noise, samples=20000, seed=0)
    res = value_iteration(m, op, tol=1e-9)
    assert res.residual <= 1e-9
    # the fixed point tracks the closed form within Monte Carlo error
    closed = value_iteration(
        m, lambda w, s, k: (ev_backup(w, 0.5).value, ev_backup(w, 0.5).policy),
        tol=1e-10)
    assert np.max(np.abs(res.value - closed.value)) < 0.05


def _tie_prone_noises():
    """One noise model per law, on 3 states x 3 actions, with exact ties.

    Uniform state 1 has zero width everywhere and state 0 on actions 0 and
    2, so equal action values tie on every sample there.
    """
    half = np.array([[0.0, 0.7, 0.0], [0.0, 0.0, 0.0], [0.4, 0.9, 0.2]])
    b = derive_rng(41).normal(size=(3, 3, 3))
    cov = np.einsum("sij,skj->sik", b, b) / 3.0
    return [GumbelIid.mean_zero(0.6, num_actions=3),
            UniformPerEntry(np.stack([-half, half], axis=-1)),
            GaussianJoint(cov)]


def _row_major_backup(w, eps):
    vals = w + eps
    m = vals.max(axis=1)
    row = np.bincount(vals.argmax(axis=1), minlength=len(w)) / float(len(m))
    return float(m.mean()), row


def _one_row(op, w, state, sweep):
    """A table operator's backup of the single row w at `state`."""
    values, rows = op(np.asarray(w)[None], [state], sweep)
    return values[0], rows[0]


def test_smdp_operator_matches_row_major_formula_bit_for_bit():
    # the draws are common random numbers: the same on every sweep
    samples, seed = 4000, 17
    rows = [np.array([0.5, -0.25, 0.5]), np.array([0.25, 0.25, 0.25]),
            np.array([1.0, 2.0, 2.0]), W]
    for noise in _tie_prone_noises():
        op = smdp_backup_operator(noise, samples=samples, seed=seed)
        for sweep in range(2):
            for state in range(3):
                for w in rows:
                    eps = noise.sample(state, samples, derive_rng(seed, state))
                    value, row = _one_row(op, w, state, sweep)
                    ref_value, ref_row = _row_major_backup(w, eps)
                    assert value == ref_value
                    assert np.array_equal(row, ref_row)
    # all-zero-width state: every sample ties, and the lowest index wins
    uniform = _tie_prone_noises()[1]
    op = smdp_backup_operator(uniform, samples=samples, seed=seed)
    assert np.array_equal(_one_row(op, [1.0, 2.0, 2.0], 1, 0)[1], [0.0, 1.0, 0.0])
    assert np.array_equal(_one_row(op, [0.5, 0.5, 0.5], 1, 0)[1], [1.0, 0.0, 0.0])
    # zero-width actions 0 and 2 tie on every sample; action 2 never wins
    assert _one_row(op, [0.5, -0.25, 0.5], 0, 0)[1][2] == 0.0


@pytest.mark.parametrize("n", [1000, 3 * EMAX_BLOCK + 17])
def test_column_emax_is_the_row_major_max_across_blocks(n):
    # rounded draws tie often; column 2 has zero width, and column 3
    # repeats column 1 on the first half of the samples
    cols = np.round(derive_rng(29).normal(size=(4, n)), 1)
    cols[2] = 0.0
    cols[3, :n // 2] = cols[1, :n // 2]
    for w in (np.zeros(4), np.array([0.3, 0.0, 0.3, 0.0]),
              np.array([-0.5, 0.1, 0.4, 0.1])):
        m, first = _column_emax(w, cols)
        vals = w + cols.T
        assert np.array_equal(m, vals.max(axis=1))
        assert np.array_equal(first, vals.argmax(axis=1))


def test_smdp_operator_first_sweep_equals_mc_emax_and_mc_policy():
    # criterion 2 and StochasticInstance.solve_with_error compare the
    # operator's fixed point with mc_emax at the same (w, seed, state)
    samples, seed = 4000, 23
    for noise in _tie_prone_noises():
        op = smdp_backup_operator(noise, samples=samples, seed=seed)
        for state in range(3):
            for w in (np.array([0.5, -0.25, 0.5]), W):
                value, row = _one_row(op, w, state, 0)
                assert value == mc_emax(w, noise, samples, seed, state=state).mean
                assert np.array_equal(row, mc_policy(w, noise, samples, seed,
                                                     state=state))


def test_mc_draw_cache_is_checked_against_physical_memory_first(
        monkeypatch, tmp_path, capsys):
    calls = []
    draw = UniformPerEntry.sample

    def counting(self, state, n, rng):
        calls.append(state)
        return draw(self, state, n, rng)

    monkeypatch.setattr(UniformPerEntry, "sample", counting)
    model, noise = build_uniform_counterexample(0.0, 0.25)
    samples = 1000
    need = 3 * 2 * samples * 8
    inst = StochasticInstance(model, noise, mc_samples=samples)
    path = tmp_path / "m.json"
    save_instance(inst, path)

    monkeypatch.setattr(stochastic, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"needs {need} bytes"):
        inst.solve()
    code = main(["solve", str(path)])
    record = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert record["kind"] == "validation"
    assert f"needs {need} bytes" in record["message"]
    assert calls == []

    monkeypatch.setattr(stochastic, "_physical_memory_bytes", lambda: need)
    inst.solve()
    assert main(["solve", str(path)]) == 0
    assert sorted(set(calls)) == [0, 1, 2]


# ------------------------------------------------- the ratio counterexample


def test_counterexample_model_structure():
    model, noise = build_uniform_counterexample(0.0, 0.25)
    assert model.num_states == 3
    assert model.num_actions == 2
    assert model.reward[0].tolist() == [0.0, 0.25]
    # only the chooser state's first action is noisy
    assert noise.bounds[0, 0].tolist() == [0.0, 1.0]
    assert np.all(noise.bounds[0, 1] == 0.0)
    assert np.all(noise.bounds[1:] == 0.0)
    # chooser routes to the two absorbing zero-reward states
    assert model.transition[0, 0, 1] == 1.0
    assert model.transition[0, 1, 2] == 1.0
    assert np.all(model.transition[1, :, 1] == 1.0)
    assert np.all(model.transition[2, :, 2] == 1.0)


def test_printed_ratio_values():
    # with t = r2 - r1 + beta the published ratio is t / (1 - t) inside (0, 1)
    assert uniform_counterexample_ratio(0.0, 0.25) == pytest.approx(1.0 / 3.0)
    assert uniform_counterexample_ratio(0.0, 0.75) == pytest.approx(3.0)
    assert uniform_counterexample_ratio(0.0, 0.5) == pytest.approx(1.0)
    # beta adds straight onto the reward gap
    assert uniform_counterexample_ratio(0.0, 0.25) == pytest.approx(
        uniform_counterexample_ratio(0.0, 0.05, beta=0.2))


def test_ratio_saturates_outside_the_overlap_window():
    assert uniform_counterexample_ratio(0.0, -0.5) == 0.0
    assert uniform_counterexample_ratio(0.0, 1.0) == np.inf
    assert uniform_counterexample_ratio(0.0, 2.0) == np.inf


def test_mc_ratio_is_the_reciprocal_orientation():
    # the direct probability calculation P[eps >= t]/P[eps < t] gives
    # (1 - t)/t, the reciprocal of the published piecewise formula; both
    # orientations defeat a single softmax temperature.
    printed = uniform_counterexample_ratio(0.0, 0.25)
    mc = mc_counterexample_ratio(0.0, 0.25, samples=400000, seed=0)
    assert mc == pytest.approx(1.0 / printed, rel=0.05)


def test_refute_single_eta_fit_on_the_curated_pair():
    # reward gaps -0.25 and -0.75 with ratios 1/3 and 3: no single
    # temperature explains both, residual at least ln(3) up to fit slack.
    fit = refute_single_eta_fit([-0.25, -0.75], [1.0 / 3.0, 3.0])
    assert fit.residual > 0.1
    assert fit.residual > 0.5 * np.log(3.0)


def test_refute_single_eta_fit_accepts_a_true_softmax_family():
    deltas = np.array([-0.25, -0.75, 0.5])
    eta = 0.9
    ratios = np.exp(deltas / eta)
    fit = refute_single_eta_fit(deltas, ratios)
    assert fit.residual < 1e-6
    assert fit.eta == pytest.approx(eta, rel=1e-3)


def _grid_and_brent_fit(deltas, ratios):
    """The residual of the former fit: a 2,001-point log-eta grid and Brent."""
    from scipy.optimize import minimize_scalar

    deltas = np.asarray(deltas, dtype=float)
    logr = np.log(np.asarray(ratios, dtype=float))

    def worst(log_eta):
        return float(np.max(np.abs(logr - deltas / np.exp(log_eta))))

    res = minimize_scalar(worst, bounds=(-16.0, 16.0), method="bounded",
                          options={"xatol": 1e-12})
    return min([worst(x) for x in np.linspace(-16, 16, 2001)] + [res.fun])


def test_refute_single_eta_fit_is_exact_and_attained():
    rng = np.random.default_rng(12)
    cases = [([-0.25, -0.75], [1.0 / 3.0, 3.0]), ([0.0, 0.0], [1.0, 1.0])]
    for _ in range(20):
        n = int(rng.integers(1, 6))
        cases.append((rng.normal(size=n), np.exp(rng.normal(size=n))))
    for deltas, ratios in cases:
        fit = refute_single_eta_fit(deltas, ratios)
        # never above the former searches, which only sampled the same error
        assert fit.residual <= _grid_and_brent_fit(deltas, ratios)
        # the residual is the worst error at the returned temperature; at
        # eta = inf, delta / eta = 0 and the error is |ln r| (u = 0)
        logr = np.log(ratios)
        assert fit.residual == np.max(np.abs(logr - np.asarray(deltas) / fit.eta))
    # on the curated pair the infimum is ln 3, reached as eta -> infinity
    fit = refute_single_eta_fit(*cases[0])
    assert fit.eta == np.inf
    assert abs(fit.residual - math.log(3.0)) <= np.spacing(math.log(3.0))


def test_mc_ratio_reproducible_and_positive():
    a = mc_counterexample_ratio(0.0, 0.4, samples=50000, seed=3)
    b = mc_counterexample_ratio(0.0, 0.4, samples=50000, seed=3)
    assert a == b
    assert a > 0
