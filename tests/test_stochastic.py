"""Noisy-reward backups: Gumbel closed form, Monte Carlo, and the ratio
counterexample showing general noise escapes every softmax temperature."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import mdpkit.stochastic as stochastic
from mdpkit import (
    GaussianJoint,
    GumbelIid,
    ModelValidationError,
    StochasticInstance,
    UniformPerEntry,
    build_uniform_counterexample,
    derive_rng,
    entropy_backup,
    interior_policy_sweep,
    mc_counterexample_ratio,
    mc_emax,
    mc_policy,
    random_mdp,
    refute_single_eta_fit,
    smdp_backup_operator,
    uniform_counterexample_ratio,
    value_iteration,
)
from mdpkit.cli import main
from mdpkit.modelio import save_instance
from mdpkit.core import _blocks
from mdpkit.stochastic import WORKER_BUDGET, NoiseModel, _column_emax

from util import tracemalloc_peak

EULER_GAMMA = float(np.euler_gamma)
W = np.array([1.0, 0.0, -1.0])

# [DERIVED] frozen oracle: ln(e + 1 + 1/e) via mpmath at 50 digits.
EV_ORACLE = 1.407605964444380304483


# ------------------------------------------------------------- noise models


def test_gumbel_location_conventions():
    # Gumbel(location, eta) has mean location + eta * euler_gamma
    assert GumbelIid(0.7, num_actions=2).location == 0.0
    mz = GumbelIid.mean_zero(0.7, num_actions=2)
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
    assert abs(draws.mean() - (location + eta * EULER_GAMMA)) < 4.0 * se


class _ExponentialZeros:
    """Generator stub: its first two exponential draws hold exact zeros."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def standard_exponential(self, size=None, out=None):
        draws = self.rng.standard_exponential(size, out=out)
        if self.calls < 2:
            draws.reshape(-1)[::3] = 0.0
        self.calls += 1
        return draws


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
        entropy_backup(W, -1.0)
    # a law with no action count cannot size its draws
    with pytest.raises(ValueError, match="num_actions unknown"):
        GumbelIid(1.0).sample(0, 10, derive_rng(0))


def test_uniform_noise_validation():
    with pytest.raises(ValueError):
        UniformPerEntry(np.zeros((2, 2)))  # wrong rank
    bad = np.zeros((1, 2, 2))
    bad[0, 0] = [1.0, 0.0]  # lo > hi
    with pytest.raises(ValueError):
        UniformPerEntry(bad)
    noise = UniformPerEntry(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="noise has 2 actions, the action "
                                         "values 3"):
        mc_emax(np.zeros(3), noise, samples=10, seed=0)
    with pytest.raises(ValueError, match=r"action values have shape \(2, 2\)"):
        mc_emax(np.zeros((2, 2)), noise, samples=10, seed=0)


def test_uniform_noise_degenerate_bounds_are_deterministic():
    bounds = np.zeros((1, 3, 2))
    bounds[0, 1] = [0.25, 0.25]
    noise = UniformPerEntry(bounds)
    draws = noise.sample(0, 100, np.random.default_rng(1))
    assert np.all(draws[:, 0] == 0.0)
    assert np.all(draws[:, 1] == 0.25)
    est = mc_emax(W, noise, samples=64, seed=0)
    assert est.mean == pytest.approx(np.max(W + bounds[0, :, 0]), abs=1e-12)
    assert est.std_error == 0.0


def test_gaussian_joint_rejects_non_psd():
    cov = np.array([[[1.0, 2.0], [2.0, 1.0]]])  # eigenvalues 3 and -1
    with pytest.raises(ValueError):
        GaussianJoint(cov)
    with pytest.raises(ValueError, match=r"must have shape \(S, A, A\), "
                                         r"got \(2, 2\)"):
        GaussianJoint(np.eye(2))


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
    # `_fill` writes `sample`'s draws into the given block bit for bit; the
    # built-in laws draw there and allocate nothing near the block's size,
    # while a custom law's row-major draws are copied in
    class RowMajor(NoiseModel):
        def sample(self, state, n, rng):
            return rng.random((n, 3))

    n = 50000
    for noise in _tie_prone_noises() + [RowMajor()]:
        cols = np.empty((3, n))
        _, peak = tracemalloc_peak(noise._fill, 1, cols, derive_rng(4))
        assert np.array_equal(cols, noise.sample(1, n, derive_rng(4)).T)
        builtin = not isinstance(noise, RowMajor)
        assert (peak <= cols.nbytes // 2) == builtin


def test_a_user_law_must_draw_samples_by_actions():
    class Transposed(NoiseModel):
        def sample(self, state, n, rng):
            return rng.random((3, n))

    with pytest.raises(ValueError, match=r"noise drew shape \(3, 10\), "
                                         r"expected \(10, 3\)"):
        mc_emax(np.zeros(3), Transposed(), samples=10, seed=0)


@pytest.mark.parametrize("num_actions", range(2, 17))
def test_gaussian_block_product_equals_the_whole_product(num_actions):
    b = derive_rng(43, num_actions).normal(size=(1, num_actions, num_actions))
    noise = GaussianJoint(b @ b.transpose(0, 2, 1))
    factor = noise.factor[0]
    # one block, several blocks with a wider last one, and the benchmark's
    # sample count; n mod 8 == 0, see GaussianJoint on the last n mod 8
    for n in (960, 40064, 200000):
        cols = np.empty((num_actions, n))
        noise._fill(0, cols, derive_rng(5))
        whole = factor @ derive_rng(5).standard_normal((num_actions, n))
        assert np.array_equal(cols, whole)
    n = 40067
    cols = np.empty((num_actions, n))
    noise._fill(0, cols, derive_rng(6))
    z = derive_rng(6).standard_normal((num_actions, n))
    bound = num_actions * np.finfo(float).eps * (np.abs(factor) @ np.abs(z))
    assert np.all(np.abs(cols - factor @ z) <= bound)


# ------------------------------------------------------- closed form vs MC


def test_gumbel_expected_max_matches_frozen_oracle():
    res = entropy_backup(W, 1.0)
    assert res.value == pytest.approx(EV_ORACLE, abs=1e-14)
    # the oracle is the expected max under mean-zero noise, location
    # -eta * euler_gamma
    law = GumbelIid.mean_zero(1.0)
    assert law.location == -EULER_GAMMA
    assert law.regularizer().conjugate(W).value == res.value


def test_gumbel_expected_max_equals_entropy_backup():
    # the Gumbel expected max and the entropy-smoothed max are the same
    # function of the action values, policy row included.
    for eta in (0.3, 1.0, 2.5):
        ev = GumbelIid.mean_zero(eta).regularizer().conjugate(W)
        ent = entropy_backup(W, eta)
        assert ev.value == ent.value
        assert np.array_equal(ev.argmax, ent.argmax)


def test_mc_emax_agrees_with_closed_form():
    eta = 0.8
    noise = GumbelIid.mean_zero(eta, num_actions=3)
    est = mc_emax(W, noise, samples=400000, seed=4)
    closed = entropy_backup(W, eta).value
    assert abs(est.mean - closed) <= 4.0 * est.std_error
    assert est.std_error > 0


def test_mc_emax_location_zero_is_biased_up_by_eta_gamma():
    eta = 0.8
    noise = GumbelIid(eta, num_actions=3)
    est = mc_emax(W, noise, samples=400000, seed=5)
    closed = entropy_backup(W, eta).value + eta * EULER_GAMMA
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
    soft = entropy_backup(W, eta).argmax
    assert freq.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(freq - soft)) < 4.0 / np.sqrt(400000)


# ----------------------------------------------------------------- operator


def test_smdp_operator_with_common_random_numbers_converges():
    m = random_mdp(4, 3, seed=10, discount=0.85)
    noise = GumbelIid.mean_zero(0.5, num_actions=3)
    op = smdp_backup_operator(noise, samples=20000, seed=0)
    res = value_iteration(m, op, tol=1e-9)
    assert res.residual <= 1e-9
    # the fixed point tracks the closed form within Monte Carlo error
    closed = value_iteration(
        m, lambda w, s, k: (entropy_backup(w, 0.5).value,
                            entropy_backup(w, 0.5).argmax),
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


# samples per block of `_column_emax` up to 256 actions, by the rule: a sum
# and a comparison per sample, whose uint8 view is the leader, within a
# worker's budget
BLOCK = _blocks(10 ** 6, 8 + 1, WORKER_BUDGET)[0].stop


@pytest.mark.parametrize("n", [1000, BLOCK - 1, BLOCK, BLOCK + 1,
                               3 * BLOCK + 17])
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


@pytest.mark.parametrize("num_actions", [8, 300])
def test_column_emax_holds_its_results_and_the_budget(num_actions):
    # beyond `m` and `first` (9 bytes per sample, 10 past 256 actions) the
    # max holds its blocks' buffers, within a worker's budget at any n, and
    # its Python objects: no cast buffer, and no array per block
    n = 8 * BLOCK + 5
    rng = derive_rng(30, num_actions)
    w = rng.normal(size=num_actions)
    # 300 actions read one row of draws through a stride-0 view
    cols = (rng.normal(size=(8, n)) if num_actions == 8 else
            np.broadcast_to(rng.normal(size=n), (num_actions, n)))
    (_, first), peak = tracemalloc_peak(_column_emax, w, cols,
                                        warm=(w, cols[:, :2]))
    assert first.itemsize == (1 if num_actions == 8 else 2)
    assert peak <= (8 + first.itemsize) * n + WORKER_BUDGET + 4 * 1024


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
    fill = UniformPerEntry._fill

    def counting(self, state, cols, rng):
        calls.append(state)
        return fill(self, state, cols, rng)

    monkeypatch.setattr(UniformPerEntry, "_fill", counting)
    monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
    model, noise = build_uniform_counterexample(0.0, 0.25)
    samples = 1000
    # the cache, and two workers' float64 and uint8 arrays and block buffers
    need = 3 * 2 * samples * 8 + 2 * (9 * samples + 2 ** 18)
    inst = StochasticInstance(model, noise, mc_samples=samples)
    path = tmp_path / "m.json"
    save_instance(inst, path)

    monkeypatch.setattr(stochastic, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"^Monte Carlo draw cache needs "
                                         f"{need} bytes .*lower mc_samples$"):
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
    assert sorted(calls) == [0, 0, 1, 1, 2, 2]  # each state once per solve


def test_a_directly_built_mc_operator_checks_its_cache_first(monkeypatch):
    calls = []
    fill = UniformPerEntry._fill

    def counting(self, state, cols, rng):
        calls.append(state)
        return fill(self, state, cols, rng)

    monkeypatch.setattr(UniformPerEntry, "_fill", counting)
    monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
    model, noise = build_uniform_counterexample(0.0, 0.25)
    samples = 1000
    op = smdp_backup_operator(noise, samples=samples, seed=0)
    table = np.zeros((3, 2))
    # state 1 alone: a cache of one state and one worker's buffers
    need = 2 * samples * 8 + 9 * samples + 2 ** 18
    monkeypatch.setattr(stochastic, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"needs {need} bytes"):
        op(table[:1], [1], 0)
    assert calls == [] and op.draws == {}
    monkeypatch.setattr(stochastic, "_physical_memory_bytes", lambda: need)
    op(table[:1], [1], 0)
    assert calls == [1]
    # the whole model, two workers: the cache it would hold after the call
    need = 3 * 2 * samples * 8 + 2 * (9 * samples + 2 ** 18)
    monkeypatch.setattr(stochastic, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"needs {need} bytes"):
        op(table, [0, 1, 2], 0)
    assert calls == [1] and list(op.draws) == [1]
    monkeypatch.setattr(stochastic, "_physical_memory_bytes", lambda: need)
    op(table, [0, 1, 2], 0)
    assert sorted(calls) == [0, 1, 2]
    # nothing new to draw: no check
    monkeypatch.setattr(stochastic, "_physical_memory_bytes", lambda: 0)
    op(table, [0, 1, 2], 1)


def test_every_monte_carlo_draw_checks_memory_first(monkeypatch, capsys):
    # mc_emax, mc_policy and the chooser ratio allocated their draws
    # unchecked, and figure1 at a huge --mc-samples died of a MemoryError
    _, noise = build_uniform_counterexample(0.0, 0.25)
    # they hold one block of draws, no cache, and take `samples`
    monkeypatch.setattr(stochastic, "_physical_memory_bytes", lambda: 10**6)
    one_worker = 9 * 10**5 + 2 ** 18
    for draw, actions in (
            (lambda: mc_emax(np.zeros(2), noise, 10**5, seed=0), 2),
            (lambda: mc_policy(np.zeros(2), noise, 10**5, seed=0), 2),
            (lambda: noise.sample(0, 10**5, derive_rng(0, 0)), 2),
            (lambda: mc_counterexample_ratio(0.0, 0.5, samples=10**5), 1)):
        with pytest.raises(ValueError) as exc:
            draw()
        need = actions * 8 * 10**5 + one_worker
        assert str(exc.value) == (
            f"Monte Carlo draws need {need} bytes ({actions} actions x "
            "100000 samples x 8, and one worker's buffers), more than the "
            "1000000 bytes of physical memory; lower samples (--mc-samples)")
    code = main(["figure1", "--mc-samples", "100000", "--trials", "2"])
    assert code == 2
    record = json.loads(capsys.readouterr().out)["error"]
    assert "bytes of physical memory" in record["message"]


@pytest.mark.parametrize("noise", _tie_prone_noises(),
                         ids=["gumbel", "uniform", "gaussian"])
def test_the_worker_count_changes_no_output(monkeypatch, noise):
    # three workers on three states, more than the cores of a small
    # machine, switching threads every microsecond: a lost or misplaced
    # row would change the solve
    model = random_mdp(3, 3, seed=44, discount=0.8)
    outs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(stochastic, "_cpus", lambda: workers)
            inst = StochasticInstance(model, noise, mc_samples=3000, seed=9,
                                      method="mc")
            running = threading.active_count()
            solved = value_iteration(model, inst.operator(), tol=1e-10)
            result, err = inst.solve_with_error(tol=1e-10)
            assert threading.active_count() == running  # none outlives a call
            outs.append((solved, result, err))
    finally:
        sys.setswitchinterval(interval)
    first, _, error = outs[0]
    for solved, result, err in outs:
        for x in (solved, result):
            assert np.array_equal(x.value, first.value)
            assert np.array_equal(x.policy, first.policy)
            assert x.iterations == first.iterations
        assert err == error


def test_a_failed_draw_leaves_no_state_in_the_cache(monkeypatch):
    class Failing(NoiseModel):
        def sample(self, state, n, rng):
            if state == 1:
                raise RuntimeError("no draws for state 1")
            return rng.random((n, 3))

    monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
    op = smdp_backup_operator(Failing(), samples=100, seed=0)
    with pytest.raises(RuntimeError, match="state 1"):
        op(np.zeros((3, 3)), np.arange(3), 0)
    assert op.draws == {}
    op(np.zeros((2, 3)), [0, 2], 0)
    assert sorted(op.draws) == [0, 2]


def test_one_operator_across_overlapping_calls_is_the_full_table_call(
        monkeypatch):
    # cached and new states in one call, and a new state named twice: each
    # row is the fresh full-table call's, and each state is drawn once
    table = derive_rng(21).normal(size=(7, 3))
    noise = GumbelIid(0.5, num_actions=3)
    values, rows = smdp_backup_operator(noise, 500, 4)(table, np.arange(7), 2)
    calls = []
    fill = GumbelIid._fill

    def counting(self, state, cols, rng):
        calls.append(state)
        return fill(self, state, cols, rng)

    monkeypatch.setattr(GumbelIid, "_fill", counting)
    monkeypatch.setattr(stochastic, "_cpus", lambda: 3)
    op = smdp_backup_operator(noise, 500, 4)
    for idx in ([5, 0, 2], [6, 6, 1, 5], list(range(7))):
        sub_values, sub_rows = op(table[idx], np.array(idx), 2)
        assert np.array_equal(sub_values, values[idx])
        assert np.array_equal(sub_rows, rows[idx])
    assert sorted(calls) == list(range(7))
    assert list(op.draws) == [5, 0, 2, 6, 1, 3, 4]  # first seen, first in


def test_mc_solve_holds_the_cache_and_the_workers_buffers(monkeypatch):
    # a worker backing up a state holds a float64 and a uint8 array of
    # `samples` entries and the max's 256 KB of blocks; the Gaussian draws
    # need no (actions, samples) transient beside the cache
    states, actions, n = 4, 8, 50000
    model = random_mdp(states, actions, seed=45, discount=0.5)
    b = derive_rng(46).normal(size=(states, actions, actions))
    inst = StochasticInstance(model, GaussianJoint(b @ b.transpose(0, 2, 1)),
                              mc_samples=n, seed=1)
    _, peak = tracemalloc_peak(inst.solve_with_error, tol=1e-8)
    cache = states * actions * n * 8
    workers = min(stochastic._cpus(), states)
    assert peak <= cache + workers * (9 * n + 160 * 1024) + 2 ** 20


@pytest.mark.parametrize("actions", [12, 48])
def test_cli_report_does_not_depend_on_the_blas_thread_count(tmp_path,
                                                             actions):
    # an odd sample count: at 12 actions the whole product of the Gaussian
    # factor changes with OpenBLAS's thread count; at 48 the 64-sample
    # floor sets the draws' step, and every block, the last of 97 samples
    # included, stays under the 2^18 multiply-adds of one thread
    model = random_mdp(2, actions, seed=47, discount=0.5)
    b = derive_rng(48).normal(size=(2, actions, actions))
    inst = StochasticInstance(model, GaussianJoint(b @ b.transpose(0, 2, 1)),
                              mc_samples=20001, seed=2)
    path = tmp_path / "gaussian.json"
    save_instance(inst, path)
    src = Path(__file__).resolve().parent.parent / "src"
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "mdpkit.cli", "solve",
                               str(path)], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    assert reports[0] == reports[1]


# ---------------------------------------------- exact uniform-noise oracle


def _exact_uniform_backup(w, lo, hi):
    """E[max_a (w_a + eps_a)] and each P(a is the argmax), exactly, for
    independent eps_a ~ U[lo_a, hi_a] with lo_a < hi_a.

    M = max_a (w_a + eps_a) has CDF G(x) = prod_a F_a(x - w_a), so
    E[M] = H - int_L^H G over M's support [L, H], and the choice
    probability of a is int f_a(x - w_a) prod_{b != a} F_b(x - w_b) dx
    (David & Nagaraja, Order Statistics, 3rd ed., 2003).  Between the
    breakpoints w_a + lo_a and w_a + hi_a both integrands are polynomials
    of degree at most A, which Gauss-Legendre with ceil((A + 1) / 2) nodes
    per piece integrates exactly.  The probabilities are the gradient of
    E[M] in w, so Newton steps apply to a solve under this backup.
    """
    if not np.all(lo < hi):
        raise ValueError("the exact uniform backup needs lo < hi on every "
                         "entry; a point mass (lo == hi) is not handled")
    low, high = w + lo, w + hi
    top, bottom = high.max(), low.max()
    knots = np.unique(np.clip(np.concatenate([low, high]), bottom, top))
    x, weight = np.polynomial.legendre.leggauss(-(-(len(w) + 1) // 2))
    half = np.diff(knots)[:, None] / 2.0
    nodes = ((knots[:-1] + knots[1:])[:, None] / 2.0 + half * x).ravel()
    weights = (half * weight).ravel()
    cdf = np.clip((nodes[:, None] - low) / (hi - lo), 0.0, 1.0)
    value = top - weights @ cdf.prod(axis=1)
    # prod_{b != a} F_b as the product of the F_b before a and after it
    ones = np.ones((len(nodes), 1))
    before = np.cumprod(np.hstack([ones, cdf[:, :-1]]), axis=1)
    after = np.cumprod(np.hstack([ones, cdf[:, :0:-1]]), axis=1)[:, ::-1]
    density = ((nodes[:, None] > low) & (nodes[:, None] < high)) / (hi - lo)
    return value, weights @ (density * before * after)


def _exact_uniform_operator(bounds):
    """A table operator backing up each row under UniformPerEntry(bounds)."""
    def op(table, states, sweep):
        out = [_exact_uniform_backup(w, *bounds[s].T)
               for w, s in zip(table, states)]
        return np.array([v for v, _ in out]), np.array([r for _, r in out])
    return op


def _mc_over_exact_error(seed, num_states, num_actions):
    """The worst state's |Monte Carlo - exact| fixed-point value, in units
    of the Monte Carlo solve's aggregate standard error."""
    model = random_mdp(num_states, num_actions, seed=[seed, 49], discount=0.5)
    rng = derive_rng(seed, 50)
    half = rng.uniform(0.3, 1.5, (num_states, num_actions))
    center = rng.uniform(-0.5, 0.5, (num_states, num_actions))
    bounds = np.stack([center - half, center + half], axis=-1)
    exact = value_iteration(model, _exact_uniform_operator(bounds), tol=1e-10)
    assert np.allclose(exact.policy.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    mc, error = StochasticInstance(
        model, UniformPerEntry(bounds), mc_samples=200_000, seed=seed,
        method="mc").solve_with_error(tol=1e-10)
    assert error > 0.0
    return np.max(np.abs(mc.value - exact.value)) / error


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("shape", [(3, 2), (4, 5), (6, 8)])
def test_mc_solve_matches_the_exact_uniform_solve(seed, shape):
    assert _mc_over_exact_error(seed, *shape) <= 4.0


def test_exact_uniform_check_catches_a_shifted_draw(monkeypatch):
    # action 0's uniform draws shifted by +0.1 on every state
    fill = UniformPerEntry._fill

    def shifted(self, state, cols, rng):
        fill(self, state, cols, rng)
        cols[0] += 0.1

    monkeypatch.setattr(UniformPerEntry, "_fill", shifted)
    for seed in (1, 7919):
        for shape in ((3, 2), (4, 5), (6, 8)):
            assert _mc_over_exact_error(seed, *shape) > 4.0


def test_exact_uniform_backup_rejects_a_point_mass():
    with pytest.raises(ValueError, match="lo < hi"):
        _exact_uniform_backup(np.zeros(2), np.array([0.0, -1.0]),
                              np.array([0.0, 1.0]))


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


def test_figure1_helpers_read_their_scalars_and_rows_by_one_rule():
    # before: eta = 0 raised numpy's divide warning, eta = -1 reversed the
    # probabilities and NaN returned NaN; a NaN r2 returned nan and a NaN
    # beta 0.0; rows of unequal length broadcast to a claimed exact fit
    nan, inf = float("nan"), float("inf")
    scalars = [
        ("eta", lambda x: interior_policy_sweep(eta=x), (0.0, -1.0, nan)),
        ("r1", lambda x: uniform_counterexample_ratio(x, 0.5), (nan, inf)),
        ("r2", lambda x: uniform_counterexample_ratio(0.0, x), (nan, None)),
        ("beta", lambda x: uniform_counterexample_ratio(0.0, 0.5, x),
         (nan, "a")),
        ("r1", lambda x: mc_counterexample_ratio(x, 0.5, samples=10),
         (nan, -inf)),
        ("r2", lambda x: mc_counterexample_ratio(0.0, x, samples=10),
         (nan, [1.0])),
        ("beta", lambda x: mc_counterexample_ratio(0.0, 0.5, beta=x,
                                                   samples=10), (nan, inf)),
    ]
    for name, call, bad in scalars:
        for x in bad:
            with pytest.raises(ValueError, match=f"^{name} must be a finite "
                                                 "number"):
                call(x)
    with pytest.raises(ValueError, match="^ratios has 1 entries, deltas 2"):
        refute_single_eta_fit([1.0, 2.0], [1.0])
    for r in (-1.0, nan):
        with pytest.raises(ValueError, match=r"^ratios entries must be in "
                                             r"\[0, inf\]$"):
            refute_single_eta_fit([1.0, 2.0], [r, 1.0])
    with pytest.raises(ValueError, match="^deltas entries must be finite"):
        refute_single_eta_fit([nan, 2.0], [1.0, 1.0])
    # empty rows raised numpy's "zero-size array to reduction operation"
    with pytest.raises(ValueError, match="^deltas must have at least one "
                                         "entry$"):
        refute_single_eta_fit([], [])
    # a ratio of 0 (the printed ratio for t <= 0) or inf leaves no
    # temperature to fit, with no warning from its logarithm
    for r in (0.0, inf):
        assert refute_single_eta_fit([1.0, 2.0], [r, 2.0]).residual == inf
    # a small eta saturates the chooser's probabilities without a warning
    assert interior_policy_sweep(eta=1e-3, settings=3)[1].tolist() == \
        [0.0, 0.5, 1.0]


def test_mc_ratio_reproducible_and_positive():
    a = mc_counterexample_ratio(0.0, 0.4, samples=50000, seed=3)
    b = mc_counterexample_ratio(0.0, 0.4, samples=50000, seed=3)
    assert a == b
    assert a > 0


def test_a_standard_error_needs_two_samples():
    # with one draw the n - 1 divisor is 0 and the error NaN, which no
    # breach test of an equivalence check ever trips
    noise = UniformPerEntry(np.tile([-1.0, 1.0], (1, 2, 1)))
    with pytest.raises(ValueError, match="at least 2 samples, got 1"):
        mc_emax(np.zeros(2), noise, samples=1, seed=0)
    assert mc_emax(np.zeros(2), noise, samples=2, seed=0).samples == 2
    model = random_mdp(1, 2, seed=0)
    with pytest.raises(ValueError, match="mc_samples must be a positive"):
        StochasticInstance(model, noise, mc_samples=True)


def test_a_noise_table_must_fit_the_model():
    model = random_mdp(3, 2, seed=0)
    eye = np.tile(np.eye(2), (4, 1, 1))
    for noise in (UniformPerEntry(np.tile([-1.0, 1.0], (4, 2, 1))),
                  GaussianJoint(eye)):
        with pytest.raises(ModelValidationError, match=r"noise table is "
                           r"\(S, A\) = \(4, 2\), the model is \(3, 2\)"):
            StochasticInstance(model, noise)
    # a law without a per-state table fits any model with its action
    # count, and one without an action count any model at all
    assert GumbelIid(1.0, num_actions=5).num_states is None
    StochasticInstance(model, GumbelIid(1.0, num_actions=2))
    StochasticInstance(model, GumbelIid(1.0))


def test_a_law_with_only_an_action_count_must_fit_the_model():
    # the action count was skipped for a law without a state count: a
    # 5-action Gumbel law solved a 3-action model, drawing 5 columns
    with pytest.raises(ModelValidationError, match=r"^noise table is "
                       r"\(S, A\) = \(None, 5\), the model is \(3, 3\)$"):
        StochasticInstance(random_mdp(3, 3, seed=1),
                           GumbelIid(1.0, num_actions=5), method="mc")
