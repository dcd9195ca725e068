"""Acceptance gate: eight end-to-end criteria at their stated tolerances.

Run with `pytest -v` to get one pass/fail line per criterion; each test also
prints an `[acceptance N] PASS` summary (visible with `-s` or on failure).
"""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

from mdpkit import (
    AffineRegularizer,
    ChiSquareLagrangeRegularizer,
    CovarianceModel,
    CovarianceRegularizer,
    EntropyRegularizer,
    ExponentialInverseCdf,
    GumbelIid,
    GumbelInverseCdf,
    KlBall,
    KlRegularizer,
    L1Ball,
    L2ChiSquareBall,
    MarginalDistributionModel,
    MarginalMomentModel,
    MdmRegularizer,
    MmmRegularizer,
    RegularizedInstance,
    Singleton,
    StochasticInstance,
    UniformInverseCdf,
    ZeroRegularizer,
    bellman_sweep,
    ct_to_r_convert,
    derive_rng,
    ds_backup,
    ds_backup_operator,
    ds_lower_bound_check,
    entropy_backup,
    grid_oracle_backup,
    interior_policy_sweep,
    kl_backup,
    kl_constrained_backup,
    l1_constrained_backup,
    l1_dual_discrepancy,
    l2_constrained_backup,
    l2_dual_discrepancy,
    mc_emax,
    numeric_conjugate,
    q_vector,
    r_to_ct_convert,
    random_mdp,
    refute_single_eta_fit,
    regularized_backup_operator,
    smdp_backup_operator,
    standard_backup_operator,
    value_iteration,
)

from util import central_fd, random_interior, tangential_fd


def _model_suite():
    """20 deterministic random models, |S| in 2..8, |A| in 2..4, gamma 0.5/0.9."""
    sizes = list(itertools.product(range(2, 9), range(2, 5)))[:20]
    models = []
    for k, (ns, na) in enumerate(sizes):
        gamma = 0.9 if k % 2 == 0 else 0.5
        models.append(random_mdp(ns, na, seed=1300 + k, reward_range=(-2.0, 2.0),
                                 discount=gamma))
    return models


def _operator_catalog(model, rng):
    """One operator per backup family, sized for the model's action count."""
    na, ns = model.num_actions, model.num_states
    tilted = np.linspace(1.0, 2.0, na)
    tilted = tilted / tilted.sum()
    uniform = np.full(na, 1.0 / na)
    mdm = MarginalDistributionModel([[ExponentialInverseCdf(1.0)] * na] * ns)
    mmm = MarginalMomentModel(np.full((ns, na), 0.4))
    base = rng.normal(size=(na, na))
    cov = CovarianceModel(np.broadcast_to(base @ base.T / na + 0.05 * np.eye(na),
                                          (ns, na, na)).copy())
    return [
        ("standard", standard_backup_operator()),
        ("entropy", regularized_backup_operator(EntropyRegularizer(0.7))),
        ("kl", regularized_backup_operator(KlRegularizer(0.9, tilted))),
        ("ds-mdm", ds_backup_operator(mdm)),
        ("ds-mmm", ds_backup_operator(mmm)),
        ("ds-cov", ds_backup_operator(cov)),
        ("ct-kl", regularized_backup_operator(KlBall(uniform, 0.1))),
        ("ct-l1", regularized_backup_operator(L1Ball(uniform, 0.5))),
        ("ct-l2",
         regularized_backup_operator(L2ChiSquareBall(uniform, 0.2))),
        ("ct-singleton", regularized_backup_operator(Singleton(tilted))),
        ("ct-full", regularized_backup_operator(ZeroRegularizer())),
    ]


def test_criterion_1_every_operator_is_a_monotone_translating_contraction():
    start = time.perf_counter()
    for mi, model in enumerate(_model_suite()):
        gamma = model.discount
        for oi, (name, op) in enumerate(_operator_catalog(model, derive_rng(1410, mi))):
            rng = derive_rng(1400, mi, oi)
            w = rng.uniform(-3.0, 3.0, model.num_states)
            u = rng.uniform(-3.0, 3.0, model.num_states)
            c = float(rng.uniform(-4.0, 4.0))
            tw, _ = bellman_sweep(model, op, w)
            tu, _ = bellman_sweep(model, op, u)
            gap = np.max(np.abs(tw - tu))
            bound = (gamma + 1e-9) * np.max(np.abs(w - u))
            assert gap <= bound, f"{name} model {mi}: contraction {gap} > {bound}"
            twc, _ = bellman_sweep(model, op, w + c)
            shift = np.max(np.abs(twc - (tw + gamma * c)))
            assert shift <= 1e-12, f"{name} model {mi}: translation error {shift}"
            v = w + rng.uniform(0.0, 2.0, model.num_states)
            tv, _ = bellman_sweep(model, op, v)
            worst = float(np.min(tv - tw))
            assert worst >= -1e-12, f"{name} model {mi}: monotonicity {worst}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"operator property suite took {elapsed:.1f}s"
    print(f"[acceptance 1] PASS operator properties on 20 models x 11 operators "
          f"({elapsed:.1f}s)")


def test_criterion_2_soft_backup_matches_gumbel_noise_closed_and_sampled():
    start = time.perf_counter()
    eta = 1.0
    # closed form vs closed form: identical arithmetic, exact agreement
    for k in range(10):
        na = 2 + k % 3
        model = random_mdp(4, na, seed=2100 + k, reward_range=(-2.0, 2.0),
                           discount=0.85)
        soft = RegularizedInstance(model, EntropyRegularizer(eta)).solve(tol=1e-12)
        noisy = StochasticInstance(model, GumbelIid.mean_zero(eta, num_actions=na),
                                   method="closed_form").solve(tol=1e-12)
        assert np.array_equal(soft.value, noisy.value)
        assert np.array_equal(soft.policy, noisy.policy)
    # closed form vs Monte Carlo with common random numbers
    samples = 1_000_000
    for k in range(10):
        model = random_mdp(5, 3, seed=2200 + k, reward_range=(-2.0, 2.0),
                           discount=0.8)
        closed = value_iteration(model,
                                 regularized_backup_operator(EntropyRegularizer(eta)),
                                 tol=1e-12)
        noise = GumbelIid.mean_zero(eta, num_actions=3)
        op = smdp_backup_operator(noise, samples=samples, seed=2300 + k)
        mc = value_iteration(model, op, tol=1e-9)
        for s in range(model.num_states):
            q = q_vector(model, mc.value, s)
            est = mc_emax(q, noise, samples, seed=2300 + k, state=s)
            tol_s = max(1e-2, 4.0 * est.std_error)
            gap = abs(mc.value[s] - closed.value[s])
            assert gap <= tol_s, f"model {k} state {s}: value gap {gap} > {tol_s}"
        pol_gap = np.max(np.abs(mc.policy - closed.policy))
        assert pol_gap <= 4.0 / np.sqrt(samples), f"model {k}: policy gap {pol_gap}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"soft-vs-noise suite took {elapsed:.1f}s"
    print(f"[acceptance 2] PASS closed-form agreement exact, MC agreement within "
          f"4 sigma on 10 models ({elapsed:.1f}s)")


def test_criterion_3_ambiguity_set_backups_match_their_closed_forms():
    rng = derive_rng(3000)
    # unit-rate marginal-CDF set: softmax backup shifted by one
    for _ in range(10):
        na = int(rng.integers(2, 5))
        w = rng.uniform(-2.0, 2.0, na)
        mdm = MarginalDistributionModel([[ExponentialInverseCdf(1.0)] * na])
        res = ds_backup(w, mdm)
        assert abs(res.value - (1.0 + logsumexp(w))) <= 1e-9
        assert np.max(np.abs(res.argmax - softmax(w))) <= 1e-9
    # two-action moment set: closed policy formula, value against a dense grid
    grid_p = np.linspace(0.0, 1.0, 100001)
    for _ in range(10):
        w = rng.uniform(-1.5, 1.5, 2)
        sigma = float(rng.uniform(0.1, 0.8))
        mmm = MarginalMomentModel([[sigma, sigma]])
        res = ds_backup(w, mmm)
        delta = w[0] - w[1]
        p1 = 0.5 * (1.0 + delta / np.sqrt(delta * delta + 4.0 * sigma * sigma))
        assert abs(res.argmax[0] - p1) <= 1e-7
        dense = (grid_p * w[0] + (1.0 - grid_p) * w[1]
                 + 2.0 * sigma * np.sqrt(grid_p * (1.0 - grid_p)))
        assert abs(res.value - dense.max()) <= 1e-7
    # isotropic covariance set reduces to the scalar moment formula
    for _ in range(8):
        sigma = float(rng.uniform(0.2, 0.9))
        phi = CovarianceRegularizer(sigma * sigma * np.eye(2))
        for x in np.linspace(0.01, 0.99, 21):
            p = np.array([x, 1.0 - x])
            assert abs(phi.value(p) - sigma * np.sqrt(2.0 * x * (1.0 - x))) <= 1e-8
    # worst-case value upper-bounds sampled members of each set
    for k in range(10):
        na = 2 + k % 2
        crng = derive_rng(3100, k)
        w = crng.uniform(-2.0, 2.0, na)
        if k < 5:
            cdfs = [ExponentialInverseCdf(float(crng.uniform(0.5, 2.0)))] * na
        else:
            cdfs = [UniformInverseCdf(-1.0, float(crng.uniform(0.5, 2.0)))] * na
        families = [
            MarginalDistributionModel([cdfs]),
            MarginalMomentModel([crng.uniform(0.1, 0.8, na)]),
            CovarianceModel([np.diag(crng.uniform(0.05, 0.5, na))]),
        ]
        for amb in families:
            check = ds_lower_bound_check(w, amb, seed=3200 + k, samples=400000)
            assert check.ok, (f"instance {k}, {type(amb).__name__}: "
                              f"mc {check.mc_value} vs ds {check.ds_value}")
    print("[acceptance 3] PASS closed forms to 1e-9/1e-7/1e-8 and 30 lower-bound "
          "checks")


def test_criterion_4_ball_constrained_backups_agree_with_the_grid_oracle():
    specs = {
        "kl": (0.01, 0.6),
        "l1": (0.05, 1.5),
        "l2": (0.02, 0.8),
    }
    backups = {
        "kl": lambda w, ref, c: kl_constrained_backup(w, ref, c),
        "l1": lambda w, ref, c: l1_constrained_backup(w, ref, c),
        "l2": lambda w, ref, c: l2_constrained_backup(w, ref, c),
    }
    balls = {
        "kl": KlBall,
        "l1": L1Ball,
        "l2": L2ChiSquareBall,
    }
    # adjacent simplex grid points differ by one step in two coordinates, so
    # the mesh width bounding |w . dp| <= ||w||_inf ||dp||_1 is 2/steps
    for na, spacing in ((2, 2e-5), (3, 2e-3)):
        for ki, kind in enumerate(("kl", "l1", "l2")):
            lo, hi = specs[kind]
            for t in range(50):
                rng = derive_rng(4000, na, ki, t)
                w = rng.uniform(-2.0, 2.0, na)
                ref = random_interior(rng, na)
                radius = float(rng.uniform(lo, hi))
                res = backups[kind](w, ref, radius)
                gval, _ = grid_oracle_backup(w, balls[kind](ref, radius))
                tol = max(1e-5, spacing * float(np.max(np.abs(w))))
                assert res.value >= gval - 1e-9, f"{kind} |A|={na} trial {t}"
                assert abs(res.value - gval) <= tol, \
                    f"{kind} |A|={na} trial {t}: gap {abs(res.value - gval)}"
    hand = l1_constrained_backup(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 0.4)
    assert hand.value == pytest.approx(0.7, abs=1e-15)
    # dual-expression discrepancy reports; no equality asserted on the gap
    for t in range(5):
        rng = derive_rng(4100, t)
        w = rng.uniform(-2.0, 2.0, 3)
        ref = random_interior(rng, 3)
        d1 = l1_dual_discrepancy(w, ref, float(rng.uniform(0.1, 1.0)))
        assert d1.gap >= -1e-12 and d1.note
        assert d1.gap == pytest.approx(d1.value - d1.paper_dual_value, abs=1e-12)
        d2 = l2_dual_discrepancy(w, ref, float(rng.uniform(0.05, 0.5)))
        assert np.isfinite(d2.paper_dual_value) and d2.note
        assert d2.gap == pytest.approx(d2.value - d2.paper_dual_value, abs=1e-12)
    print("[acceptance 4] PASS 50 grid-oracle triples per ball kind at |A|=2,3; "
          "L1 hand case exact; discrepancy reports emitted")


def test_criterion_5_conversions_between_penalty_and_feasible_set_round_trip():
    # regularized model -> feasible-set twin reproduces the optimal policy
    for k in range(20):
        ns, na = 2 + k % 3, 2 + k % 2
        if k % 2 == 0:
            phi = EntropyRegularizer(0.4 + 0.1 * (k % 4))
            gamma = 0.9
        else:
            prng = derive_rng(5000, k)
            phi = MmmRegularizer(prng.uniform(0.2, 0.6, na))
            gamma = 0.5
        model = random_mdp(ns, na, seed=5100 + k, reward_range=(-1.0, 1.0),
                           discount=gamma)
        conv = r_to_ct_convert(model, phi)
        ct = value_iteration(conv.ct_model,
                             regularized_backup_operator(conv.constraints),
                             tol=1e-10)
        gap = np.max(np.abs(ct.policy - conv.base_policy))
        assert gap <= 1e-5, f"model {k} ({type(phi).__name__}): policy gap {gap}"
    # KL feasible sets -> multiplier-weighted penalties reproduce the value
    for k in range(20):
        ns, na = 2 + k % 3, 2 + k % 2
        model = random_mdp(ns, na, seed=5200 + k, reward_range=(-1.0, 1.0),
                           discount=0.9)
        rng = derive_rng(5300, k)
        constraints = [KlBall(random_interior(rng, na),
                              float(rng.uniform(0.02, 0.4)))
                       for _ in range(ns)]
        conv = ct_to_r_convert(model, constraints)
        back = value_iteration(model,
                               regularized_backup_operator(conv.regularizers),
                               tol=1e-10)
        vgap = np.max(np.abs(back.value - conv.ct_value))
        assert vgap <= 1e-6, f"model {k}: value gap {vgap}"
        slack = np.max(np.abs(conv.slackness))
        assert slack <= 1e-6, f"model {k}: slackness {slack}"
    print("[acceptance 5] PASS 20 penalty-to-set and 20 set-to-penalty round trips")


def test_criterion_6_strictness_witnesses_refute_the_collapsed_relations():
    # no single softmax temperature explains the uniform-noise ratio pair
    fit = refute_single_eta_fit([-0.25, -0.75], [1.0 / 3.0, 3.0])
    assert fit.residual > 0.1, f"fit residual {fit.residual}"
    # the soft backup sweeps 50 distinct interior action probabilities
    gaps, probs = interior_policy_sweep()
    assert len(np.unique(probs)) == 50
    assert np.all((probs > 0.0) & (probs < 1.0))
    assert gaps.shape == (50,)
    # a point feasible set pins the policy while the values move freely
    row = np.array([0.6, 0.3, 0.1])
    model = random_mdp(3, 3, seed=6000, reward_range=(-1.0, 1.0), discount=0.9)
    shifted = dataclasses.replace(model, reward=model.reward + 2.5)
    op = regularized_backup_operator(Singleton(row))
    res1 = value_iteration(model, op)
    res2 = value_iteration(shifted, op)
    assert np.array_equal(res1.policy, res2.policy)
    assert np.max(np.abs(res1.policy - row)) <= 1e-12
    assert np.max(np.abs(res2.value - res1.value)) > 1.0
    print("[acceptance 6] PASS ratio-pair refutation, interior sweep, and "
          "constant-policy witness")


def test_criterion_7_gradients_envelopes_and_duality_gaps_are_clean():
    rng = derive_rng(7000)
    ref3 = np.array([0.5, 0.3, 0.2])
    regularizers = [
        EntropyRegularizer(0.7),
        KlRegularizer(0.9, ref3),
        AffineRegularizer(KlRegularizer(0.6, np.array([0.25, 0.5, 0.25])),
                          offset=0.8),
        MdmRegularizer([ExponentialInverseCdf(1.3),
                        UniformInverseCdf(-0.5, 1.0),
                        GumbelInverseCdf(0.7)]),
        MmmRegularizer(np.array([0.4, 0.7, 0.2])),
        ChiSquareLagrangeRegularizer(0.8, ref3, 0.2),
        AffineRegularizer(EntropyRegularizer(0.5), 2.5),
    ]
    for phi in regularizers:
        for _ in range(5):
            p = random_interior(rng, 3)
            g = phi.gradient(p)
            fd = central_fd(phi.value, p)
            scale = max(1.0, float(np.max(np.abs(g))))
            gap = np.max(np.abs(g - fd))
            assert gap <= 1e-5 * scale, f"{type(phi).__name__}: gradient gap {gap}"
    # covariance gradient is reported up to a simplex-tangent projection
    base = rng.normal(size=(3, 3))
    cov = CovarianceRegularizer(base @ base.T / 3.0 + 0.05 * np.eye(3))
    for _ in range(5):
        p = random_interior(rng, 3)
        g = cov.gradient(p)
        scale = max(1.0, float(np.max(np.abs(g))))
        for d, der in tangential_fd(cov.value, p):
            assert abs(float(g @ d) - der) <= 1e-5 * scale
    # envelope: d(value)/dw of each backup equals its returned policy row
    w0 = np.array([1.1, -0.4, 0.3])
    mdm = MarginalDistributionModel([[ExponentialInverseCdf(1.0)] * 3])
    mmm = MarginalMomentModel([[0.4, 0.4, 0.4]])
    cases = [
        ("entropy", lambda w: entropy_backup(w, 0.7).value,
         entropy_backup(w0, 0.7).argmax),
        ("kl", lambda w: kl_backup(w, 0.9, ref3).value,
         kl_backup(w0, 0.9, ref3).argmax),
        ("ds-mdm", lambda w: ds_backup(w, mdm).value, ds_backup(w0, mdm).argmax),
        ("ds-mmm", lambda w: ds_backup(w, mmm).value, ds_backup(w0, mmm).argmax),
        ("ct-kl", lambda w: kl_constrained_backup(w, ref3, 0.15).value,
         kl_constrained_backup(w0, ref3, 0.15).argmax),
        ("ct-l2", lambda w: l2_constrained_backup(w, ref3, 0.05).value,
         l2_constrained_backup(w0, ref3, 0.05).argmax),
    ]
    for name, val_fn, policy in cases:
        fd = central_fd(val_fn, w0)
        gap = np.max(np.abs(fd - policy))
        assert gap <= 1e-5, f"{name}: envelope gap {gap}"
    # numeric conjugate closes the duality gap on entropy paths
    for _ in range(10):
        w = rng.uniform(-2.0, 2.0, 4)
        eta = float(rng.uniform(0.3, 1.5))
        phi = EntropyRegularizer(eta)
        closed = entropy_backup(w, eta)
        num = numeric_conjugate(w, phi)
        attained = float(w @ num.argmax) + phi.value(num.argmax)
        assert abs(num.value - attained) <= 1e-12
        assert abs(num.value - closed.value) <= 1e-8
    print("[acceptance 7] PASS gradient checks, envelope checks, and entropy "
          "duality gaps")


def test_criterion_8_relation_map_command_is_deterministic(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MDPKIT_")}
    outs = []
    stdouts = []
    for run in ("first", "second"):
        out = tmp_path / run
        cmd = [sys.executable, "-m", "mdpkit.cli", "figure1", "--seed", "0",
               "--trials", "6", "--mc-samples", "60000", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out)
        stdouts.append(proc.stdout)
    assert stdouts[0] == stdouts[1]
    for name in ("edges.json", "prop2_ratio.csv", "theorem3_sweep.csv"):
        first = (outs[0] / name).read_bytes()
        second = (outs[1] / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
    report = json.loads((outs[0] / "edges.json").read_text())
    assert report["all_expected"] is True
    assert len(report["edges"]) == 6
    assert all(e["verdict"] == e["expected"] for e in report["edges"])
    print("[acceptance 8] PASS byte-identical relation-map runs with all edges "
          "as expected")
