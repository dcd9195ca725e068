"""The three benchmark workloads: seeded inputs, ops, and output checks.

Every input is drawn from the workload seed.  An op is one user-level call
solved to the workload's stated tolerance: a `value_iteration` or
`solve_with_error` solve, or one `mdpkit` CLI command run in-process.
Each op carries a check that compares its output with an independent
reference; checks run after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import softmax

import mdpkit.cli as cli
import mdpkit.core as core
from mdpkit import (ConstrainedInstance, CovarianceModel,
                    DistributionalInstance, EntropyRegularizer, GaussianJoint,
                    GumbelInverseCdf, GumbelIid, KlBall, KlRegularizer, L1Ball,
                    L2ChiSquareBall, MarginalDistributionModel,
                    MarginalMomentModel, MmmRegularizer, PhiBall,
                    RegularizedInstance, StandardInstance, StochasticInstance,
                    UniformPerEntry, constraint_violation, grid_oracle_backup,
                    q_vector, random_mdp, regularizer_for,
                    validate_policy_matrix)
from mdpkit.modelio import save_instance

DENSE_TOL = 1e-8
CLI_TOL = 1e-8
MC_TOL = 1e-8
MC_SAMPLES = 200_000
FEASIBILITY_TOL = 1e-8
CONVERT_GAP_TOL = 1e-6
# the chi-square backup is known to return suboptimal rows above 12 actions;
# such an op still counts as failed, but does not mark the run incorrect
KNOWN_DEFECTS = {"solve-chi2-a16": "chi-square ball backup suboptimal above "
                                   "12 actions"}


@dataclass
class Op:
    """One timed call and the check of its output.

    `check(output, peers)` returns failure messages; `peers` maps op names
    to their outputs from the same pass, for checks that compare two ops.
    """

    name: str
    run: callable
    check: callable
    cli: bool = False
    known_defect: str | None = None


def _rng(seed, *key):
    return np.random.default_rng([int(seed), *key])


# -- independent checks ------------------------------------------------

def certificate(model, value, policy, residual, phi=None):
    """Failures of V against exact evaluation of the returned policy.

    V must equal (I - gamma P_pi)^-1 (r_pi + phi_s(pi_s)) up to the
    certified value-iteration error gamma / (1 - gamma) * residual.
    """
    value = np.asarray(value, dtype=float)
    policy = np.asarray(policy, dtype=float)
    bad = validate_policy_matrix(policy, model.num_states, model.num_actions)
    if bad:
        return ["policy: " + "; ".join(bad)]
    gamma = model.discount
    r_pi = np.einsum("sa,sa->s", policy, model.reward)
    if phi is not None:
        r_pi = r_pi + np.array([phi(s).value(policy[s])
                                for s in range(model.num_states)])
    p_pi = np.einsum("sa,sat->st", policy, model.transition)
    exact = np.linalg.solve(np.eye(model.num_states) - gamma * p_pi, r_pi)
    gap = float(np.max(np.abs(exact - value)))
    bound = gamma / (1.0 - gamma) * residual + 1e-9 * (1.0 + float(
        np.max(np.abs(exact))))
    if not gap <= bound:
        return [f"certificate gap {gap:.3e} > {bound:.3e}"]
    return []


def _chi2_slsqp(w, ref, radius, start):
    """max w.p over the chi-square ball by SLSQP, started at `start`."""
    cons = [{"type": "eq", "fun": lambda p: p.sum() - 1.0,
             "jac": lambda p: np.ones_like(p)},
            {"type": "ineq", "fun": lambda p: radius - np.sum((p - ref) ** 2
                                                              / ref),
             "jac": lambda p: -2.0 * (p - ref) / ref}]
    res = minimize(lambda p: -float(w @ p), start, jac=lambda p: -w,
                   method="SLSQP", bounds=[(0.0, 1.0)] * w.shape[0],
                   constraints=cons, options={"ftol": 1e-14, "maxiter": 500})
    p = np.clip(res.x, 0.0, None)
    p /= p.sum()
    if np.sum((p - ref) ** 2 / ref) > radius + 1e-9:
        return -np.inf
    return float(w @ p)


def constrained_checks(model, constraints, value, policy, residual):
    """Feasibility of every row, then optimality of V against a reference.

    The row at state s was computed from the previous iterate, whose action
    values differ from q(V) by at most gamma * residual; the ball maximum is
    1-Lipschitz in the sup norm, which gives the allowance below.
    """
    fails = []
    value = np.asarray(value, dtype=float)
    policy = np.asarray(policy, dtype=float)
    drift = model.discount * residual + 1e-9
    for s in range(model.num_states):
        con = constraints[s] if isinstance(constraints, list) else constraints
        viol = constraint_violation(con, policy[s])
        if not viol <= FEASIBILITY_TOL:
            fails.append(f"state {s}: infeasible row, violation {viol:.3e}")
            continue
        w = q_vector(model, value, s)
        if model.num_actions <= 3:
            res = 200 if isinstance(con, PhiBall) else 1000
            gval, _ = grid_oracle_backup(w, con, resolution=res)
            tol = max(1e-5, 2.0 / res * float(np.max(np.abs(w)))) + drift
            if not abs(value[s] - gval) <= tol:
                fails.append(f"state {s}: grid oracle gap "
                             f"{abs(value[s] - gval):.3e} > {tol:.3e}")
        elif isinstance(con, L2ChiSquareBall):
            best = max(_chi2_slsqp(w, con.reference, con.radius, start)
                       for start in (con.reference, policy[s]))
            if not value[s] >= best - drift - 1e-7:
                fails.append(f"state {s}: {best - value[s]:.3e} below the "
                             f"SLSQP optimum")
    return fails


# -- dense_closed_form ---------------------------------------------------

def dense_closed_form(seed, out_dir):
    """value_iteration on dense random kernels, closed-form backups only."""
    eta = 0.5
    m200 = random_mdp(200, 10, seed=[seed, 1, 0], discount=0.9)
    m1000 = random_mdp(1000, 20, seed=[seed, 1, 1], discount=0.9)
    tilt = softmax(_rng(seed, 1, 2).normal(size=10))
    entropy = EntropyRegularizer(eta)
    kl = KlRegularizer(eta, tilt)
    specs = [
        ("standard-200x10", StandardInstance(m200), None),
        ("entropy-200x10", RegularizedInstance(m200, entropy),
         lambda s: entropy),
        ("kl-200x10", RegularizedInstance(m200, kl), lambda s: kl),
        ("gumbel-cf-200x10",
         StochasticInstance(m200, GumbelIid.mean_zero(eta),
                            method="closed_form"), lambda s: entropy),
        ("standard-1000x20", StandardInstance(m1000), None),
    ]

    def make(name, inst, phi):
        def run():
            return core.value_iteration(inst.model, inst.operator(),
                                        tol=DENSE_TOL)

        def check(out, peers):
            fails = certificate(inst.model, out.value, out.policy,
                                out.residual, phi)
            other = peers.get("entropy-200x10")
            if name == "gumbel-cf-200x10" and other is not None:
                gap = float(np.max(np.abs(out.value - other.value)))
                if not gap <= 1e-8:
                    fails.append(f"gumbel vs entropy value gap {gap:.3e}")
            return fails

        return Op(name, run, check)

    return [make(*spec) for spec in specs]


# -- small_inner_cli -----------------------------------------------------

def _cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _report(out):
    code, text = out
    if code != 0:
        raise RuntimeError(f"exit code {code}: {text.strip()[:200]}")
    return json.loads(text)


# pass order: the ops near the median latency (0.5 to 1 s each) alternate
# with the long ones, so the latencies that set op_p50_ms are taken far apart
# in time and average more of the machine's speed drift
CLI_ORDER = ("solve-kl-ball", "figure1", "convert-ct2r-kl-ball",
             "solve-phi-ball", "compare-entropy-gumbel-cf", "solve-chi2-a12",
             "convert-r2ct-entropy", "solve-robust-cov", "convert-ct2r-chi2",
             "solve-chi2-a16", "compare-entropy-standard", "solve-chi2-a3",
             "solve-robust-mdm", "solve-l1-ball", "solve-robust-mmm")


def small_inner_cli(seed, out_dir):
    """Tiny models through the mdpkit CLI; inner solvers dominate."""
    models = os.path.join(out_dir, "models")
    os.makedirs(models, exist_ok=True)
    gamma = 0.5
    rng = _rng(seed, 2)

    # sizes are fixed per model and every state draws its own set, so the
    # inner-solver work of a pass averages over many draws on every seed;
    # the chi-square backup's cost grows with the radius, hence its narrow
    # radius band
    def base(k, states, actions):
        return random_mdp(states, actions, seed=[seed, 2, k], discount=gamma)

    def balls(m, kind, lo, hi):
        a = m.num_actions
        return [kind(rng.dirichlet(np.full(a, 2.0)), float(rng.uniform(lo, hi)))
                for _ in range(m.num_states)]

    def phi_ball():
        phi = MmmRegularizer(rng.uniform(0.2, 1.0, 3))
        level = phi.value(np.full(3, 1.0 / 3.0))
        return PhiBall(phi, -float(rng.uniform(0.3, 0.8)) * level)

    instances = {}
    m = base(0, 6, 3)
    instances["solve-kl-ball"] = ConstrainedInstance(
        m, balls(m, KlBall, 0.05, 0.5))
    m = base(1, 6, 3)
    instances["solve-l1-ball"] = ConstrainedInstance(
        m, balls(m, L1Ball, 0.1, 1.0))
    for k, states, actions in ((2, 6, 3), (3, 2, 12), (4, 3, 16)):
        m = base(k, states, actions)
        instances[f"solve-chi2-a{actions}"] = ConstrainedInstance(
            m, balls(m, L2ChiSquareBall, 0.3, 0.5))
    m = base(5, 6, 3)
    instances["solve-phi-ball"] = ConstrainedInstance(
        m, [phi_ball() for _ in range(m.num_states)])
    m = base(6, 5, 4)
    instances["solve-robust-mmm"] = DistributionalInstance(
        m, MarginalMomentModel(rng.uniform(0.2, 1.0, (m.num_states, 4))))
    m = base(7, 5, 4)
    b = rng.normal(size=(m.num_states, 4, 4))
    instances["solve-robust-cov"] = DistributionalInstance(
        m, CovarianceModel(np.einsum("sij,skj->sik", b, b) / 4.0
                           + 0.2 * np.eye(4)))
    m = base(8, 6, 4)
    cdf = GumbelInverseCdf(1.0)
    instances["solve-robust-mdm"] = DistributionalInstance(
        m, MarginalDistributionModel([[cdf] * 4] * m.num_states))
    m = base(9, 6, 4)
    instances["convert-r2ct-entropy"] = RegularizedInstance(
        m, EntropyRegularizer(float(rng.uniform(0.5, 1.5))))
    m = base(10, 6, 3)
    instances["convert-ct2r-kl-ball"] = ConstrainedInstance(
        m, balls(m, KlBall, 0.05, 0.5))
    m = base(11, 6, 4)
    instances["convert-ct2r-chi2"] = ConstrainedInstance(
        m, balls(m, L2ChiSquareBall, 0.3, 0.5))
    m = base(12, 6, 4)
    eta = float(rng.uniform(0.5, 1.5))
    instances["x-entropy"] = RegularizedInstance(m, EntropyRegularizer(eta))
    instances["y-gumbel-cf"] = StochasticInstance(
        m, GumbelIid.mean_zero(eta), method="closed_form")
    instances["y-standard"] = StandardInstance(m)

    paths = {}
    for name, inst in instances.items():
        paths[name] = os.path.join(models, name + ".json")
        save_instance(inst, paths[name])

    common = ["--tol", repr(CLI_TOL), "--seed", str(seed)]
    ops = []
    for name, inst in instances.items():
        if name.startswith("solve-"):
            ops.append(_solve_op(name, inst, paths[name], common))
        elif name.startswith("convert-"):
            direction = name.split("-")[1]
            argv = ["convert", paths[name], "--direction", direction,
                    "--out", os.path.join(out_dir, "out", name)] + common
            ops.append(Op(name, lambda argv=argv: _cli_run(argv),
                          _convert_check, cli=True))
    for y, verdict in (("y-gumbel-cf", "consistent"),
                       ("y-standard", "refuted")):
        argv = ["compare", paths["x-entropy"], paths[y], "--trials", "10"] \
            + common
        ops.append(Op("compare-entropy-" + y[2:],
                      lambda argv=argv: _cli_run(argv),
                      _verdict_check(verdict), cli=True))
    argv = ["figure1", "--trials", "5", "--mc-samples", "100000"] + common
    ops.append(Op("figure1", lambda: _cli_run(argv), _figure1_check,
                  cli=True))
    by_name = {op.name: op for op in ops}
    return [by_name[name] for name in CLI_ORDER]



def _solve_op(name, inst, path, common):
    argv = ["solve", path] + common
    model = inst.model
    if isinstance(inst, DistributionalInstance):
        def phi(s):
            return regularizer_for(inst.ambiguity, s)
    else:
        phi = None

    def check(out, peers):
        rep = _report(out)
        fails = certificate(model, rep["value"], rep["policy"],
                            rep["residual"], phi)
        if isinstance(inst, ConstrainedInstance):
            fails += constrained_checks(model, inst.constraints, rep["value"],
                                        rep["policy"], rep["residual"])
        return fails

    return Op(name, lambda: _cli_run(argv), check, cli=True,
              known_defect=KNOWN_DEFECTS.get(name))


def _convert_check(out, peers):
    ver = _report(out)["verification"]
    gaps = {k: ver[k] for k in ("policy_sup_gap", "value_sup_gap")
            if k in ver}
    return [f"{k} {v:.3e} > {CONVERT_GAP_TOL}" for k, v in gaps.items()
            if not v <= CONVERT_GAP_TOL]


def _verdict_check(expected):
    def check(out, peers):
        verdict = _report(out)["verdict"]
        return [] if verdict == expected else [f"verdict {verdict!r}, "
                                               f"expected {expected!r}"]
    return check


def _figure1_check(out, peers):
    rep = _report(out)
    return [] if rep["all_expected"] is True else ["all_expected is false"]


# -- monte_carlo ---------------------------------------------------------

def monte_carlo(seed, out_dir):
    """Monte Carlo expected-max solves with common random numbers."""
    actions = 8
    model = random_mdp(8, actions, seed=[seed, 3, 0], discount=0.5)
    rng = _rng(seed, 3, 1)
    eta = float(rng.uniform(0.4, 0.8))
    half = rng.uniform(0.3, 1.5, (model.num_states, actions))
    b = rng.normal(size=(model.num_states, actions, actions))
    cov = np.einsum("sij,skj->sik", b, b) / actions + 0.05 * np.eye(actions)
    # each noise law with the instance its Monte Carlo values are checked
    # against: the closed form, or the robust model whose set contains it
    specs = [
        ("mc-gumbel", GumbelIid.mean_zero(eta),
         RegularizedInstance(model, EntropyRegularizer(eta)), "equal"),
        ("mc-uniform", UniformPerEntry(np.stack([-half, half], axis=-1)),
         DistributionalInstance(
             model, MarginalMomentModel(half / np.sqrt(3.0))), "below"),
        ("mc-gaussian", GaussianJoint(cov),
         DistributionalInstance(model, CovarianceModel(cov)), "below"),
    ]
    mc_seed = int(_rng(seed, 3, 2).integers(2 ** 31))

    def make(name, noise, reference, relation):
        inst = StochasticInstance(model, noise, mc_samples=MC_SAMPLES,
                                  seed=mc_seed, method="mc")
        cached = {}

        def run():
            return inst.solve_with_error(tol=MC_TOL)

        def check(out, peers):
            result, err = out
            bad = validate_policy_matrix(result.policy, model.num_states,
                                         model.num_actions)
            if bad:
                return ["policy: " + "; ".join(bad)]
            if "ref" not in cached:
                cached["ref"] = reference.solve(tol=1e-10).value
            diff = result.value - cached["ref"]
            slack = 4.0 * err
            worst = float(np.max(np.abs(diff) if relation == "equal"
                                 else diff))
            if not worst <= slack:
                return [f"{relation} check: {worst:.3e} > 4 SE = {slack:.3e}"]
            return []

        return Op(name, run, check)

    return [make(*spec) for spec in specs]


WORKLOADS = {
    "dense_closed_form": dense_closed_form,
    "small_inner_cli": small_inner_cli,
    "monte_carlo": monte_carlo,
}
