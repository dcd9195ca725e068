"""Randomized equivalence certification between framework instances.

Two instances over the same (states, actions, transitions, discount) tuple
are compared by solving both under many sampled reward tables (one side
shifted by a constant offset table) and measuring value / policy sup gaps.
A `consistent` verdict is evidence over N trials, never a proof; refutations
carry a replayable reward witness; Monte Carlo paths can only downgrade to
`inconclusive`, never refute.

`counterexample_suite` packages the nested-relation map between the five
frameworks as checked edges: the entropy/Gumbel equivalence, the strictness
of noisy rewards over the Gumbel special case (uniform-noise ratio witness),
the regularized/robust equivalence (two ambiguity families), containment
of stochastic models in the robust family, and the two-sided incomparability
of feasible-set models with regularized ones.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .constrained import Singleton, ZeroRegularizer
from .core import (ConvergenceError, ModelValidationError, SolveResult,
                   _array, _count, _param, _per_state, derive_rng, q_vector,
                   value_iteration)
from .distributional import (ExponentialInverseCdf, MarginalDistributionModel,
                             MarginalMomentModel, MdmRegularizer,
                             regularizer_for)
from .regularized import (AffineRegularizer, EntropyRegularizer,
                          numeric_conjugate, regularized_backup_operator)
from .stochastic import (GumbelIid, build_uniform_counterexample,
                         mc_counterexample_ratio, refute_single_eta_fit,
                         smdp_backup_operator, uniform_counterexample_ratio)


class StructureMismatchError(ValueError):
    """Compared instances do not share (S, A, transition, discount)."""


class FrameworkInstance:
    """One tagged model: a base MdpModel plus framework-specific structure."""

    monte_carlo = False

    def __init__(self, model):
        self.model = model

    def with_rewards(self, reward):
        """This instance, its structure shared, on another reward table."""
        m = self.model
        twin = copy.copy(self)
        twin.model = replace(m, reward=np.broadcast_to(
            _array(reward, "reward"), (m.num_states, m.num_actions)))
        return twin

    def _fits(self, what, table):
        """ModelValidationError unless a law's counts are the model's (S, A).

        A count the law leaves None fits any model: a law with no table
        fits every model, and one given only `num_actions` (i.i.d. Gumbel)
        every model with that many actions.
        """
        have = (table.num_states, table.num_actions)
        want = (self.model.num_states, self.model.num_actions)
        if any(h not in (None, w) for h, w in zip(have, want)):
            raise ModelValidationError(
                [f"{what} table is (S, A) = {have}, the model is {want}"])

    def _rows_fit(self, what, objs):
        """ModelValidationError unless each object's row has the model's A
        entries (`num_actions`; None fits any A).

        `objs` is one object for every state, or one per state (`_per_state`
        checks the count).
        """
        each = _per_state(objs, self.model.num_states, what)
        want = self.model.num_actions
        for s, obj in enumerate(objs if each else [objs]):
            if obj.num_actions not in (None, want):
                at = f" at state {s}" if each else ""
                raise ModelValidationError(
                    [f"{what} {type(obj).__name__}{at} has "
                     f"{obj.num_actions} actions, the model has {want}"])

    def operator(self):
        raise NotImplementedError

    def solve(self, tol=1e-10, max_iter=100000) -> SolveResult:
        return value_iteration(self.model, self.operator(), tol=tol,
                               max_iter=max_iter)

    def solve_with_error(self, tol=1e-10, max_iter=100000):
        """(SolveResult, aggregate MC std error); the error is 0 when exact."""
        return self._solve_rewards(self.model.reward[None], tol, max_iter)[0]

    def _solve_rewards(self, rewards, tol, max_iter):
        """[(SolveResult, MC std error)] for an (N, S, A) stack of reward
        tables on this kernel: one stacked `value_iteration` with one
        operator, each entry equal to `with_rewards(r).solve_with_error`.

        The error is 0 unless the operator has `std_errors` (the Monte
        Carlo one, over the draws of the solve, so each state is drawn
        once for the whole stack): then it is the worst state's standard
        error at the solved values, over 1 - discount.
        """
        m, op = self.model, self.operator()
        results = value_iteration(m, op, tol=tol, max_iter=max_iter,
                                  rewards=rewards)
        if not hasattr(op, "std_errors"):
            return [(r, 0.0) for r in results]
        q = q_vector(m, np.array([r.value for r in results]), reward=rewards)
        states = np.tile(np.arange(m.num_states), len(results))
        errors = op.std_errors(q.reshape(len(states), -1), states)
        worst = errors.reshape(len(results), -1).max(axis=1)
        return [(r, float(e) / (1.0 - m.discount))
                for r, e in zip(results, worst)]


class StandardInstance(FrameworkInstance):
    """phi = 0: the hard max, one `standard_backup` call per sweep."""

    def operator(self):
        return regularized_backup_operator(ZeroRegularizer())


class RegularizedInstance(FrameworkInstance):
    def __init__(self, model, phi_per_state):
        super().__init__(model)
        self._rows_fit("regularizer", phi_per_state)
        self.phi_per_state = phi_per_state

    def operator(self):
        return regularized_backup_operator(self.phi_per_state)


class StochasticInstance(FrameworkInstance):
    """Noisy-reward instance; a noise law with a regularizer (i.i.d.
    Gumbel) solves in closed form by default.

    method: "auto" (closed form when the noise law has a regularizer,
    Monte Carlo otherwise), "closed_form", or "mc".
    """

    def __init__(self, model, noise, mc_samples=100000, seed=0, method="auto"):
        super().__init__(model)
        self.mc_samples = _count(mc_samples, "mc_samples")
        self.seed = _count(seed, "seed", 0)
        if method not in ("auto", "closed_form", "mc"):
            raise ValueError("method must be 'auto', 'closed_form' or 'mc', "
                             f"got {method!r}")
        self._fits("noise", noise)
        self.noise = noise
        if method == "auto":
            method = "mc" if noise.regularizer is None else "closed_form"
        if method == "closed_form" and noise.regularizer is None:
            raise ValueError("closed form requires i.i.d. Gumbel noise")
        self.method = method

    @property
    def monte_carlo(self):
        return self.method == "mc"

    def operator(self):
        if self.method == "closed_form":
            return regularized_backup_operator(self.noise.regularizer())
        return smdp_backup_operator(self.noise, self.mc_samples, self.seed)

    # its own entry in the class namespace, which bench/spans.py wraps
    solve_with_error = FrameworkInstance.solve_with_error


class DistributionalInstance(FrameworkInstance):
    def __init__(self, model, ambiguity):
        super().__init__(model)
        self._fits("ambiguity", ambiguity)
        self.ambiguity = ambiguity

    def operator(self):
        # robust value iteration is regularized value iteration under the
        # equivalent phi of each state
        return regularized_backup_operator(
            [regularizer_for(self.ambiguity, s)
             for s in range(self.model.num_states)])


class ConstrainedInstance(FrameworkInstance):
    def __init__(self, model, constraints):
        super().__init__(model)
        self._rows_fit("constraint", constraints)
        self.constraints = constraints

    def operator(self):
        return regularized_backup_operator(self.constraints)


@dataclass
class EquivalenceReport:
    verdict: str
    trials: int
    offset: np.ndarray
    tol: float
    value_gaps: list
    policy_gaps: list
    mc_backed: bool
    tol_inflation: float
    witness: dict | None = None


def _trial_rewards(shape, trials, seed):
    """Uniform [-5, 5] tables plus fixed adversarial corners."""
    rewards = []
    for t in range(trials):
        rng = derive_rng(seed, t)
        rewards.append(rng.uniform(-5.0, 5.0, size=shape))
    rewards.append(np.zeros(shape))                      # full ties
    tied = np.repeat(derive_rng(seed, trials).uniform(-5, 5, size=(shape[0], 1)),
                     shape[1], axis=1)
    rewards.append(tied)                                 # per-state ties
    gap = np.full(shape, -50.0)
    gap[:, 0] = 50.0
    rewards.append(gap)                                  # large gaps
    return rewards


def check_equivalence(x, y, offset=0.0, trials=50, seed=0, tol=1e-8,
                      solve_tol=1e-10, max_iter=100000) -> EquivalenceReport:
    """Definition-style randomized comparison: x under r vs y under r - offset.

    Deterministic gaps above tol refute (with a stored witness).  When either
    side is Monte Carlo the tolerance is inflated by 4x the aggregate std
    error (plus the sampling scale for policies) and a breach is reported as
    inconclusive rather than refuted.  Every solve runs to solve_tol within
    max_iter sweeps, or raises ConvergenceError: the one that solving x and
    then y under each table in turn would raise first.  Each side solves
    all its tables as one stacked `value_iteration` with one operator, so a
    Monte Carlo side draws each state once.
    """
    tol, trials = _param(tol, "tol", 0.0), _count(trials, "trials", 0)
    mx, my = x.model, y.model
    if (mx.num_states, mx.num_actions) != (my.num_states, my.num_actions):
        raise StructureMismatchError(
            f"state/action shape mismatch: {(mx.num_states, mx.num_actions)} "
            f"vs {(my.num_states, my.num_actions)}")
    if not np.array_equal(mx.transition, my.transition) \
            or mx.discount != my.discount:
        raise StructureMismatchError(
            "compared instances must share transitions and discount")
    shape = (mx.num_states, mx.num_actions)
    offset = _array(offset, "offset")
    try:
        offset = np.broadcast_to(offset, shape)
    except ValueError:
        raise ValueError(f"offset of shape {offset.shape} does not fit the "
                         f"models' (S, A) = {shape}") from None
    mc_backed = x.monte_carlo or y.monte_carlo
    policy_noise = 0.0
    for side in (x, y):
        if side.monte_carlo:
            policy_noise += 4.0 / np.sqrt(side.mc_samples)
    rewards = np.array(_trial_rewards(shape, trials, seed))
    try:
        solved_x = x._solve_rewards(rewards, solve_tol, max_iter)
    except ConvergenceError as exc:
        # trial by trial, y's trials before x's failing one come first
        if exc.trial:
            y._solve_rewards(rewards[:exc.trial] - offset, solve_tol,
                             max_iter)
        raise
    solved_y = y._solve_rewards(rewards - offset, solve_tol, max_iter)
    value_gaps, policy_gaps = [], []
    witness = None
    worst_inflation = 0.0
    for r, (rx, ex), (ry, ey) in zip(rewards, solved_x, solved_y):
        vgap = float(np.max(np.abs(rx.value - ry.value)))
        pgap = float(np.max(np.abs(rx.policy - ry.policy)))
        value_gaps.append(vgap)
        policy_gaps.append(pgap)
        inflation = 4.0 * (ex + ey)
        worst_inflation = max(worst_inflation, inflation)
        breached = vgap > tol + inflation or pgap > tol + policy_noise + inflation
        if breached and witness is None:
            witness = {"reward": r, "value_gap": vgap, "policy_gap": pgap,
                       "policy_x": rx.policy, "policy_y": ry.policy}
    if witness is None:
        verdict = "consistent"
    elif mc_backed:
        verdict = "inconclusive"
    else:
        verdict = "refuted"
    return EquivalenceReport(verdict=verdict, trials=len(value_gaps),
                             offset=offset, tol=tol, value_gaps=value_gaps,
                             policy_gaps=policy_gaps, mc_backed=mc_backed,
                             tol_inflation=worst_inflation, witness=witness)


@dataclass
class EdgeReport:
    name: str
    relation: str
    verdict: str
    expected: str
    details: dict


@dataclass
class NestedRelationReport:
    seed: int
    edges: list

    def all_expected(self) -> bool:
        return all(e.verdict == e.expected for e in self.edges)


def interior_policy_sweep(eta=1.0, settings=50):
    """Reward gaps and the soft chooser's optimal first-action probabilities.

    Every probability is interior and distinct, which is the sweep witness
    that no feasible-set model reproduces a soft backup.
    """
    eta = _param(eta, "eta", 0.0, strict=True)
    gaps = np.linspace(-3.0, 3.0, _count(settings, "settings"))
    with np.errstate(over="ignore"):  # exp(inf): a probability of 0
        return gaps, 1.0 / (1.0 + np.exp(-gaps / eta))


def counterexample_suite(seed=0, trials=20, mc_samples=200000) -> NestedRelationReport:
    """Run every nested-relation edge check and collect the witnesses."""
    edges = []
    base = _random_base_model(seed)

    # entropy-regularized == Gumbel expected-value (closed form, exact)
    er = RegularizedInstance(base, EntropyRegularizer(1.0))
    ev = StochasticInstance(base, GumbelIid.mean_zero(1.0), method="closed_form")
    rep = check_equivalence(er, ev, trials=trials, seed=seed, tol=1e-8)
    edges.append(EdgeReport(
        name="entropy-regularized-equals-gumbel-expected-value",
        relation="ER == EV", verdict=_expectify(rep.verdict, "consistent"),
        expected="holds",
        details={"trials": rep.trials,
                 "max_value_gap": max(rep.value_gaps),
                 "max_policy_gap": max(rep.policy_gaps)}))

    # entropy-regularized strictly contains standard (interior-policy witness)
    std = StandardInstance(base)
    rep_std = check_equivalence(er, std, trials=trials, seed=seed + 1, tol=1e-8)
    edges.append(EdgeReport(
        name="regularized-strictly-contains-standard",
        relation="ER > standard",
        verdict="holds" if rep_std.verdict == "refuted" else "failed",
        expected="holds",
        details={"trials": rep_std.trials,
                 "witness_value_gap": rep_std.witness["value_gap"]
                 if rep_std.witness else None}))

    # stochastic strictly contains expected-value (uniform-noise ratio pair)
    ratios_printed = [uniform_counterexample_ratio(0.0, t) for t in (0.25, 0.75)]
    ratios_mc = [mc_counterexample_ratio(0.0, t, samples=mc_samples,
                                         seed=seed + 7) for t in (0.25, 0.75)]
    fit = refute_single_eta_fit([-0.25, -0.75], ratios_printed)
    fit_mc = refute_single_eta_fit([-0.25, -0.75], ratios_mc)
    edges.append(EdgeReport(
        name="stochastic-strictly-contains-expected-value",
        relation="S > EV",
        verdict="holds" if min(fit.residual, fit_mc.residual) > 0.1 else "failed",
        expected="holds",
        details={"ratio_pair_printed": ratios_printed,
                 "ratio_pair_mc": ratios_mc,
                 "fit_residual_printed": fit.residual,
                 "fit_residual_mc": fit_mc.residual,
                 "containment": "every expected-value model is a stochastic "
                                "model with i.i.d. Gumbel noise"}))

    # regularized == distributionally robust (two ambiguity families)
    ds_edge = _r_equals_ds_edge(base, seed)
    edges.append(ds_edge)

    # regularized strictly contains stochastic
    edges.append(EdgeReport(
        name="regularized-strictly-contains-stochastic",
        relation="R > S",
        verdict="holds" if ds_edge.verdict == "holds"
                and edges[0].verdict == "holds" else "failed",
        expected="holds",
        details={"containment": "a noisy-reward model is a robust model with "
                                "a singleton ambiguity set, hence regularized "
                                "by the equivalence edge",
                 "strictness": "cited result: for three or more actions some "
                               "conjugate backup matches no noise "
                               "distribution (not constructive here)"}))

    # feasible-set models incomparable with regularized ones, both directions
    edges.append(_ct_incomparability_edge(seed))
    return NestedRelationReport(seed=seed, edges=edges)


def _expectify(verdict, good):
    if verdict == good:
        return "holds"
    if verdict == "refuted":
        return "refuted-unexpectedly"
    return "failed"


def _random_base_model(seed):
    from .core import random_mdp

    return random_mdp(4, 3, seed=[seed, 1000], reward_range=(-5.0, 5.0),
                      discount=0.9)


def _r_equals_ds_edge(base, seed):
    mdm = MarginalDistributionModel(
        [[ExponentialInverseCdf(1.0)] * base.num_actions] * base.num_states)
    ds_sol, bit_identical = _same_path_check(
        base, mdm, AffineRegularizer(EntropyRegularizer(1.0), offset=1.0))
    # cross-path check: numeric mirror ascent on the same regularizer
    w = q_vector(base, ds_sol.value, 0)
    closed = MdmRegularizer(mdm.inverse_cdfs[0]).conjugate(w)
    numeric = numeric_conjugate(w, MdmRegularizer(mdm.inverse_cdfs[0]))
    cross_gap = abs(closed.value - numeric.value)
    mmm = MarginalMomentModel(np.full((base.num_states, base.num_actions), 0.7))
    mmm_bit = _same_path_check(
        base, mmm, [regularizer_for(mmm, s) for s in range(base.num_states)])[1]
    ok = bit_identical and cross_gap < 1e-6 and mmm_bit
    return EdgeReport(
        name="regularized-equals-distributionally-robust",
        relation="R == DS",
        verdict="holds" if ok else "failed",
        expected="holds",
        details={"families": ["marginal-cdf", "marginal-moment"],
                 "exponential_mdm_bit_identical": bit_identical,
                 "closed_vs_numeric_gap": cross_gap,
                 "marginal_moment_bit_identical": mmm_bit,
                 "note": "robust value iteration reuses the regularized "
                         "operator on the equivalent phi (same code path)"})


def _same_path_check(base, ambiguity, phi):
    """The robust solve, and whether the solve under phi matches its bits."""
    a = DistributionalInstance(base, ambiguity).solve()
    b = RegularizedInstance(base, phi).solve()
    return a, bool(np.array_equal(a.value, b.value)
                   and np.array_equal(a.policy, b.policy))


def _ct_incomparability_edge(seed):
    # (a) the soft chooser's optimal row sweeps distinct interior points, so
    # a matching feasible set would have to be the whole simplex, whose
    # optima are deterministic
    _, sweep = interior_policy_sweep(eta=1.0, settings=50)
    interior = np.all((sweep > 1e-6) & (sweep < 1.0 - 1e-6))
    distinct = len(np.unique(sweep)) == sweep.shape[0]

    # (b) a singleton feasible set keeps the policy constant while the value
    # moves; a regularizer matching it at reward gap g would need
    # phi(e2) - phi(e1) >= g, impossible once g exceeds the range of phi
    model, _ = build_uniform_counterexample(0.0, 0.0, discount=0.5)
    ct = ConstrainedInstance(model, [Singleton(np.array([1.0, 0.0])),
                                     Singleton(np.array([1.0, 0.0])),
                                     Singleton(np.array([1.0, 0.0]))])
    probes = {}
    rows = []
    values = []
    for r0 in ([0.0, 0.0], [5.0, 10.0]):
        r = np.zeros((3, 2))
        r[0] = r0
        sol = ct.with_rewards(r).solve()
        rows.append(sol.policy[0].copy())
        values.append(float(sol.value[0]))
    constant_policy = bool(np.allclose(rows[0], rows[1], atol=1e-12))
    value_moved = abs(values[0] - values[1]) > 1.0
    for eta in (0.5, 1.0, 2.0):
        phi = EntropyRegularizer(eta)
        bound = phi.value(np.array([0.5, 0.5])) - phi.value(np.array([1.0, 0.0]))
        r = np.zeros((3, 2))
        r[0] = [0.0, bound + 1.0]
        reg_sol = RegularizedInstance(model, phi).with_rewards(r).solve()
        probes[f"entropy_eta_{eta}"] = {
            "phi_range_bound": float(bound),
            "reward_gap": float(bound + 1.0),
            "first_action_probability": float(reg_sol.policy[0, 0]),
        }
    probe_ok = all(p["first_action_probability"] < 0.5 for p in probes.values())
    ok = interior and distinct and constant_policy and value_moved and probe_ok
    return EdgeReport(
        name="feasible-set-incomparable-with-regularized",
        relation="CT <> R",
        verdict="holds" if ok else "failed",
        expected="holds",
        details={"interior_sweep_settings": int(sweep.shape[0]),
                 "interior_sweep_distinct": distinct,
                 "interior_sweep_all_interior": interior,
                 "singleton_policy_constant": constant_policy,
                 "singleton_value_change": abs(values[0] - values[1]),
                 "singleton_rows": [rows[0].tolist(), rows[1].tolist()],
                 "bounded_regularizer_probes": probes})
