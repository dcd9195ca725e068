"""Tests of the benchmark itself: metric names, failure counting, spans.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import mdpkit.core as core  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mdpkit import (ConstrainedInstance, EntropyRegularizer, KlBall,  # noqa: E402
                    L2ChiSquareBall, RegularizedInstance, StandardInstance,
                    random_mdp)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny_workload(perturb=0.0):
    def build(seed, out_dir):
        inst = RegularizedInstance(random_mdp(4, 3, seed=[seed, 9],
                                              discount=0.9),
                                   EntropyRegularizer(0.5))

        def solve():
            out = core.value_iteration(inst.model, inst.operator(), tol=1e-8)
            out.value = out.value + perturb
            return out

        def check(out, peers):
            return workloads.certificate(inst.model, out.value, out.policy,
                                         out.residual,
                                         lambda s: inst.phi_per_state)

        return [workloads.Op("tiny-entropy", solve, check)]
    return build


def _main(monkeypatch, tmp_path, trace, perturb=0.0):
    monkeypatch.setitem(workloads.WORKLOADS, "monte_carlo",
                        _tiny_workload(perturb))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_WINDOW", 0.0)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "monte_carlo", "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_the_spec(monkeypatch, tmp_path, trace,
                                             key):
    result = _main(monkeypatch, tmp_path, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC[key]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == spec


def test_perturbed_value_counts_as_failed(monkeypatch, tmp_path):
    result = _main(monkeypatch, tmp_path, 0, perturb=1e-6)
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False
    assert result["metrics"]["passed_frac"]["value"] == 0.0


def test_certificate_accepts_the_solve_and_rejects_a_perturbation():
    model = random_mdp(5, 3, seed=1, discount=0.9)
    sol = StandardInstance(model).solve(tol=1e-8)
    assert workloads.certificate(model, sol.value, sol.policy,
                                 sol.residual) == []
    bumped = sol.value.copy()
    bumped[2] += 1e-6
    assert workloads.certificate(model, bumped, sol.policy, sol.residual)


def test_infeasible_row_counts_as_failed():
    model = random_mdp(3, 3, seed=2, discount=0.5)
    ball = KlBall(np.full(3, 1.0 / 3.0), 0.05)
    sol = ConstrainedInstance(model, ball).solve(tol=1e-10)
    assert workloads.constrained_checks(model, ball, sol.value, sol.policy,
                                        sol.residual) == []
    policy = sol.policy.copy()
    policy[1] = [1.0, 0.0, 0.0]
    fails = workloads.constrained_checks(model, ball, sol.value, policy,
                                         sol.residual)
    assert any("infeasible" in f for f in fails)


def test_chi_square_shortfall_counts_as_failed():
    # a row that is feasible but not optimal must fail the SLSQP check
    model = random_mdp(3, 5, seed=4, discount=0.5)
    ball = L2ChiSquareBall(np.full(5, 0.2), 0.5)
    sol = ConstrainedInstance(model, ball).solve(tol=1e-10)
    assert workloads.constrained_checks(model, ball, sol.value, sol.policy,
                                        sol.residual) == []
    low = sol.value - 0.01
    assert workloads.constrained_checks(model, ball, low, sol.policy,
                                        sol.residual)


def test_spans_nest_and_self_times_fit_in_the_op():
    rec = spans.SpanRecorder()
    model = random_mdp(4, 3, seed=5, discount=0.5)
    ops = [RegularizedInstance(model, EntropyRegularizer(0.5)),
           ConstrainedInstance(model, KlBall(np.full(3, 1.0 / 3.0), 0.1)),
           ConstrainedInstance(model, L2ChiSquareBall(np.full(3, 1.0 / 3.0),
                                                      0.2))]
    original = core.q_vector
    with spans.instrument(rec):
        assert core.q_vector is not original
        for k, inst in enumerate(ops):
            with rec.op_span(f"op{k}"):
                inst.solve_with_error(tol=1e-8)
    assert core.q_vector is original
    cols = rec.columns()
    parent, start, end = cols["parent"], cols["start"], cols["end"]
    child = parent >= 0
    assert np.all(start[parent[child]] <= start[child])
    assert np.all(end[child] <= end[parent[child]])
    assert np.all(cols["self"] >= -1e-9)
    roots = np.flatnonzero(~child)
    assert len(roots) == len(ops)
    for root in roots:
        mine = cols["op"] == cols["op"][root]
        assert cols["self"][mine].sum() <= cols["duration"][root] + 1e-9
    names = set(rec.names)
    assert {"core.sweep", "core.q_vector", "core.backup",
            "regularized.closed_form", "constrained.kl_ball",
            "constrained.l2_ball"} <= names
