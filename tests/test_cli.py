"""Command-line entry points: reports, artifacts, exit codes, env defaults."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mdpkit.modelio as modelio
from mdpkit import (ConstrainedInstance, KlBall, L1Ball, entropy_backup,
                    l2_constrained_backup, q_vector, random_mdp)
from mdpkit.cli import main
from mdpkit.modelio import load_instance, load_model, save_model
from mdpkit.core import ConvergenceError, MdpModel
from mdpkit.equivalence import _trial_rewards


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path)


def trivial_model_dict():
    # one state, one action, reward 1, discount 0.5: value is exactly 2
    return {"num_states": 1, "num_actions": 1, "discount": 0.5,
            "reward": [[1.0]], "transition": [[[1.0]]]}


def chooser_model_dict(framework=None):
    d = {"num_states": 2, "num_actions": 2, "discount": 0.9,
         "reward": [[1.0, -0.5], [0.25, 0.75]],
         "transition": [[[1.0, 0.0], [0.0, 1.0]],
                        [[0.0, 1.0], [1.0, 0.0]]]}
    if framework:
        d["framework"] = framework
    return d


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- solve


def test_solve_trivial_model(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", trivial_model_dict())
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "solve"
    assert report["value"] == [pytest.approx(2.0, abs=1e-9)]
    assert report["policy"] == [[1.0]]
    assert report["residual"] <= report["config"]["tol"]
    assert report["error_bound"] == 0.5 / (1.0 - 0.5) * report["residual"]


def test_solve_regularized_policy_is_the_softmax(tmp_path, capsys):
    fw = {"name": "regularized", "regularizer": {"kind": "entropy", "eta": 0.8}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    code, out, _ = run_cli(capsys, "solve", path, "--tol", "1e-12")
    assert code == 0
    report = json.loads(out)
    model = load_model(path)
    v = np.array(report["value"])
    for s in range(2):
        expected = entropy_backup(q_vector(model, v, s), 0.8)
        assert report["policy"][s] == pytest.approx(list(expected.argmax),
                                                    abs=1e-9)
        assert report["value"][s] == pytest.approx(expected.value, abs=1e-9)


def test_solve_writes_artifacts(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", trivial_model_dict())
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "solve", path, "--out", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert json.loads(out) == report
    value_rows = (out_dir / "value.csv").read_text().strip().splitlines()
    assert value_rows[0] == "state,value"
    # %.17g formatting round-trips the float exactly
    assert float(value_rows[1].split(",")[1]) == report["value"][0]
    policy_rows = (out_dir / "policy.csv").read_text().strip().splitlines()
    assert policy_rows[0] == "state,action,probability"


def test_solve_constrained_emits_discrepancy_notes(tmp_path, capsys):
    fw = {"name": "constrained",
          "constraint": {"kind": "l1_ball", "reference": [0.5, 0.5],
                         "radius": 0.4}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    notes = json.loads(out)["discrepancy_notes"]
    assert len(notes) == 2
    for note in notes:
        assert note["kind"] == "l1"
        assert note["gap"] >= -1e-12
        assert note["note"]
        assert note["value"] >= note["paper_dual_value"] - 1e-12


def test_solve_chi_square_ball_emits_l2_notes(tmp_path, capsys):
    ref, radius = [0.3, 0.7], 0.4
    fw = {"name": "constrained",
          "constraint": {"kind": "l2_ball", "reference": ref,
                         "radius": radius}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    report = json.loads(out)
    w = q_vector(load_model(path), np.array(report["value"]))
    notes = report["discrepancy_notes"]
    assert [(n["state"], n["kind"]) for n in notes] == [(0, "l2"), (1, "l2")]
    for s, note in enumerate(notes):
        assert note["value"] == l2_constrained_backup(w[s], ref, radius).value
        assert note["gap"] == note["value"] - note["paper_dual_value"]


def test_solve_determinism(tmp_path, capsys):
    fw = {"name": "stochastic",
          "noise": {"kind": "uniform", "bounds": [[[0.0, 1.0], [0.0, 1.0]],
                                                  [[0.0, 1.0], [0.0, 1.0]]]}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    code_a, out_a, _ = run_cli(capsys, "solve", path, "--mc-samples", "5000")
    code_b, out_b, _ = run_cli(capsys, "solve", path, "--mc-samples", "5000")
    assert code_a == code_b == 0
    assert out_a == out_b


# ---------------------------------------------------------------- gen


def test_gen_then_solve(tmp_path, capsys):
    target = tmp_path / "model.json"
    code, _, err = run_cli(capsys, "gen", "--states", "3", "--actions", "2",
                           "--seed", "11", "--out", str(target))
    assert code == 0
    assert target.exists()
    m = load_model(target)
    assert m.num_states == 3 and m.num_actions == 2
    code, out, _ = run_cli(capsys, "solve", str(target))
    assert code == 0
    assert len(json.loads(out)["value"]) == 3


def test_gen_into_an_existing_directory_writes_model_json(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "--states", "2", "--actions", "3",
                           "--out", str(tmp_path))
    assert code == 0
    assert err == f"wrote {tmp_path / 'model.json'}\n"
    m = load_model(tmp_path / "model.json")
    assert (m.num_states, m.num_actions) == (2, 3)


def test_a_model_file_must_hold_an_object(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", [trivial_model_dict()])
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 2
    assert json.loads(out)["error"]["message"] == \
        f"{path} must hold a top-level object"


def test_gen_rejects_empty_reward_range(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "--reward-min", "1.0",
                           "--reward-max", "-1.0",
                           "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


# ------------------------------------------------------------------ compare


def test_compare_consistent_pair(tmp_path, capsys):
    er = {"name": "regularized", "regularizer": {"kind": "entropy", "eta": 1.0}}
    ev = {"name": "stochastic", "method": "closed_form",
          "noise": {"kind": "gumbel_iid", "eta": 1.0, "location": "mean_zero"}}
    px = write_json(tmp_path / "x.json", chooser_model_dict(er))
    py = write_json(tmp_path / "y.json", chooser_model_dict(ev))
    code, out, _ = run_cli(capsys, "compare", px, py, "--trials", "4",
                           "--out", str(tmp_path / "cmp"))
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "consistent"
    assert rep["max_value_gap"] == 0.0
    rows = (tmp_path / "cmp" / "trials.csv").read_text().strip().splitlines()
    assert rows[0] == "trial,value_gap,policy_gap"
    assert len(rows) == 1 + rep["trials"]


def test_compare_refuted_pair_reports_witness(tmp_path, capsys):
    er = {"name": "regularized", "regularizer": {"kind": "entropy", "eta": 1.0}}
    px = write_json(tmp_path / "x.json", chooser_model_dict(er))
    py = write_json(tmp_path / "y.json", chooser_model_dict())
    code, out, _ = run_cli(capsys, "compare", px, py, "--trials", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "refuted"
    assert rep["witness"]["policy_gap"] > 0


def test_compare_offset_flag(tmp_path, capsys):
    # robust exponential-family file vs entropy file shifted by offset -1
    ds = {"name": "distributional",
          "ambiguity": {"kind": "mdm", "family": "exponential", "rate": 1.0}}
    er = {"name": "regularized",
          "regularizer": {"kind": "entropy", "eta": 1.0, "offset": 1.0}}
    px = write_json(tmp_path / "x.json", chooser_model_dict(ds))
    py = write_json(tmp_path / "y.json", chooser_model_dict(er))
    code, out, _ = run_cli(capsys, "compare", px, py, "--trials", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "consistent"


def test_compare_offset_file(tmp_path, capsys):
    px = write_json(tmp_path / "x.json", chooser_model_dict())
    py = write_json(tmp_path / "y.json", chooser_model_dict())
    offs = write_json(tmp_path / "off.json", [[0.0, 0.0], [0.0, 0.0]])
    code, out, _ = run_cli(capsys, "compare", px, py, "--trials", "2",
                           "--offset", offs)
    assert code == 0
    assert json.loads(out)["verdict"] == "consistent"


def test_compare_shape_mismatch_exit_code(tmp_path, capsys):
    px = write_json(tmp_path / "x.json", chooser_model_dict())
    py = write_json(tmp_path / "y.json", trivial_model_dict())
    code, out, _ = run_cli(capsys, "compare", px, py)
    assert code == 3
    record = json.loads(out)["error"]
    assert record["kind"] == "shape-mismatch"
    assert record["code"] == 3


# ------------------------------------------------------------------ convert


def test_convert_r2ct(tmp_path, capsys):
    fw = {"name": "regularized", "regularizer": {"kind": "entropy", "eta": 0.7}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    out_dir = tmp_path / "conv"
    code, out, _ = run_cli(capsys, "convert", path, "--direction", "r2ct",
                           "--out", str(out_dir))
    assert code == 0
    ver = json.loads(out)["verification"]
    assert ver["direction"] == "r2ct"
    assert ver["policy_sup_gap"] < 1e-5
    converted = load_instance(out_dir / "converted.json")
    assert isinstance(converted, ConstrainedInstance)
    assert len(converted.constraints) == converted.model.num_states
    assert all(type(c) is KlBall for c in converted.constraints)
    assert np.max(np.abs(converted.solve().value
                         - np.array(ver["converted_value"]))) <= 1e-9
    blocks = json.loads((out_dir / "converted.json").read_text())
    kinds = {b["kind"] for b in blocks["framework"]["constraint"]}
    assert kinds == {"kl_ball"}


def test_convert_ct2r(tmp_path, capsys):
    fw = {"name": "constrained",
          "constraint": {"kind": "kl_ball", "reference": [0.5, 0.5],
                         "radius": 0.05}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    code, out, _ = run_cli(capsys, "convert", path, "--direction", "ct2r")
    assert code == 0
    ver = json.loads(out)["verification"]
    assert ver["value_sup_gap"] < 1e-6
    assert ver["max_slackness"] < 1e-6
    assert all(m > 0 for m in ver["multipliers"])


@pytest.mark.parametrize("constraint", [
    {"kind": "kl_ball", "reference": [1 / 3] * 3, "radius": 0.1},
    {"kind": "l2_ball", "reference": [1 / 3] * 3, "radius": 0.5},
], ids=["kl", "chi2"])
def test_convert_ct2r_with_tied_action_values(tmp_path, capsys, constraint):
    # zero rewards tie every action value: each ball is slack
    d = {"num_states": 2, "num_actions": 3, "discount": 0.9,
         "reward": [[0.0] * 3] * 2,
         "transition": [[[0.5, 0.5]] * 3, [[0.0, 1.0]] * 3],
         "framework": {"name": "constrained", "constraint": constraint}}
    path = write_json(tmp_path / "m.json", d)
    code, out, _ = run_cli(capsys, "convert", path, "--direction", "ct2r")
    assert code == 0
    ver = json.loads(out)["verification"]
    assert ver["multipliers"] == [0.0, 0.0]
    assert ver["value_sup_gap"] == 0.0


def test_nan_reference_in_a_model_file_is_a_validation_error(tmp_path,
                                                             capsys):
    # Python's json reads NaN, so a model file can hold one
    fw = {"name": "constrained",
          "constraint": {"kind": "kl_ball", "reference": [float("nan"), 0.5],
                         "radius": 0.1}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    assert "NaN" in (tmp_path / "m.json").read_text()
    code, out, _ = run_cli(capsys, "solve", path, "--max-iter", "1000")
    assert code == 2
    record = json.loads(out)["error"]
    assert record["kind"] == "validation"
    assert "reference" in record["message"]


def test_a_reference_with_no_mass_in_a_model_file_is_named(tmp_path, capsys):
    # the floor read [0, 0] as the uniform row and solved
    fw = {"name": "constrained",
          "constraint": {"kind": "kl_ball", "reference": [0.0, 0.0],
                         "radius": 0.1}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 2
    assert _one_error(out)["message"] == \
        "reference must have a positive entry"


def test_a_falsy_framework_block_is_one_validation_error(tmp_path, capsys):
    # {} once read as a missing block, so the file solved as a standard model
    data = chooser_model_dict()
    data["framework"] = {}
    path = write_json(tmp_path / "m.json", data)
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 2
    record = _one_error(out)
    assert record["kind"] == "validation"
    assert record["message"] == \
        "framework block is missing required field 'name'"


def test_convert_ct2r_phi_ball_writes_a_loadable_regularized_file(tmp_path,
                                                                 capsys):
    # the induced regularizers are offset, scaled MMM level-set multipliers
    fw = {"name": "constrained",
          "constraint": {"kind": "phi_ball",
                         "phi": {"kind": "mmm", "sigma": [0.4, 0.4]},
                         "radius": -0.15}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    out_dir = tmp_path / "conv"
    code, out, _ = run_cli(capsys, "convert", path, "--direction", "ct2r",
                           "--out", str(out_dir))
    assert code == 0
    assert all(m > 0 for m in json.loads(out)["verification"]["multipliers"])
    converted = load_instance(out_dir / "converted.json")
    direct = load_instance(path).solve(tol=1e-10)
    assert np.max(np.abs(converted.solve(tol=1e-10).value
                         - direct.value)) < 1e-6


@pytest.mark.parametrize("direction", ["r2ct", "ct2r"])
def test_convert_direction_mismatch_exit_code(tmp_path, capsys, direction):
    # a standard file is neither regularized nor constrained
    path = write_json(tmp_path / "m.json", chooser_model_dict())
    code, out, _ = run_cli(capsys, "convert", path, "--direction", direction)
    assert code == 4
    record = json.loads(out)["error"]
    assert record["kind"] == "conversion-precondition"


def test_convert_rejects_singleton_sets(tmp_path, capsys):
    fw = {"name": "constrained",
          "constraint": {"kind": "singleton", "row": [1.0, 0.0]}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    code, out, _ = run_cli(capsys, "convert", path, "--direction", "ct2r")
    assert code == 4


@pytest.mark.parametrize("row", [[1.0, 0.0, 0.0], [0.1, 0.2, 0.7]])
def test_a_legacy_singleton_file_solves_as_the_l1_ball_of_radius_0(
        tmp_path, capsys, row):
    # the one-row set {row} is the L1 ball of radius 0 around it: the
    # "singleton" kind is read as that ball, written as "l1_ball", and its
    # report is the ball's byte for byte (0.1 + 0.2 + 0.7 is not exactly 1)
    legacy = {"kind": "singleton", "row": row}
    ball = {"kind": "l1_ball", "reference": row, "radius": 0.0}
    con = modelio.constraint_from_dict(legacy)
    assert type(con) is L1Ball and con.radius == 0.0
    assert np.array_equal(con.reference, L1Ball(row, 0.0).reference)
    assert modelio.constraint_to_dict(con) == {
        "kind": "l1_ball", "reference": con.reference.tolist(), "radius": 0.0}
    reports = []
    for block in (legacy, ball):
        path = _model_file(tmp_path, "m.json", 4, 3,
                           {"name": "constrained", "constraint": block})
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == 0, out
        reports.append(out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["framework"]["constraint"]["kind"] \
        == "l1_ball"


# ------------------------------------------------------------------ figure1


@pytest.fixture(scope="module")
def figure1_runs(tmp_path_factory):
    outs = []
    for name in ("f1a", "f1b"):
        out_dir = tmp_path_factory.mktemp(name)
        code = main(["figure1", "--trials", "3", "--mc-samples", "20000",
                     "--seed", "1", "--out", str(out_dir)])
        assert code == 0
        outs.append(out_dir)
    return outs


def test_figure1_artifacts_and_verdicts(figure1_runs):
    out_dir = figure1_runs[0]
    payload = json.loads((out_dir / "edges.json").read_text())
    assert payload["all_expected"] is True
    assert len(payload["edges"]) == 6
    ratio_rows = (out_dir / "prop2_ratio.csv").read_text().strip().splitlines()
    assert ratio_rows[0] == "t,ratio_printed,ratio_mc"
    assert len(ratio_rows) == 20
    sweep_rows = (out_dir / "theorem3_sweep.csv").read_text().strip().splitlines()
    assert sweep_rows[0] == "reward_gap,first_action_probability"
    assert len(sweep_rows) == 51
    probs = [float(r.split(",")[1]) for r in sweep_rows[1:]]
    assert len(set(probs)) == 50
    assert all(0.0 < p < 1.0 for p in probs)


def test_figure1_reports_are_byte_identical(figure1_runs):
    a, b = figure1_runs
    for name in ("edges.json", "prop2_ratio.csv", "theorem3_sweep.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------- config handling


def test_env_defaults_and_flag_priority(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path / "m.json", trivial_model_dict())
    monkeypatch.delenv("MDPKIT_SEED", raising=False)
    monkeypatch.delenv("MDPKIT_TRIALS", raising=False)
    code, out, _ = run_cli(capsys, "solve", path)
    assert json.loads(out)["config"]["seed"] == 0
    assert json.loads(out)["config"]["trials"] == 50
    # set after an earlier call in the same process: still honored
    monkeypatch.setenv("MDPKIT_SEED", "123")
    code, out, _ = run_cli(capsys, "solve", path)
    assert json.loads(out)["config"]["seed"] == 123
    monkeypatch.setenv("MDPKIT_TRIALS", "7")
    code, out, _ = run_cli(capsys, "solve", path)
    assert json.loads(out)["config"]["trials"] == 7
    code, out, _ = run_cli(capsys, "solve", path, "--seed", "9")
    assert json.loads(out)["config"]["seed"] == 9


NAN, INF = float("nan"), float("inf")
REF = [0.5, 0.5]
BOUNDS = [[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]
EYE = [[1.0, 0.0], [0.0, 1.0]]


# one bad field each: NaN, inf, or an mc_samples of 0
BAD_PROBES = {
    "entropy-eta": ("regularized", "regularizer",
                    {"kind": "entropy", "eta": NAN}),
    "kl-eta": ("regularized", "regularizer",
               {"kind": "kl", "eta": INF, "reference": REF}),
    "scale": ("regularized", "regularizer",
              {"kind": "entropy", "eta": 0.5, "scale": NAN}),
    "offset": ("regularized", "regularizer",
               {"kind": "entropy", "eta": 0.5, "offset": INF}),
    "mmm-sigma": ("regularized", "regularizer",
                  {"kind": "mmm", "sigma": [NAN, 0.5]}),
    "covariance-cov": ("regularized", "regularizer",
                       {"kind": "covariance", "cov": [[1.0, NAN],
                                                      [NAN, 1.0]]}),
    "chi-square-multiplier": ("regularized", "regularizer",
                              {"kind": "chi_square_lagrange",
                               "multiplier": NAN, "reference": REF,
                               "radius": 0.1}),
    "chi-square-radius": ("regularized", "regularizer",
                          {"kind": "chi_square_lagrange", "multiplier": 0.5,
                           "reference": REF, "radius": INF}),
    "gumbel-eta": ("stochastic", "noise", {"kind": "gumbel_iid", "eta": INF}),
    "gumbel-location": ("stochastic", "noise",
                        {"kind": "gumbel_iid", "eta": 0.5, "location": NAN}),
    "uniform-bounds": ("stochastic", "noise",
                       {"kind": "uniform",
                        "bounds": [[[0.0, NAN], [0.0, 1.0]], BOUNDS[1]]}),
    "gaussian-cov": ("stochastic", "noise",
                     {"kind": "gaussian", "cov": [[[INF, 0.0], [0.0, 1.0]],
                                                  EYE]}),
    "mc-samples": ("stochastic", "noise", {"kind": "uniform",
                                           "bounds": BOUNDS},
                   {"mc_samples": 0}),
    "mmm-ambiguity-sigma": ("distributional", "ambiguity",
                            {"kind": "mmm", "sigma": [[0.5, INF],
                                                      [0.5, 0.5]]}),
    "covariance-matrices": ("distributional", "ambiguity",
                            {"kind": "covariance",
                             "matrices": [EYE, [[1.0, 0.0], [0.0, NAN]]]}),
    "singleton-row": ("constrained", "constraint",
                      {"kind": "singleton", "row": [NAN, 1.0]}),
    "l1-reference": ("constrained", "constraint",
                     {"kind": "l1_ball", "reference": [NAN, 1.0],
                      "radius": 0.5}),
    "kl-ball-radius": ("constrained", "constraint",
                       {"kind": "kl_ball", "reference": REF, "radius": NAN}),
    "l2-ball-radius": ("constrained", "constraint",
                       {"kind": "l2_ball", "reference": REF, "radius": INF}),
    "phi-ball-radius": ("constrained", "constraint",
                        {"kind": "phi_ball", "radius": NAN,
                         "phi": {"kind": "entropy", "eta": 0.5}}),
}


@pytest.mark.parametrize("name", sorted(BAD_PROBES))
def test_a_non_finite_model_parameter_is_a_validation_error(name, tmp_path,
                                                            capsys):
    framework, key, block, *extra = BAD_PROBES[name]
    fw = {"name": framework, key: block, **(extra[0] if extra else {})}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


def test_invalid_config_rejected(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", trivial_model_dict())
    code, out, _ = run_cli(capsys, "solve", path, "--tol", "0")
    assert code == 2


@pytest.mark.parametrize("flag", ["--tol", "--gap-tol"])
def test_a_nan_tolerance_is_rejected(tmp_path, capsys, flag):
    # NaN passes a `<= 0` test: a NaN --tol is never met, and no gap
    # breaches a NaN --gap-tol, so any pair would read consistent
    path = write_json(tmp_path / "m.json", chooser_model_dict())
    code, out, _ = run_cli(capsys, "compare", path, path, flag, "nan")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


# a field of the wrong JSON type: (field named in the message, the model
# file's top-level fields, its framework block)
WRONG_TYPE_PROBES = {
    "discount-null": ("discount", {"discount": None}, None),
    "kl-ball-radius-null": ("radius", {}, {
        "name": "constrained",
        "constraint": {"kind": "kl_ball", "reference": REF, "radius": None}}),
    "eta-object": ("eta", {}, {
        "name": "regularized", "regularizer": {"kind": "entropy",
                                               "eta": {"a": 1}}}),
    "eta-list": ("eta", {}, {
        "name": "regularized", "regularizer": {"kind": "entropy",
                                               "eta": [1, 2]}}),
    "eta-string": ("eta", {}, {
        "name": "regularized", "regularizer": {"kind": "entropy",
                                               "eta": "abc"}}),
    "rate-null": ("rate", {}, {
        "name": "distributional",
        "ambiguity": {"kind": "mdm", "family": "exponential", "rate": None}}),
    "location-null": ("location", {}, {
        "name": "stochastic",
        "noise": {"kind": "gumbel_iid", "eta": 0.5, "location": None}}),
    "offset-list": ("offset", {}, {
        "name": "regularized", "regularizer": {"kind": "entropy", "eta": 0.5,
                                               "offset": [1]}}),
    "scale-null": ("scale", {}, {
        "name": "regularized", "regularizer": {"kind": "entropy", "eta": 0.5,
                                               "scale": None}}),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPE_PROBES))
def test_a_wrong_type_in_a_numeric_field_is_a_validation_error(name, tmp_path,
                                                               capsys):
    field, top, framework = WRONG_TYPE_PROBES[name]
    data = {**modelio.model_to_dict(random_mdp(3, 2, seed=41)), **top}
    if framework:
        data["framework"] = framework
    code, out, _ = run_cli(capsys, "solve",
                           write_json(tmp_path / "m.json", data))
    assert code == 2
    record = json.loads(out)["error"]
    assert record["kind"] == "validation"
    assert record["message"].startswith(field + " must be a finite number")


@pytest.mark.parametrize("argv, env", [
    (["figure1", "--seed", "-1"], None),
    (["figure1"], "-2"),
    (["gen", "--seed", "-3"], None),
], ids=["figure1-flag", "figure1-env", "gen-flag"])
def test_a_negative_seed_is_rejected_naming_the_flag(tmp_path, capsys,
                                                     monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("MDPKIT_SEED", env)
    code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    seed = env or argv[-1]
    assert json.loads(out)["error"]["message"] == \
        f"--seed must be >= 0, got {seed}"
    assert not (tmp_path / "out").exists()


def test_validation_error_record(tmp_path, capsys):
    bad = trivial_model_dict()
    bad["transition"] = [[[0.5]]]
    path = write_json(tmp_path / "m.json", bad)
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 2
    record = json.loads(out)["error"]
    assert record["kind"] == "validation"
    assert record["violations"]


def test_non_convergence_exit_code(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", chooser_model_dict())
    # one sweep: Newton steps reach this model's fixed point in two
    code, out, _ = run_cli(capsys, "solve", path, "--max-iter", "1")
    assert code == 5
    record = json.loads(out)["error"]
    assert record["kind"] == "non-convergence"
    assert record["residual"] > 0


def test_compare_honours_max_iter(tmp_path, capsys):
    fw = {"name": "regularized", "regularizer": {"kind": "entropy", "eta": 0.5}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    # one sweep is too few for every trial solve, as it is for `solve`
    code, out, _ = run_cli(capsys, "solve", path, "--max-iter", "1")
    assert code == 5
    code, out, _ = run_cli(capsys, "compare", path, path, "--trials", "2",
                           "--max-iter", "1")
    assert code == 5
    assert json.loads(out)["error"]["kind"] == "non-convergence"


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_residual_is_null_in_the_error_record(tmp_path, capsys):
    # a valid model whose rewards overflow the Newton step: the second
    # sweep's step is inf - inf, which stops the solve with no warning
    kernel = random_mdp(3, 2, seed=4).transition
    path = str(tmp_path / "m.json")
    save_model(MdpModel(num_states=3, num_actions=2, transition=kernel,
                        reward=np.full((3, 2), 1e308), discount=0.9), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "solve", path)
    assert code == 5
    record = _strict_json(out)["error"]
    assert record["message"] == "value iteration residual is nan at sweep 2"
    assert record["residual"] is None


@pytest.mark.parametrize("offset", ["nan", "inf", "file"])
def test_compare_rejects_a_non_finite_offset(tmp_path, capsys, offset):
    path = write_json(tmp_path / "m.json", chooser_model_dict())
    if offset == "file":
        offset = write_json(tmp_path / "off.json", [[NAN, 0.0], [0.0, 0.0]])
    code, out, _ = run_cli(capsys, "compare", path, path, "--offset", offset)
    assert code == 2
    assert _strict_json(out)["error"]["message"] == \
        "reward not finite at (s=0, a=0)"


@pytest.mark.parametrize("offset", [[1.0, 2.0, 3.0, 4.0], {"a": 1}, "ab",
                                    [[1.0, 2.0], [3.0]]],
                         ids=["wrong-shape", "object", "string", "ragged"])
def test_a_bad_offset_file_names_the_offset(tmp_path, capsys, offset):
    # a wrong shape printed numpy's broadcast message, and an object
    # exited 1 with a TypeError and no record
    path = _model_file(tmp_path, "m.json", 3, 2)
    offs = write_json(tmp_path / "off.json", offset)
    code, out, _ = run_cli(capsys, "compare", path, path, "--offset", offs)
    assert code == 2
    message = _one_error(out)["message"]
    assert message.startswith("offset ")
    if offset == [1.0, 2.0, 3.0, 4.0]:
        assert message == ("offset of shape (4,) does not fit the models' "
                           "(S, A) = (3, 2)")


def test_an_offset_file_that_is_not_json_is_named(tmp_path, capsys):
    path = _model_file(tmp_path, "m.json", 3, 2)
    offs = tmp_path / "off.json"
    offs.write_text("[1.0,")
    code, out, _ = run_cli(capsys, "compare", path, path, "--offset",
                           str(offs))
    assert code == 2
    assert _one_error(out)["message"].startswith(
        f"offset file {offs} is not valid JSON: ")


def test_gen_names_a_bad_size(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "--states", "-1",
                           "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert _one_error(out)["message"] == \
        "num_states must be a positive integer, got -1"
    assert not (tmp_path / "m.json").exists()


def test_solve_names_a_bad_count_in_the_model_file(tmp_path, capsys):
    # "num_states": true loaded and solved as a one-state model
    d = trivial_model_dict()
    d["num_states"] = True
    code, out, _ = run_cli(capsys, "solve", write_json(tmp_path / "m.json", d))
    assert code == 2
    assert _one_error(out)["message"] == \
        "num_states must be a positive integer, got True"


def test_compare_budget_error_is_the_first_trial_of_x(tmp_path, capsys):
    er = {"name": "regularized", "regularizer": {"kind": "entropy", "eta": 0.5}}
    px = write_json(tmp_path / "x.json", chooser_model_dict(er))
    py = write_json(tmp_path / "y.json", chooser_model_dict())
    code, out, _ = run_cli(capsys, "compare", px, py, "--trials", "3",
                           "--max-iter", "1")
    assert code == 5
    x = load_instance(px)
    first = x.with_rewards(_trial_rewards((2, 2), 3, 0)[0])
    with pytest.raises(ConvergenceError) as exc:
        first.solve(max_iter=1)
    assert out == json.dumps(
        {"error": {"code": 5, "kind": "non-convergence",
                   "message": str(exc.value),
                   "residual": exc.value.residual}},
        indent=2, sort_keys=True) + "\n"


def _one_error(out):
    # json.loads refuses a second document after the first
    return json.loads(out)["error"]


def _command_argv(tmp_path, command):
    fw = {"name": "regularized", "regularizer": {"kind": "entropy", "eta": 0.7}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    return {"solve": ["solve", path],
            "compare": ["compare", path, path, "--trials", "2"],
            "figure1": ["figure1", "--trials", "2", "--mc-samples", "2000"],
            "convert": ["convert", path, "--direction", "r2ct"]}[command]


COMMANDS = ("solve", "compare", "figure1", "convert")


@pytest.mark.parametrize("command", COMMANDS)
def test_out_at_an_existing_file_prints_one_error_record(tmp_path, capsys,
                                                         command):
    target = tmp_path / "taken"
    target.write_text("")
    code, out, _ = run_cli(capsys, *_command_argv(tmp_path, command),
                           "--out", str(target))
    assert code == 2
    assert _one_error(out)["kind"] == "io"
    assert target.read_text() == ""


# the first file each command writes, and the report's own file
FILES = {"solve": ("value.csv", "report.json"),
         "compare": ("trials.csv", "report.json"),
         "figure1": ("prop2_ratio.csv", "edges.json"),
         "convert": ("converted.json", "verification.json")}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_failed_write_leaves_no_report_file(tmp_path, capsys, command):
    first, report = FILES[command]
    out_dir = tmp_path / "out"
    (out_dir / first).mkdir(parents=True)
    code, out, _ = run_cli(capsys, *_command_argv(tmp_path, command),
                           "--out", str(out_dir))
    assert code == 2
    assert _one_error(out)["kind"] == "io"
    assert sorted(p.name for p in out_dir.iterdir()) == [first]
    # and with the directory free, the report's own file is there
    (out_dir / first).rmdir()
    code, out, _ = run_cli(capsys, *_command_argv(tmp_path, command),
                           "--out", str(out_dir))
    assert code == 0
    assert (out_dir / report).read_text() == out


@pytest.mark.parametrize("name, raw, kind", [
    ("MDPKIT_TOL", "abc", "float"), ("MDPKIT_MAX_ITER", "1.5", "int"),
    ("MDPKIT_SEED", "", "int")])
def test_a_bad_environment_value_is_a_validation_error(tmp_path, capsys,
                                                       monkeypatch, name,
                                                       raw, kind):
    path = write_json(tmp_path / "m.json", trivial_model_dict())
    monkeypatch.setenv(name, raw)
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 2
    record = _one_error(out)
    assert record["kind"] == "validation"
    assert record["violations"] == [
        f"environment variable {name}={raw!r} is not a valid {kind}"]


def test_every_config_problem_is_in_one_record(tmp_path, capsys,
                                               monkeypatch):
    path = write_json(tmp_path / "m.json", trivial_model_dict())
    monkeypatch.setenv("MDPKIT_TRIALS", "x")
    code, out, _ = run_cli(capsys, "solve", path, "--tol", "0",
                           "--max-iter", "-1")
    assert code == 2
    assert _one_error(out)["violations"] == [
        "--tol must be positive, got 0.0",
        "--max-iter must be positive, got -1",
        "environment variable MDPKIT_TRIALS='x' is not a valid int"]


@pytest.mark.parametrize("argv, message", [
    (["--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
    (["--max-iter", "1.5"], "argument --max-iter: invalid int value: '1.5'"),
    (["--bogus"], "unrecognized arguments: --bogus")],
    ids=["tol", "max-iter", "unknown-flag"])
def test_a_bad_flag_is_a_validation_error(tmp_path, capsys, argv, message):
    path = write_json(tmp_path / "m.json", trivial_model_dict())
    code, out, err = run_cli(capsys, "solve", path, *argv)
    assert code == 2
    record = _one_error(out)
    assert record["kind"] == "validation"
    assert record["violations"] == [message]
    assert err.startswith("usage: mdpkit")


@pytest.mark.parametrize("argv", [[], ["solve"], ["compare", "m.json"],
                                  ["convert", "m.json"], ["frobnicate"]],
                         ids=["command", "model", "model_y", "direction",
                              "unknown-command"])
def test_a_missing_argument_is_a_validation_error(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert _one_error(out)["kind"] == "validation"


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]],
                         ids=["mdpkit", "solve"])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mdpkit")


def test_solve_builds_no_model_dict(tmp_path, capsys, monkeypatch):
    fw = {"name": "regularized", "regularizer": {"kind": "entropy", "eta": 0.7}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    code, expected, _ = run_cli(capsys, "solve", path)
    assert code == 0

    def refuse(model):
        raise AssertionError("solve turned the model into lists")

    monkeypatch.setattr(modelio, "model_to_dict", refuse)
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    assert out == expected
    assert json.loads(out)["framework"] == fw


def test_missing_file_is_an_io_error(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "solve", str(tmp_path / "nope.json"))
    assert code == 2


def test_reports_do_not_mention_the_output_directory(tmp_path, capsys):
    # report bytes must not depend on where they are written
    path = write_json(tmp_path / "m.json", trivial_model_dict())
    _, out_a, _ = run_cli(capsys, "solve", path, "--out", str(tmp_path / "a"))
    _, out_b, _ = run_cli(capsys, "solve", path, "--out", str(tmp_path / "b"))
    assert out_a == out_b
    assert "out" not in json.loads(out_a)["config"]


# --------------------------------------------------------------- subprocess


def test_module_entry_point(tmp_path):
    path = write_json(tmp_path / "m.json", trivial_model_dict())
    proc = subprocess.run([sys.executable, "-m", "mdpkit.cli", "solve", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == [pytest.approx(2.0, abs=1e-9)]
    # timings go to stderr, never stdout
    assert "seconds" not in proc.stdout


# {"numpy": version, "seeds": {seed: {path under OUT: sha256}}} of the
# tools/cli_reports.py trees; a change that moves a report on purpose writes
# it again with _tree_digest and lists the moved files
REPORT_DIGEST = Path(__file__).parent / "data" / "cli_reports_digest.json"


def _tree_digest(out):
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_cli_reports_tool_runs_every_cli_op(tmp_path):
    root = Path(__file__).resolve().parent.parent
    recorded = json.loads(REPORT_DIGEST.read_text())
    # the seeds run side by side, each in its own process
    procs = {seed: subprocess.Popen(
        [sys.executable, str(root / "tools" / "cli_reports.py"), str(root),
         str(tmp_path / seed), seed],
        stderr=subprocess.PIPE, text=True)
        for seed in recorded["seeds"]}
    moved = []
    for seed, proc in procs.items():
        _, stderr = proc.communicate()
        assert proc.returncode == 0, stderr
        out = tmp_path / seed
        exits = {p.stem: p.read_text() for p in out.glob("*.exit")}
        assert len(exits) == 22
        assert set(exits.values()) == {"0\n"}
        assert {"solve-mc-uniform", "compare-mc-uniform-mmm"} <= set(exits)
        assert {"solve-robust-mdm-uniform",
                "solve-robust-mdm-tabulated"} <= set(exits)
        assert {"convert-ct2r-phi-ball-scaled",
                "convert-ct2r-phi-ball-offset"} <= set(exits)
        for name in exits:
            report = json.loads((out / f"{name}.stdout").read_text())
            assert report["command"] == name.split("-")[0]
            own = {"solve": "report.json", "compare": "report.json",
                   "figure1": "edges.json",
                   "convert": "verification.json"}[report["command"]]
            assert (out / name / own).read_text() == \
                (out / f"{name}.stdout").read_text()
        digest, want = _tree_digest(out), recorded["seeds"][seed]
        moved += [f"seed {seed}: {path}"
                  for path in sorted(set(digest) | set(want))
                  if digest.get(path) != want.get(path)]
    assert not moved, (
        "CLI outputs are no longer byte-identical to the recorded ones:\n  "
        + "\n  ".join(moved) + f"\n(recorded under numpy "
        f"{recorded['numpy']}, this run has numpy {np.__version__}; another "
        "numpy may move a last digit)")


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency; scipy serves the tests alone
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, mdpkit.cli; print(sorted(k for k in sys.modules "
            "if k == 'scipy' or k.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    for path in (src / "mdpkit").glob("*.py"):
        assert "scipy" not in path.read_text(), path.name


# ------------------------------------------------ model-fit and flag checks

def _model_file(tmp_path, name, states, actions, framework=None):
    data = modelio.model_to_dict(random_mdp(states, actions, seed=3))
    if framework:
        data["framework"] = framework
    return write_json(tmp_path / name, data)


@pytest.mark.parametrize("samples", [1, True])
def test_a_monte_carlo_standard_error_needs_two_samples(tmp_path, capsys,
                                                        samples):
    # one draw has no standard error: its NaN compared False with every
    # breach test, so a pair whose values differ by 1.5 read "consistent"
    bounds = np.tile([-1.0, 1.0], (4, 3, 1)).tolist()
    mc = _model_file(tmp_path, "mc.json", 4, 3, {
        "name": "stochastic", "noise": {"kind": "uniform", "bounds": bounds},
        "mc_samples": samples})
    std = _model_file(tmp_path, "std.json", 4, 3)
    code, out, _ = run_cli(capsys, "compare", mc, std, "--trials", "5")
    assert code == 2
    assert _one_error(out)["kind"] == "validation"


def _tables(states, actions):
    eye = np.tile(np.eye(actions), (states, 1, 1)).tolist()
    return {
        "mmm": ("distributional", "ambiguity",
                {"kind": "mmm", "sigma": np.full((states, actions),
                                                 0.5).tolist()}),
        "covariance": ("distributional", "ambiguity",
                       {"kind": "covariance", "matrices": eye}),
        "uniform": ("stochastic", "noise",
                    {"kind": "uniform",
                     "bounds": np.tile([-1.0, 1.0],
                                       (states, actions, 1)).tolist()}),
        "gaussian": ("stochastic", "noise", {"kind": "gaussian", "cov": eye}),
    }


@pytest.mark.parametrize("kind", ["mmm", "covariance", "uniform", "gaussian"])
@pytest.mark.parametrize("states, actions", [(3, 4), (7, 4), (5, 3)])
def test_a_per_state_table_must_fit_the_model(tmp_path, capsys, kind, states,
                                              actions):
    # a 5x4 model: a short table raised IndexError mid-solve (exit 1, no
    # record), a long one solved on its first 5 rows
    name, key, block = _tables(states, actions)[kind]
    path = _model_file(tmp_path, "m.json", 5, 4, {"name": name, key: block})
    code, out, _ = run_cli(capsys, "solve", path, "--mc-samples", "1000")
    assert code == 2
    record = _one_error(out)
    assert record["kind"] == "validation"
    assert f"{(states, actions)}" in record["message"]
    assert "(5, 4)" in record["message"]


def _row_block(kind, n):
    """(framework name, key, block) whose per-action row has n entries."""
    row = np.full(n, 1.0 / n).tolist()
    regularizers = {
        "kl": {"kind": "kl", "eta": 0.5, "reference": row},
        "mmm": {"kind": "mmm", "sigma": [0.5] * n},
        "covariance": {"kind": "covariance", "cov": np.eye(n).tolist()},
        "chi_square_lagrange": {"kind": "chi_square_lagrange",
                                "multiplier": 1.0, "reference": row,
                                "radius": 0.1},
    }
    if kind in regularizers:
        return "regularized", "regularizer", regularizers[kind]
    if kind == "phi_ball":
        return "constrained", "constraint", {
            "kind": "phi_ball", "phi": regularizers["mmm"], "radius": -0.1}
    if kind == "singleton":
        return "constrained", "constraint", {"kind": "singleton", "row": row}
    return "constrained", "constraint", {"kind": kind, "reference": row,
                                         "radius": 0.1}


_WRONG_ROWS = [("covariance", 2), ("chi_square_lagrange", 1),
               ("chi_square_lagrange", 2), ("kl_ball", 2), ("kl_ball", 4),
               ("l2_ball", 2), ("l2_ball", 4), ("kl", 2), ("kl", 4),
               ("mmm", 2), ("l1_ball", 2), ("l1_ball", 4), ("singleton", 2),
               ("singleton", 4), ("phi_ball", 2), ("kl", 1), ("mmm", 1),
               ("phi_ball", 1)]


@pytest.mark.parametrize("kind, n", _WRONG_ROWS)
def test_a_row_must_fit_the_models_action_count(tmp_path, capsys, kind, n):
    # a 4x3 model: a short row raised IndexError mid-solve (exit 1, no
    # record) or numpy's broadcast message, and a length-1 row broadcast
    # over every action
    name, key, block = _row_block(kind, n)
    path = _model_file(tmp_path, "m.json", 4, 3, {"name": name, key: block})
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 2
    record = _one_error(out)
    assert record["kind"] == "validation"
    assert record["violations"][0].endswith(
        f" has {n} actions, the model has 3")


@pytest.mark.parametrize("kind", sorted({kind for kind, _ in _WRONG_ROWS}))
def test_rows_of_the_models_action_count_solve(tmp_path, capsys, kind):
    name, key, block = _row_block(kind, 3)
    path = _model_file(tmp_path, "m.json", 4, 3,
                       {"name": name, key: [block] * 4})
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0, out
    assert json.loads(out)["command"] == "solve"


def test_a_short_row_names_its_state(tmp_path, capsys):
    blocks = [_row_block("l1_ball", 3)[2]] * 4
    blocks[2] = _row_block("l1_ball", 2)[2]
    path = _model_file(tmp_path, "m.json", 4, 3,
                       {"name": "constrained", "constraint": blocks})
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 2
    assert _one_error(out)["violations"] == [
        "constraint L1Ball at state 2 has 2 actions, the model has 3"]


_NESTED_REFERENCE = [[0.2, 0.3, 0.5]]
_NESTED_SIGMA = {"kind": "mmm", "sigma": [[0.5, 0.5, 0.5]]}
_NESTED_ROWS = {
    "kl": ("regularizer", {"kind": "kl", "eta": 0.5,
                           "reference": _NESTED_REFERENCE}, "reference"),
    "mmm": ("regularizer", _NESTED_SIGMA, "sigma"),
    "chi_square_lagrange": ("regularizer", {
        "kind": "chi_square_lagrange", "multiplier": 1.0,
        "reference": _NESTED_REFERENCE, "radius": 0.1}, "reference"),
    "singleton": ("constraint", {"kind": "singleton",
                                 "row": [[1.0], [0.0], [0.0]]}, "reference"),
    "kl_ball": ("constraint", {"kind": "kl_ball", "radius": 0.1,
                               "reference": _NESTED_REFERENCE}, "reference"),
    "l1_ball": ("constraint", {"kind": "l1_ball", "radius": 0.1,
                               "reference": _NESTED_REFERENCE}, "reference"),
    "l2_ball": ("constraint", {"kind": "l2_ball", "radius": 0.1,
                               "reference": _NESTED_REFERENCE}, "reference"),
    "phi_ball": ("constraint", {"kind": "phi_ball", "phi": _NESTED_SIGMA,
                                "radius": -0.1}, "sigma"),
}


@pytest.mark.parametrize("kind", sorted(_NESTED_ROWS))
def test_a_per_action_row_must_be_one_row(tmp_path, capsys, kind):
    # a nested row solved on a broadcast (kl), failed with numpy's matmul
    # message (singleton, mmm), or raised mid-solve (exit 1, no record)
    key, block, field = _NESTED_ROWS[kind]
    name = {"regularizer": "regularized", "constraint": "constrained"}[key]
    path = _model_file(tmp_path, "m.json", 4, 3, {"name": name, key: block})
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 2
    record = _one_error(out)
    assert record["kind"] == "validation"
    assert record["message"].startswith(
        f"{field} must be one row of per-action entries, got shape (")


def test_solve_reports_the_monte_carlo_error(tmp_path, capsys):
    bounds = np.tile([-1.0, 1.0], (4, 3, 1)).tolist()
    mc = _model_file(tmp_path, "mc.json", 4, 3, {
        "name": "stochastic", "noise": {"kind": "uniform", "bounds": bounds}})
    code, out, _ = run_cli(capsys, "solve", mc, "--mc-samples", "2000")
    assert code == 0
    report = json.loads(out)
    expected = load_instance(mc, mc_samples=2000).solve_with_error()
    assert report["mc_std_error"] > 0
    assert report["mc_std_error"] == expected[1]
    assert report["value"] == expected[0].value.tolist()
    code, out, _ = run_cli(capsys, "solve",
                           _model_file(tmp_path, "std.json", 4, 3))
    assert code == 0
    assert "mc_std_error" not in json.loads(out)


@pytest.mark.parametrize("method", ["bogus", 3, None])
@pytest.mark.parametrize("command", ["solve", "compare"])
def test_an_unknown_method_is_a_validation_error(tmp_path, capsys, method,
                                                 command):
    # it solved by Monte Carlo without being flagged so: a compare then
    # read "refuted", which no Monte Carlo side may conclude
    bounds = np.tile([-1.0, 1.0], (4, 3, 1)).tolist()
    mc = _model_file(tmp_path, "mc.json", 4, 3, {
        "name": "stochastic", "noise": {"kind": "uniform", "bounds": bounds},
        "method": method})
    std = _model_file(tmp_path, "std.json", 4, 3)
    argv = {"solve": [mc], "compare": [mc, std, "--trials", "2"]}[command]
    code, out, _ = run_cli(capsys, command, *argv, "--mc-samples", "1000")
    assert code == 2
    record = _one_error(out)
    assert record["kind"] == "validation"
    assert record["message"] == ("method must be 'auto', 'closed_form' or "
                                 f"'mc', got {method!r}")


def test_the_gap_tol_message_names_the_flag(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", chooser_model_dict())
    code, out, _ = run_cli(capsys, "compare", path, path, "--gap-tol", "-1")
    assert code == 2
    record = _one_error(out)
    assert record["violations"] == [
        "--gap-tol must be a finite number >= 0, got -1.0"]
    code, out, _ = run_cli(capsys, "compare", path, path, "--gap-tol", "0",
                           "--trials", "2")
    assert code == 0
    assert json.loads(out)["tol"] == 0.0


def test_a_files_mc_samples_wins_over_the_flag(tmp_path, capsys):
    fw = {"name": "stochastic", "mc_samples": 500,
          "noise": {"kind": "uniform", "bounds": [[[0.0, 1.0], [0.0, 1.0]],
                                                  [[0.0, 1.0], [0.0, 1.0]]]}}
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    code, out, _ = run_cli(capsys, "solve", path, "--mc-samples", "700")
    assert code == 0
    report = json.loads(out)
    assert report["framework"]["mc_samples"] == 500
    assert report["config"]["mc_samples"] == 700
    # a file written without the key still holds the count it was loaded at
    del fw["mc_samples"]
    path = write_json(tmp_path / "m.json", chooser_model_dict(fw))
    saved = tmp_path / "saved.json"
    modelio.save_instance(load_instance(path, mc_samples=700), saved)
    assert json.loads(saved.read_text())["framework"]["mc_samples"] == 700
