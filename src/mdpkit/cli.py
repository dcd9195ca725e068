"""Command-line front end: `mdpkit gen|solve|compare|figure1|convert`.

Every flag can also be set through an environment variable with the MDPKIT_
prefix (MDPKIT_TOL, MDPKIT_MAX_ITER, MDPKIT_MC_SAMPLES, MDPKIT_SEED,
MDPKIT_TRIALS, MDPKIT_OUT); explicit flags win.  Numeric fields in CSV files
use 17-significant-digit formatting so doubles round-trip exactly, report
files are JSON with sorted keys, and wall-clock timings go to stderr only,
which keeps every artifact byte-identical for a fixed (config, seed).

Exit codes: 0 success, 2 validation failure, 3 shape mismatch between
compared instances, 4 conversion precondition failure, 5 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from .constrained import (L1Ball, L2ChiSquareBall, l1_dual_discrepancy,
                          l2_dual_discrepancy)
from .core import (ConvergenceError, ModelValidationError, _per_state,
                   q_vector, random_mdp)
from .equivalence import (ConstrainedInstance, RegularizedInstance,
                          StructureMismatchError, check_equivalence,
                          counterexample_suite, interior_policy_sweep)
from .modelio import (instance_to_dict, load_instance, save_instance,
                      save_model)
from .stochastic import mc_counterexample_ratio, uniform_counterexample_ratio

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SHAPE_MISMATCH = 3
EXIT_CONVERSION = 4
EXIT_NON_CONVERGENCE = 5

ENV_PREFIX = "MDPKIT_"


def _env_default(name, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise SystemExit(
            f"environment variable {ENV_PREFIX + name}={raw!r} is not "
            f"a valid {cast.__name__}")


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _jsonify(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonify(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _dump_report(obj) -> str:
    return json.dumps(_jsonify(obj), indent=2, sort_keys=True) + "\n"


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _error_record(code, kind, message, **extra):
    record = {"error": {"code": code, "kind": kind, "message": message,
                        **extra}}
    sys.stdout.write(_dump_report(record))
    return code


def _timing(label, start):
    sys.stderr.write(f"{label}: {time.perf_counter() - start:.3f}s\n")


def _ensure_out_dir(out):
    if out is None:
        return None
    os.makedirs(out, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise ModelValidationError([f"output path {out!r} is not writable"])
    return out


def _check_config(args):
    problems = [f"--{key.replace('_', '-')} must be positive, got "
                f"{getattr(args, key)}"
                for key in ("tol", "max_iter", "mc_samples", "trials")
                if getattr(args, key) <= 0]
    if problems:
        raise ModelValidationError(problems)


def _config_echo(args):
    # the output path is deliberately not echoed: reports must be
    # byte-identical for a fixed (config, seed) wherever they are written
    return {key: getattr(args, key)
            for key in ("tol", "max_iter", "mc_samples", "seed", "trials")}


def _load(path, args):
    return load_instance(path, mc_samples=args.mc_samples, seed=args.seed)


def _value_csv(value):
    return (("state", "value"),
            [(str(s), _fmt(v)) for s, v in enumerate(value)])


def _policy_csv(policy):
    rows = [(str(s), str(a), _fmt(policy[s, a]))
            for s in range(policy.shape[0]) for a in range(policy.shape[1])]
    return ("state", "action", "probability"), rows


def _discrepancy_notes(instance, result):
    """Published-dual discrepancy reports for L1/L2 feasible sets, per state."""
    if not isinstance(instance, ConstrainedInstance):
        return []
    sets = instance.constraints
    notes = []
    for s, w in enumerate(q_vector(instance.model, result.value)):
        con = sets[s] if _per_state(sets) else sets
        if not isinstance(con, (L1Ball, L2ChiSquareBall)):
            continue
        if isinstance(con, L1Ball):
            rep = l1_dual_discrepancy(w, con.reference, con.radius)
            kind = "l1"
        else:
            rep = l2_dual_discrepancy(w, con.reference, con.radius)
            kind = "l2"
        notes.append({"state": s, "kind": kind, "value": rep.value,
                      "paper_dual_value": rep.paper_dual_value,
                      "gap": rep.gap, "note": rep.note})
    return notes


def cmd_solve(args):
    instance = _load(args.model, args)
    start = time.perf_counter()
    result = instance.solve(tol=args.tol, max_iter=args.max_iter)
    _timing("solve", start)
    report = {"command": "solve",
              "config": _config_echo(args),
              "framework": instance_to_dict(instance)["framework"],
              "value": result.value,
              "policy": result.policy,
              "iterations": result.iterations,
              "residual": result.residual,
              "error_bound": result.error_bound,
              "discrepancy_notes": _discrepancy_notes(instance, result)}
    text = _dump_report(report)
    sys.stdout.write(text)
    out = _ensure_out_dir(args.out)
    if out:
        _write_text(os.path.join(out, "report.json"), text)
        header, rows = _value_csv(result.value)
        _write_csv(os.path.join(out, "value.csv"), header, rows)
        header, rows = _policy_csv(result.policy)
        _write_csv(os.path.join(out, "policy.csv"), header, rows)
    return EXIT_OK


def _parse_offset(raw):
    if raw is None:
        return 0.0
    try:
        return float(raw)
    except ValueError:
        pass
    with open(raw, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelValidationError(
                [f"offset file {raw} is not valid JSON: {exc}"])
    return np.asarray(data, dtype=float)


def cmd_compare(args):
    x = _load(args.model_x, args)
    y = _load(args.model_y, args)
    offset = _parse_offset(args.offset)
    start = time.perf_counter()
    report = check_equivalence(x, y, offset=offset, trials=args.trials,
                               seed=args.seed, tol=args.gap_tol,
                               solve_tol=args.tol)
    _timing("compare", start)
    payload = {"command": "compare",
               "config": _config_echo(args),
               "verdict": report.verdict,
               "trials": report.trials,
               "tol": report.tol,
               "tol_inflation": report.tol_inflation,
               "mc_backed": report.mc_backed,
               "max_value_gap": max(report.value_gaps),
               "max_policy_gap": max(report.policy_gaps),
               "offset": report.offset,
               "witness": report.witness}
    text = _dump_report(payload)
    sys.stdout.write(text)
    out = _ensure_out_dir(args.out)
    if out:
        _write_text(os.path.join(out, "report.json"), text)
        rows = [(str(t), _fmt(v), _fmt(p))
                for t, (v, p) in enumerate(zip(report.value_gaps,
                                               report.policy_gaps))]
        _write_csv(os.path.join(out, "trials.csv"),
                   ("trial", "value_gap", "policy_gap"), rows)
    return EXIT_OK


def cmd_figure1(args):
    start = time.perf_counter()
    report = counterexample_suite(seed=args.seed, trials=args.trials,
                                  mc_samples=args.mc_samples)
    _timing("figure1", start)
    payload = {"command": "figure1",
               "config": _config_echo(args),
               "seed": report.seed,
               "all_expected": report.all_expected(),
               "edges": report.edges}
    text = _dump_report(payload)
    sys.stdout.write(text)
    out = _ensure_out_dir(args.out)
    if out:
        _write_text(os.path.join(out, "edges.json"), text)
        ts = np.linspace(0.05, 0.95, 19)
        rows = [(_fmt(t), _fmt(uniform_counterexample_ratio(0.0, t)),
                 _fmt(mc_counterexample_ratio(0.0, t,
                                              samples=args.mc_samples,
                                              seed=args.seed)))
                for t in ts]
        _write_csv(os.path.join(out, "prop2_ratio.csv"),
                   ("t", "ratio_printed", "ratio_mc"), rows)
        gaps, probs = interior_policy_sweep(eta=1.0, settings=50)
        _write_csv(os.path.join(out, "theorem3_sweep.csv"),
                   ("reward_gap", "first_action_probability"),
                   [(_fmt(g), _fmt(p)) for g, p in zip(gaps, probs)])
    return EXIT_OK


def cmd_convert(args):
    from .constrained import ct_to_r_convert, r_to_ct_convert

    instance = _load(args.model, args)
    start = time.perf_counter()
    if args.direction == "r2ct":
        if not isinstance(instance, RegularizedInstance):
            return _error_record(
                EXIT_CONVERSION, "conversion-precondition",
                "r2ct needs a regularized framework file, got "
                + type(instance).__name__)
        conv = r_to_ct_convert(instance.model, instance.phi_per_state,
                               solve_tol=args.tol)
        converted = ConstrainedInstance(conv.ct_model, conv.constraints)
        check = converted.solve(tol=args.tol, max_iter=args.max_iter)
        verification = {
            "direction": "r2ct",
            "constants": conv.constants,
            "policy_sup_gap": float(np.max(np.abs(check.policy
                                                  - conv.base_policy))),
            "base_value": conv.base_value,
            "converted_value": check.value,
        }
    else:
        if not isinstance(instance, ConstrainedInstance):
            return _error_record(
                EXIT_CONVERSION, "conversion-precondition",
                "ct2r needs a constrained framework file, got "
                + type(instance).__name__)
        try:
            conv = ct_to_r_convert(instance.model, instance.constraints,
                                   tol=args.tol)
        except ValueError as exc:
            return _error_record(EXIT_CONVERSION, "conversion-precondition",
                                 str(exc))
        converted = RegularizedInstance(instance.model, conv.regularizers)
        check = converted.solve(tol=args.tol, max_iter=args.max_iter)
        verification = {
            "direction": "ct2r",
            "multipliers": conv.multipliers,
            "value_sup_gap": float(np.max(np.abs(check.value
                                                 - conv.ct_value))),
            "policy_sup_gap": float(np.max(np.abs(check.policy
                                                  - conv.ct_policy))),
            "max_slackness": float(np.max(np.abs(conv.slackness))),
        }
    _timing("convert", start)
    text = _dump_report({"command": "convert",
                         "config": _config_echo(args),
                         "verification": verification})
    out = _ensure_out_dir(args.out)
    if out:
        # a converted model with no file form fails here, before any report
        save_instance(converted, os.path.join(out, "converted.json"))
        _write_text(os.path.join(out, "verification.json"), text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_gen(args):
    model = random_mdp(args.states, args.actions, seed=args.seed,
                       reward_range=(args.reward_min, args.reward_max),
                       discount=args.discount)
    path = args.out or "model.json"
    if os.path.isdir(path):
        path = os.path.join(path, "model.json")
    save_model(model, path)
    sys.stderr.write(f"wrote {path}\n")
    return EXIT_OK


# flag -> (type, fallback).  Flags left unset parse to None and take
# MDPKIT_<FLAG> or the fallback when a command runs, so the parser is built
# once per process and still sees the current environment
_FALLBACKS = {"tol": (float, 1e-10), "max_iter": (int, 100000),
              "mc_samples": (int, 100000), "seed": (int, 0),
              "trials": (int, 50), "out": (str, None),
              "gap_tol": (float, 1e-8)}


def _fill_env_defaults(args):
    for key, (cast, fallback) in _FALLBACKS.items():
        if key in vars(args) and getattr(args, key) is None:
            if key == "trials" and args.command == "figure1":
                fallback = 20
            setattr(args, key, _env_default(key.upper(), cast, fallback))


def _add_common(parser):
    parser.add_argument("--tol", type=float,
                        help="solver tolerance (default 1e-10)")
    parser.add_argument("--max-iter", type=int,
                        help="value-iteration sweep cap")
    parser.add_argument("--mc-samples", type=int,
                        help="Monte Carlo draws per backup")
    parser.add_argument("--seed", type=int,
                        help="root seed for every random stream")
    parser.add_argument("--trials", type=int,
                        help="reward tables per comparison")
    parser.add_argument("--out",
                        help="output directory (gen: output file)")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="mdpkit",
        description="Tabular MDP solvers across regularized, noisy-reward, "
                    "robust, and feasible-set frameworks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="value-iterate one framework instance")
    p.add_argument("model", help="framework-instance JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare",
                       help="randomized equivalence check of two instances")
    p.add_argument("model_x")
    p.add_argument("model_y")
    p.add_argument("--offset", default=None,
                   help="constant reward offset: scalar or JSON array file")
    p.add_argument("--gap-tol", type=float,
                   help="value/policy gap tolerance for the verdict")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("figure1",
                       help="run the nested-relation counterexample suite")
    _add_common(p)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("convert",
                       help="convert between regularized and constrained form")
    p.add_argument("model")
    p.add_argument("--direction", choices=("r2ct", "ct2r"), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("gen", help="write a random dense model file")
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--actions", type=int, default=3)
    p.add_argument("--discount", type=float, default=0.9)
    p.add_argument("--reward-min", type=float, default=-1.0)
    p.add_argument("--reward-max", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _fill_env_defaults(args)
    try:
        _check_config(args)
        return args.func(args)
    except ModelValidationError as exc:
        sys.stderr.write(f"validation failure: {exc}\n")
        return _error_record(EXIT_VALIDATION, "validation", str(exc),
                             violations=list(getattr(exc, "violations", [])))
    except StructureMismatchError as exc:
        sys.stderr.write(f"shape mismatch: {exc}\n")
        return _error_record(EXIT_SHAPE_MISMATCH, "shape-mismatch", str(exc))
    except ValueError as exc:
        sys.stderr.write(f"validation failure: {exc}\n")
        return _error_record(EXIT_VALIDATION, "validation", str(exc))
    except ConvergenceError as exc:
        sys.stderr.write(f"did not converge: {exc}\n")
        return _error_record(EXIT_NON_CONVERGENCE, "non-convergence", str(exc),
                             residual=getattr(exc, "residual", None))
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return _error_record(EXIT_VALIDATION, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
