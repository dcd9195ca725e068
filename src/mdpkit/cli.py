"""Command-line front end: `mdpkit gen|solve|compare|figure1|convert`.

Every flag can also be set through an environment variable with the MDPKIT_
prefix (MDPKIT_TOL, MDPKIT_MAX_ITER, MDPKIT_MC_SAMPLES, MDPKIT_SEED,
MDPKIT_TRIALS, MDPKIT_OUT); explicit flags win.  Numeric fields in CSV files
use 17-significant-digit formatting so doubles round-trip exactly, report
files are JSON with sorted keys, and wall-clock timings go to stderr only,
which keeps every artifact byte-identical for a fixed (config, seed) at a
fixed BLAS thread count (the Newton steps' linear solves may round
differently at another).

Exit codes: 0 success, 2 validation failure, 3 shape mismatch between
compared instances, 4 conversion precondition failure, 5 non-convergence.
Every failure, a bad flag or MDPKIT_ value included, prints one error record
on stdout and nothing else.  With --out, every file is written before the
report is printed, and the report's own file is written last.
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

from .core import (ConvergenceError, ModelValidationError, _per_state,
                   q_vector, random_mdp)
from .equivalence import (ConstrainedInstance, RegularizedInstance,
                          StructureMismatchError, check_equivalence,
                          counterexample_suite, interior_policy_sweep)
from .modelio import (framework_to_dict, load_instance, save_instance,
                      save_model)
from .stochastic import mc_counterexample_ratio, uniform_counterexample_ratio

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SHAPE_MISMATCH = 3
EXIT_CONVERSION = 4
EXIT_NON_CONVERGENCE = 5

ENV_PREFIX = "MDPKIT_"


class ConversionError(ValueError):
    """A model does not meet a conversion's precondition (exit code 4)."""


# flag -> (type, fallback, help).  Every command takes the _COMMON flags;
# compare also takes --gap-tol.  Flags left unset parse to None and take
# MDPKIT_<FLAG> or the fallback when a command runs, so the parser is built
# once per process and still sees the current environment
_FLAGS = {
    "tol": (float, 1e-10, "solver tolerance (default 1e-10)"),
    "max_iter": (int, 100000, "value-iteration sweep cap"),
    "mc_samples": (int, 100000, "Monte Carlo draws per backup"),
    "seed": (int, 0, "root seed for every random stream"),
    "trials": (int, 50, "reward tables per comparison"),
    "out": (str, None, "output directory (gen: output file)"),
    "gap_tol": (float, 1e-8, "value/policy gap tolerance for the verdict"),
}
_COMMON = ("tol", "max_iter", "mc_samples", "seed", "trials", "out")


def _encode(obj):
    """The JSON form of a dataclass, an array or a numpy scalar."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} has no JSON form")


def _dump_report(obj) -> str:
    return json.dumps(obj, default=_encode, indent=2, sort_keys=True) + "\n"


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv(header, rows):
    """A writer of one CSV file, its numbers in 17 significant digits.

    `rows` is read when the file is written, so a generator of rows costs
    nothing unless --out is given.
    """
    return lambda path: _write_text(path, "\n".join(
        [",".join(header),
         *(",".join("%.17g" % x for x in row) for row in rows)]) + "\n")


def _error_record(code, kind, message, **extra):
    # strict JSON has no NaN or infinity, so a non-finite residual is null
    if extra.get("residual") is not None \
            and not np.isfinite(extra["residual"]):
        extra["residual"] = None
    record = {"error": {"code": code, "kind": kind, "message": message,
                        **extra}}
    sys.stdout.write(_dump_report(record))
    return code


def _timing(label, start):
    sys.stderr.write(f"{label}: {time.perf_counter() - start:.3f}s\n")


def _emit(args, report, name, files):
    """Write the --out files in order, then the report as `name`; print it.

    `files` are (file name, writer) pairs, a writer taking the file's path.
    Every file is written before anything is printed, and the report's own
    file last, so a failed write leaves its error record alone on stdout
    and no report file behind.
    """
    text = _dump_report(report)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        if not os.access(args.out, os.W_OK):
            raise ModelValidationError(
                [f"output path {args.out!r} is not writable"])
        for file, write in files:
            write(os.path.join(args.out, file))
        _write_text(os.path.join(args.out, name), text)
    sys.stdout.write(text)
    return EXIT_OK


def _configure(args):
    """Give each unset flag MDPKIT_<FLAG> or its fallback, then check them.

    A flag of every command (_COMMON) whose fallback is positive must be
    positive, and --gap-tol finite and nonnegative.  Every problem raises,
    together, one ModelValidationError.
    """
    problems = []
    for key, (cast, fallback, _) in _FLAGS.items():
        if key not in vars(args):
            continue
        if key == "trials" and args.command == "figure1":
            fallback = 20
        if getattr(args, key) is None:
            raw = os.environ.get(ENV_PREFIX + key.upper())
            try:
                setattr(args, key, fallback if raw is None else cast(raw))
            except ValueError:
                problems.append(f"environment variable {ENV_PREFIX}"
                                f"{key.upper()}={raw!r} is not a valid "
                                f"{cast.__name__}")
                continue
        value, flag = getattr(args, key), "--" + key.replace("_", "-")
        if key == "gap_tol" and not 0 <= value < np.inf:
            problems.append(f"{flag} must be a finite number >= 0, got {value}")
        elif key in _COMMON and (fallback or 0) > 0 and not value > 0:
            problems.append(f"{flag} must be positive, got {value}")
    if problems:
        raise ModelValidationError(problems)


def _config_echo(args):
    # the output path is deliberately not echoed: reports must be
    # byte-identical for a fixed (config, seed) wherever they are written
    return {key: getattr(args, key) for key in _COMMON if key != "out"}


def _load(path, args):
    return load_instance(path, mc_samples=args.mc_samples, seed=args.seed)


def _discrepancy_notes(instance, result):
    """Each state's published-dual note, where its feasible set has one."""
    if not isinstance(instance, ConstrainedInstance):
        return []
    sets = instance.constraints
    q = q_vector(instance.model, result.value)
    return [{"state": s, **con.dual_note(w)} for s, (con, w) in enumerate(
        zip(sets if _per_state(sets) else [sets] * len(q), q))
        if hasattr(con, "dual_note")]


def cmd_solve(args):
    instance = _load(args.model, args)
    start = time.perf_counter()
    result, error = instance.solve_with_error(tol=args.tol,
                                              max_iter=args.max_iter)
    _timing("solve", start)
    report = {"command": "solve",
              "config": _config_echo(args),
              "framework": framework_to_dict(instance),
              "value": result.value,
              "policy": result.policy,
              "iterations": result.iterations,
              "residual": result.residual,
              "error_bound": result.error_bound,
              "discrepancy_notes": _discrepancy_notes(instance, result)}
    if instance.monte_carlo:
        report["mc_std_error"] = error
    rows = ((s, a, p) for s, row in enumerate(result.policy)
            for a, p in enumerate(row))
    return _emit(args, report, "report.json", [
        ("value.csv", _csv(("state", "value"), enumerate(result.value))),
        ("policy.csv", _csv(("state", "action", "probability"), rows))])


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
                               solve_tol=args.tol, max_iter=args.max_iter)
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
    rows = zip(range(report.trials), report.value_gaps, report.policy_gaps)
    return _emit(args, payload, "report.json", [
        ("trials.csv", _csv(("trial", "value_gap", "policy_gap"), rows))])


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
    ratios = ((t, uniform_counterexample_ratio(0.0, t),
               mc_counterexample_ratio(0.0, t, samples=args.mc_samples,
                                       seed=args.seed))
              for t in np.linspace(0.05, 0.95, 19))
    sweep = zip(*interior_policy_sweep(eta=1.0, settings=50))
    return _emit(args, payload, "edges.json", [
        ("prop2_ratio.csv", _csv(("t", "ratio_printed", "ratio_mc"), ratios)),
        ("theorem3_sweep.csv",
         _csv(("reward_gap", "first_action_probability"), sweep))])


def cmd_convert(args):
    from .constrained import ct_to_r_convert, r_to_ct_convert

    instance = _load(args.model, args)
    start = time.perf_counter()
    if args.direction == "r2ct":
        if not isinstance(instance, RegularizedInstance):
            raise ConversionError("r2ct needs a regularized framework file, "
                                  "got " + type(instance).__name__)
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
            raise ConversionError("ct2r needs a constrained framework file, "
                                  "got " + type(instance).__name__)
        try:
            conv = ct_to_r_convert(instance.model, instance.constraints,
                                   tol=args.tol)
        except ValueError as exc:
            raise ConversionError(str(exc)) from exc
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
    # a converted model with no file form fails before any report
    return _emit(args, {"command": "convert",
                        "config": _config_echo(args),
                        "verification": verification},
                 "verification.json",
                 [("converted.json",
                   lambda path: save_instance(converted, path))])


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


def _add_flags(parser, keys=_COMMON):
    for key in keys:
        cast, _, text = _FLAGS[key]
        parser.add_argument("--" + key.replace("_", "-"), type=cast,
                            help=text)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are validation failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ModelValidationError([message])


@functools.cache
def build_parser():
    parser = _Parser(
        prog="mdpkit",
        description="Tabular MDP solvers across regularized, noisy-reward, "
                    "robust, and feasible-set frameworks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="value-iterate one framework instance")
    p.add_argument("model", help="framework-instance JSON file")
    _add_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare",
                       help="randomized equivalence check of two instances")
    p.add_argument("model_x")
    p.add_argument("model_y")
    p.add_argument("--offset", default=None,
                   help="constant reward offset: scalar or JSON array file")
    _add_flags(p, ("gap_tol",) + _COMMON)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("figure1",
                       help="run the nested-relation counterexample suite")
    _add_flags(p)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("convert",
                       help="convert between regularized and constrained form")
    p.add_argument("model")
    p.add_argument("--direction", choices=("r2ct", "ct2r"), required=True)
    _add_flags(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("gen", help="write a random dense model file")
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--actions", type=int, default=3)
    p.add_argument("--discount", type=float, default=0.9)
    p.add_argument("--reward-min", type=float, default=-1.0)
    p.add_argument("--reward-max", type=float, default=1.0)
    _add_flags(p)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _configure(args)
        return args.func(args)
    except ModelValidationError as exc:
        sys.stderr.write(f"validation failure: {exc}\n")
        return _error_record(EXIT_VALIDATION, "validation", str(exc),
                             violations=exc.violations)
    except StructureMismatchError as exc:
        sys.stderr.write(f"shape mismatch: {exc}\n")
        return _error_record(EXIT_SHAPE_MISMATCH, "shape-mismatch", str(exc))
    except ConversionError as exc:
        sys.stderr.write(f"conversion precondition failure: {exc}\n")
        return _error_record(EXIT_CONVERSION, "conversion-precondition",
                             str(exc))
    except ValueError as exc:
        sys.stderr.write(f"validation failure: {exc}\n")
        return _error_record(EXIT_VALIDATION, "validation", str(exc))
    except ConvergenceError as exc:
        sys.stderr.write(f"did not converge: {exc}\n")
        return _error_record(EXIT_NON_CONVERGENCE, "non-convergence", str(exc),
                             residual=exc.residual)
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return _error_record(EXIT_VALIDATION, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
