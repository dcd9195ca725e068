"""Write every CLI output of the benchmark's `small_inner_cli` ops to a tree.

Runs each `mdpkit` CLI op of the `small_inner_cli` workload (from
`bench/workloads.py`, imported read-only) once, in-process, against the
checkout at ROOT, then four ops that no workload op covers: two Monte Carlo
ops (a `solve` of a 4x3 uniform-noise model and a `compare` of it against
its marginal-moment robust twin) and two `convert --direction ct2r` ops of
phi balls whose phi block carries "scale" or "offset"; it writes under OUT:

    <op>.exit, <op>.stdout   each op's exit code and stdout
    <op>/                    the --out files of each convert op, and of every
                             other op run again with --out

`diff -r` of two OUT trees, made from two checkouts at the same seed, checks
that a change keeps every CLI report and artifact byte-identical.

Usage: python tools/cli_reports.py ROOT OUT [SEED]   (SEED defaults to 1)
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np


def _write_model(work, name, model, framework):
    """The model file `<name>.json` under `work`, with this framework."""
    from mdpkit.modelio import model_to_dict

    path = str(Path(work, name + ".json"))
    Path(path).write_text(json.dumps({**model_to_dict(model),
                                      "framework": framework}))
    return path


def monte_carlo_ops(seed, work, workloads):
    """`solve-mc-uniform` and `compare-mc-uniform-mmm`, as workload ops.

    A 4x3 model with Uniform[-h, h] noise per entry, drawn from SEED, and
    its robust twin, whose marginal-moment sigma h / sqrt(3) is each
    entry's standard deviation; 20,000 Monte Carlo samples.
    """
    from mdpkit.core import random_mdp

    model = random_mdp(4, 3, seed=[seed, 24], discount=0.5)
    half = workloads._rng(seed, 24).uniform(0.2, 1.0, (4, 3))
    frameworks = {
        "mc-uniform": {"name": "stochastic", "noise": {
            "kind": "uniform",
            "bounds": np.stack([-half, half], axis=-1).tolist()}},
        "mmm": {"name": "distributional", "ambiguity": {
            "kind": "mmm", "sigma": (half / np.sqrt(3.0)).tolist()}},
    }
    paths = {name: _write_model(work, name, model, framework)
             for name, framework in frameworks.items()}
    common = ["--mc-samples", "20000", "--tol", "1e-08", "--seed", str(seed)]
    argvs = {"solve-mc-uniform": ["solve", paths["mc-uniform"]],
             "compare-mc-uniform-mmm": ["compare", paths["mc-uniform"],
                                        paths["mmm"], "--trials", "3"]}
    return [workloads.Op(name, lambda argv=argv + common:
                         workloads._cli_run(argv), None, cli=True)
            for name, argv in argvs.items()]


def affine_convert_ops(seed, work, workloads):
    """`convert-ct2r-phi-ball-scaled` and `convert-ct2r-phi-ball-offset`.

    A 3x2 model drawn from SEED under one phi ball per state, over the
    entropy at eta = 0.5 scaled by 2 at radius -0.5, or offset by 0.1 at
    radius -0.35: both are the set {entropy >= 0.25}, which excludes every
    one-hot row, so every state's multiplier is positive.
    """
    from mdpkit.core import random_mdp

    model = random_mdp(3, 2, seed=[seed, 5], discount=0.5)
    ops = []
    for name, field, radius in (("scaled", {"scale": 2.0}, -0.5),
                                ("offset", {"offset": 0.1}, -0.35)):
        name = "convert-ct2r-phi-ball-" + name
        ball = {"kind": "phi_ball", "radius": radius,
                "phi": {"kind": "entropy", "eta": 0.5, **field}}
        argv = ["convert", _write_model(work, name, model, {
                    "name": "constrained", "constraint": [ball] * 3}),
                "--direction", "ct2r", "--out", str(Path(work, "out", name)),
                "--tol", repr(workloads.CLI_TOL), "--seed", str(seed)]
        ops.append(workloads.Op(name, lambda argv=argv:
                                workloads._cli_run(argv), None, cli=True))
    return ops


def main(argv):
    root, out = Path(argv[1]).resolve(), Path(argv[2])
    seed = int(argv[3]) if len(argv) > 3 else 1
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import mdpkit.cli as cli
    import workloads

    main, calls = cli.main, []

    def recording(args):
        calls.append(list(args))
        return main(args)

    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        cli.main = recording
        try:
            ops = [op for op in workloads.small_inner_cli(seed, work)
                   if op.cli] + monte_carlo_ops(seed, work, workloads) \
                + affine_convert_ops(seed, work, workloads)
            for op in ops:
                code, text = op.run()
                (out / f"{op.name}.exit").write_text(f"{code}\n")
                (out / f"{op.name}.stdout").write_text(text)
        finally:
            cli.main = main
        for op, args in zip(ops, calls):
            files = out / op.name
            if op.name.startswith("convert-"):
                shutil.copytree(Path(work, "out", op.name), files)
            else:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    main(args + ["--out", str(files)])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
