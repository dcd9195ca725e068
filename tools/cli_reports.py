"""Write every CLI output of the benchmark's `small_inner_cli` ops to a tree.

Runs each `mdpkit` CLI op of the `small_inner_cli` workload (from
`bench/workloads.py`, imported read-only) once, in-process, against the
checkout at ROOT, then two Monte Carlo ops that no workload op covers (a
`solve` of a 4x3 uniform-noise model and a `compare` of it against its
marginal-moment robust twin), and writes under OUT:

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


def monte_carlo_ops(seed, work, workloads):
    """`solve-mc-uniform` and `compare-mc-uniform-mmm`, as workload ops.

    A 4x3 model with Uniform[-h, h] noise per entry, drawn from SEED, and
    its robust twin, whose marginal-moment sigma h / sqrt(3) is each
    entry's standard deviation; 20,000 Monte Carlo samples.
    """
    from mdpkit.core import random_mdp
    from mdpkit.modelio import model_to_dict

    model = random_mdp(4, 3, seed=[seed, 24], discount=0.5)
    half = workloads._rng(seed, 24).uniform(0.2, 1.0, (4, 3))
    frameworks = {
        "mc-uniform": {"name": "stochastic", "noise": {
            "kind": "uniform",
            "bounds": np.stack([-half, half], axis=-1).tolist()}},
        "mmm": {"name": "distributional", "ambiguity": {
            "kind": "mmm", "sigma": (half / np.sqrt(3.0)).tolist()}},
    }
    paths = {}
    for name, framework in frameworks.items():
        paths[name] = str(Path(work, name + ".json"))
        Path(paths[name]).write_text(json.dumps(
            {**model_to_dict(model), "framework": framework}))
    common = ["--mc-samples", "20000", "--tol", "1e-08", "--seed", str(seed)]
    argvs = {"solve-mc-uniform": ["solve", paths["mc-uniform"]],
             "compare-mc-uniform-mmm": ["compare", paths["mc-uniform"],
                                        paths["mmm"], "--trials", "3"]}
    return [workloads.Op(name, lambda argv=argv + common:
                         workloads._cli_run(argv), None, cli=True)
            for name, argv in argvs.items()]


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
                   if op.cli] + monte_carlo_ops(seed, work, workloads)
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
