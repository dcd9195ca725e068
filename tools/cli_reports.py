"""Write every CLI output of the benchmark's `small_inner_cli` ops to a tree.

Runs each `mdpkit` CLI op of the `small_inner_cli` workload (from
`bench/workloads.py`, imported read-only) once, in-process, against the
checkout at ROOT, and writes under OUT:

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
import shutil
import sys
import tempfile
from pathlib import Path


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
                   if op.cli]
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
