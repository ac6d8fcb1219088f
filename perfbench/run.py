"""The repository's benchmark: one command, four workloads.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload catalog-batch --seed 1 --seconds 24 --trace 0

Workloads: ``catalog-batch``, ``interactive``, ``contribute``, ``train``
(see ``workloads.py``).  With ``--trace 0`` the run measures for
``--seconds`` untraced and reports the end-to-end metrics; with
``--trace 1`` it measures half the time untraced and half traced, and
reports the per-layer metrics (``layers.py``) with the tracing overhead.

Standard output: provenance and a human-readable report, then, as the
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A wrong answer from the program prints ``correct: false``
and exits 1; a run whose load generator fell behind its schedule is
invalid and exits 3 without a result.  Everything the run writes goes
under ``.bench_build/perfbench`` in the checkout; the artifact pack the
serving workloads start from is built there once per source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalog-batch", "interactive", "contribute", "train")


def provenance(root: Path) -> dict:
    """Host facts and ``src/`` line counts per package (recorded only)."""
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    lines: dict = {}
    src = root / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src).parts
        package = relative[0] if len(relative) > 1 else "(top)"
        with path.open("rb") as handle:
            lines[package] = lines.get(package, 0) + sum(1 for _ in handle)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(root / "src")]
    import layers
    import workloads

    cache = root / ".bench_build" / "perfbench"
    cache.mkdir(parents=True, exist_ok=True)
    pack = workloads.build_pack(root, cache)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=cache))
    ctx = workloads.Context(root, pack, work, args.seed, args.seconds,
                            bool(args.trace))
    try:
        if args.workload == "train":
            segments = workloads.run_train(ctx)
        else:
            segments = workloads.run_serving(ctx, args.workload)
    except workloads.WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = segments[0]
    print("# provenance " + json.dumps(provenance(root), sort_keys=True))
    for seg in segments:
        if seg.late_ms:
            late = layers.percentile(seg.late_ms, 99.0)
            if late > workloads.LATE_LIMIT_MS:
                print(f"INVALID RUN: load generator p99 lateness {late:.1f} ms "
                      f"> {workloads.LATE_LIMIT_MS} ms", file=sys.stderr)
                return 3

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g}")
    for line in layers.report(args.workload, untraced):
        print(line)

    if args.trace:
        metrics = layers.per_layer(args.workload, untraced, segments[1])
        print("# per-layer (traced half; 0 = layer not on this workload's path)")
        for line in layers.render(metrics):
            print(line)
        names = [name for name, *_ in layers.PER_LAYER]
    else:
        metrics = layers.end_to_end(args.workload, untraced)
        names = [name for name, *_ in layers.END_TO_END]
    attempted = sum(seg.tally.attempted for seg in segments)
    failed = sum(seg.tally.failed for seg in segments)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": layers.UNITS[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
