#!/usr/bin/env python3
"""Pipeline benchmark for edgeblock.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  For each workload the benchmark writes the
seeded input files, then starts one measured child process that repeats the
workload's pass (each of its jobs once, in order) for about ``--seconds``:
it stops once the next pass would end more than half a pass late, and runs
at least one.  Every pass checks its outputs.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (child launch until
``import edgeblock`` returns, median over five probe children and the
measured child), ``wall_s`` (first ingest until the last output of a pass is
written, median over passes) and ``peak_rss_mb`` (VmHWM after the first pass).
``--trace 1`` spends half the run on untraced passes and half on traced
ones in a second child, and reports the median of each per-layer metric
over the traced passes, plus ``trace.overhead_s`` (median traced minus
median untraced ``wall_s``); the spans of the last traced pass go to
``.perfbench-work/<workload>/spans.json``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only if every operation passed its check; ``--inject``
corrupts one output on purpose to show that the checks catch it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import INJECTIONS, ROOT, SRC, import_edgeblock
from workloads import DEFAULT_SEED, WORKLOADS, generate

CHILD = Path(__file__).with_name("child.py")
WORK = ROOT / ".perfbench-work"
PROBES = 5
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("budget_fill") else "count"


class BenchError(RuntimeError):
    pass


def _launch(args: list, deadline: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--t0", repr(t0), *args],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, inject) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = generate(import_edgeblock(), name, seed, workdir)
    (workdir / "inputs.json").write_text(json.dumps(inputs, indent=1))

    probes = [] if trace else [_launch(["--probe"], deadline)["setup_s"] for _ in range(PROBES)]
    pass_args = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    if inject:
        pass_args += ["--inject", inject]
    if trace:
        # half the run untraced, half traced, so the overhead is measured too
        half = ["--seconds", repr(seconds / 2)]
        children = [_launch(pass_args + half, deadline),
                    _launch(pass_args + half + ["--trace"], deadline)]
    else:
        children = [_launch(pass_args + ["--seconds", repr(seconds)], deadline)]
    untraced = children[0]

    result = {
        "workload": name, "seed": seed, "inputs": inputs,
        "passes": sum(len(c["walls"]) for c in children),
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "notes": [n for c in children for n in c["notes"]],
        "absent": sorted({a for c in children for a in c["absent"]}),
        "numba": untraced["numba"],
        "pass_walls": untraced["walls"],
    }
    if trace:
        traced = children[1]
        layers = {k: statistics.median_low(p[k] for p in traced["layers"])
                  for k in traced["layers"][0]}
        layers["trace.overhead_s"] = (statistics.median(traced["walls"])
                                      - statistics.median(untraced["walls"]))
        result["metrics"] = {k: (v, layer_unit(k)) for k, v in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(probes + [untraced["setup_s"]]),
            "wall_s": statistics.median(untraced["walls"]),
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
        result["metrics"] = {k: (v, END_TO_END[k]) for k, v in values.items()}
    return result


def environment(numba: bool) -> str:
    import numpy
    import scipy

    return (f"NUMBA_ENABLED={numba} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} nproc={os.cpu_count()}")


def report(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  passes={result['passes']}")
    for key, d in result["inputs"].items():
        print(f"   input {key}: {d['file']} n={d['n']} m={d['m']} d_max={d['d_max']} "
              f"sha256={d['sha256'][:16]}")
    print(f"   wall_s of each untraced pass: {' '.join(f'{w:.3f}' for w in result['pass_walls'])}")
    for name, (value, unit) in result["metrics"].items():
        print(f"   {name:<28} {value!r} {unit}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"   {'fail_ratio':<28} {ratio!r} ({result['failed']}/{result['attempted']} operations)")
    for note in result["notes"]:
        print(f"   FAILED: {note}")
    if result["absent"]:
        print(f"   absent probes (their metrics read 0): {', '.join(result['absent'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=52.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject", choices=INJECTIONS,
                   help="corrupt one output to show that the checks catch it")
    args = p.parse_args(argv)

    if not (SRC / "edgeblock" / "__init__.py").is_file():
        print(f"error: no edgeblock sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), args.inject))
            report(results[-1])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"   {environment(results[0]['numba'])}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": u}
               for r in results for k, (v, u) in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
