"""One measured process: a set-up probe, or passes of a workload.

    python3 perfbench/child.py --t0 T --probe
    python3 perfbench/child.py --t0 T --workload W --seed S --workdir D --seconds N
                               [--trace] [--inject X]

``T`` is the parent's ``time.monotonic()`` just before launch, so ``setup_s``
runs from launch until ``import edgeblock`` returns.  edgeblock is imported
from ``src/`` of the checkout this file sits in, never from elsewhere.
The child repeats the workload's pass, checking each one, until ``N``
seconds are used (at least one pass).  The last stdout line is a JSON object
with every pass's ``wall_s`` and the process's measurements.
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

INJECTIONS = ("over_budget", "missing_row", "wrong_optimum")


def import_edgeblock():
    sys.path.insert(0, str(SRC))
    import edgeblock
    import edgeblock.generators  # noqa: F401  (not imported by the package itself)

    if Path(edgeblock.__file__).resolve().parent != SRC / "edgeblock":
        raise SystemExit(f"edgeblock imported from {edgeblock.__file__}, not from {SRC}")
    return edgeblock


def peak_rss_mb() -> float:
    """High-water RSS of this process image, from /proc/self/status.

    ``ru_maxrss`` would not do: Linux carries the parent's peak over fork
    and exec, so a child of a parent that generated the desk graph would
    report that graph's memory.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _inject(kind, out, kept):
    """Corrupt one output the way a defect in the program would."""
    if kind == "over_budget":
        span = "community.sweep" if kept.get("community.sweep") else "strategies.select"
        i = next(i for i, (k, _) in enumerate(kept[span]) if k > 0)
        k = kept[span][i][0]
        kept[span][i] = (k, np.arange(k + 1))
    elif kind == "missing_row":
        lines = out["details"].read_text().splitlines(keepends=True)
        out["details"].write_text("".join(lines[:-1]))
    elif kind == "wrong_optimum":
        i = next(i for i, c in enumerate(out["checks"]) if c.opt_eb is not None)
        out["checks"][i] = dataclasses.replace(out["checks"][i], opt_eb=out["checks"][i].opt_eb + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--workdir", type=Path)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--inject", choices=INJECTIONS)
    args = p.parse_args(argv)

    eb = import_edgeblock()
    setup_s = time.monotonic() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks
    import tracing
    from workloads import WORKLOADS, Evaluate

    jobs = WORKLOADS[args.workload]
    inputs = json.loads((args.workdir / "inputs.json").read_text())
    rec = tracing.Recorder(timed=args.trace)
    rec.install()
    tally = checks.Tally()
    walls, layers = [], []
    start = time.monotonic()
    while True:
        rec.reset()
        done = []
        t = time.perf_counter()
        for job, spec in jobs:
            with rec.span(f"job.{job}"):
                out = spec.run(eb, job, args.seed, args.workdir / f"{job}.txt",
                               args.workdir / "out")
            done.append((job, spec, out, rec.take_kept()))
        walls.append(time.perf_counter() - t)
        if len(walls) == 1:
            # the first pass in a fresh process, as one CLI call would see it
            peak_mb = peak_rss_mb()

        if args.inject:
            need = "checks" if args.inject == "wrong_optimum" else "details"
            _inject(args.inject, *next((out, kept) for *_, out, kept in done if need in out))
        counts, merged = {}, {}
        for job, spec, out, kept in done:
            if isinstance(spec, Evaluate):
                found = checks.check_evaluate(out, kept, inputs[job]["sha256"], tally)
            else:
                found = checks.check_hardness(out, tally)
            for name, value in found.items():
                counts[name] = counts.get(name, 0) + value
            for name, values in kept.items():
                merged.setdefault(name, []).extend(values)
        if args.trace:
            names = [job for spec in WORKLOADS.values() for job, _ in spec]
            layers.append(checks.layer_metrics(rec.totals(), merged, counts, names))
        # stop once the next pass of average length would end more than half
        # a pass after the run's time, so that runs average --seconds
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / len(walls) >= args.seconds:
            break

    result = {
        "setup_s": setup_s, "walls": walls, "peak_rss_mb": peak_mb,
        "attempted": tally.attempted, "failed": tally.failed, "notes": tally.notes,
        "absent": rec.absent, "numba": bool(eb.NUMBA_ENABLED),
    }
    if args.trace:
        result["layers"] = layers
        (args.workdir / "spans.json").write_text(json.dumps(rec.span_records()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
