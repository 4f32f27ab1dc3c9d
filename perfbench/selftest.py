#!/usr/bin/env python3
"""Self-test of the benchmark's checks and counters (about two minutes).

    python3 perfbench/selftest.py

1. Each injected defect (an over-budget blocked set, a missing detail row, a
   wrong brute-force optimum) must make run.py exit non-zero with failed > 0.
2. Two traced runs on the same seed must give identical work counts.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
INJECTED = (("evaluate-suite", "over_budget"), ("evaluate-suite", "missing_row"),
            ("hardness-lab", "wrong_optimum"))
COUNTS = ("cascade.replicates", "community.louvain_runs", "hardness.subsets",
          "evaluation.cf_out_of_range")


def run(*args):
    proc = subprocess.run([sys.executable, str(RUN), "--seconds", "1", *args],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    ok = True
    for workload, defect in INJECTED:
        code, result = run("--workload", workload, "--inject", defect)
        caught = code != 0 and result is not None and result["failed"] > 0
        ok &= caught
        failed = result["failed"] if result else "-"
        print(f"{'PASS' if caught else 'FAIL'} inject {defect} on {workload}: "
              f"exit {code}, failed {failed}")
    for workload in ("evaluate-suite", "hardness-lab"):
        first, second = (run("--workload", workload, "--trace", "1")[1] for _ in range(2))
        same = bool(first and second) and all(
            first["metrics"][c] == second["metrics"][c] for c in COUNTS)
        ok &= same
        shown = {c: first["metrics"][c]["value"] for c in COUNTS} if first else None
        print(f"{'PASS' if same else 'FAIL'} repeat counts on {workload}: {shown}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
