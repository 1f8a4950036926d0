"""Exact-count check: two traced runs per workload must agree on every count.

Run from the root of a checkout:

    python3 perfbench/check_counts.py            # compare with the baseline
    python3 perfbench/check_counts.py --write    # record a new baseline

For each workload this makes two short traced runs with the same seed
and compares their count metrics (calls, FFTs, bytes, repeat share); the
seed matters only to the byte counts, through the WRG1 metadata. They
must be identical to each other and to ``baseline_counts.json``, which
records, among the rest, 160 grid FFTs for one RK4 step at n=64. A
change that moves a count on purpose shows up here as a difference from
the baseline; report it as a count, the run-to-run check still applies.

Exit code 0 when everything matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline_counts.json")
WORKLOADS = ("evolve", "analyze", "cli-cold")
SEED = 101


def _is_count(name: str) -> bool:
    return name.endswith((".calls", ".ffts", "bytes_computed", "repeat_frac")) or name.startswith(
        "wrg1.bytes_"
    )


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: traced run failed its checks: {proc.stderr[-500:]}")
    return {k: v["value"] for k, v in sorted(result["metrics"].items()) if _is_count(k)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="record the counts as the new baseline")
    args = ap.parse_args(argv)

    problems = []
    counts = {}
    for w in WORKLOADS:
        first, second = traced_counts(w, SEED), traced_counts(w, SEED)
        if first != second:
            diff = sorted(k for k in first if first[k] != second.get(k))
            problems.append(f"{w}: counts differ between two runs: {diff}")
        counts[w] = first
        print(f"{w}: {len(first)} counts, {'identical' if first == second else 'DIFFERENT'} across two runs")

    if args.write:
        with open(BASELINE, "w") as fh:
            json.dump(counts, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {BASELINE}")
    else:
        with open(BASELINE) as fh:
            baseline = json.load(fh)
        for w in WORKLOADS:
            for k, v in baseline[w].items():
                if counts[w].get(k) != v:
                    problems.append(f"{w}: {k} = {counts[w].get(k)!r}, baseline {v!r}")
    for p in problems:
        print("MISMATCH", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
