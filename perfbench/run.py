"""wring benchmark: evolve, analyze and cli-cold workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 25 --trace 0

Each workload runs in one worker process, jobs one at a time, at the
package's default FFT worker count. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics from spans around the
package's public entry points (see spans.py). Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``setup_s`` is the median over SETUPS fresh worker processes of the time
from process start through imports, input generation and one warm-up job;
the last of them goes on to the timed phase.

Exit codes: 0 with a result, 1 when a worker fails without a result, 2
when the checkout holds no ``src/wring`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
WORK_ROOT = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def _units() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def _worker(args, workdir, result, setup_only) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--result", result,
    ]
    if setup_only:
        cmd.append("--setup-only")
    # a run must end within 180 s: two set-ups, then the timed worker
    timeout = 30 if setup_only else args.seconds + 80
    t0 = time.monotonic()
    # own process group, so a timeout also stops the worker's CLI children
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if rc != 0:
        raise RuntimeError(f"worker exited {rc}")
    with open(result) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("evolve", "analyze", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "wring", "cli.py")):
        print("perfbench: run from a checkout root holding src/wring", file=sys.stderr)
        return 2
    units = _units()
    workdir = os.path.abspath(os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}"))
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUPS - 1):
                r = _worker(args, workdir, os.path.join(workdir, f"setup{i}.json"), True)
                setups.append(r)
        res = _worker(args, workdir, os.path.join(workdir, "result.json"), False)
        setups.append(res)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for s in setups for f in s["failures"]]
    failed = sum(len({f["id"] for f in s["failures"]}) for s in setups)
    attempted = sum(s["attempted"] for s in setups)
    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    detail = dict(res, setups=[s["setup_s"] for s in setups], failures=failures)
    with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"# machine {json.dumps(res['machine'], sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['cycles']} cycles, work unit: {res['work_unit']}")
    if not args.trace:
        print(f"# times are seconds at reference speed (calibrate.py); raw wall: "
              f"job p50 {statistics.median(res['raw_job_times']):.6g} s, set-up median "
              f"{statistics.median(s['setup_raw_s'] for s in setups):.6g} s; {res['probe']} probe "
              f"median {statistics.median(res['probe_times']):.6g} s against {res['probe_ref_s']:g} s")
    for name in sorted(metrics):
        line = f"{name:36s} {metrics[name]:.6g} {units.get(name, '')}"
        if name == "job_tail_s":
            t = res["tail"]
            line += f"  (p{t['pct']:.1f} of {t['jobs']} jobs, {t['beyond']} beyond)"
        print(line)
    print(f"{'fail_frac':36s} {failed / attempted:.6g} (failed {failed} of {attempted} jobs)")
    for f in failures[:20]:
        print(f"# FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
