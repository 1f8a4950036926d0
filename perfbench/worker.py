"""One workload process: import, set up, warm up, then timed job cycles.

Started by ``run.py``; not meant to be run by hand. It writes one JSON
result file and exits 0, or exits non-zero when it cannot run at all (no
``src/wring`` in the checkout).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

CHILD_TIMEOUT_S = 30
# speed-probe calls after set-up; their median scales setup_s
SETUP_PROBES = 5


def _import_cli(root: str):
    """Import ``wring.cli`` from the checkout, timing the import."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t = time.perf_counter()
    import wring.cli

    import_s = time.perf_counter() - t
    if not os.path.abspath(wring.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"wring imported from {wring.cli.__file__}, not from {src}")
    return wring.cli, import_s


def _digest(paths) -> list:
    out = []
    for p in paths:
        try:
            with open(p, "rb") as fh:
                out.append(hashlib.sha256(fh.read()).hexdigest())
        except FileNotFoundError:
            out.append("missing")
    return out


class Runner:
    """Runs jobs one at a time, checking each and timing only the call."""

    def __init__(self, wl, cli, tracer, spans_dir):
        self.wl = wl
        self.cli = cli
        self.tracer = tracer
        self.spans_dir = spans_dir
        self.attempted = 0
        self.failures: list = []
        self.digests: dict = {}
        self.env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracedcli.py")
        self.child_totals: dict = {}

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        rc, tb = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                tb = traceback.format_exc()
        return rc, err.getvalue(), tb

    def _subprocess(self, argv, job_id, traced):
        env = self.env
        if traced:
            cmd = [sys.executable, self.shim, *argv]
            env = dict(env, PERFBENCH_SPANS=os.path.join(self.spans_dir, f"child-{job_id}.json"))
        else:
            cmd = [sys.executable, "-m", "wring.cli", *argv]
        try:
            proc = subprocess.run(cmd, cwd=self.wl.dir, env=env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "", f"timed out after {CHILD_TIMEOUT_S} s"
        tb = proc.stderr if "Traceback" in proc.stderr else None
        return proc.returncode, proc.stderr, tb

    def run(self, job, job_id: str, traced: bool):
        """Run one job; returns its wall time in seconds."""
        for p in job.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(p)
        if traced and self.wl.in_process:
            self.tracer.start_job(job_id)
        t = time.perf_counter()
        if self.wl.in_process:
            rc, err, tb = self._in_process(job.argv)
        else:
            rc, err, tb = self._subprocess(job.argv, job_id, traced)
        wall = time.perf_counter() - t
        if self.tracer is not None:
            self.tracer.start_job(None)
        if traced and not self.wl.in_process:
            self._collect_child(job_id)
        self.attempted += 1
        problems = []
        if tb is not None:
            problems.append("traceback: " + tb.strip().splitlines()[-1])
        elif rc != job.expect_rc:
            problems.append(f"exit {rc}, expected {job.expect_rc}: {err.strip()[-200:]}")
        elif job.check is not None:
            try:
                problems += job.check(job)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"check could not read output: {exc!r}")
        digest = [rc] + _digest(job.outputs)
        first = self.digests.setdefault(job.key, digest)
        if digest != first:
            problems.append("output differs from an earlier identical job")
        if problems:
            self.failures.append({"job": job.key, "id": job_id, "problems": problems})
        return wall

    def _collect_child(self, job_id):
        import spans

        path = os.path.join(self.spans_dir, f"child-{job_id}.json")
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            self.failures.append({"job": job_id, "id": job_id, "problems": [f"no spans: {exc!r}"]})
            return
        totals = spans.job_totals(doc["spans"], doc["counts"])
        self.child_totals[job_id] = totals.get("job", {})


def _largest_field_file(workdir) -> int:
    sizes = [e.stat().st_size for e in os.scandir(workdir) if e.name.endswith(".wrg")]
    return max(sizes, default=0)


def _percentile(values, pct):
    import numpy as np

    return float(np.percentile(values, pct))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        cli, import_s = _import_cli(root)
    except ImportError as exc:
        print(f"perfbench: cannot import wring from this checkout: {exc}", file=sys.stderr)
        return 2

    import machine
    import selfcheck
    import spans
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    tracer = None
    if args.trace:
        selfcheck.run()
        tracer = spans.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.workdir, args.seed)
    runner = Runner(wl, cli, tracer, args.workdir)

    wl.generate()
    for i, job in enumerate(wl.warmup()):
        runner.run(job, f"warmup{i}", traced=False)
    setup_raw_s = time.monotonic() - args.t0
    probe = wl.probe()
    probe.run()  # the first call plans its FFTs or fills the file cache
    setup_probe_s = statistics.median(probe.run() for _ in range(SETUP_PROBES))
    result = {
        "setup_s": setup_raw_s * probe.scale(setup_probe_s),
        "setup_raw_s": setup_raw_s,
        "setup_probe_s": setup_probe_s,
        "import_s": import_s,
    }
    if args.setup_only:
        result.update(attempted=runner.attempted, failures=runner.failures)
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    # Timed phase: whole cycles until the time is used up. A traced run
    # alternates traced and untraced cycles, so the tracing overhead is
    # measured under the same conditions as the spans. The speed probe runs
    # before the first job and after every job; a job's time is scaled by
    # the mean of the probes on either side of it.
    times = {True: [], False: []}
    raw_times = {True: [], False: []}
    probe_times = [probe.run()]
    traced_ids: list = []
    rates: list = []
    cycle = 0
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and cycle % 2 == 0
        if tracer is not None:
            tracer.enabled = traced
        jobs = wl.cycle()
        walls, scaled = [], []
        for i, job in enumerate(jobs):
            job_id = f"c{cycle}j{i}:{job.key}"
            walls.append(runner.run(job, job_id, traced))
            probe_times.append(probe.run())
            scaled.append(walls[-1] * probe.scale((probe_times[-2] + probe_times[-1]) / 2))
            if traced:
                traced_ids.append((job.key, job_id))
        raw_times[traced] += walls
        times[traced] += scaled
        if not traced:
            rates.append(len(jobs) / sum(scaled))
        cycle += 1
        if time.perf_counter() - t_start >= args.seconds and (not args.trace or cycle >= 2):
            break

    untimed = times[False]
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    n = len(untimed)
    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        cycles=cycle,
        job_times=untimed,
        traced_job_times=times[True],
        raw_job_times=raw_times[False],
        raw_traced_job_times=raw_times[True],
        probe=probe.name,
        probe_times=probe_times,
        probe_ref_s=probe.ref_s,
        work_unit=wl.work_unit,
        tail_pct=wl.tail_pct,
        machine=machine.record(_largest_field_file(args.workdir)),
    )
    if not args.trace:
        result["metrics"] = {
            "job_p50_s": _percentile(untimed, 50.0),
            "job_tail_s": _percentile(untimed, wl.tail_pct),
            # median over cycles, so a slow spell of the machine moves it
            # no more than it moves the job median
            "throughput_per_s": _percentile(rates, 50.0),
            "peak_rss_mb": (rss_self + (rss_children if not wl.in_process else 0)) / 1024.0,
        }
        result["tail"] = {
            "pct": wl.tail_pct,
            "jobs": n,
            "beyond": sum(1 for t in untimed if t > result["metrics"]["job_tail_s"]),
        }
    else:
        if wl.in_process:
            per_job = spans.job_totals(tracer.spans, tracer.counts)
            tracer.dump(os.path.join(".perfbench_out", f"spans-{args.workload}.json"))
        else:
            per_job = runner.child_totals
        traced_totals = [per_job.get(job_id, {}) for _, job_id in traced_ids]
        _check_counts_repeat(traced_ids, per_job, runner)
        layer = spans.layer_metrics(traced_totals)
        if wl.in_process:
            layer["cli.import_s"] = import_s
        layer["trace.overhead_frac"] = (
            _percentile(times[True], 50.0) / _percentile(times[False], 50.0) - 1.0
        )
        result["metrics"] = layer
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _check_counts_repeat(traced_ids, per_job, runner) -> None:
    """Identical traced jobs must give identical counts (calls, FFTs, bytes)."""
    first: dict = {}
    for key, job_id in traced_ids:
        counts = {
            k: v for k, v in per_job.get(job_id, {}).items()
            if not k.endswith("self_s") and k != "cli.import_s"
        }
        ref = first.setdefault(key, counts)
        if counts != ref:
            diff = sorted(k for k in set(ref) | set(counts) if ref.get(k) != counts.get(k))
            runner.failures.append({"job": key, "id": job_id, "problems": [f"counts differ: {diff}"]})


if __name__ == "__main__":
    sys.exit(main())
