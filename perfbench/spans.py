"""In-memory spans around the public entry points of the ``wring`` package.

The benchmark never edits the program. It wraps public functions from the
outside: every module of the package that bound a function by name (as in
``from .fieldcore import curl``) gets the same wrapper, so calls made from
any module are seen. Spans are kept in a list and written out once, when
the run ends.

A span is ``[name, start, end, parent, job, ffts_at_start, ffts_at_end]``.
Self time is a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Internal span under which the tracer does its own work (hashing FFT
# inputs); it is subtracted from its parent's self time and never reported.
OVERHEAD = "trace.overhead"

# (module, attribute, span name). "Class.method" attributes are patched on
# the class; plain functions are patched in every module that bound them.
TARGETS = (
    ("wring.fieldcore", "Grid3.rfft", "fieldcore.rfft"),
    ("wring.fieldcore", "Grid3.irfft", "fieldcore.irfft"),
    ("wring.fieldcore", "curl", "fieldcore.curl"),
    ("wring.fieldcore", "grad", "fieldcore.grad"),
    ("wring.fieldcore", "div", "fieldcore.div"),
    ("wring.fieldcore", "inverse_curl", "fieldcore.inverse_curl"),
    ("wring.dynamics", "step", "dynamics.step"),
    ("wring.dynamics", "track_invariants", "dynamics.track_invariants"),
    ("wring.dynamics", "obstruction_bound", "dynamics.obstruction_bound"),
    ("wring.gv", "analyze", "gv.analyze"),
    ("wring.gv", "gv_invariant", "gv.gv_invariant"),
    ("wring.gv", "helicity", "gv.helicity"),
    ("wring.gv", "integrability_residual", "gv.integrability_residual"),
    ("wring.fieldzoo", "apply_diffeo", "fieldzoo.apply_diffeo"),
    ("wring.fieldzoo", "FieldBundle.verify", "fieldzoo.verify"),
    ("wring.fieldzoo", "make_family", "fieldzoo.generate"),
    ("wring.fieldzoo", "gen_clebsch", "fieldzoo.generate"),
    ("wring.fieldzoo", "gen_morse", "fieldzoo.generate"),
    ("wring.fieldzoo", "gen_kupka_tube", "fieldzoo.generate"),
    ("wring.fieldzoo", "gen_beltrami_abc", "fieldzoo.generate"),
    ("wring.fieldzoo", "gen_linked_rings", "fieldzoo.generate"),
    ("wring.fieldzoo", "hopf_rings", "fieldzoo.generate"),
    ("wring.fieldzoo", "unlinked_rings", "fieldzoo.generate"),
    ("wring.wrg1", "read_fields", "wrg1.read_fields"),
    ("wring.wrg1", "write_fields", "wrg1.write_fields"),
    ("wring.linkref", "gauss_linking", "linkref.gauss_linking"),
    ("wring.cli", "main", "cli.main"),
)

FFT_SPANS = ("fieldcore.rfft", "fieldcore.irfft")


class Tracer:
    """Span recorder; one per process, single-threaded.

    ``job`` tags every span opened while it is set. While ``enabled`` is
    false the installed wrappers call straight through.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.enabled = True
        self.ffts = 0
        self.counts = defaultdict(lambda: defaultdict(float))
        self._seen: set = set()

    # -- recording ---------------------------------------------------------

    def start_job(self, job) -> None:
        """Tag later spans with ``job`` and forget the FFT inputs seen so far."""
        self.job = job
        self._seen = set()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self.job, self.ffts, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = self.clock()
        span[6] = self.ffts
        self.stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[self.job][key] += value

    def note_rfft_input(self, data) -> None:
        """Count an rfft input that is byte-identical to one seen in this job."""
        idx = self.open(OVERHEAD)
        try:
            arr = np.ascontiguousarray(data)
            key = (arr.dtype.str, arr.shape, hashlib.sha1(arr.data).digest())
            if key in self._seen:
                self.add("fieldcore.rfft.repeats", 1)
            else:
                self._seen.add(key)
        finally:
            self.close(idx)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self

        if name in FFT_SPANS:
            is_r2c = name == "fieldcore.rfft"

            @functools.wraps(fn)
            def fft_wrapper(grid, data, *args, **kwargs):
                if not tracer.enabled:
                    return fn(grid, data, *args, **kwargs)
                if is_r2c:
                    tracer.note_rfft_input(data)
                idx = tracer.open(name)
                try:
                    out = fn(grid, data, *args, **kwargs)
                finally:
                    tracer.ffts += 1
                    tracer.close(idx)
                tracer.add("fieldcore.fft.bytes_computed", data.nbytes + out.nbytes)
                return out

            return fft_wrapper

        if name in ("wrg1.read_fields", "wrg1.write_fields"):
            key = "wrg1.bytes_read" if name == "wrg1.read_fields" else "wrg1.bytes_written"

            @functools.wraps(fn)
            def io_wrapper(path, *args, **kwargs):
                if not tracer.enabled:
                    return fn(path, *args, **kwargs)
                idx = tracer.open(name)
                try:
                    out = fn(path, *args, **kwargs)
                finally:
                    tracer.close(idx)
                tracer.add(key, os.path.getsize(path))
                return out

            return io_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``wring`` module that bound it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "wring" or n.startswith("wring."))
        ]
        for mod_name, attr, name in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(cls.__dict__[meth], name))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans and counters, once, at the end of a run."""
        doc = {
            "spans": self.spans,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans) -> list:
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def job_totals(spans, counts) -> dict:
    """Per job: calls, self time and inclusive FFTs by span name, plus counters."""
    selfs = self_times(spans)
    totals: dict = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(spans, selfs):
        name, job = s[0], s[4]
        if name == OVERHEAD or job is None:
            continue
        t = totals[str(job)]
        t[name + ".calls"] += 1
        t[name + ".self_s"] += self_s
        t[name + ".ffts"] += s[6] - s[5]
    for job, kv in counts.items():
        if job is None or job == "None":
            continue
        for key, value in kv.items():
            totals[str(job)][key] += value
    return {job: dict(kv) for job, kv in totals.items()}


def layer_metrics(per_job: list) -> dict:
    """Average the per-job totals of the traced jobs into per-layer metrics."""
    n = len(per_job)
    total: dict = defaultdict(float)
    for kv in per_job:
        for key, value in kv.items():
            total[key] += value

    def per_job_of(key):
        return total.get(key, 0.0) / n if n else 0.0

    out = {}
    for key in (
        "fieldcore.rfft.calls", "fieldcore.irfft.calls",
        "fieldcore.rfft.self_s", "fieldcore.irfft.self_s",
        "fieldcore.fft.bytes_computed",
        "fieldcore.inverse_curl.calls", "fieldcore.inverse_curl.self_s",
        "fieldcore.curl.calls", "fieldcore.curl.self_s",
        "fieldcore.grad.calls", "fieldcore.grad.self_s",
        "fieldcore.div.calls",
        "dynamics.step.calls", "dynamics.step.self_s",
        "dynamics.track_invariants.self_s",
        "dynamics.obstruction_bound.self_s",
        "gv.analyze.self_s",
        "gv.gv_invariant.calls", "gv.gv_invariant.self_s",
        "gv.helicity.self_s", "gv.integrability_residual.self_s",
        "fieldzoo.apply_diffeo.calls", "fieldzoo.apply_diffeo.self_s",
        "fieldzoo.verify.self_s", "fieldzoo.generate.self_s",
        "wrg1.read_fields.self_s", "wrg1.write_fields.self_s",
        "wrg1.bytes_read", "wrg1.bytes_written",
        "linkref.gauss_linking.calls", "linkref.gauss_linking.self_s",
        "cli.main.self_s", "cli.import_s",
    ):
        out[key] = per_job_of(key)
    rfft_calls = total.get("fieldcore.rfft.calls", 0.0)
    out["fieldcore.rfft.repeat_frac"] = (
        total.get("fieldcore.rfft.repeats", 0.0) / rfft_calls if rfft_calls else 0.0
    )
    steps = total.get("dynamics.step.calls", 0.0)
    out["dynamics.step.ffts"] = total.get("dynamics.step.ffts", 0.0) / steps if steps else 0.0
    return out
