"""Self-check of the span code on a synthetic span tree.

Run: python3 perfbench/selfcheck.py

Checks self-time subtraction (nested and overlapping children, a child
running past its parent's end), per-job totals, inclusive FFT counts and
the byte-identical repeat detection behind ``fieldcore.rfft.repeat_frac``.
Raises AssertionError on the first mismatch.
"""

from __future__ import annotations

import numpy as np

import spans


def _check_self_times() -> None:
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping, covered 1..6)
    # and [9, 12] (clipped to 9..10); [1, 4] has one grandchild [2, 3].
    tree = [
        ["root", 0.0, 10.0, -1, "j", 0, 5],
        ["a", 1.0, 4.0, 0, "j", 0, 2],
        ["b", 3.0, 6.0, 0, "j", 2, 3],
        ["c", 9.0, 12.0, 0, "j", 3, 5],
        ["a.x", 2.0, 3.0, 1, "j", 0, 2],
    ]
    got = spans.self_times(tree)
    want = [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 3.0, 1.0]
    assert got == want, (got, want)
    totals = spans.job_totals(tree, {"j": {"fieldcore.rfft.repeats": 1.0}})["j"]
    assert totals["root.self_s"] == 4.0 and totals["root.calls"] == 1
    assert totals["root.ffts"] == 5 and totals["a.x.ffts"] == 2
    assert totals["fieldcore.rfft.repeats"] == 1.0


def _check_recorder_and_repeats() -> None:
    ticks = iter(range(1000))
    tr = spans.Tracer(clock=lambda: float(next(ticks)))
    a = np.arange(24.0).reshape(2, 3, 4)
    tr.start_job("j1")
    for data in (a, a + 1.0, a.copy(), a[:, :, ::-1].copy()[:, :, ::-1]):
        tr.note_rfft_input(data)
        idx = tr.open("fieldcore.rfft")
        tr.ffts += 1
        tr.close(idx)
    # a fresh job forgets the inputs of the previous one
    tr.start_job("j2")
    tr.note_rfft_input(a)
    idx = tr.open("fieldcore.rfft")
    tr.ffts += 1
    tr.close(idx)
    tr.start_job(None)
    per_job = spans.job_totals(tr.spans, tr.counts)
    assert per_job["j1"]["fieldcore.rfft.calls"] == 4
    assert per_job["j1"]["fieldcore.rfft.repeats"] == 2
    assert "fieldcore.rfft.repeats" not in per_job["j2"]
    assert "trace.overhead.calls" not in per_job["j1"]
    # each rfft span took one tick; the hashing spans are not counted
    assert per_job["j1"]["fieldcore.rfft.self_s"] == 4.0
    layer = spans.layer_metrics([per_job["j1"], per_job["j2"]])
    assert layer["fieldcore.rfft.repeat_frac"] == 2 / 5
    assert layer["fieldcore.rfft.calls"] == 2.5


def run() -> None:
    _check_self_times()
    _check_recorder_and_repeats()


if __name__ == "__main__":
    run()
    print("span self-check passed")
