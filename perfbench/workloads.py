"""The three benchmark workloads: their inputs, their jobs and their checks.

Every workload takes a seed. The seed picks the smooth Clebsch multiplier
(``fieldzoo.random_trig_scalar``) and, for ``analyze``, the order of the
rotation. The program itself only ever sees the WRG1 files and argument
lists made here.

A job is one ``wring`` CLI call. Jobs with the same ``key`` are identical
and must give byte-identical outputs. Each job carries a check against
the fixed acceptance thresholds of ``wring selftest`` and the documented
exit codes; an expected refusal (exit 4) counts as a success.
"""

from __future__ import annotations

import csv
import inspect
import json
import os
import random
from dataclasses import dataclass

import calibrate

TWO_PI = 6.283185307179586
# Smooth multiplier: wavenumbers |k_i| <= 2, four modes. Resolved at n=32
# even after two shears, so every seed gives a well-posed input.
MULTIPLIER_KMAX = 2
MULTIPLIER_MODES = 4
# The criterion-9 shear, as Shear.from_names arguments and as CLI text.
SHEAR_ARGS = ("x", "z", 0.3, 1)
SHEAR = ",".join(str(v) for v in SHEAR_ARGS)

# Fixed thresholds, as in the acceptance criteria of ``wring selftest``.
GV_ABS = 1e-6
SLACK_REL = 1e-10
RINGS_H_REL = 0.02
BELTRAMI_H_REL = 1e-8
DIFFEO_ABS = 1e-4
EVOLVE_H_DRIFT = 1e-6
EVOLVE_GV_ABS = 1e-4
EVOLVE_E_DRIFT_REL = 1e-8
EVOLVE_CURL_DRIFT = 1e-6


@dataclass
class Job:
    key: str
    argv: list
    outputs: tuple = ()
    expect_rc: int = 0
    check: object = None


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _grid(n):
    from wring.fieldcore import Grid3

    return Grid3((n, n, n), (TWO_PI, TWO_PI, TWO_PI))


def multiplier(seed: int):
    from wring import fieldzoo

    return fieldzoo.random_trig_scalar(MULTIPLIER_KMAX, MULTIPLIER_MODES, seed)


def multiplier_expr(f) -> str:
    """The multiplier as a ``generate --params`` expression, term for term.

    Built from the closure of ``random_trig_scalar`` in its own order of
    operations, so the CLI evaluates the same numbers.
    """
    env = inspect.getclosurevars(f).nonlocals
    def num(v):
        return repr(float(v))

    terms = " + ".join(
        f"({num(a)})*cos(({num(k[0])})*x + ({num(k[1])})*y + ({num(k[2])})*z + ({num(ph)}))"
        for k, a, ph in env["modes"]
    )
    return f"({num(env['offset'])}) + ({num(env['amp'])}) * (0.0 + {terms}) / ({num(env['total'])})"


# -- checks ------------------------------------------------------------------


def _bound_problems(doc) -> list:
    b = doc.get("bound")
    if b is None:
        return ["report lacks the bound block"]
    floor = -SLACK_REL * b["C"] * b["enstrophy_rate"]
    return [] if b["slack"] >= floor else [f"bound slack {b['slack']:g} < {floor:g}"]


def _gv_problems(doc) -> list:
    gv = doc.get("gv")
    if gv is None or not abs(gv) <= GV_ABS:
        return [f"|gv| = {gv!r} exceeds {GV_ABS:g}"]
    return []


def check_first_integral(report, bound):
    def check(job):
        doc = _read_json(report)
        return _gv_problems(doc) + (_bound_problems(doc) if bound else [])

    return check


def check_helicity(report, target, rel):
    def check(job):
        h = _read_json(report)["helicity"]
        err = abs(h - target) / abs(target)
        return [] if err <= rel else [f"helicity {h!r} off target {target:g} by {err:.3g} rel"]

    return check


def check_series(series):
    def check(job):
        with open(series, newline="") as fh:
            rows = list(csv.DictReader(fh))
        col = {k: [float(r[k]) for r in rows] for k in rows[0]}
        h, gv, e, d = col["helicity"], col["gv"], col["energy"], col["curl_drift"]
        probs = []
        if max(abs(v - h[0]) for v in h) > EVOLVE_H_DRIFT:
            probs.append("helicity drift")
        if max(abs(v) for v in gv) > EVOLVE_GV_ABS:
            probs.append("|gv(t)|")
        if max(abs(v - e[0]) for v in e) / abs(e[0]) > EVOLVE_E_DRIFT_REL:
            probs.append("energy drift")
        if max(d) > EVOLVE_CURL_DRIFT:
            probs.append("curl(A)-W drift")
        return probs

    return check


# -- workloads ---------------------------------------------------------------


class Workload:
    """Inputs, warm-up job and job cycle of one workload.

    ``tail_pct`` is fixed per workload: a high percentile that still leaves
    at least ten jobs beyond it at the job count a 25 s run reaches on the
    reference machine. A cycle repeats T unlike jobs, so the sorted times
    form T clusters; a percentile recomputed from each run's job count would
    jump between clusters when a run has one cycle more or less. A fixed
    percentile of the form (j + 0.5) / T lands mid-way through one cluster.
    """

    name = ""
    in_process = True
    work_unit = "jobs"
    tail_pct = 50.0

    def __init__(self, workdir: str, seed: int):
        self.dir = workdir
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def probe(self):
        """The speed probe run after every job to scale job times."""
        return calibrate.Kernel(repeats=4)

    def generate(self) -> None:
        """Write the inputs the program will read."""

    def warmup(self) -> list:
        raise NotImplementedError

    def cycle(self) -> list:
        raise NotImplementedError


class Evolve(Workload):
    """RK4 transport of the sheared n=64 Clebsch bundle, one step per job."""

    name = "evolve"
    work_unit = "RK4 steps at n=64 (one per job)"
    # 16-23 jobs a run: no higher percentile leaves ten jobs beyond it
    tail_pct = 50.0

    def generate(self) -> None:
        from wring import fieldzoo

        bundle = fieldzoo.gen_clebsch(_grid(64), f=multiplier(self.seed))
        dmap = fieldzoo.DiffeoMap((fieldzoo.Shear.from_names(*SHEAR_ARGS),))
        fieldzoo.apply_diffeo(bundle, dmap).save(self.path("e64.wrg"))

    def _job(self) -> Job:
        series, out = self.path("series.csv"), self.path("evolved.wrg")
        return Job(
            "evolve",
            ["evolve", self.path("e64.wrg"), "--steps", "1",
             "--record-every", "1", "--series", series, "--out", out],
            outputs=(series, out),
            check=check_series(series),
        )

    def warmup(self) -> list:
        return [self._job()]

    def cycle(self) -> list:
        return [self._job()]


class Analyze(Workload):
    """Invariant engine and diffeomorphisms on a rotation of n=64/96 inputs."""

    name = "analyze"
    # 9 jobs per cycle: the median falls mid-way through the repeats of one
    # job type, and so does this percentile (the 8th of 9 types).
    tail_pct = 100.0 * 7.5 / 9

    INPUTS = ("c64", "m64", "c96", "k64", "b64", "r96")

    def probe(self):
        # half of evolve's probe: jobs here are 0.03-1 s
        return calibrate.Kernel(repeats=2)

    def generate(self) -> None:
        from wring import fieldzoo

        f = multiplier(self.seed)
        makers = {
            "c64": lambda: fieldzoo.gen_clebsch(_grid(64), f=f),
            "m64": lambda: fieldzoo.gen_morse(_grid(64)),
            # The velocity construction gives gv = 0 only where U is
            # parallel to A, which holds for the default z-independent
            # multiplier but not for a seeded one.
            "c96": lambda: fieldzoo.gen_clebsch(_grid(96)),
            "k64": lambda: fieldzoo.gen_kupka_tube(_grid(64)),
            "b64": lambda: fieldzoo.gen_beltrami_abc(_grid(64)),
            "r96": lambda: fieldzoo.hopf_rings(_grid(96)),
        }
        for name in self.INPUTS:
            makers[name]().save(self.path(name + ".wrg"))

    def _analyze(self, key, src, flags, check_of=None, expect_rc=0):
        report = self.path(key + ".json")
        return Job(
            key,
            ["analyze", self.path(src + ".wrg"), *flags, "--json", report],
            outputs=(report,),
            expect_rc=expect_rc,
            check=check_of(report) if check_of else None,
        )

    def _reference(self) -> Job:
        return self._analyze(
            "clebsch64", "c64", ["--bound", "--richardson"],
            lambda r: check_first_integral(r, bound=True),
        )

    def warmup(self) -> list:
        ref = self._reference()
        inner = ref.check

        def keep_reference(job):
            problems = inner(job)
            self.ref = _read_json(ref.outputs[0])
            return problems

        ref.check = keep_reference
        return [ref]

    def _diffeo_unit(self) -> list:
        """The diffeo of clebsch64, then two analyses of its output."""
        out = self.path("d64.wrg")
        diffeo = Job("diffeo64", ["diffeo", self.path("c64.wrg"), "--shear", SHEAR, "--out", out],
                     outputs=(out,))

        def check_invariance(report, bound):
            def check(job):
                doc = _read_json(report)
                probs = _gv_problems(doc) + (_bound_problems(doc) if bound else [])
                dgv = abs(doc["gv"] - self.ref["gv"])
                h0 = self.ref["helicity"]
                dh = abs(doc["helicity"] - h0) / (1.0 + abs(h0))
                if dgv > DIFFEO_ABS:
                    probs.append(f"|dGV| {dgv:g} after diffeo")
                if dh > DIFFEO_ABS:
                    probs.append(f"|dH|/(1+|H|) {dh:g} after diffeo")
                return probs

            return check

        plain = self._analyze("diffeo64-analyze", "d64", [],
                              lambda r: check_invariance(r, bound=False))
        density = self.path("d64-density.wrg")
        full = self._analyze("diffeo64-analyze-density", "d64",
                             ["--bound", "--density-out", density],
                             lambda r: check_invariance(r, bound=True))
        full.outputs += (density,)
        return [diffeo, plain, full]

    def cycle(self) -> list:
        units = [
            [self._reference()],
            [self._analyze("morse64", "m64", ["--bound"],
                           lambda r: check_first_integral(r, bound=True))],
            [self._analyze("clebsch96-velocity", "c96", ["--eta", "velocity", "--bound"],
                           lambda r: check_first_integral(r, bound=True))],
            [self._analyze("kupka64-bound", "k64", ["--bound"], expect_rc=4)],
            [self._analyze("beltrami64", "b64", [],
                           lambda r: check_helicity(r, 3.0 * TWO_PI**3, BELTRAMI_H_REL),
                           expect_rc=4)],
            [self._analyze("rings96", "r96", [],
                           lambda r: check_helicity(r, 2.0, RINGS_H_REL), expect_rc=4)],
            self._diffeo_unit(),
        ]
        random.Random(self.seed).shuffle(units)
        return [job for unit in units for job in unit]


class CliCold(Workload):
    """Fresh ``python -m wring.cli`` processes at n=32, one at a time."""

    name = "cli-cold"
    in_process = False
    work_unit = "CLI invocations"
    # mid-way through the repeats of the 4th of 6 job types
    tail_pct = 100.0 * 3.5 / 6

    def probe(self):
        return calibrate.Startup()

    def generate(self) -> None:
        self.expr = multiplier_expr(multiplier(self.seed))

    def _generate_job(self) -> Job:
        out = self.path("g.wrg")
        return Job(
            "generate",
            ["generate", "--family", "clebsch", "--n", "32",
             "--params", json.dumps({"f": self.expr}), "--shear", SHEAR, "--out", out],
            outputs=(out,),
        )

    def warmup(self) -> list:
        return [self._generate_job()]

    def cycle(self) -> list:
        g, gd, ge = self.path("g.wrg"), self.path("gd.wrg"), self.path("ge.wrg")
        series, link, thurston = self.path("s.csv"), self.path("l.json"), self.path("t.json")
        report = self.path("a.json")

        def check_link(job):
            total = _read_json(link)["total_helicity"]
            return [] if total == 2.0 else [f"link total helicity {total!r} != 2"]

        def check_thurston(job):
            slopes = _read_json(thurston)["flux_slopes"]
            return [] if slopes == [-0.5, -1.0, -1.0] else [f"flux slopes {slopes!r}"]

        return [
            self._generate_job(),
            Job("analyze", ["analyze", g, "--bound", "--json", report], outputs=(report,),
                check=check_first_integral(report, bound=True)),
            Job("diffeo", ["diffeo", g, "--shear", SHEAR, "--out", gd], outputs=(gd,)),
            Job("evolve", ["evolve", gd, "--steps", "2", "--series", series, "--out", ge],
                outputs=(series, ge)),
            Job("link", ["link", "--preset", "hopf", "--samples", "1024", "--json", link],
                outputs=(link,), check=check_link),
            Job("thurston", ["thurston", "--fluxes", "1,1,1", "--json", thurston],
                outputs=(thurston,), check=check_thurston),
        ]


WORKLOADS = {w.name: w for w in (Evolve, Analyze, CliCold)}
