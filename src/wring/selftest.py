"""End-to-end acceptance checks, runnable from the CLI or from pytest.

Each criterion function measures the documented quantities at the
documented desk scales and compares them against fixed thresholds; nothing
here is calibrated at run time. The pytest acceptance module asserts on
these same results, so `wring selftest` and `pytest tests/test_acceptance.py`
exercise identical code paths.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, fieldzoo, gv, linkref
from .errors import MaskTooSmall
from .fieldcore import (
    Grid3,
    VectorField,
    curl,
    div,
    dot,
    random_band_limited_scalar,
)

TWO_PI = 2.0 * np.pi

# Bundles and transforms used across criteria. The convergence studies need
# configurations whose error is genuinely resolution limited: a
# rich-spectrum multiplier for the invariant, and the ring tubes (whose
# profiles live near the grid scale) for helicity.
PHASED_CLEBSCH_F = "2 + sin(2*pi*x/Lx + 1)*cos(2*pi*y/Ly + 1)"
RICH_F_KMAX = 6
RICH_F_MODES = 12
RICH_F_SEED = 11
ETA_AGREEMENT_EPS = 5e-4
GAUGE_SEEDS = 20
SHEAR_MAIN = ("x", "z", 0.3, 1)
SHEAR_STUDY_GV = ("x", "z", 0.3, 4)
SHEAR_STUDY_H = ("x", "z", 0.3, 2)


@dataclass
class Check:
    label: str
    value: float
    limit: float
    op: str = "<="
    ok: bool = False

    def __post_init__(self):
        if self.op == "<=":
            self.ok = bool(self.value <= self.limit)
        elif self.op == ">=":
            self.ok = bool(self.value >= self.limit)
        else:
            raise ValueError(self.op)


@dataclass
class CriterionResult:
    cid: int
    title: str
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, label, value, limit, op="<="):
        self.checks.append(Check(label, float(value), float(limit), op))

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.cid,
            "title": self.title,
            "passed": self.passed,
            "checks": [dataclasses.asdict(c) for c in self.checks],
            "notes": self.notes,
        }


def _grid(n: int) -> Grid3:
    return Grid3((n, n, n), (TWO_PI, TWO_PI, TWO_PI))


def _shear(spec) -> fieldzoo.DiffeoMap:
    return fieldzoo.DiffeoMap((fieldzoo.Shear.from_names(*spec),))


class _Suite:
    """Lazily built, memoized bundles shared between criteria."""

    def __init__(self):
        self._cache = {}

    def get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def clebsch(self, n):
        return self.get(("clebsch", n), lambda: fieldzoo.gen_clebsch(_grid(n)))

    def morse(self, n):
        return self.get(("morse", n), lambda: fieldzoo.gen_morse(_grid(n)))

    def kupka(self, n):
        return self.get(("kupka", n), lambda: fieldzoo.gen_kupka_tube(_grid(n)))

    def beltrami(self, n):
        return self.get(("beltrami", n), lambda: fieldzoo.gen_beltrami_abc(_grid(n)))

    def sheared_clebsch(self, n):
        return self.get(
            ("sheared", n), lambda: fieldzoo.apply_diffeo(self.clebsch(n), _shear(SHEAR_MAIN))
        )


def criterion_1(suite: _Suite) -> CriterionResult:
    res = CriterionResult(1, "integrability gate at n=32")
    for name, bundle in (
        ("clebsch", suite.clebsch(32)),
        ("kupka", suite.kupka(32)),
        ("morse", suite.morse(32)),
    ):
        res.check(f"{name} residual", gv.integrability_residual(bundle), 1e-10)
    bel = suite.beltrami(32)
    res.check("beltrami residual", gv.integrability_residual(bel), 0.1, op=">=")
    report = gv.analyze(bel)
    res.check("beltrami gv refused", 0.0 if (not report.integrable and report.gv is None) else 1.0, 0.5)
    return res


def criterion_2(suite: _Suite) -> CriterionResult:
    res = CriterionResult(2, "gv = 0 for first-integral fields at n=64")
    for name, bundle in (("clebsch", suite.clebsch(64)), ("morse", suite.morse(64))):
        for variant in ("canonical", "velocity"):
            value = gv.gv_invariant(bundle, variant).value
            res.check(f"{name}/{variant} |gv|", abs(value), 1e-6)
    return res


def criterion_3(suite: _Suite) -> CriterionResult:
    res = CriterionResult(3, "kupka excluded-tube stability at n=64")
    kup = suite.kupka(64)
    values = []
    for eps in (0.02, 0.05, 0.1, 0.2):
        value = gv.gv_invariant(kup, eps=eps).value
        values.append(value)
        res.check(f"|gv| at eps={eps}", abs(value), 1e-6)
    res.check("eps variation", max(values) - min(values), 1e-7)
    return res


def criterion_4(suite: _Suite) -> CriterionResult:
    res = CriterionResult(4, "gauge invariance under H -> H + f A at n=64")
    bundle = suite.clebsch(64)
    g = bundle.grid
    # the canonical mask covers the whole torus here, so H is smooth and
    # integral(H . curl(H)) is taken on H itself, before and after H -> H + f A
    H = gv.gv_invariant(bundle).H
    base = g.integral(dot(H, curl(H)))
    worst = 0.0
    for seed in range(GAUGE_SEEDS):
        f = random_band_limited_scalar(g, 8, 1000 + seed)
        shifted = VectorField(g, H.data + f.data * bundle.A.data)
        worst = max(worst, abs(g.integral(dot(shifted, curl(shifted))) - base))
    res.check(f"max drift over {GAUGE_SEEDS} gauge fields", worst, 1e-6)
    return res


def criterion_5(suite: _Suite) -> CriterionResult:
    res = CriterionResult(5, "construction agreement on >99% coverage at n=64")
    bundle = suite.get(
        ("clebsch-phased", 64),
        lambda: fieldzoo.gen_clebsch(_grid(64), f=PHASED_CLEBSCH_F),
    )
    eps = ETA_AGREEMENT_EPS
    can = gv.gv_invariant(bundle, "canonical", eps)
    vel = gv.gv_invariant(bundle, "velocity", eps)
    res.check("canonical coverage", 1.0 - can.excluded_volume_fraction, 0.99, op=">=")
    res.check("velocity coverage", 1.0 - vel.excluded_volume_fraction, 0.99, op=">=")
    res.check(
        "|gv(canonical) - gv(velocity)|",
        abs(can.value - vel.value),
        1e-5 * (1.0 + abs(can.value)),
    )
    return res


def _invariants(bundle) -> tuple[float, float]:
    return gv.gv_invariant(bundle).value, gv.helicity(bundle)


def criterion_6(suite: _Suite) -> CriterionResult:
    res = CriterionResult(6, "volume-preserving map invariance, n=48 vs 96")
    # headline: the standard bundle at n=96
    b96 = suite.clebsch(96)
    gv0, h0 = _invariants(b96)
    sh96 = fieldzoo.apply_diffeo(b96, _shear(SHEAR_MAIN))
    gv1, h1 = _invariants(sh96)
    res.check("preset |dGV| at n=96", abs(gv1 - gv0), 1e-4)
    res.check("preset |dH|/(1+|H|) at n=96", abs(h1 - h0) / (1.0 + abs(h0)), 1e-4)

    # convergence of the invariant on a rich-spectrum integrable bundle
    f_rich = fieldzoo.random_trig_scalar(RICH_F_KMAX, RICH_F_MODES, RICH_F_SEED)
    dgv = {}
    for n in (48, 96):
        b = fieldzoo.gen_clebsch(_grid(n), f=f_rich)
        v0, _ = _invariants(b)
        sh = fieldzoo.apply_diffeo(b, _shear(SHEAR_STUDY_GV), consistency_tol=1.0)
        v1, _ = _invariants(sh)
        dgv[n] = abs(v1 - v0)
    res.check("rich |dGV| at n=96", dgv[96], 1e-4)
    res.check("rich dGV shrink 48 -> 96", dgv[48] / max(dgv[96], 1e-300), 4.0, op=">=")

    # convergence of helicity on grid-limited tubes
    dh = {}
    for n in (48, 96):
        b = fieldzoo.hopf_rings(_grid(n))
        h0n = gv.helicity(b)
        sh = fieldzoo.apply_diffeo(b, _shear(SHEAR_STUDY_H), consistency_tol=1.0)
        h1n = gv.helicity(sh)
        dh[n] = abs(h1n - h0n) / (1.0 + abs(h0n))
    res.check("rings |dH|/(1+|H|) at n=96", dh[96], 1e-4)
    res.check("rings dH shrink 48 -> 96", dh[48] / max(dh[96], 1e-300), 4.0, op=">=")
    res.notes.append(
        f"rich dGV 48={dgv[48]:.3e} 96={dgv[96]:.3e}; rings dH 48={dh[48]:.3e} 96={dh[96]:.3e}"
    )
    return res


def criterion_7(suite: _Suite) -> CriterionResult:
    res = CriterionResult(7, "closed-form helicity targets")
    bel = suite.beltrami(32)
    target = 3.0 * TWO_PI**3
    res.check(
        "ABC(1,1,1) helicity rel err",
        abs(gv.helicity(bel) - target) / target,
        1e-8,
    )
    rings = suite.get(("hopf", 96), lambda: fieldzoo.hopf_rings(_grid(96)))
    h = gv.helicity(rings)
    res.check("ring-pair helicity vs 2, rel", abs(h - 2.0) / 2.0, 0.02)
    cs = linkref.hopf_pair(256)
    _, total = linkref.linking_helicities(cs.fluxes, linkref.linking_matrix(cs)[0])
    res.check("grid vs linking-matrix total, rel", abs(h - total) / 2.0, 0.02)
    return res


def criterion_8(suite: _Suite) -> CriterionResult:
    res = CriterionResult(8, "steady-flow obstruction bound")
    for name, bundle in (
        ("clebsch", suite.clebsch(64)),
        ("morse", suite.morse(64)),
        ("sheared-clebsch", suite.sheared_clebsch(64)),
    ):
        rep = dynamics.obstruction_bound(bundle)
        floor = -1e-10 * rep.C * rep.enstrophy_rate
        res.check(f"{name} slack >= -1e-10 C rate", rep.slack, floor, op=">=")
        if rep.enstrophy_rate < 1e-12:
            res.check(f"{name} steady => |gv|", abs(rep.gv), 1e-6)
    try:
        dynamics.obstruction_bound(suite.kupka(64))
        res.notes.append("kupka bound unexpectedly computed")
        res.check("kupka coverage gate", 1.0, 0.5)
    except MaskTooSmall:
        res.notes.append("kupka: U.A mask misses most vorticity; bound reported undefined")
    return res


def criterion_9(suite: _Suite) -> CriterionResult:
    res = CriterionResult(9, "conservation under ideal evolution, n=64, T=0.5")
    bundle = suite.sheared_clebsch(64)
    dt = dynamics.cfl_timestep(bundle, 0.4)
    steps = int(np.ceil(0.5 / dt))
    dt = 0.5 / steps
    _, _, series = dynamics.track_invariants(bundle, dt, steps)
    h = series.column("helicity")
    e = series.column("energy")
    g_ = series.column("gv")
    d = series.column("curl_drift")
    res.check("helicity drift", float(np.max(np.abs(h - h[0]))), 1e-6)
    res.check("|gv(t)| max", float(np.max(np.abs(g_))), 1e-4)
    res.check("energy drift rel", float(np.max(np.abs(e - e[0])) / abs(e[0])), 1e-8)
    res.check("curl(A)-W drift", float(np.max(d)), 1e-6)
    res.notes.append(f"{steps} steps at dt={dt:.5f}")
    return res


def criterion_10(suite: _Suite) -> CriterionResult:
    res = CriterionResult(10, "local conservation law, second-order residual")
    base = fieldzoo.apply_diffeo(suite.clebsch(32), _shear(SHEAR_MAIN))
    dts = (0.02, 0.01, 0.005)
    fields = [dynamics.conservation_residual(base, dt) for dt in dts]
    maxima = [R.maxabs for R, _ in fields]
    k = fields[0][1]  # the flux coefficient at dt = 0.02
    order = float(np.log2(maxima[0] / maxima[2]) / 2.0)
    res.check("observed temporal order (lo)", order, 1.8, op=">=")
    res.check("observed temporal order (hi)", order, 2.2)
    kw = VectorField(base.grid, k.data * base.W.data)
    divkw = div(kw).data
    total = base.grid.integral(divkw)
    scale = 1.0 + base.grid.integral(np.abs(divkw))
    res.check("integral of div(k W), scaled", abs(total) / scale, 1e-12)
    res.notes.append("max|R|: " + ", ".join(f"{m:.3e}@dt={d}" for m, d in zip(maxima, dts)))
    return res


def criterion_11(suite: _Suite) -> CriterionResult:
    res = CriterionResult(11, "slope formula arithmetic")
    value = linkref.thurston_gv(linkref.SlopeData((1.0, 1.0, 1.0)))
    res.check("slopes (1,1,1) vs -8 pi^2", abs(value - (-8.0 * np.pi**2)), 1e-12)
    sd, residual = linkref.flux_slopes((1.0, 1.0, 1.0))
    exact = sd.slopes == (-0.5, -1.0, -1.0)
    res.check("flux slopes exact", 0.0 if exact else 1.0, 0.5)
    res.check("literal identity residual is -4", abs(residual - (-4.0)), 0.0)
    res.notes.append(
        "the printed slope identity does not vanish for the printed formulas; "
        "the residual is reported, not asserted"
    )
    return res


def criterion_12(suite: _Suite) -> CriterionResult:
    res = CriterionResult(12, "linking quadrature checks")
    cs = linkref.hopf_pair(256)
    lk_ab = linkref.gauss_linking(cs.curves[0], cs.curves[1])
    lk_ba = linkref.gauss_linking(cs.curves[1], cs.curves[0])
    res.check("|Lk - 1| at 256 samples", abs(lk_ab - 1.0), 1e-3)
    res.check("symmetry |Lk(a,b) - Lk(b,a)|", abs(lk_ab - lk_ba), 1e-10)
    rev = linkref.hopf_pair(256, reverse_second=True)
    lk_rev = linkref.gauss_linking(rev.curves[0], rev.curves[1])
    res.check("orientation reversal |Lk + 1|", abs(lk_rev + 1.0), 1e-3)
    far = linkref.distant_pair(256)
    res.check("distant pair |Lk|", abs(linkref.gauss_linking(far.curves[0], far.curves[1])), 1e-6)
    return res


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}


def run_selftest(ids=None) -> list[CriterionResult]:
    """Run the requested criteria (all by default) and print a table."""
    suite = _Suite()
    results = []
    for cid in sorted(ids or CRITERIA):
        result = CRITERIA[cid](suite)
        results.append(result)
        print(format_result(result))
    n_ok = sum(r.passed for r in results)
    print(f"[selftest] {n_ok}/{len(results)} criteria passed")
    return results


def format_result(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    lines = [f"[{status}] criterion {result.cid}: {result.title}"]
    for c in result.checks:
        mark = "ok " if c.ok else "BAD"
        lines.append(f"    {mark} {c.label}: {c.value:.6g} {c.op} {c.limit:.6g}")
    for note in result.notes:
        lines.append(f"    note: {note}")
    return "\n".join(lines)
