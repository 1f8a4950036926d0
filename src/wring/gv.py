"""The invariant engine.

For an integrable bundle (A.W = 0) there is a dual field H with
A x H = W; the quantity of interest is the volume integral of
H . curl(H), together with the helicity integral of U . W. Two H
constructions are supported:

* Canonical: H = (W x A)/|A|^2, the unique solution orthogonal to A.
  Deterministic and needs no velocity solve.
* Velocity:  H = (W x U)/(U . A), whose density equals
  -(W x U) . dW/dt / (U . A)^2 once the vorticity tendency is known, and
  therefore localizes the obstruction to steady flow.

Both denominators may vanish on lower-dimensional sets (and do so on the
zero set of the potential), so H is only defined on a masked region where
the denominator exceeds a relative threshold eps. The integral is then an
excluded-tube quantity; for the supported families it is independent of
eps, which the test suite checks.

Numerical note: the density is never computed by differentiating the
masked (discontinuous, near-singular) H. Writing H = G/q with G smooth
(W x A or W x U) and q the scalar denominator, the identity
H . curl(H) = G . curl(G) / q^2 holds pointwise because the gradient-of-q
term is perpendicular to G. Spectral derivatives only ever see the smooth
G, and the division happens pointwise on the masked set, so the mask
introduces no Gibbs artefacts. Every division by q, here and in the
conservation law of ``dynamics``, is ``masked_quotient``.

One type, ``GvResult``, holds an evaluation: G, q and the masks of
``eta_parts``; the grid is G's. Its constructor forms curl(G), the masked
``density`` array, the value and the Richardson value from one G . curl(G)
that is then dropped; the dual field ``H`` is formed only when read.
The velocity bound reuses G, q, the first mask, curl(G) and the value, so
under the velocity choice ``analyze`` forms them once for both. A float64
overflow in the density, C or the enstrophy rate raises NonFiniteData
naming it and its field scale; the bound's E is ``energy_enstrophy``'s.

Each refusal has one type. Net flux through a fundamental torus, where
helicity depends on the gauge, is NonZeroMeanVorticity, as in
``fieldcore.require_potential``; a denominator at roundoff everywhere, or a
bound mask that misses too much of the vorticity, is MaskTooSmall.

The variant and eps are checked in one place, ``_check_eta``: by
``eta_parts``, which every evaluation and the bound pass through, and by
``analyze`` before anything is measured, so a bad eps is refused on a
non-integrable bundle too.

The steady-flow obstruction bound uses the velocity construction: the
squared invariant is bounded by C * integral((dW/dt)^2) with
C = integral(|W x U|^2 / (U.A)^4) over the velocity mask, a Cauchy-Schwarz
pairing that holds exactly for the discrete sums as well.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import config
from .errors import (
    DegenerateField,
    MaskTooSmall,
    NonFiniteData,
    NonZeroMeanVorticity,
    ToleranceBreach,
)
from .fieldcore import (
    VectorField,
    cross,
    cross_parts,
    curl,
    dot,
    magnitude2,
    pointwise,
)
from .fieldzoo import FieldBundle, integrability_residual

_TOL = config.TOL
_ETA = config.DEFAULTS["eta"]


def _check_eta(variant: str, *eps: float) -> None:
    """Refuse an unknown dual-field variant or a relative threshold outside
    [0, 1): points where the denominator magnitude (|A| for the canonical
    choice, |U.A| for the velocity choice) falls below eps times its maximum
    are excluded from the mask."""
    if variant not in ("canonical", "velocity"):
        raise ValueError(f"unknown eta variant {variant!r}")
    if not all(0.0 <= e < 1.0 for e in eps):
        raise ValueError("eps must lie in [0, 1)")


def flux_check(bundle: FieldBundle) -> tuple[float, float, float]:
    """Vorticity flux through the three fundamental 2-tori.

    For a divergence-free field the flux through each family of parallel
    slices is constant and equals the component mean times the transverse
    area. All three must vanish for helicity to be gauge invariant.
    """
    Lx, Ly, Lz = bundle.grid.box
    mx, my, mz = bundle.W.component_means
    return (mx * Ly * Lz, my * Lx * Lz, mz * Lx * Ly)


def helicity(bundle: FieldBundle) -> float:
    """Volume integral of U . W with the zero-mean velocity gauge.

    No velocity is formed: the integral is the ``Grid3.parseval`` sum on
    the cached rfft spectra W^ = a + ib of W (``W.spec``), with
    Re(U^ . conj W^) = 2 k.(a x b)/|k|^2 for the Nyquist-zeroed k.

    Raises NonZeroMeanVorticity if the vorticity carries net flux through a
    fundamental torus (the integral would depend on the potential gauge).
    """
    flux_tol = _TOL["flux_rel"]
    fluxes = flux_check(bundle)
    Lx, Ly, Lz = bundle.grid.box
    scale = max(bundle.W.maxabs, _TOL["underflow"]) * max(Ly * Lz, Lx * Lz, Lx * Ly)
    worst = max(abs(f) for f in fluxes)
    if worst > flux_tol * scale:
        raise NonZeroMeanVorticity(
            f"fundamental-torus fluxes {fluxes} exceed {flux_tol:g} relative"
        )
    g = bundle.grid
    spec = bundle.W.spec
    axb = cross_parts(spec.real, spec.imag, out=np.empty(spec.shape))
    kab = sum(ik.imag * c for ik, c in zip(g.ik, axb))
    return 2.0 * g.parseval(kab * g.inv_k2)


def energy_enstrophy(bundle: FieldBundle) -> tuple[float, float]:
    """The kinetic energy 0.5 * integral of |U|^2 and the enstrophy integral
    of |W|^2, as ``Grid3.parseval`` sums on the cached rfft spectra W^ of W
    (``W.spec``); the package's one energy formula.

    No velocity is formed. U^ = (ik x W^)/|k|^2 with the Nyquist-zeroed
    real k, so Lagrange's identity gives
    |U^|^2 = (|k|^2 |W^|^2 - |k . W^|^2)/|k|^4 = (|W^|^2 - |k . W^|^2/|k|^2)/|k|^2,
    zero on the modes ``inv_k2`` treats as degenerate.
    """
    g, spec = bundle.grid, bundle.W.spec
    # |k . W^|^2 from the real and the imaginary part of k . W^ in turn
    kw2 = sum(sum(ik.imag * c for ik, c in zip(g.ik, part)) ** 2 for part in (spec.real, spec.imag))
    w2 = sum(s.real**2 + s.imag**2 for s in spec)
    u2 = (w2 - kw2 * g.inv_k2) * g.inv_k2
    return 0.5 * g.parseval(u2), g.parseval(w2)


def eta_parts(bundle: FieldBundle, variant: str, *eps: float):
    """Smooth numerator G, signed denominator q, and one mask per relative
    threshold in ``eps``: where the denominator magnitude (|A| or |U.A|)
    exceeds that fraction of its maximum.

    What is NOT allowed is a denominator that is small everywhere (the
    construction then never makes sense), which raises MaskTooSmall. An
    unknown variant or a threshold outside [0, 1) raises ValueError.
    """
    _check_eta(variant, *eps)
    A = bundle.A
    a_scale = A.maxnorm
    if a_scale < _TOL["underflow"]:
        raise DegenerateField("potential magnitude below underflow threshold")
    if variant == "canonical":
        G, q = cross(bundle.W, A), magnitude2(A)
        mag, top = np.sqrt(q), a_scale
    else:
        U = bundle.U
        q = dot(U, A)
        mag = np.abs(q)
        top = float(mag.max())
        if top < 1e-10 * U.maxnorm * a_scale:
            raise MaskTooSmall(
                "U.A is at roundoff level everywhere; the velocity "
                "construction is unusable for this field"
            )
        G = cross(bundle.W, U)
    return G, q, [mag > e * top for e in eps]


def _uncovered(bundle: FieldBundle, mask: np.ndarray) -> float:
    """Fraction of the significant vorticity outside the mask. The mask may
    exclude vorticity (a tube cut around the zero set of the potential is
    how the invariant is defined for singular potentials); the bound gates
    on this fraction and raises MaskTooSmall past its limit."""
    w_scale = bundle.W.maxnorm
    if w_scale <= _TOL["underflow"]:
        return 0.0
    wmag = np.sqrt(magnitude2(bundle.W))
    significant = wmag > _ETA["vorticity_floor_rel"] * w_scale
    n_sig = int(significant.sum())
    uncovered = float((significant & ~mask).sum()) / n_sig if n_sig else 0.0
    max_uncovered = _ETA["max_uncovered_vorticity_fraction"]
    if uncovered > max_uncovered:
        raise MaskTooSmall(
            f"U.A mask misses {uncovered:.1%} of the vorticity support "
            f"(limit {max_uncovered:.0%}); the bound constant C is undefined here"
        )
    return uncovered


def masked_quotient(num: np.ndarray, q: np.ndarray, mask: np.ndarray, power: int) -> np.ndarray:
    """num / q**power on the mask, zero outside it, never dividing by q off it;
    the package's one division by a dual-field denominator. ``power`` is 1,
    2 or 4, formed by repeated squaring, x-slab by x-slab (``pointwise``).
    q**4 as (q^2)^2 is within 2 ulp of libm's pow, which is scalar and slow
    for negative q, and even in q bit for bit."""

    def kernel(o, n, d, m):
        den = np.where(m, d, 1.0)
        for _ in range(power.bit_length() - 1):
            np.square(den, out=den)
        np.divide(n, den, out=o)
        np.copyto(o, 0.0, where=~m)

    out = np.empty(num.shape)
    pointwise(kernel, out, num, q, mask)
    return out


@contextmanager
def _overflow(what: str, name: str, source: VectorField):
    """Raise NonFiniteData naming ``what`` and the scale of ``source`` (the field
    whose products form it) when float64 overflows in the block's ufuncs (the
    products are unchecked arrays), in place of a RuntimeWarning and a wrong number."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NonFiniteData(
            f"{what} overflows float64 at field scale max|{name}| = {source.maxabs:.3g}"
        ) from exc


_DENSITY = "the invariant density G . curl(G) / q^2"


class GvResult:
    """The masked invariant of H = G/q from what ``eta_parts`` returns: G, q
    and the masks at eps and, for Richardson, at eps/2; the grid is G's. The
    constructor forms curl(G), ``density``, ``value`` and
    ``richardson_value``, 2 I(eps/2) - I(eps) given a second mask, from one
    G . curl(G) for every mask (see the module note). ``density`` is the
    array G . curl(G)/q^2 on the first mask, zero off it: for the velocity
    choice, the local obstruction to steady flow."""

    def __init__(self, G: VectorField, q: np.ndarray, masks):
        self.G, self.q, self.masks = G, q, masks
        self.curlG = curl(G)
        grid = G.grid
        with _overflow(_DENSITY, "G", G):
            num = dot(G, self.curlG)
            halves = [grid.integral(masked_quotient(num, q, m, 2)) for m in masks[1:]]
            self.density = masked_quotient(num, q, masks[0], 2)
            self.value = grid.integral(self.density)
            if not np.all(np.isfinite([self.value, *halves])):
                raise FloatingPointError("non-finite integral")
        self.richardson_value = 2.0 * halves[0] - self.value if halves else None

    @property
    def excluded_volume_fraction(self) -> float:
        return 1.0 - float(self.masks[0].mean())

    @cached_property
    def H(self) -> VectorField:
        """The dual field G/q, zero off the mask: A x H = W where mask = 1."""
        return VectorField(self.G.grid, masked_quotient(self.G.data, self.q, self.masks[0], 1))


def gv_invariant(
    bundle: FieldBundle,
    variant: str = "canonical",
    eps: float = _ETA["default_eps"],
    *,
    richardson: bool = False,
) -> GvResult:
    """Masked integral of H . curl(H) under the dual-field ``variant`` at the
    relative threshold ``eps``.

    The density is formed as G . curl(G) / q^2 (see the module note), so
    the result's ``density`` is also meaningful pointwise: for the velocity
    choice it is the local obstruction to steady flow.

    With ``richardson=True`` a second mask at eps/2 gives
    ``richardson_value``, the eps -> 0 estimate. Only the mask depends on
    eps, so both integrals share G, q, curl(G) and G . curl(G).
    """
    levels = (eps, 0.5 * eps) if richardson and eps > 0.0 else (eps,)
    return GvResult(*eta_parts(bundle, variant, *levels))


# -- obstruction bound ---------------------------------------------------------


@dataclass(eq=False)
class BoundReport:
    """Measured pieces of the steady-flow obstruction inequality."""

    gv: float
    C: float
    enstrophy_rate: float
    slack: float
    E: float
    V: float
    lambda_min: float
    approx_bound_rhs: float
    delta_measure: float
    covered_fraction: float
    uncovered_vorticity_fraction: float
    eps: float

    def to_json_dict(self) -> dict:
        return {**asdict(self), "schema": "wring-bound/1"}


def obstruction_bound(bundle: FieldBundle, eps: float = _ETA["default_eps"]) -> BoundReport:
    """Evaluate gv^2 <= C * integral((dW/dt)^2) on the velocity mask.

    Both sides are formed from the same smooth product G = W x U: the
    tendency is -curl(G) and the invariant density is G . curl(G)/(U.A)^2,
    so the inequality is a literal Cauchy-Schwarz statement about the
    discrete sums and the reported slack can only be negative at roundoff.

    Raises MaskTooSmall when U.A vanishes over too much of the vorticity
    support (the constant C is then undefined; it is reported, never
    regularized silently).
    """
    G, q, masks = eta_parts(bundle, "velocity", eps)
    # the coverage gate refuses before curl(G) is formed
    uncovered = _uncovered(bundle, masks[0])
    return _bound(bundle, eps, GvResult(G, q, masks), uncovered)


def _bound(bundle: FieldBundle, eps: float, evaluation: GvResult, uncovered: float) -> BoundReport:
    """The bound from the velocity evaluation at ``eps``, whose first mask
    passed the coverage gate with ``uncovered``: its G, q, mask, curl(G) and
    value. It reads neither ``density`` nor ``H``."""
    G, q, mask = evaluation.G, evaluation.q, evaluation.masks[0]
    g = bundle.grid
    slack_tol = _TOL["bound_slack_rel"]
    with _overflow("the bound constant C", "G", G):
        C = g.integral(masked_quotient(magnitude2(G), q, mask, 4))
    with _overflow("the enstrophy rate", "G", G):
        rate = g.integral(magnitude2(evaluation.curlG))
    slack = C * rate - evaluation.value**2
    if slack < -slack_tol * C * rate:
        raise ToleranceBreach(
            f"bound slack {slack:g} below -{slack_tol:g} * C * rate; "
            "this should be impossible for consistent inputs"
        )
    E = energy_enstrophy(bundle)[0]
    V = g.volume
    lam = (2.0 * np.pi / max(g.box)) ** 2
    L7 = V**2 / math.sqrt(lam)
    delta = q - 2.0 * E / V
    return BoundReport(
        gv=evaluation.value,
        C=C,
        enstrophy_rate=rate,
        slack=slack,
        E=E,
        V=V,
        lambda_min=lam,
        approx_bound_rhs=L7 / (4.0 * E**2) * rate,
        delta_measure=float(np.max(np.abs(delta))) * V / E,
        covered_fraction=float(mask.mean()),
        uncovered_vorticity_fraction=uncovered,
        eps=eps,
    )


# -- the orchestrated report ---------------------------------------------------


@dataclass(eq=False)
class AnalysisReport:
    """Everything the analysis measured for one bundle, plus tolerances.
    Each field but ``gv_density`` is a key of the JSON report under its own
    name: ``grid`` is {"n", "box"} and ``eta_choice`` {"variant", "eps"}."""

    family: str | None
    grid: dict
    eta_choice: dict
    integrability_residual: float
    integrable: bool
    helicity: float | None
    flux_residuals: tuple[float, float, float]
    gv: float | None = None
    gv_richardson: float | None = None
    gv_density: np.ndarray | None = None
    excluded_volume_fraction: float | None = None
    claims: dict = field(default_factory=dict)
    deviations: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    bound: BoundReport | None = None

    def to_json_dict(self) -> dict:
        # gv_density is a full 3-D array; it travels as a WRG1 file, never
        # inside the JSON document (and asdict would deep-copy it)
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "gv_density"}
        bound = None if self.bound is None else self.bound.to_json_dict()
        return {**doc, "bound": bound, "schema": "wring-report/1"}


def analyze(
    bundle: FieldBundle,
    variant: str = "canonical",
    eps: float = _ETA["default_eps"],
    *,
    richardson: bool = False,
    bound: bool = False,
) -> AnalysisReport:
    """Measure helicity and the invariant, checking claims along the way.

    The invariant is only reported when the integrability residual is
    below tolerance; otherwise the report flags the failure and leaves gv
    unset (it is undefined without an integrable potential). Helicity is
    reported either way, gated by the flux check. With ``bound=True`` the
    report carries the obstruction bound at ``eps`` either way; under the
    velocity choice it reuses the invariant's evaluation. An unknown variant
    or an eps outside [0, 1) raises ValueError before anything is measured.
    """
    _check_eta(variant, eps)
    integrability_tol = _TOL["integrability_rel"]
    residual = integrability_residual(bundle)
    fluxes = flux_check(bundle)
    hel = helicity(bundle)
    integrable = residual <= integrability_tol
    report = AnalysisReport(
        family=bundle.meta.get("family"),
        grid={"n": list(bundle.grid.n), "box": list(bundle.grid.box)},
        eta_choice={"variant": variant, "eps": eps},
        integrability_residual=residual,
        integrable=integrable,
        helicity=hel,
        flux_residuals=fluxes,
        claims=bundle.claims(),
        tolerances={
            "integrability_rel": integrability_tol,
            "flux_rel": _TOL["flux_rel"],
            "eps": eps,
        },
    )
    evaluation = None
    if integrable:
        evaluation = gv_invariant(bundle, variant, eps, richardson=richardson)
        report.gv = evaluation.value
        report.gv_richardson = evaluation.richardson_value
        report.gv_density = evaluation.density
        report.excluded_volume_fraction = evaluation.excluded_volume_fraction
    if bound and variant == "velocity" and evaluation is not None:
        report.bound = _bound(bundle, eps, evaluation, _uncovered(bundle, evaluation.masks[0]))
    elif bound:
        evaluation = None  # free the canonical construction before the bound forms its own
        report.bound = obstruction_bound(bundle, eps)
    claims = report.claims
    if claims.get("helicity") is not None:
        report.deviations["helicity"] = hel - float(claims["helicity"])
    if report.gv is not None and claims.get("gv") is not None:
        report.deviations["gv"] = report.gv - float(claims["gv"])
    return report
