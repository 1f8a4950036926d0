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
introduces no Gibbs artefacts.

One type, ``GvResult``, holds an evaluation: G, q and the masks of
``eta_parts``. ``gv_invariant`` returns it with curl(G), the masked density
array, the value and the Richardson value formed, from one G . curl(G)
that is then dropped; the ``density`` field and the dual field ``H`` are
formed only when read. The velocity bound reuses G, q, the first mask,
curl(G) and the value, so under the velocity choice ``analyze`` forms them
once for both. A float64 overflow in the density, C, the enstrophy rate
or E raises NonFiniteData naming it and its field scale.

The steady-flow obstruction bound uses the velocity construction: the
squared invariant is bounded by C * integral((dW/dt)^2) with
C = integral(|W x U|^2 / (U.A)^4) over the velocity mask, a Cauchy-Schwarz
pairing that holds exactly for the discrete sums as well.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import config
from .errors import (
    DegenerateField,
    DenominatorVanishesEverywhere,
    FluxObstruction,
    MaskTooSmall,
    NonFiniteData,
    ToleranceBreach,
)
from .fieldcore import (
    ScalarField,
    VectorField,
    cross,
    cross_parts,
    curl,
    dot,
    grad,
    integrate,
    magnitude2,
)
from .fieldzoo import FieldBundle, integrability_residual

_TOL = config.TOL
_ETA = config.DEFAULTS["eta"]


@dataclass(frozen=True)
class EtaChoice:
    """Which dual-field construction to use, and its exclusion threshold.

    ``eps`` is relative: points where the denominator magnitude (|A| for
    the canonical choice, |U.A| for the velocity choice) falls below eps
    times its maximum are excluded from the mask.
    """

    variant: str
    eps: float = _ETA["default_eps"]

    def __post_init__(self):
        if self.variant not in ("canonical", "velocity"):
            raise ValueError(f"unknown eta variant {self.variant!r}")
        if not (0.0 <= self.eps < 1.0):
            raise ValueError("eps must lie in [0, 1)")

    @classmethod
    def canonical(cls, eps: float = _ETA["default_eps"]) -> "EtaChoice":
        return cls("canonical", eps)

    @classmethod
    def velocity(cls, eps: float = _ETA["default_eps"]) -> "EtaChoice":
        return cls("velocity", eps)


def flux_check(bundle: FieldBundle) -> tuple[float, float, float]:
    """Vorticity flux through the three fundamental 2-tori.

    For a divergence-free field the flux through each family of parallel
    slices is constant and equals the component mean times the transverse
    area. All three must vanish for helicity to be gauge invariant.
    """
    Lx, Ly, Lz = bundle.grid.box
    mx, my, mz = bundle.W.component_means()
    return (mx * Ly * Lz, my * Lx * Lz, mz * Lx * Ly)


def helicity(bundle: FieldBundle) -> float:
    """Volume integral of U . W with the zero-mean velocity gauge.

    No velocity is formed: the integral is the ``Grid3.parseval`` sum on
    the cached rfft spectra W^ = a + ib of W (``W.spec``), with
    Re(U^ . conj W^) = 2 k.(a x b)/|k|^2 for the Nyquist-zeroed k.

    Raises FluxObstruction if the vorticity carries net flux through a
    fundamental torus (the integral would depend on the potential gauge).
    """
    flux_tol = _TOL["flux_rel"]
    fluxes = flux_check(bundle)
    Lx, Ly, Lz = bundle.grid.box
    scale = max(bundle.W.maxabs(), _TOL["underflow"]) * max(Ly * Lz, Lx * Lz, Lx * Ly)
    worst = max(abs(f) for f in fluxes)
    if worst > flux_tol * scale:
        raise FluxObstruction(
            f"fundamental-torus fluxes {fluxes} exceed {flux_tol:g} relative"
        )
    g = bundle.grid
    spec = bundle.W.spec
    axb = cross_parts([s.real for s in spec], [s.imag for s in spec])
    kab = sum(ik.imag * c for ik, c in zip(g.ik, axb))
    return 2.0 * g.parseval(kab * g.inv_k2)


def eta_parts(bundle: FieldBundle, variant: str, *eps: float):
    """Smooth numerator G, signed denominator q, and one mask per relative
    threshold in ``eps``: where the denominator magnitude (|A| or |U.A|)
    exceeds that fraction of its maximum.

    What is NOT allowed is a denominator that is small everywhere (the
    construction then never makes sense), which raises
    DenominatorVanishesEverywhere.
    """
    A = bundle.A
    a2 = magnitude2(A).data
    a_scale = float(np.sqrt(a2.max()))
    if a_scale < _TOL["underflow"]:
        raise DegenerateField("potential magnitude below underflow threshold")
    if variant == "canonical":
        G, q = cross(bundle.W, A), a2
        mag, top = np.sqrt(q), a_scale
    else:
        U = bundle.U
        q = dot(U, A).data
        mag = np.abs(q)
        top = float(mag.max())
        if top < 1e-10 * U.maxnorm() * a_scale:
            raise DenominatorVanishesEverywhere(
                "U.A is at roundoff level everywhere; the velocity "
                "construction is unusable for this field"
            )
        G = cross(bundle.W, U)
    return G, q, [mag > e * top for e in eps]


def _uncovered(bundle: FieldBundle, mask: np.ndarray) -> float:
    """Fraction of the significant vorticity outside the mask. The mask may
    exclude vorticity (a tube cut around the zero set of the potential is
    how the invariant is defined for singular potentials); the bound gates
    on this fraction."""
    wmag = np.sqrt(magnitude2(bundle.W).data)
    w_scale = float(wmag.max())
    if w_scale <= _TOL["underflow"]:
        return 0.0
    significant = wmag > _ETA["vorticity_floor_rel"] * w_scale
    n_sig = int(significant.sum())
    return float((significant & ~mask).sum()) / n_sig if n_sig else 0.0


def _masked_quotient(num: np.ndarray, q: np.ndarray, mask: np.ndarray, power: int) -> np.ndarray:
    """num / q**power on the mask, zero outside it, never dividing by q off it."""
    return np.where(mask, num / np.where(mask, q, 1.0) ** power, 0.0)


@contextmanager
def _overflow(what: str, name: str, source: VectorField):
    """Raise NonFiniteData naming ``what`` and the scale of ``source`` (the field
    whose products form it) when float64 overflows in the block, in place of a
    numpy RuntimeWarning and a wrong number. In-range values are unchanged."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (FloatingPointError, NonFiniteData) as exc:
        raise NonFiniteData(
            f"{what} overflows float64 at field scale max|{name}| = {source.maxabs():.3g}"
        ) from exc


_DENSITY = "the invariant density G . curl(G) / q^2"


class GvResult:
    """The masked invariant of H = G/q from the grid and what ``eta_parts``
    returns: G, q and the masks at eps and, for Richardson, at eps/2. Each
    quantity is formed on first read (see the module note)."""

    def __init__(self, grid, G: VectorField, q: np.ndarray, masks):
        self.grid, self.G, self.q, self.masks = grid, G, q, masks

    @cached_property
    def curlG(self) -> VectorField:
        return curl(self.G)

    @cached_property
    def numerator(self) -> np.ndarray:
        """G . curl(G), unmasked."""
        with _overflow(_DENSITY, "G", self.G):
            return dot(self.G, self.curlG).data

    @cached_property
    def _integrals(self) -> tuple:
        """The masked density on the first mask, its integral, and the
        Richardson value (None with one mask). Every mask shares one
        G . curl(G), dropped once they are formed: nothing reads it after."""
        num = self.numerator
        del self.numerator
        cell = self.grid.cell_volume
        with _overflow(_DENSITY, "G", self.G):
            halves = [float(np.sum(_masked_quotient(num, self.q, m, 2))) * cell for m in self.masks[1:]]
            density = _masked_quotient(num, self.q, self.masks[0], 2)
            value = float(np.sum(density)) * cell
            if not np.all(np.isfinite([value, *halves])):
                raise FloatingPointError("non-finite integral")
        return density, value, (2.0 * halves[0] - value if halves else None)

    @property
    def value(self) -> float:
        return self._integrals[1]

    @property
    def richardson_value(self) -> float | None:
        """2 I(eps/2) - I(eps), the eps -> 0 estimate, given a second mask."""
        return self._integrals[2]

    @property
    def excluded_volume_fraction(self) -> float:
        return 1.0 - float(self.masks[0].mean())

    @cached_property
    def density(self) -> ScalarField:
        """G . curl(G)/q^2 on the mask, zero off it: for the velocity choice,
        the local obstruction to steady flow."""
        return ScalarField(self.grid, self._integrals[0])

    @cached_property
    def H(self) -> VectorField:
        """The dual field G/q, zero off the mask: A x H = W where mask = 1."""
        return VectorField(self.grid, _masked_quotient(self.G.data, self.q, self.masks[0], 1))


def gv_invariant(
    bundle: FieldBundle,
    choice: EtaChoice | None = None,
    *,
    richardson: bool = False,
) -> GvResult:
    """Masked integral of H . curl(H), with ``value`` formed before return.

    The density is formed as G . curl(G) / q^2 (see the module note), so
    the result's ``density`` is also meaningful pointwise: for the velocity
    choice it is the local obstruction to steady flow.

    With ``richardson=True`` a second mask at eps/2 gives
    ``richardson_value``, the eps -> 0 estimate. Only the mask depends on
    eps, so both integrals share G, q, curl(G) and G . curl(G).
    """
    if choice is None:
        choice = EtaChoice.canonical()
    eps = choice.eps
    levels = (eps, 0.5 * eps) if richardson and eps > 0.0 else (eps,)
    result = GvResult(bundle.grid, *eta_parts(bundle, choice.variant, *levels))
    result.value  # formed inside the call
    return result


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


def obstruction_bound(bundle: FieldBundle, eps: float | None = None) -> BoundReport:
    """Evaluate gv^2 <= C * integral((dW/dt)^2) on the velocity mask.

    Both sides are formed from the same smooth product G = W x U: the
    tendency is -curl(G) and the invariant density is G . curl(G)/(U.A)^2,
    so the inequality is a literal Cauchy-Schwarz statement about the
    discrete sums and the reported slack can only be negative at roundoff.

    Raises MaskTooSmall when U.A vanishes over too much of the vorticity
    support (the constant C is then undefined; it is reported, never
    regularized silently).
    """
    if eps is None:
        eps = _ETA["default_eps"]
    try:
        return _bound(bundle, eps, GvResult(bundle.grid, *eta_parts(bundle, "velocity", eps)))
    except DenominatorVanishesEverywhere as exc:
        raise MaskTooSmall(str(exc)) from exc


def _bound(bundle: FieldBundle, eps: float, evaluation: GvResult) -> BoundReport:
    """The bound from the velocity evaluation at ``eps``: its G, q, mask,
    curl(G) and value. It reads neither ``density`` nor ``H``."""
    G, q, mask = evaluation.G, evaluation.q, evaluation.masks[0]
    uncovered = _uncovered(bundle, mask)
    max_uncovered = _ETA["max_uncovered_vorticity_fraction"]
    if uncovered > max_uncovered:
        raise MaskTooSmall(
            f"U.A mask misses {uncovered:.1%} of the vorticity support "
            f"(limit {max_uncovered:.0%}); the bound constant C is undefined here"
        )
    slack_tol = _TOL["bound_slack_rel"]
    with _overflow("the bound constant C", "G", G):
        C = float(np.sum(_masked_quotient(magnitude2(G).data, q, mask, 4))) * bundle.grid.cell_volume
    with _overflow("the enstrophy rate", "G", G):
        rate = integrate(magnitude2(evaluation.curlG))
    slack = C * rate - evaluation.value**2
    if slack < -slack_tol * C * rate:
        raise ToleranceBreach(
            f"bound slack {slack:g} below -{slack_tol:g} * C * rate; "
            "this should be impossible for consistent inputs"
        )
    with _overflow("the energy E", "U", bundle.U):
        E = 0.5 * integrate(magnitude2(bundle.U))
    V = bundle.grid.volume
    lam = (2.0 * np.pi / max(bundle.grid.box)) ** 2
    L7 = V**2 / np.sqrt(lam)
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


def helical_compression(bundle: FieldBundle, eps: float | None = None) -> ScalarField:
    """Compression-twist density of the leaf normal field, on the |A| mask.

    N = A/|A| is the unit normal to the surfaces the vorticity is tangent
    to; h = (N . grad) N points along the local compression of those
    surfaces, and h . curl(h) measures how that compression twists from
    leaf to leaf. h is a valid dual-field choice for curl(N) up to gauge,
    so this integrand is the same kind of quantity as the invariant
    density but in a different gauge; it is reported as a diagnostic only.

    Derivatives are taken of the smooth combinations (A . grad)A, |A|^2
    and (A . grad)|A|^2; divisions happen pointwise on the mask.
    """
    if eps is None:
        eps = _ETA["default_eps"]
    g = bundle.grid
    A = bundle.A
    _, a2, (mask,) = eta_parts(bundle, "canonical", eps)
    Q = ScalarField(g, a2)
    # P_i = A . grad(A_i) = (A . grad) A
    P = VectorField(g, np.stack([dot(A, grad(ScalarField(g, c))).data for c in A.data]))
    gradQ = grad(Q)
    R = dot(A, gradQ)
    gradR = grad(R)
    curlP = curl(P)
    q = np.where(mask, Q.data, 1.0)
    r = R.data
    # h = P/Q - (R / 2Q^2) A
    h = P.data / q - (r / (2.0 * q**2)) * A.data
    # curl(P/Q) = curl(P)/Q - (gradQ x P)/Q^2
    curl_PQ = curlP.data / q - cross(gradQ, P).data / q**2
    # s = R/(2Q^2); curl(sA) = grad(s) x A + s W
    grad_s = gradR.data / (2.0 * q**2) - (r / q**3) * gradQ.data
    sxA = np.stack(cross_parts(grad_s, A.data))
    curl_h = curl_PQ - sxA - (r / (2.0 * q**2)) * bundle.W.data
    dens = np.where(mask, np.einsum("i...,i...->...", h, curl_h), 0.0)
    return ScalarField(g, dens)


# -- the orchestrated report ---------------------------------------------------


@dataclass(eq=False)
class AnalysisReport:
    """Everything the analysis measured for one bundle, plus tolerances."""

    family: str | None
    grid_n: tuple[int, int, int]
    grid_box: tuple[float, float, float]
    eta_variant: str
    eta_eps: float
    integrability_residual: float
    integrable: bool
    helicity: float | None
    flux_residuals: tuple[float, float, float]
    gv: float | None = None
    gv_richardson: float | None = None
    gv_density: ScalarField | None = None
    excluded_volume_fraction: float | None = None
    claims: dict = field(default_factory=dict)
    deviations: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    bound: BoundReport | None = None

    def to_json_dict(self) -> dict:
        # gv_density is a full 3-D field; it travels as a WRG1 file, never
        # inside the JSON document
        return {
            "schema": "wring-report/1",
            "family": self.family,
            "grid": {"n": list(self.grid_n), "box": list(self.grid_box)},
            "eta_choice": {"variant": self.eta_variant, "eps": self.eta_eps},
            "integrability_residual": self.integrability_residual,
            "integrable": self.integrable,
            "helicity": self.helicity,
            "flux_residuals": list(self.flux_residuals),
            "gv": self.gv,
            "gv_richardson": self.gv_richardson,
            "excluded_volume_fraction": self.excluded_volume_fraction,
            "claims": self.claims,
            "deviations": self.deviations,
            "tolerances": self.tolerances,
            "bound": None if self.bound is None else self.bound.to_json_dict(),
        }


def analyze(
    bundle: FieldBundle,
    choice: EtaChoice | None = None,
    *,
    richardson: bool = False,
    bound: bool = False,
) -> AnalysisReport:
    """Measure helicity and the invariant, checking claims along the way.

    The invariant is only reported when the integrability residual is
    below tolerance; otherwise the report flags the failure and leaves gv
    unset (it is undefined without an integrable potential). Helicity is
    reported either way, gated by the flux check. With ``bound=True`` the
    report carries the obstruction bound at the choice's eps either way;
    under the velocity choice it reuses the invariant's evaluation.
    """
    if choice is None:
        choice = EtaChoice.canonical()
    integrability_tol = _TOL["integrability_rel"]
    residual = integrability_residual(bundle)
    fluxes = flux_check(bundle)
    hel = helicity(bundle)
    integrable = residual <= integrability_tol
    report = AnalysisReport(
        family=bundle.meta.get("family"),
        grid_n=bundle.grid.n,
        grid_box=bundle.grid.box,
        eta_variant=choice.variant,
        eta_eps=choice.eps,
        integrability_residual=residual,
        integrable=integrable,
        helicity=hel,
        flux_residuals=fluxes,
        claims=bundle.claims(),
        tolerances={
            "integrability_rel": integrability_tol,
            "flux_rel": _TOL["flux_rel"],
            "eps": choice.eps,
        },
    )
    evaluation = None
    if integrable:
        evaluation = gv_invariant(bundle, choice, richardson=richardson)
        report.gv = evaluation.value
        report.gv_richardson = evaluation.richardson_value
        report.gv_density = evaluation.density
        report.excluded_volume_fraction = evaluation.excluded_volume_fraction
    if bound and choice.variant == "velocity" and evaluation is not None:
        report.bound = _bound(bundle, choice.eps, evaluation)
    elif bound:
        evaluation = None  # free the canonical construction before the bound forms its own
        report.bound = obstruction_bound(bundle, choice.eps)
    claims = report.claims
    if claims.get("helicity") is not None:
        report.deviations["helicity"] = hel - float(claims["helicity"])
    if report.gv is not None and claims.get("gv") is not None:
        report.deviations["gv"] = report.gv - float(claims["gv"])
    return report
