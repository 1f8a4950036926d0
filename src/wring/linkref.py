"""Closed-form reference calculators for linked vortex configurations.

Implements the fibered-foliation invariant formula in terms of boundary
slopes, the flux-to-slope map with its literal identity residual, the
linking-matrix helicity decomposition for tube configurations, and the
Gauss double integral for the linking number of sampled closed curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import (
    CurvesIntersect,
    DegenerateFluxes,
    FormatError,
    MissingLinkData,
    ZeroSlopeOne,
)

_MIN_SAMPLES = config.DEFAULTS["linking"]["min_samples"]
# rows of the first curve per block of ``gauss_linking``
_ROWS = 16


@dataclass(frozen=True)
class SlopeData:
    """Boundary slopes s_1..s_N induced on the components of a link."""

    slopes: tuple[float, ...]

    def __post_init__(self):
        s = tuple(float(v) for v in self.slopes)
        if len(s) < 2:
            raise ValueError("need at least two components")
        if s[0] == 0.0:
            raise ZeroSlopeOne("s_1 = 0; its reciprocal enters the formula")
        if not all(map(math.isfinite, s + (1.0 / s[0],))):
            raise ValueError(f"slopes and 1/s_1 must be finite, got {s}")
        object.__setattr__(self, "slopes", s)

    @property
    def n_components(self) -> int:
        return len(self.slopes)


def thurston_gv(sd: SlopeData) -> float:
    """Invariant of the spun link foliation from its boundary slopes.

    Returns 4 pi^2 (N - 2 - (1/s_1 + sum_{i>=2} s_i)). Affine in each
    s_i (i >= 2) with coefficient -4 pi^2. Raises ValueError if the value
    overflows float64.
    """
    s = sd.slopes
    n = sd.n_components
    value = 4.0 * np.pi**2 * (n - 2.0 - (1.0 / s[0] + sum(s[1:])))
    if not math.isfinite(value):
        raise ValueError(f"the invariant of slopes {s} overflows float64")
    return value


def flux_slopes(fluxes) -> tuple[SlopeData, float]:
    """Slopes of the zero-invariant flux-line configuration, plus a residual.

    s_1 = -phi_1 / sum_{i != 1} phi_i and s_i = -phi_i / phi_1 for i >= 2.
    The returned residual evaluates sum_{i>=2} s_i + 1/s_1 literally; for
    generic fluxes it equals -2 (sum_{i != 1} phi_i) / phi_1 rather than
    zero, so it is reported, not asserted. Callers decide which slope
    convention they are working in. Non-finite fluxes, and slopes or a
    residual that overflow float64, raise ValueError.
    """
    phi = [float(v) for v in fluxes]
    if len(phi) < 2:
        raise DegenerateFluxes("need at least two fluxes")
    rest = sum(phi[1:])
    if not (math.isfinite(phi[0]) and math.isfinite(rest)):
        raise ValueError(f"fluxes and their sum after phi_1 must be finite, got {phi}")
    if phi[0] == 0.0 or rest == 0.0:
        raise DegenerateFluxes(
            f"phi_1 = {phi[0]:g} and sum of the others = {rest:g} must both be nonzero"
        )
    s1 = -phi[0] / rest
    sd = SlopeData((s1,) + tuple(-p / phi[0] for p in phi[1:]))
    residual = sum(sd.slopes[1:]) + 1.0 / s1
    if not math.isfinite(residual):
        raise ValueError(f"the identity residual of fluxes {phi} overflows float64")
    return sd, float(residual)


# -- curves and linking -------------------------------------------------------


@dataclass(eq=False)
class CurveSet:
    """Closed parametric curves with fluxes and an optional linking matrix.

    Each curve is an (m, 3) array of finite points, m >= 64, closed by
    convention (the segment from the last point back to the first is
    implied). Fluxes must be finite numbers, not strings or bools. The
    linking matrix, when declared, must be a symmetric matrix of integers
    within int64 (integer-valued floats count) with zero diagonal.
    """

    curves: list | None
    fluxes: list
    linking: np.ndarray | None = None

    def __post_init__(self):
        if self.curves is not None:
            self.curves = [np.asarray(c, float) for c in self.curves]
            for c in self.curves:
                if c.ndim != 2 or c.shape[1] != 3 or c.shape[0] < _MIN_SAMPLES:
                    raise ValueError(
                        f"curves must be (m, 3) arrays with m >= {_MIN_SAMPLES}"
                    )
                if not np.all(np.isfinite(c)):
                    raise ValueError("curve points must be finite")
            if len(self.fluxes) != len(self.curves):
                raise ValueError("one flux per curve required")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in self.fluxes):
            raise ValueError(f"fluxes must be numbers, got {self.fluxes}")
        self.fluxes = [float(v) for v in self.fluxes]
        if not all(map(math.isfinite, self.fluxes)):
            raise ValueError(f"fluxes must be finite, got {self.fluxes}")
        if self.linking is not None:
            lk = np.array([[_int64_entry(v) for v in row] for row in self.linking], dtype=np.int64)
            n = len(self.fluxes)
            if lk.shape != (n, n):
                raise ValueError("linking matrix shape must match curve count")
            if not np.array_equal(lk, lk.T) or np.any(np.diag(lk) != 0):
                raise ValueError("linking matrix must be symmetric with zero diagonal")
            self.linking = lk

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CurveSet":
        """Build from a curves document; FormatError names what is wrong."""
        if not isinstance(doc, dict) or not isinstance(doc.get("fluxes"), list):
            raise FormatError("curves document must be a JSON object with a 'fluxes' list")
        try:
            return cls(
                curves=doc.get("curves"),
                fluxes=doc["fluxes"],
                linking=doc.get("linking"),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"invalid curves document: {exc}") from exc


def _int64_entry(v) -> int:
    """A linking-matrix entry: an integer, or an integer-valued float, within int64."""
    if isinstance(v, (bool, np.bool_)) or int(v) != v or not -(2**63) <= v < 2**63:
        raise ValueError(f"linking entries must be integers within int64, got {v!r}")
    return int(v)


def gauss_linking(curve_a: np.ndarray, curve_b: np.ndarray) -> float:
    """Gauss double integral for two disjoint closed polygonal curves.

    Trapezoidal double sum over segment midpoints:
    (1/4pi) sum_ij (da_i x db_j) . (xa_i - xb_j) / |xa_i - xb_j|^3.
    Converges spectrally for smooth well-separated curves; the caller may
    round to the nearest integer.

    The terms are formed in blocks of ``_ROWS`` rows of ``curve_a`` into one
    array and summed by a single ``np.sum``, so no block holds more than
    ``_ROWS`` x len(curve_b) x 3 values and the sum is the unblocked one.
    """
    min_distance = config.DEFAULTS["linking"]["intersection_distance"]
    a = np.asarray(curve_a, float)
    b = np.asarray(curve_b, float)
    da = np.roll(a, -1, axis=0) - a
    db = np.roll(b, -1, axis=0) - b
    xa = a + 0.5 * da
    xb = b + 0.5 * db
    terms = np.empty((len(a), len(b)))
    nearest = np.inf
    # curves near the float64 limit overflow here; the caller's finiteness
    # check on the result reports them, so numpy's warnings are not wanted
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(a), _ROWS):
            rows = slice(start, start + _ROWS)
            diff = xa[rows, None, :] - xb[None, :, :]
            dist = np.linalg.norm(diff, axis=-1)
            nearest = min(nearest, dist.min())
            if nearest >= min_distance:
                tri = np.einsum("ijk,ijk->ij", np.cross(da[rows, None, :], db[None, :, :]), diff)
                np.divide(tri, dist**3, out=terms[rows])
    if nearest < min_distance:
        raise CurvesIntersect(f"curves approach within {nearest:g} < {min_distance:g}")
    return float(np.sum(terms) / (4.0 * np.pi))


def linking_matrix(cs: CurveSet) -> tuple[np.ndarray, float]:
    """Pairwise linking numbers of the curve set, rounded to integers.

    Returns (matrix, max deviation of the raw quadrature from the nearest
    integer). The declared matrix, when present, takes precedence.
    """
    if cs.linking is not None:
        return cs.linking.copy(), 0.0
    if cs.curves is None:
        raise MissingLinkData("no linking matrix declared and no curves to integrate")
    n = len(cs.curves)
    lk = np.zeros((n, n), dtype=int)
    dev = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            raw = gauss_linking(cs.curves[i], cs.curves[j])
            if not abs(raw) < 2.0**63:
                raise ValueError(f"Gauss integral {raw!r} of curves {i} and {j} is not finite or is outside int64")
            nearest = int(np.rint(raw))
            dev = max(dev, abs(raw - nearest))
            lk[i, j] = lk[j, i] = nearest
    return lk, dev


def linking_helicities(fluxes, lk: np.ndarray) -> tuple[list[float], float]:
    """Per-tube helicities H_i = Phi_i sum_j Phi_j Lk(i, j) and their total,
    from the fluxes and the matrix ``linking_matrix`` returned.

    Self-linking terms are zero by the tube construction (vortex lines
    inside each tube are mutually unlinked), so the diagonal does not
    contribute; each off-diagonal pair is counted once in each row.
    """
    phi = np.asarray(fluxes, float)
    with np.errstate(over="ignore", invalid="ignore"):
        per = (phi * (lk @ phi)).tolist()
    total = float(sum(per))
    if not math.isfinite(total):
        raise ValueError("per-tube helicities overflow float64")
    return [float(v) for v in per], total


# -- reference curve constructions ---------------------------------------------


def circle_frame(normal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed orthonormal frame (e1, e2, n) of a circle with the given normal."""
    n = np.asarray(normal, float)
    n = n / np.linalg.norm(n)
    trial = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(trial, n)) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    e1 = trial - np.dot(trial, n) * n
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2, n


def circle_points(center, radius, normal, samples: int | None = None, orientation: int = 1) -> np.ndarray:
    """Sampled round circle; orientation=-1 reverses the traversal."""
    if samples is None:
        samples = config.DEFAULTS["linking"]["default_samples"]
    e1, e2, _ = circle_frame(normal)
    t = orientation * 2.0 * np.pi * np.arange(samples) / samples
    c = np.asarray(center, float)
    return c[None, :] + radius * (
        np.cos(t)[:, None] * e1[None, :] + np.sin(t)[:, None] * e2[None, :]
    )


def hopf_pair(samples: int | None = None, fluxes=(1.0, 1.0), reverse_second: bool = False) -> CurveSet:
    """Two singly linked unit circles (linking number +1 as constructed)."""
    c1 = circle_points((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), samples)
    c2 = circle_points(
        (1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), samples,
        orientation=-1 if reverse_second else 1,
    )
    return CurveSet([c1, c2], list(fluxes))


def distant_pair(samples: int | None = None) -> CurveSet:
    """Two unlinked unit circles whose centres are 6 apart."""
    c1 = circle_points((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), samples)
    c2 = circle_points((6.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), samples)
    return CurveSet([c1, c2], [1.0, 1.0])


def zero_helicity_quad(samples: int | None = None) -> CurveSet:
    """Four rings of unit flux whose per-tube helicities all vanish.

    Two horizontal rings with opposite orientations are both threaded by two
    vertical rings of opposite orientations; every row of the linking matrix
    sums to zero while the pairwise numbers do not vanish. The declared
    matrix is validated against the Gauss integral in the test suite.
    """
    r1 = circle_points((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), samples)
    r2 = circle_points((1.0, 0.0, 0.5), 1.0, (0.0, 1.0, 0.0), samples)
    r3 = circle_points((0.0, -1.0, 0.5), 0.9, (1.0, 0.0, 0.0), samples, orientation=-1)
    r4 = circle_points((0.0, 0.0, 1.0), 1.0, (0.0, 0.0, -1.0), samples)
    cs = CurveSet([r1, r2, r3, r4], [1.0] * 4)
    lk, _ = linking_matrix(cs)
    if np.any(lk.sum(axis=1) != 0):
        raise MissingLinkData("constructed quad failed its row-sum-zero property")
    cs.linking = lk
    return cs
