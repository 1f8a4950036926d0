"""Analytic generators of potential/vorticity pairs with known properties.

Every generator returns a FieldBundle: a consistent pair of the potential
dual A (so the potential 1-form is A's metric dual) and the vorticity W with
curl A = W on one grid, which the bundle takes from A, and provenance
metadata recording the family, its parameters, and any analytic claims
(integrability, expected helicity, expected invariant values) that
downstream analysis can check. The velocity is always derived from W.

Families:

* ``gen_clebsch``    A = f grad(g): integrable by construction, W = grad(f) x grad(g).
* ``gen_morse``      Clebsch preset whose potential vanishes at the critical
                     points of a triply periodic g (isolated vorticity zeros).
* ``gen_kupka_tube`` columnar vortex whose potential vanishes on the axis
                     while the vorticity does not (a distinguished closed
                     vortex line).
* ``gen_beltrami_abc`` the ABC eigenfield of curl: NOT integrable, nonzero
                     helicity; used as the negative control.
* ``gen_linked_rings`` two solenoidal vortex tubes inside the box, with
                     declared fluxes and zero internal twist; helicity
                     target from the linking number.

Volume-preserving maps are built from shear primitives; they are periodic,
unit-Jacobian, closed under composition, and are applied to sampled fields
through exact per-slice Fourier phase shifts.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config, linkref, wrg1
from .errors import (
    ConsistencyLoss,
    DegenerateField,
    FormatError,
    InvalidGrid,
    MapNotInvertible,
    NonPeriodic,
    PreconditionError,
    SupportTooLarge,
    TubesOverlap,
    ZeroF,
)
from .fieldcore import (
    Grid3,
    ScalarField,
    VectorField,
    cross,
    cross_parts,
    curl_drift,
    dot,
    grad,
    inverse_curl,
    spectral_tail_fraction,
)

_TOL = config.TOL
_MAX_FLOAT = float(np.finfo(np.float64).max)
_VALUES = config.DEFAULTS["bundle_values"]


# -- bundles -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FieldBundle:
    """Consistent (potential dual A, vorticity W) pair; U is derived from W.

    A and W are read-only fields on one grid, the bundle's ``grid`` (a W on
    another raises InvalidGrid), each caching its own spectra and W its gate
    residuals, so U, the inverse curl of W, is cached here too. ``meta``
    carries family name, creation parameters, claims and measured
    generation residuals; analysis code treats the claims as oracles.
    """

    A: VectorField
    W: VectorField
    meta: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.W.grid != self.A.grid:
            raise InvalidGrid(f"a bundle's A and W share one grid: A is on {self.A.grid}, W on {self.W.grid}")

    @property
    def grid(self) -> Grid3:
        return self.A.grid

    @cached_property
    def U(self) -> VectorField:
        """The velocity: the zero-mean inverse curl of the gated W."""
        return inverse_curl(self.W)

    def claims(self) -> dict:
        return self.meta.get("claims", {})

    def verify(self) -> dict:
        """Measure the bundle invariants; returns a dict of residuals."""
        cons = curl_drift(self.grid, self.A.spec, self.W.spec)
        div_w, mean_w = self.W.potential_residuals
        out = {
            "curl_consistency": cons,
            "div_w": div_w,
            "mean_w": mean_w,
        }
        if self.claims().get("integrable"):
            try:
                out["integrability"] = integrability_residual(self)
            except DegenerateField:
                out["integrability"] = 0.0  # A.W vanishes with A or W
        return out

    def save(self, path) -> None:
        wrg1.write_fields(path, {"A": self.A, "W": self.W}, meta=_json_safe(self.meta))

    @classmethod
    def load(cls, path) -> "FieldBundle":
        """Read A, W and meta; a stored U, which older files carry, is ignored.

        A and W must each be zero or have a largest |component| within
        ``bundle_values`` (defaults.json); outside it, FormatError names the
        file and the field, before any product of the samples can overflow.
        """
        _, fields, meta = wrg1.read_fields(path)
        try:
            A, W = fields["A"], fields["W"]
        except KeyError as exc:
            raise FormatError(f"{path}: bundle file lacks field {exc}") from exc
        if not (isinstance(A, VectorField) and isinstance(W, VectorField)):
            raise FormatError(f"{path}: bundle fields 'A' and 'W' must be vectors")
        problem = _out_of_range(A, W)
        if problem:
            raise FormatError(f"{path}: {problem}")
        claims = meta.get("claims", {})
        if not isinstance(claims, dict) or not isinstance(meta.get("diffeo", []), list):
            raise FormatError(f"{path}: metadata 'claims' must be an object and 'diffeo' a list")
        for key, value in claims.items():
            number = value is None or type(value) in (int, float) and abs(value) <= _MAX_FLOAT
            if key in ("helicity", "gv") and not number:
                raise FormatError(f"{path}: claim {key!r} must be a float64 number or null, got {value!r}")
        return cls(A, W, meta)


def _out_of_range(A: VectorField, W: VectorField) -> str | None:
    """What is wrong with the first of A and W that is neither zero nor has
    its largest |component| within ``bundle_values`` (defaults.json), or None."""
    low, high = _VALUES["min_nonzero_abs"], _VALUES["max_abs"]
    for name, field in (("A", A), ("W", W)):
        peak = field.maxabs
        if peak > high or 0.0 < peak < low:
            return (
                f"field {name!r} has max|component| {peak:.17g}; a bundle field "
                f"must be zero or have it within [{low:g}, {high:g}]"
            )
    return None


def _verified(A: VectorField, W: VectorField, meta: dict) -> FieldBundle:
    """The bundle of A and W with its ``verify`` residuals in ``meta["residuals"]``.

    A and W must pass the value range that ``FieldBundle.load`` checks
    (ValueError otherwise), so no command writes a bundle it cannot read.
    """
    problem = _out_of_range(A, W)
    if problem:
        raise ValueError(problem)
    bundle = FieldBundle(A, W, meta)
    meta["residuals"] = bundle.verify()
    return bundle


def integrability_residual(bundle: FieldBundle) -> float:
    """max|A.W| / (max|A| max|W|), Euclidean maxima; zero means the potential is integrable."""
    a_scale = bundle.A.maxnorm
    w_scale = bundle.W.maxnorm
    if a_scale < _TOL["underflow"] or w_scale < _TOL["underflow"]:
        raise DegenerateField("A or W magnitude below underflow threshold")
    return float(np.max(np.abs(dot(bundle.A, bundle.W)))) / (a_scale * w_scale)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _offsets(grid: Grid3, center) -> list[np.ndarray]:
    """The periodic offsets x - c, y - c, z - c of the mesh from ``center``,
    each wrapped into [-L/2, L/2] and broadcastable like ``grid.mesh()``."""
    out = []
    for x, c, L in zip(grid.mesh(), center, grid.box):
        d = x - c
        d -= L * np.round(d / L)
        out.append(d)
    return out


def _snap_zero_mean(v: VectorField, *, tol: float = 1e-3) -> VectorField:
    """``v`` less its roundoff-level component means.

    Generators produce analytically mean-free vorticity; a mean beyond
    ``tol`` relative to the field scale signals input that is not periodic
    or that the grid does not resolve.
    """
    scale = max(v.maxabs, _TOL["underflow"])
    for i, m in enumerate(v.component_means):
        if abs(m) > tol * scale:
            raise NonPeriodic(
                f"component {i} mean {m:g} exceeds {tol:g} of max|component| {scale:g}: "
                "the field is either not periodic or not resolved by the grid (raise n)"
            )
    return VectorField(v.grid, v.data - np.array(v.component_means)[:, None, None, None])


# -- scalar specs ------------------------------------------------------------

_ALLOWED_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
}

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Call,
    ast.Name,
    ast.Load,
    ast.Constant,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
)


def eval_scalar_expr(grid: Grid3, expr: str) -> ScalarField:
    """Evaluate a restricted arithmetic expression of x, y, z on the mesh.

    Allowed: the coordinates x, y, z, box lengths Lx, Ly, Lz, pi, numeric
    literals, + - * / ** and the functions sin cos tan exp sqrt abs tanh.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad scalar expression {expr!r}: {exc}") from exc
    names = {"x", "y", "z", "pi", "Lx", "Ly", "Lz"} | set(_ALLOWED_FUNCS)
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"bad scalar expression {expr!r}: {type(node).__name__} not allowed"
            )
        if isinstance(node, ast.Name) and node.id not in names:
            raise ValueError(f"bad scalar expression {expr!r}: unknown name {node.id!r}")
        if isinstance(node, ast.Call) and (
            not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS
        ):
            raise ValueError(f"bad scalar expression {expr!r}: bad function call")
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)) or abs(node.value) > _MAX_FLOAT:
                raise ValueError(f"bad scalar expression {expr!r}: constants must be float64 numbers")
            # float literals keep every operation bounded: 9**9**7 overflows at once
            node.value = float(node.value)
    x, y, z = grid.mesh()
    ns = dict(_ALLOWED_FUNCS)
    ns.update(
        x=x, y=y, z=z, pi=np.pi,
        Lx=grid.box[0], Ly=grid.box[1], Lz=grid.box[2],
    )
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = np.asarray(eval(compile(tree, "<scalar expr>", "eval"), {"__builtins__": {}}, ns))
    except ArithmeticError as exc:
        raise ValueError(f"bad scalar expression {expr!r}: {exc}") from exc
    if values.dtype.kind not in "fiu":
        raise ValueError(f"bad scalar expression {expr!r}: its value is not a real float")
    return ScalarField(grid, np.broadcast_to(np.asarray(values, float), grid.shape).copy())


def _as_scalar(grid: Grid3, spec) -> ScalarField:
    if isinstance(spec, str):
        return eval_scalar_expr(grid, spec)
    if callable(spec):
        return ScalarField.sample(grid, spec)
    raise TypeError(f"cannot interpret scalar spec {spec!r}")


# -- generators --------------------------------------------------------------

CLEBSCH_F = "2 + sin(2*pi*x/Lx)*cos(2*pi*y/Ly)"
MORSE_F = "2 + sin(2*pi*x/Lx)"
MORSE_G = "cos(2*pi*x/Lx) + cos(2*pi*y/Ly) + cos(2*pi*z/Lz)"


def random_trig_scalar(kmax: int, nmodes: int, seed: int, *, offset: float = 2.0, amp: float = 0.9):
    """Deterministic trigonometric polynomial, independent of any grid.

    Returns a callable f(x, y, z) = offset + amp * sum(a_i cos(k_i . x + p_i))
    normalized so the oscillating part stays within [-amp, amp]; with
    amp < offset the result is nowhere zero. Useful as a rich-spectrum
    multiplier whose products genuinely exercise a grid's resolution.
    """
    rng = np.random.default_rng(seed)
    modes = []
    while len(modes) < nmodes:
        k = rng.integers(-kmax, kmax + 1, size=3)
        if not np.any(k):
            continue
        modes.append((k.astype(float), rng.uniform(0.5, 1.0), rng.uniform(0.0, 2.0 * np.pi)))
    total = sum(a for _, a, _ in modes)

    def f(x, y, z):
        acc = 0.0
        for k, a, ph in modes:
            acc = acc + a * np.cos(k[0] * x + k[1] * y + k[2] * z + ph)
        return offset + amp * acc / total

    return f


def gen_clebsch(
    grid: Grid3,
    f=CLEBSCH_F,
    g=None,
    g_linear: tuple[float, float, float] | None = None,
    *,
    name: str = "clebsch",
) -> FieldBundle:
    """Potential A = f grad(g), vorticity W = grad(f) x grad(g).

    ``f`` must be a nowhere-zero periodic scalar. ``g`` may combine a
    periodic part with a linear part ``g_linear . x`` (the linear part is
    not itself periodic but its gradient is, so A stays periodic). With no
    arguments this builds the default family with g = z.

    The construction is integrable pointwise: A.W = f grad(g).(grad(f) x
    grad(g)) vanishes as a triple product with a repeated factor.
    """
    if g is None and g_linear is None:
        g_linear = (0.0, 0.0, 1.0)
    fs = _as_scalar(grid, f)
    f_scale = fs.maxabs
    if float(np.min(np.abs(fs.data))) < _TOL["zero_f_rel"] * max(f_scale, 1e-300):
        raise ZeroF("f passes too close to zero; the potential would degenerate")
    dg = grad(_as_scalar(grid, g)).data if g is not None else np.zeros((3,) + grid.shape)
    if g_linear is not None:
        dg = dg + np.array(g_linear, dtype=float)[:, None, None, None]
    A = VectorField(grid, fs.data[None, :, :, :] * dg)
    W = cross(grad(fs), VectorField(grid, dg))
    # f and grad(g) are not needed past this point; verify runs without them
    del fs, dg
    if spectral_tail_fraction(A) > _TOL["spectral_tail_fraction"]:
        raise NonPeriodic("potential has O(1) energy at the grid Nyquist scale")
    return _verified(A, _snap_zero_mean(W), {
        "family": name,
        "params": {
            "f": f if isinstance(f, str) else "<callable>",
            "g": g if (g is None or isinstance(g, str)) else "<callable>",
            "g_linear": list(g_linear) if g_linear is not None else None,
        },
        "claims": {
            "integrable": True,
            "first_integral": True,
            "gv": 0.0,
            "helicity": 0.0,
        },
    })


def gen_morse(grid: Grid3) -> FieldBundle:
    """Clebsch bundle whose potential has isolated zeros.

    The level function has nondegenerate critical points (eight per box),
    where grad(g) and hence A and W vanish; f stays positive there.
    """
    return gen_clebsch(grid, f=MORSE_F, g=MORSE_G, g_linear=None, name="morse")


def default_kupka_profile(r0: float, power: int):
    """C^(power-1) polynomial bump chi(r) = (1 - (r/r0)^2)^power, chi(0) = 1.

    Returns (chi, dchi) callables vanishing identically for r >= r0 when
    power >= 2 (at power 1, (1 - 1)^0 = 1 leaves dchi nonzero outside).
    """

    def chi(r):
        u2 = np.clip((np.asarray(r) / r0) ** 2, 0.0, 1.0)
        return (1.0 - u2) ** power

    def dchi(r):
        r = np.asarray(r)
        u2 = np.clip((r / r0) ** 2, 0.0, 1.0)
        return -2.0 * power * (r / r0**2) * (1.0 - u2) ** (power - 1)

    return chi, dchi


def gen_kupka_tube(
    grid: Grid3,
    r0: float | None = None,
    *,
    power: int | None = None,
) -> FieldBundle:
    """Columnar vortex with a potential zero line along its axis.

    A = (-y chi(r), x chi(r), 0) around the box centre (horizontal,
    azimuthal); W = (2 chi + r chi') z_hat. On the axis A = 0 while
    W = 2 chi(0) z_hat is nonzero, so the axis is a distinguished closed
    vortex line. A.W = 0 identically (A horizontal, W vertical), and the
    tube carries zero net flux so it embeds in the torus.
    """
    Lx, Ly, _ = grid.box
    if r0 is None:
        r0 = config.DEFAULTS["kupka"]["r0_box_fraction"] * min(Lx, Ly)
    if not (0.0 < r0 < 0.5 * min(Lx, Ly)):
        raise SupportTooLarge(
            f"profile radius {r0:g} does not fit inside half the box {min(Lx, Ly) / 2:g}"
        )
    if power is None:
        power = config.DEFAULTS["kupka"]["profile_power"]
    if isinstance(power, bool) or not isinstance(power, int) or power < 2:
        raise ValueError(f"profile power must be an integer >= 2, got {power!r}")
    chi, dchi = default_kupka_profile(r0, power)
    cx, cy = 0.5 * Lx, 0.5 * Ly
    dx, dy, _ = _offsets(grid, (cx, cy, 0.0))
    r = np.sqrt(dx**2 + dy**2)
    c = chi(r)
    A = VectorField.from_components(grid, -dy * c, dx * c, 0.0)
    wz = 2.0 * c + r * dchi(r)
    W = _snap_zero_mean(VectorField.from_components(grid, 0.0, 0.0, wz))
    return _verified(A, W, {
        "family": "kupka",
        "params": {"r0": float(r0), "power": int(power), "center": [cx, cy]},
        "claims": {
            "integrable": True,
            "gv": 0.0,
            "gv_eps_independent": True,
            "helicity": 0.0,
            "zero_line": {"axis": "z", "through": [cx, cy]},
        },
    })


def gen_beltrami_abc(grid: Grid3, a: float = 1.0, b: float = 1.0, c: float = 1.0) -> FieldBundle:
    """ABC curl-eigenfield: W = k U with k the fundamental wavenumber.

    The natural potential is A = U itself (curl U = k U = W), so
    A.W = k |U|^2 is nonzero on a set of full measure: the bundle is not
    integrable and the analysis refuses its invariant. Helicity is the
    closed form k (a^2 + b^2 + c^2) V.
    """
    Lx, Ly, Lz = grid.box
    if not (abs(Lx - Ly) < 1e-12 * Lx and abs(Lx - Lz) < 1e-12 * Lx):
        raise PreconditionError("ABC field needs a cubic box")
    kappa = 2.0 * np.pi / Lx
    x, y, z = grid.mesh()
    U = VectorField.from_components(
        grid,
        a * np.sin(kappa * z) + c * np.cos(kappa * y),
        b * np.sin(kappa * x) + a * np.cos(kappa * z),
        c * np.sin(kappa * y) + b * np.cos(kappa * x),
    )
    W = VectorField(grid, kappa * U.data)
    helicity = kappa * (a**2 + b**2 + c**2) * grid.volume
    return _verified(U, W, {
        "family": "beltrami",
        "params": {"a": a, "b": b, "c": c},
        "claims": {
            "integrable": False,
            "helicity": float(helicity),
            "beltrami_eigenvalue": float(kappa),
        },
    })


# -- vortex rings ------------------------------------------------------------


@dataclass(frozen=True)
class Ring:
    """A round circle with an orientation: centre, radius and unit normal."""

    center: tuple[float, float, float]
    radius: float
    normal: tuple[float, float, float]


def _tube_vorticity(grid: Grid3, ring: Ring, flux: float, core: float, power: int) -> np.ndarray:
    """Sampled solenoidal tube field: flux-normalized profile along the centreline.

    With d the offset from the ring's centre and n its unit normal, the
    tangent n x d has the distance from the ring's axis as its length, so
    the field is n x d times profile / length. Within 1e-12 of the axis,
    where the tangent has no direction, the length is taken as infinite
    and the field is zero.
    """
    n = linkref.circle_frame(ring.normal)[2]
    d = _offsets(grid, ring.center)
    out = cross_parts(n, d, out=np.empty((3,) + grid.shape))
    zeta = d[0] * n[0] + d[1] * n[1] + d[2] * n[2]
    rho = np.sqrt(out[0] ** 2 + out[1] ** 2 + out[2] ** 2)
    u2 = np.clip(((rho - ring.radius) ** 2 + zeta**2) / core**2, 0.0, 1.0)
    prof = flux * (power + 1) / (np.pi * core**2) * (1.0 - u2) ** power
    rho[rho <= 1e-12] = np.inf
    out *= prof / rho
    return out


def gen_linked_rings(
    grid: Grid3,
    ring1: Ring,
    ring2: Ring,
    core_radius: float | None = None,
    fluxes: tuple[float, float] = (1.0, 1.0),
) -> FieldBundle:
    """Two disjoint vortex tubes; vorticity along the centrelines, zero twist.

    The vortex lines inside each tube are parallel circles (no internal
    linking), so the analytic helicity target is 2 Phi1 Phi2 Lk(1,2), with
    the linking number measured from the centrelines. W is the solenoidal
    part of the sampled tubes and A its zero-mean inverse curl; no
    integrability is claimed. ``core_radius`` defaults to defaults.json's
    ``rings.default_core_radius``; one below the largest grid spacing raises
    ValueError: the samples could miss the cores and leave a zero field that
    still claims the helicity. The linking number and the overlap check use
    the centrelines in R^3, not the periodic samples, so every ring's centre
    +- its reach must lie inside (0, L) on every axis, or SupportTooLarge
    names the ring and the axis. The reach along an axis is
    radius * sqrt(1 - n_i^2) + core_radius, for the unit normal's component
    n_i: a ring reaches only its core along its normal.
    """
    if core_radius is None:
        core_radius = config.DEFAULTS["rings"]["default_core_radius"]
    power = config.DEFAULTS["rings"]["profile_power"]
    for name, ring in (("ring1", ring1), ("ring2", ring2)):
        if not (ring.radius > 0.0 and core_radius > 0.0 and any(ring.normal)):
            raise ValueError(
                f"core_radius {core_radius:g} and ring radius {ring.radius:g} must be "
                "positive, and the ring normal nonzero"
            )
        reaches = ring.radius * np.sqrt(1.0 - linkref.circle_frame(ring.normal)[2] ** 2) + core_radius
        for axis, c, L, reach in zip("xyz", ring.center, grid.box, reaches):
            if not (c - reach > 0.0 and c + reach < L):
                raise SupportTooLarge(f"{name} centre {axis} = {c:g} +- reach {reach:g} (radius {ring.radius:g}, "
                                      f"core {core_radius:g}) leaves (0, {L:g}); each ring must lie inside the box")
    spacing = max(grid.spacing)
    if core_radius < spacing:
        raise ValueError(
            f"core_radius {core_radius:g} is below the grid spacing {spacing:g}, so the grid "
            "cannot sample the tube cores; raise n or core_radius"
        )
    p1, p2 = (linkref.circle_points(r.center, r.radius, r.normal, 512) for r in (ring1, ring2))
    dmin = np.min(np.linalg.norm(p1[:, None, :] - p2[None, :, :], axis=-1))
    if dmin <= 2.0 * core_radius:
        raise TubesOverlap(
            f"centreline separation {dmin:g} <= two core radii {2 * core_radius:g}"
        )
    w = _tube_vorticity(grid, ring1, fluxes[0], core_radius, power)
    w += _tube_vorticity(grid, ring2, fluxes[1], core_radius, power)
    spec = grid.rfft(_snap_zero_mean(VectorField(grid, w), tol=0.05).data)
    del w
    # from the samples' spectra W0^ less the Nyquist planes, A^ = ik x W0^ / |k|^2 and
    # W^ = ik x A^, W0^'s solenoidal part, are inverted together: curl A = W to roundoff
    spec *= grid.non_nyquist_mask
    pair = np.empty((6,) + spec.shape[1:], dtype=complex)
    cross_parts(grid.ik, spec, out=pair[:3])
    del spec
    pair[:3] *= grid.inv_k2
    cross_parts(grid.ik, pair[:3], out=pair[3:])
    aw = grid.irfft(pair, overwrite=True)
    del pair
    A, W = VectorField(grid, aw[:3]), VectorField(grid, aw[3:])
    lk_raw = linkref.gauss_linking(p1, p2)
    lk = int(np.rint(lk_raw))
    return _verified(A, W, {
        "family": "rings",
        "params": {
            "ring1": dataclasses.asdict(ring1),
            "ring2": dataclasses.asdict(ring2),
            "core_radius": float(core_radius),
            "fluxes": list(map(float, fluxes)),
        },
        "claims": {
            "integrable": False,
            "helicity": float(2.0 * fluxes[0] * fluxes[1] * lk),
            "linking_number": lk,
            "linking_quadrature": float(lk_raw),
        },
    })


def hopf_rings(
    grid: Grid3,
    fluxes: tuple[float, float] = (1.0, 1.0),
    radius: float = 1.0,
    core_radius: float | None = None,
) -> FieldBundle:
    """Pair of singly linked rings centred in the box."""
    cx, cy, cz = (L / 2 for L in grid.box)
    ring1 = Ring((cx, cy, cz), radius, (0.0, 0.0, 1.0))
    ring2 = Ring((cx + radius, cy, cz), radius, (0.0, 1.0, 0.0))
    return gen_linked_rings(grid, ring1, ring2, core_radius, fluxes)


def unlinked_rings(
    grid: Grid3,
    fluxes: tuple[float, float] = (1.0, 1.0),
    radius: float = 1.0,
    core_radius: float | None = None,
) -> FieldBundle:
    """Coaxial parallel rings 2.2 apart, linking number zero."""
    cx, cy, cz = (L / 2 for L in grid.box)
    ring1 = Ring((cx, cy, cz - 1.1), radius, (0.0, 0.0, 1.0))
    ring2 = Ring((cx, cy, cz + 1.1), radius, (0.0, 0.0, 1.0))
    return gen_linked_rings(grid, ring1, ring2, core_radius, fluxes)


# -- volume-preserving maps --------------------------------------------------

_AXIS_NAMES = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class Shear:
    """x_a -> x_a + amplitude * sin(2 pi wavenumber x_b / L_b); unit Jacobian."""

    axis: int
    shear_axis: int
    amplitude: float
    wavenumber: int = 1

    def __post_init__(self):
        if self.axis not in (0, 1, 2) or self.shear_axis not in (0, 1, 2):
            raise ValueError("axes must be 0, 1 or 2")
        if self.axis == self.shear_axis:
            raise ValueError("shear must couple two distinct axes")
        if self.wavenumber < 1 or int(self.wavenumber) != self.wavenumber:
            raise ValueError("wavenumber must be a positive integer")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"shear amplitude must be finite, got {self.amplitude!r}")

    @classmethod
    def from_names(cls, axis: str, shear_axis: str, amplitude: float, wavenumber: int = 1):
        for name in (axis, shear_axis):
            if name not in _AXIS_NAMES:
                raise ValueError(f"shear axes must be x, y or z, got {name!r}")
        return cls(_AXIS_NAMES[axis], _AXIS_NAMES[shear_axis], amplitude, wavenumber)

    def displacement(self, coords_b: np.ndarray, box_b: float) -> np.ndarray:
        return self.amplitude * np.sin(2.0 * np.pi * self.wavenumber * coords_b / box_b)

    def slope(self, coords_b: np.ndarray, box_b: float) -> np.ndarray:
        k = 2.0 * np.pi * self.wavenumber / box_b
        return self.amplitude * k * np.cos(k * coords_b)


@dataclass(frozen=True)
class DiffeoMap:
    """Ordered composition of shear primitives (first entry applied first)."""

    primitives: tuple[Shear, ...]

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))


def apply_diffeo(
    bundle: FieldBundle,
    dmap: DiffeoMap,
    *,
    consistency_tol: float | None = None,
) -> FieldBundle:
    """Transform a bundle by a volume-preserving map.

    W is pushed forward as a vector field and A by the inverse-transpose
    Jacobian (the covector law), both sampled exactly on the grid through
    Fourier phase shifts; A.W is therefore preserved pointwise. The
    curl(A') - W' residual is re-measured and must stay below tolerance
    (resolution too coarse for the composed harmonics otherwise).
    """
    if consistency_tol is None:
        consistency_tol = _TOL["curl_consistency_rel"]
    g = bundle.grid
    for p in dmap.primitives:
        if abs(p.amplitude) >= 0.5 * min(g.box):
            raise MapNotInvertible(
                f"shear amplitude {p.amplitude!r} unreasonable for box {g.box}"
            )
    A = bundle.A.data
    W = bundle.W.data
    for p in dmap.primitives:
        if p.amplitude == 0.0:
            continue
        a, b = p.axis, p.shear_axis
        shape = [1, 1, 1]
        shape[b] = g.n[b]
        delta = p.displacement(g.axes[b], g.box[b]).reshape(shape)
        slope = p.slope(g.axes[b], g.box[b]).reshape(shape)
        A = g.shift(A, a, delta)
        W = g.shift(W, a, delta)
        # covector law: component along the shear coordinate picks up -g' A_a
        A[b] -= slope * A[a]
        # vector law: component along the sheared axis picks up +g' W_b
        W[a] += slope * W[b]
    out = _verified(VectorField(g, A), VectorField(g, W), {
        **{k: v for k, v in bundle.meta.items() if k != "residuals"},
        "diffeo": bundle.meta.get("diffeo", []) + [dataclasses.asdict(p) for p in dmap.primitives],
    })
    drift = out.meta["residuals"]["curl_consistency"]
    if drift > consistency_tol:
        raise ConsistencyLoss(
            f"curl(A)-W residual {drift:g} exceeds {consistency_tol:g}; raise the resolution or lower the shear"
        )
    return out


# -- CLI-facing family dispatcher ---------------------------------------------


# The JSON parameters each family takes, named as its generator's keywords.
# A kind is "string", "number", "integer", a length (a list of that many
# numbers) or a dict (an object with exactly those keys). The generator
# checks ranges, such as kupka's power >= 2, and names the key.
_RING = {"center": 3, "radius": "number", "normal": 3}
_PAIR = {"fluxes": 2, "radius": "number", "core_radius": "number"}
FAMILY_PARAMS = {
    "clebsch": {"f": "string", "g": "string", "g_linear": 3},
    "morse": {},
    "kupka": {"r0": "number", "power": "integer"},
    "beltrami": {"a": "number", "b": "number", "c": "number"},
    "rings": {**_PAIR, "ring1": _RING, "ring2": _RING},
    "unlinked-rings": _PAIR,
}
# A nonzero number lies in [1/_MAX_PARAM, _MAX_PARAM] in magnitude, so the
# squares, reciprocals and volume integrals the generators form stay finite.
_MAX_PARAM = 1e100


def _is_number(v) -> bool:
    """A JSON number, not a bool: zero or within the _MAX_PARAM range."""
    return type(v) in (int, float) and (v == 0 or 1.0 / _MAX_PARAM <= abs(v) <= _MAX_PARAM)


def _check_params(params: dict, schema: dict, where: str) -> None:
    """Raise ValueError, naming the key, unless ``params`` fits ``schema``."""
    for key, value in params.items():
        kind = schema.get(key)
        if kind is None:
            raise ValueError(f"{where} takes no parameter {key!r}; it takes {sorted(schema)}")
        if isinstance(kind, dict):
            if not isinstance(value, dict) or set(value) != set(kind):
                raise ValueError(f"{where} parameter {key!r} must be an object with keys {sorted(kind)}")
            _check_params(value, kind, f"{where} parameter {key!r}")
            continue
        if isinstance(kind, int):
            ok = type(value) is list and len(value) == kind and all(map(_is_number, value))
            what = f"a list of {kind} numbers"
        elif kind == "number":
            ok = _is_number(value)
            what = f"zero or a number of magnitude {1 / _MAX_PARAM:g} to {_MAX_PARAM:g}"
        elif kind == "integer":
            ok, what = type(value) is int, "an integer"
        else:
            ok, what = isinstance(value, str), "a string"
        if not ok:
            raise ValueError(f"{where} parameter {key!r} must be {what}, got {value!r}")


def make_family(grid: Grid3, family: str, params: dict | None = None) -> FieldBundle:
    """Build a named family from a JSON-style parameter dict.

    The keys and JSON types each family takes are in ``FAMILY_PARAMS``;
    anything else raises ValueError naming the key.
    """
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    p = dict(params or {})
    _check_params(p, FAMILY_PARAMS[family], family)
    if "ring1" in p or "ring2" in p:
        if "ring1" not in p or "ring2" not in p or "radius" in p:
            raise ValueError("rings takes ring1 and ring2 together, and then no radius")
        return gen_linked_rings(grid, Ring(**p.pop("ring1")), Ring(**p.pop("ring2")), **p)
    generators = {
        "clebsch": gen_clebsch,
        "morse": gen_morse,
        "kupka": gen_kupka_tube,
        "beltrami": gen_beltrami_abc,
        "rings": hopf_rings,
        "unlinked-rings": unlinked_rings,
    }
    return generators[family](grid, **p)
