"""Ideal-fluid evolution and the dynamical diagnostics built on it.

The stepper advances the pair (W, A) jointly in a pseudo-spectral
formulation: W by the vorticity equation dW/dt = -curl(W x U), and A by
the corresponding 1-form transport dA/dt = -L_U A. The co-state is taken in
vector-invariant form, dA/dt = U x curl(A) - grad(U.A), which by Cartan's
formula L_U a = i_U da + d(i_U a) equals -(U.grad)A - (grad U)^T A; it needs
curl(A) and two products instead of nine gradients of A and nine of U, and
grad(U.A) is applied in spectral space. The velocity is recomputed from W
at every substage, quadratic products are dealiased by the 2/3 rule, and
time integration is fixed-step RK4. A is carried as an independent
co-state, so the measured curl(A) - W drift is a free integration-quality
diagnostic: curl(A) at the end of a step is formed from the transported A,
never from W. (The gradient term has no curl, and curl(U x curl A) matches
the vorticity tendency, so the drift stays at roundoff for a consistent
pair.)

The stepper is plain functions of the bundle: ``step(bundle, dt, t)``
returns the stepped bundle and that drift, ``t`` labelling its errors only,
and ``track_invariants(bundle, dt, steps)`` steps from t = 0 by ``t += dt``.
A drift past ``drift_limit`` raises ConsistencyLoss, the type
``fieldzoo.apply_diffeo`` raises for the same curl(A) - W residual.

The stages hold their spectra on the 2/3-rule box only: the modes with
|index| <= n//3 on every axis, (2*(n_x//3) + 1) x (2*(n_y//3) + 1) x
(n_z//3 + 1) of them, 43 x 43 x 22 at n = 64 instead of the 64 x 64 x 33
of a full rfft spectrum. No stage computes, stores or transforms a mode
that truncation would zero, and the box needs no mask. Modes outside the
box get no increment and pass through a step unchanged.

Spectra flow from step to step: a step starts from the cached rfft spectra
of W and A (``VectorField.spec``) and hands its final spectra to the
stepped bundle's W and A as read-only views, so no step transforms the
samples of a stepped bundle and none round-trips its own spectra through
physical space; the stepped W and A are the inverse transform of those
spectra. A stepped bundle's U is formed, with the gate, only when a caller
asks for it (the next step's CFL check). The sampled energy and enstrophy
are ``gv.energy_enstrophy``'s Parseval sums on W's spectra: no velocity.

One spectral kernel, ``_products``, forms the dealiased products from one
stack of box spectra: W x U, with U taken from the truncated W, and for
the co-state U x curl(A) and U.A. A stage stacks (W^, A^, U^, curl A^),
inverts the twelve components in one call, overwrites the physical stack
with the seven products x-slab by x-slab on the FFT lanes
(``fieldcore.pointwise``), and transforms them in one call: one inverse
and one forward per stage. ``step`` writes each stage input into the
stack's first six slots. The Bernoulli head (periodic pressure solve in
spectral space) runs the same kernel on (W^, U^): six components in, the
three of W x U out. It starts, as a step does, from W's cached spectra
cut to the box. The kernel reads the box multipliers ``Grid3.box_ik`` and
``box_inv_k2``.

On top of the stepper, the local conservation law for the invariant
density c = H . curl(H): (d/dt + U.grad) c = div(k W) with
k = H^2 + (U.A)^{-1} H . grad(Pi), whose residual is measured by centred
time differences of stepped states. Its divisions by the denominator U.A
are ``gv.masked_quotient``, the engine's one masked quotient. The head,
the residual and k are plain float64 arrays, and ``grad`` takes the grid
beside each scalar it differentiates. The obstruction bound lives in ``gv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config, gv
from .errors import CflViolation, ConsistencyLoss
from .fieldcore import (
    VectorField,
    cross_parts,
    curl,
    curl_drift,
    dot,
    grad,
    magnitude2,
    pointwise,
)
from .fieldzoo import FieldBundle

_DYN = config.DEFAULTS["dynamics"]

obstruction_bound = gv.obstruction_bound  # kept for the benchmark tracer's targets only


def bernoulli_head(bundle: FieldBundle) -> np.ndarray:
    """Zero-mean Pi = P + U^2/2 from the periodic pressure Poisson problem.

    Taking the divergence of the momentum equation gives
    lap(Pi) = -div(W x U), so Pi = (ik . p)/|k|^2 for the spectra p of the
    dealiased product. U is the velocity of W.
    """
    g = bundle.grid
    stack = np.empty((6,) + g.box_shape, dtype=complex)
    g.cut_box(bundle.W.spec, out=stack[:3])
    ps = _products(g, stack)
    ikx, iky, ikz = g.box_ik
    return g.irfft((ikx * ps[0] + iky * ps[1] + ikz * ps[2]) * g.box_inv_k2)


# -- time stepping -------------------------------------------------------------


def cfl_timestep(bundle: FieldBundle, cfl: float) -> float:
    """Time step for a target advective CFL number."""
    umax = bundle.U.maxnorm
    if umax == 0.0:
        return 1.0
    return cfl * min(bundle.grid.spacing) / umax


def _products(g, stack):
    """The kernel: box spectra of the truncated products of a box stack.

    ``stack`` holds six box spectra, (W^, U^), or twelve, (W^, A^, U^,
    curl A^). The caller writes W^ and A^; U^ = (ik x W^)/|k|^2 and
    curl A^ = ik x A^ are written here. One inverse of the stack gives the
    physical fields, which ``pointwise`` overwrites x-slab by x-slab with
    the products, each slab copying only its W and U first: W x U, and with
    A, U x curl(A) and U.A. One forward transform of the three or seven
    products returns their spectra.
    """
    u = len(stack) // 2
    cross_parts(g.box_ik, stack[:3], out=stack[u:u + 3])
    stack[u:u + 3] *= g.box_inv_k2
    costate = u == 6
    if costate:
        cross_parts(g.box_ik, stack[3:6], out=stack[9:])

    def kernel(p):
        w, U = p[:3].copy(), p[u:u + 3].copy()
        if costate:
            A = p[3:6]
            # U.A into U's first slot, then U x curl(A) over A
            ua = np.multiply(U[0], A[0], out=p[6])
            ua += U[1] * A[1]
            ua += U[2] * A[2]
            cross_parts(U, p[9:], out=p[3:6])
        cross_parts(w, U, out=p[:3])

    phys = g.irfft(stack)
    pointwise(kernel, phys)
    return g.rfft(phys[:7 if costate else 3], box=True)


def _rhs(g, stack):
    """Box spectra of the right-hand side (dW/dt, dA/dt) at the stage
    input (W^, A^) in the first six slots of the twelve-slot ``stack``."""
    q = _products(g, stack)
    rhs = np.empty((6,) + g.box_shape, dtype=complex)
    # vorticity: dW/dt = -curl(W x U)
    np.negative(cross_parts(g.box_ik, q[:3], out=rhs[:3]), out=rhs[:3])
    # co-state: dA/dt = -L_U A = U x curl(A) - grad(U.A)
    for r, qi, ik in zip(rhs[3:], q[3:6], g.box_ik):
        np.subtract(qi, np.multiply(ik, q[6], out=r), out=r)
    return rhs


def step(b: FieldBundle, dt: float, t: float) -> tuple[FieldBundle, float]:
    """One RK4 step of the joint (W, A) transport: the stepped bundle and its drift.

    Preconditions: the advective CFL number |dt| max|U| / min(h) must stay
    below the configured limit. After the step the curl(A) - W residual is
    measured; ConsistencyLoss is raised if it passes ``dynamics.drift_limit``
    (defaults.json). Both errors name dt and the step's start time ``t``.
    """
    g = b.grid
    cfl = abs(dt) * b.U.maxnorm / min(g.spacing)
    if cfl >= _DYN["cfl_limit"]:
        raise CflViolation(
            f"CFL number {cfl:.3g} in the step from t={t:g} with dt={dt:g} "
            f"exceeds {_DYN['cfl_limit']}"
        )
    # the full spectra of (W, A), from the fields' caches: a stepped bundle
    # carries the previous step's; the RK4 sum adds the box increment to
    # them in place, so every mode outside the box passes through unchanged
    s = np.concatenate((b.W.spec, b.A.spec))
    stack = np.empty((12,) + g.box_shape, dtype=complex)
    y = stack[:6]
    g.cut_box(s, out=y)
    # k1 + 2 k2 + 2 k3 + k4 is summed in that order as the stages finish.
    # Each stage input y0 + c k is cut from s, whose box modes stay y0 until
    # the sum is added, into the stack's first six slots y, and k is dropped
    # before the stage runs, so only the sum is held beside it
    k = total = _rhs(g, stack)
    for i, c in enumerate((dt / 2, dt / 2, dt)):
        g.cut_box(s, out=y)
        y += c * k
        del k
        k = _rhs(g, stack)
        total += 2 * k if i < 2 else k
    g.add_box(s, dt / 6.0 * total)
    w1, a1 = s[:3], s[3:]
    # curl(A1) comes from the transported A, never from W, so the drift
    # stays an independent measure of integration quality
    drift = curl_drift(g, a1, w1)
    if drift > _DYN["drift_limit"]:
        raise ConsistencyLoss(
            f"curl(A) - W drift {drift:g} in the step from t={t:g} with "
            f"dt={dt:g} exceeds {_DYN['drift_limit']:g} (refine the step)"
        )
    phys = g.irfft(s)
    # W1 and A1 keep views of s as their spectra, so the next step and the
    # samples start from them; U is formed only when a caller asks for it
    W1 = VectorField(g, phys[:3], spec=w1)
    A1 = VectorField(g, phys[3:], spec=a1)
    meta = {k: v for k, v in b.meta.items() if k != "residuals"}
    return FieldBundle(A1, W1, meta), drift


# -- invariant tracking ---------------------------------------------------------

SERIES_COLUMNS = (
    "t",
    "helicity",
    "gv",
    "energy",
    "enstrophy",
    "integrability_residual",
    "curl_drift",
)


@dataclass(eq=False)
class InvariantSeries:
    rows: list

    def column(self, name: str) -> np.ndarray:
        i = SERIES_COLUMNS.index(name)
        return np.array([r[i] for r in self.rows])

    def write_csv(self, path) -> None:
        """Fixed column order, 17 significant digits, deterministic bytes."""
        with open(path, "w", newline="") as fh:
            fh.write(",".join(SERIES_COLUMNS) + "\n")
            for row in self.rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _sample(b: FieldBundle, t: float, drift: float) -> tuple:
    hel = gv.helicity(b)
    res = gv.integrability_residual(b)
    gv_val = gv.gv_invariant(b).value
    energy, enstrophy = gv.energy_enstrophy(b)
    return (t, hel, gv_val, energy, enstrophy, res, drift)


def track_invariants(
    b: FieldBundle, dt: float, steps: int, record_every: int = 1
) -> tuple[FieldBundle, float, InvariantSeries]:
    """``steps`` steps of ``dt`` from t = 0, sampled as a series whose drift
    is what ``step`` returned: the last bundle, its time and the series.

    A CflViolation or ConsistencyLoss from a step is raised again as the same
    type, its message prefixed with ``step i of N:``.
    """
    t, drift = 0.0, 0.0
    rows = [_sample(b, t, drift)]
    for i in range(steps):
        try:
            b, drift = step(b, dt, t)
        except (CflViolation, ConsistencyLoss) as exc:
            raise type(exc)(f"step {i + 1} of {steps}: {exc}") from exc
        t += dt
        if (i + 1) % record_every == 0 or i == steps - 1:
            rows.append(_sample(b, t, drift))
    return b, t, InvariantSeries(rows)


# -- local conservation law ------------------------------------------------------


def conservation_residual(b0: FieldBundle, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the transported-density law, and the flux coefficient k.

    With the velocity construction H = (W x U)/(U.A), the density
    c = H . curl(H) obeys (d/dt + U.grad) c = div(k W), where
    k = H^2 + (U.A)^{-1} H . grad(Pi). The time derivative is formed by
    centred differences of the smooth numerator/denominator fields of c on
    states stepped by +-dt, so the residual converges at second order in
    dt toward the spatial-discretization floor.

    The returned arrays are zeroed outside a margin mask: points must clear
    ``conservation_mask_margin`` times the default eps of relative
    denominator at all three time levels.
    """
    threshold = _DYN["conservation_mask_margin"] * config.DEFAULTS["eta"]["default_eps"]
    g = b0.grid
    fwd, _ = step(b0, dt, 0.0)
    bwd, _ = step(b0, -dt, 0.0)

    def level(b):
        # G, q, the unmasked N = G . curl(G) and the mask at one time level
        G, q, (m,) = gv.eta_parts(b, "velocity", threshold)
        return G, q, dot(G, curl(G)), m

    (G0, q0, N0, m0), (_, qp, Np, mp), (_, qm, Nm, mm) = map(level, (b0, fwd, bwd))
    mask = m0 & mp & mm
    U, W = b0.U, b0.W
    M = magnitude2(G0) + dot(G0, grad(g, bernoulli_head(b0)))
    gradq = grad(g, q0)
    # c = N/q^2 and k = M/q^2, so with div W = 0 the law's residual is
    # (a - 2 b/q)/q^2, where a and b collect the q^-2 and q^-3 terms of
    # dc/dt + U.grad(c) - W.grad(k)
    a = (Np - Nm) / (2.0 * dt) + dot(U, grad(g, N0))
    a -= dot(W, grad(g, M))
    b = N0 * ((qp - qm) / (2.0 * dt) + dot(U, gradq)) - M * dot(W, gradq)
    residual = gv.masked_quotient(a - 2.0 * gv.masked_quotient(b, q0, mask, 1), q0, mask, 2)
    return residual, gv.masked_quotient(M, q0, mask, 2)
