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
are ``Grid3.parseval`` sums on W's spectra, so the series forms no velocity.

One spectral kernel, ``_wxu_spec``, forms the dealiased product W x U, with
U taken from the truncated W. It serves the stepper's right-hand side
(``_rhs``) and the Bernoulli head (periodic pressure solve in spectral
space); the latter starts, as a step does, from W's cached spectra cut to
the box. It reads the box
multipliers ``Grid3.box_ik`` and ``box_inv_k2``, and holds spectra as
stacks, (W^, A^) as one (6, ...) array, so each group of transforms is one
stacked call that the FFT lanes share.

On top of the stepper, the local conservation law for the invariant
density c = H . curl(H): (d/dt + U.grad) c = div(k W) with
k = H^2 + (U.A)^{-1} H . grad(Pi), whose residual is measured by centred
time differences of stepped states. The steady-flow obstruction bound
lives in ``gv`` and is re-exported here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import config, gv
from .errors import CflViolation, DriftExceeded
from .fieldcore import (
    ScalarField,
    VectorField,
    cross_parts,
    curl_drift,
    dot,
    grad,
    magnitude2,
)
from .fieldzoo import FieldBundle

_DYN = config.DEFAULTS["dynamics"]

obstruction_bound = gv.obstruction_bound


def bernoulli_head(bundle: FieldBundle) -> ScalarField:
    """Zero-mean Pi = P + U^2/2 from the periodic pressure Poisson problem.

    Taking the divergence of the momentum equation gives
    lap(Pi) = -div(W x U), so Pi = (ik . p)/|k|^2 for the spectra p of the
    dealiased product. U is the velocity of W.
    """
    g = bundle.grid
    ps, _ = _wxu_spec(g, np.stack([g.cut_box(s) for s in bundle.W.spec]))
    ikx, iky, ikz = g.box_ik
    return ScalarField(g, g.irfft((ikx * ps[0] + iky * ps[1] + ikz * ps[2]) * g.box_inv_k2))


# -- time stepping -------------------------------------------------------------


@dataclass(eq=False)
class EvolutionState:
    """Evolving (bundle, t) with a fixed time step."""

    bundle: FieldBundle
    t: float = 0.0
    dt: float = 0.01
    curl_drift: float = 0.0


def cfl_timestep(bundle: FieldBundle, cfl: float) -> float:
    """Time step for a target advective CFL number."""
    umax = bundle.U.maxnorm()
    if umax == 0.0:
        return 1.0
    return cfl * min(bundle.grid.spacing) / umax


def _wxu_spec(g, w):
    """Box spectra of the truncated W x U, with U the velocity of W: the kernel.

    ``w`` is the stack of W's three box spectra; W and U are one
    six-component inverse. Returns (spectra, U), with U a new physical
    stack that holds no reference to W's samples, for the co-state.
    """
    wu = g.irfft(np.concatenate((w, [c * g.box_inv_k2 for c in cross_parts(g.box_ik, w)])))
    ps = g.rfft(cross_parts(wu[:3], wu[3:], out=np.empty_like(wu[:3])), box=True)
    return ps, wu[3:].copy()


def _rhs(g, y):
    """Box spectra of the right-hand side (dW/dt, dA/dt) at the stack y = (W^, A^)."""
    ps, U = _wxu_spec(g, y[:3])
    # A and curl(A) as one six-component inverse
    ac = g.irfft(np.concatenate((y[3:], cross_parts(g.box_ik, y[3:]))))
    A, curlA = ac[:3], ac[3:]
    # co-state: dA/dt = -L_U A = U x curl(A) - grad(U.A), from the
    # products (U x curl(A), U.A) transformed as one stack
    prods = np.empty((4,) + g.shape)
    cross_parts(U, curlA, out=prods[:3])
    ua = np.multiply(U[0], A[0], out=prods[3])
    ua += U[1] * A[1]
    ua += U[2] * A[2]
    # the samples are dropped before the transform's buffers are made
    del ac, A, curlA, U, ua
    q = g.rfft(prods, box=True)
    # vorticity: dW/dt = -curl(W x U)
    rhs_w = [-c for c in cross_parts(g.box_ik, ps)]
    return np.concatenate((rhs_w, [qi - ik * q[3] for qi, ik in zip(q, g.box_ik)]))


def step(state: EvolutionState) -> EvolutionState:
    """One RK4 step of the joint (W, A) transport.

    Preconditions: the advective CFL number |dt| max|U| / min(h) must stay
    below the configured limit. After the step the curl(A) - W residual is
    measured; DriftExceeded is raised if it passes ``dynamics.drift_limit``
    (defaults.json). Both errors name the step's start time and dt.
    """
    b = state.bundle
    g = b.grid
    cfl = abs(state.dt) * b.U.maxnorm() / min(g.spacing)
    if cfl >= _DYN["cfl_limit"]:
        raise CflViolation(
            f"CFL number {cfl:.3f} in the step from t={state.t:g} with dt={state.dt:g} "
            f"exceeds {_DYN['cfl_limit']}"
        )
    # the full spectra of (W, A), from the fields' caches: a stepped bundle
    # carries the previous step's; the RK4 sum adds the box increment to
    # them in place, so every mode outside the box passes through unchanged
    s = np.stack(b.W.spec + b.A.spec)
    y0 = g.cut_box(s)
    dt = state.dt
    # k1 + 2 k2 + 2 k3 + k4 is summed in that order as the stages finish,
    # so one stage's right-hand side is held at a time
    k = total = _rhs(g, y0)
    for c in (dt / 2, dt / 2):
        k = _rhs(g, y0 + c * k)
        total = total + 2 * k
    total += _rhs(g, y0 + dt * k)
    g.add_box(s, dt / 6.0 * total)
    w1, a1 = s[:3], s[3:]
    # curl(A1) comes from the transported A, never from W, so the drift
    # stays an independent measure of integration quality
    drift = curl_drift(g, a1, w1)
    if drift > _DYN["drift_limit"]:
        raise DriftExceeded(
            f"curl(A) - W drift {drift:g} in the step from t={state.t:g} with "
            f"dt={state.dt:g} exceeds {_DYN['drift_limit']:g} (refine the step)"
        )
    phys = g.irfft(s)
    # W1 and A1 keep views of s as their spectra, so the next step and the
    # samples start from them; U is formed only when a caller asks for it
    W1 = VectorField(g, phys[:3], spec=w1)
    A1 = VectorField(g, phys[3:], spec=a1)
    meta = {k: v for k, v in b.meta.items() if k != "residuals"}
    new_bundle = FieldBundle(g, A1, W1, meta)
    return dataclasses.replace(
        state, bundle=new_bundle, t=state.t + state.dt, curl_drift=drift
    )


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


def _energy_enstrophy(bundle: FieldBundle) -> tuple[float, float]:
    """0.5 * integral of |U|^2 and integral of |W|^2, as ``Grid3.parseval``
    sums on the cached rfft spectra W^ of W (``W.spec``).

    No velocity is formed. U^ = (ik x W^)/|k|^2 with the Nyquist-zeroed
    real k, so Lagrange's identity gives
    |U^|^2 = (|k|^2 |W^|^2 - |k . W^|^2)/|k|^4 = (|W^|^2 - |k . W^|^2/|k|^2)/|k|^2,
    zero on the modes ``inv_k2`` treats as degenerate.
    """
    g, spec = bundle.grid, bundle.W.spec
    kx, ky, kz = (ik.imag for ik in g.ik)
    kw = kx * spec[0] + ky * spec[1] + kz * spec[2]
    w2 = sum(s.real**2 + s.imag**2 for s in spec)
    u2 = (w2 - (kw.real**2 + kw.imag**2) * g.inv_k2) * g.inv_k2
    return 0.5 * g.parseval(u2), g.parseval(w2)


def _sample(state: EvolutionState) -> tuple:
    b = state.bundle
    hel = gv.helicity(b)
    res = gv.integrability_residual(b)
    gv_val = gv.gv_invariant(b).value
    energy, enstrophy = _energy_enstrophy(b)
    return (state.t, hel, gv_val, energy, enstrophy, res, state.curl_drift)


def track_invariants(
    state: EvolutionState,
    steps: int,
    record_every: int = 1,
) -> tuple[EvolutionState, InvariantSeries]:
    """Advance ``steps`` steps, sampling conserved quantities as a series.

    A CflViolation or DriftExceeded from a step is raised again as the same
    type, its message prefixed with ``step i of N:``.
    """
    rows = [_sample(state)]
    for i in range(steps):
        try:
            state = step(state)
        except (CflViolation, DriftExceeded) as exc:
            raise type(exc)(f"step {i + 1} of {steps}: {exc}") from exc
        if (i + 1) % record_every == 0 or i == steps - 1:
            rows.append(_sample(state))
    return state, InvariantSeries(rows)


# -- local conservation law ------------------------------------------------------


def conservation_residual(state: EvolutionState) -> tuple[ScalarField, ScalarField]:
    """Residual of the transported-density law, and the flux coefficient k.

    With the velocity construction H = (W x U)/(U.A), the density
    c = H . curl(H) obeys (d/dt + U.grad) c = div(k W), where
    k = H^2 + (U.A)^{-1} H . grad(Pi). The time derivative is formed by
    centred differences of the smooth numerator/denominator fields of c on
    states stepped by +-dt, so the residual converges at second order in
    dt toward the spatial-discretization floor.

    The returned fields are zeroed outside a margin mask: points must clear
    ``conservation_mask_margin`` times the default eps of relative
    denominator at all three time levels.
    """
    threshold = _DYN["conservation_mask_margin"] * config.DEFAULTS["eta"]["default_eps"]
    g = state.bundle.grid
    b0 = state.bundle
    fwd = step(state).bundle
    bwd = step(dataclasses.replace(state, dt=-state.dt)).bundle

    # one evaluation per time level, each dropped (with its curl(G)) once read
    levels = (gv.GvResult(g, *gv.eta_parts(b, "velocity", threshold)) for b in (b0, fwd, bwd))
    (G0, q0, N0, m0), (_, qp, Np, mp), (_, qm, Nm, mm) = ((e.G, e.q, e.numerator, e.masks[0]) for e in levels)
    mask = m0 & mp & mm
    dt = state.dt
    Ndot = (Np - Nm) / (2.0 * dt)
    qdot = (qp - qm) / (2.0 * dt)
    q_safe = np.where(mask, q0, 1.0)
    pi = bernoulli_head(b0)
    M = ScalarField(g, magnitude2(G0).data + dot(G0, grad(pi)).data)
    U, W = b0.U, b0.W
    gradq = grad(ScalarField(g, q0))
    u_dot_gradN = dot(U, grad(ScalarField(g, N0))).data
    u_dot_gradq = dot(U, gradq).data
    w_dot_gradM = dot(W, grad(M)).data
    w_dot_gradq = dot(W, gradq).data
    dct = Ndot / q_safe**2 - 2.0 * N0 * qdot / q_safe**3
    adv = u_dot_gradN / q_safe**2 - 2.0 * N0 * u_dot_gradq / q_safe**3
    divkw = w_dot_gradM / q_safe**2 - 2.0 * M.data * w_dot_gradq / q_safe**3
    residual = np.where(mask, dct + adv - divkw, 0.0)
    k_field = np.where(mask, M.data / q_safe**2, 0.0)
    return ScalarField(g, residual), ScalarField(g, k_field)
