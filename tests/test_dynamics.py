"""Evolution, bounds and the local conservation law."""

import threading

import numpy as np
import pytest

from wring import config
from wring import dynamics as dyn
from wring import fieldzoo as fz
from wring import gv
from wring.errors import CflViolation, ConsistencyLoss, MaskTooSmall
from wring.fieldcore import (
    Grid3,
    VectorField,
    div,
    dot,
    grad,
    inverse_curl,
    magnitude2,
)
from wring.fieldcore import cross, curl

from helpers import random_band_limited_vector, split_every_stack, two_thirds

TWO_PI = 2.0 * np.pi


def cube(n):
    return Grid3((n, n, n), (TWO_PI, TWO_PI, TWO_PI))


def rate(b):
    """The vorticity tendency -curl(W x U) with the dealiased product, as the
    first three components of the stepper's right-hand side at b."""
    g = b.grid
    return VectorField(g, g.irfft(dyn._rhs(g, g.cut_box(np.concatenate((b.W.spec, b.A.spec))))[:3]))


def sheared_clebsch(n, amp=0.3, k=1):
    b = fz.gen_clebsch(cube(n))
    dm = fz.DiffeoMap((fz.Shear.from_names("x", "z", amp, k),))
    return fz.apply_diffeo(b, dm)


@pytest.fixture(scope="module")
def sheared32():
    return sheared_clebsch(32)


@pytest.fixture(scope="module")
def rough32():
    """Solenoidal band-limited W with modes above n/3, where the 2/3 rule acts."""
    g = cube(32)
    W = random_band_limited_vector(g, 12, 3, div_free=True)
    return fz.FieldBundle(inverse_curl(W), W)


@pytest.fixture(scope="module")
def sheared_box():
    """A sheared Clebsch bundle on an uneven 16 x 24 x 32 grid and box."""
    b = fz.gen_clebsch(Grid3((16, 24, 32), (TWO_PI, 5.0, 7.0)))
    return fz.apply_diffeo(b, fz.DiffeoMap((fz.Shear.from_names("x", "z", 0.2, 1),)))


def dealias(v):
    """The 2/3-rule truncation of a vector field, through full spectra."""
    g = v.grid
    return VectorField(g, np.stack([g.irfft(two_thirds(g) * g.rfft(c)) for c in v.data]))


def dealiased_product(b):
    """Independent oracle for the stepper's product: 2/3 rule on inputs and result."""
    return dealias(cross(dealias(b.W), dealias(b.U)))


class TestVorticityRate:
    def test_beltrami_is_steady(self):
        b = fz.gen_beltrami_abc(cube(32))
        assert rate(b).maxnorm < 1e-12

    def test_columnar_clebsch_is_steady(self):
        # W x U is a pure gradient for this family, so the tendency vanishes
        b = fz.gen_clebsch(cube(32))
        assert rate(b).maxnorm < 1e-12

    def test_morse_rate_matches_refined_grid(self):
        # the fields are band-limited, so the coarse tendency must agree
        # with a once-refined computation on the shared grid points
        coarse = fz.gen_morse(cube(32))
        fine = fz.gen_morse(cube(64))
        rc = rate(coarse)
        rf = rate(fine)
        sub = rf.data[:, ::2, ::2, ::2]
        assert rc.maxnorm > 0.1
        rel = np.max(np.abs(rc.data - sub)) / rf.maxnorm
        assert rel < 1e-6

    @pytest.mark.parametrize("name", ["sheared32", "rough32"])
    def test_rate_is_minus_curl_of_dealiased_product(self, request, name):
        b = request.getfixturevalue(name)
        got = rate(b)
        oracle = curl(dealiased_product(b))
        rel = np.max(np.abs(got.data + oracle.data)) / oracle.maxabs
        assert rel <= 1e-12

    def test_zero_vorticity_gives_zero_rate(self):
        b = fz.gen_clebsch(cube(16), f="1 + 0*x")
        assert rate(b).maxnorm == 0.0


class TestBernoulliHead:
    def test_beltrami_head_is_zero(self):
        b = fz.gen_beltrami_abc(cube(32))
        assert np.max(np.abs(dyn.bernoulli_head(b))) < 1e-12

    def test_poisson_self_consistency(self, sheared32, rough32):
        for b in (sheared32, rough32):
            pi = dyn.bernoulli_head(b)
            rhs = dealiased_product(b)
            g = b.grid
            resid = g.irfft(-g.k2 * g.rfft(pi)) + div(rhs)
            assert np.max(np.abs(resid)) < 1e-9

    def test_quadratic_scaling(self, sheared32):
        b = sheared32
        c = 1.7
        scaled = fz.FieldBundle(
            VectorField(b.grid, c * b.A.data),
            VectorField(b.grid, c * b.W.data),
            meta=dict(b.meta),
        )
        p1 = dyn.bernoulli_head(b)
        p2 = dyn.bernoulli_head(scaled)
        assert np.max(np.abs(p2 - c**2 * p1)) < 1e-9 * max(1.0, np.max(np.abs(p2)))


class TestObstructionBound:
    def test_constant_oracle_for_c(self, sheared32):
        rep = gv.obstruction_bound(sheared32)
        # independent quadrature of the same masked integrand
        b = sheared32
        (wx, wy, wz), (ux, uy, uz) = b.W.data, b.U.data
        G = np.stack((wy * uz - wz * uy, wz * ux - wx * uz, wx * uy - wy * ux))
        q = np.einsum("i...,i...->...", b.U.data, b.A.data)
        mask = np.abs(q) > rep.eps * np.max(np.abs(q))
        integrand = np.where(mask, np.sum(G**2, axis=0) / np.where(mask, q, 1.0) ** 4, 0.0)
        oracle = integrand.sum() * b.grid.cell_volume
        assert abs(rep.C - oracle) <= 1e-8 * abs(oracle)

    def test_steady_case_forces_zero_invariant(self):
        b = fz.gen_clebsch(cube(32))
        rep = gv.obstruction_bound(b)
        assert rep.enstrophy_rate < 1e-12
        assert abs(rep.gv) < 1e-6
        assert rep.slack >= -1e-10 * rep.C * rep.enstrophy_rate

    def test_slack_nonnegative_for_unsteady(self, sheared32):
        rep = gv.obstruction_bound(sheared32)
        assert rep.enstrophy_rate > 1e-6
        assert rep.slack >= -1e-10 * rep.C * rep.enstrophy_rate

    def test_energy_identity_and_lengths(self, sheared32):
        rep = gv.obstruction_bound(sheared32)
        b = sheared32
        assert rep.E == pytest.approx(0.5 * b.grid.integral(magnitude2(b.U)))
        # int U.A dV = 2E on the torus with the zero-mean gauge
        assert b.grid.integral(dot(b.U, b.A)) == pytest.approx(2.0 * rep.E, rel=1e-10)
        assert rep.lambda_min == pytest.approx((TWO_PI / max(b.grid.box)) ** 2)
        assert rep.approx_bound_rhs >= 0.0

    def test_kupka_mask_too_small(self):
        with pytest.raises(MaskTooSmall):
            gv.obstruction_bound(fz.gen_kupka_tube(cube(32)))

    def test_reexported_from_gv(self):
        assert dyn.obstruction_bound is gv.obstruction_bound


class TestStep:
    def test_cfl_violation(self, sheared32):
        with pytest.raises(CflViolation):
            dyn.step(sheared32, 10.0, 0.0)

    def test_beltrami_flow_is_fixed_point(self):
        b = fz.gen_beltrami_abc(cube(32))
        out, _ = dyn.step(b, 0.02, 0.0)
        assert np.max(np.abs(out.W.data - b.W.data)) < 1e-10
        assert np.max(np.abs(out.U.data - b.U.data)) < 1e-10
        # the potential may pick up a gradient piece; curl consistency is
        # what must survive
        assert out.verify()["curl_consistency"] < 1e-10

    def test_time_reversal_fourth_order(self, sheared32):
        def round_trip(dt):
            b1, _ = dyn.step(sheared32, dt, 0.0)
            b2, _ = dyn.step(b1, -dt, dt)
            num = sheared32.grid.integral(
                magnitude2(VectorField(sheared32.grid, b2.W.data - sheared32.W.data))
            )
            return float(np.sqrt(num))

        e1 = round_trip(0.04)
        e2 = round_trip(0.02)
        assert e1 < 1e-6
        assert e1 / max(e2, 1e-300) > 8.0

    def test_modes_outside_dealias_mask_pass_through(self, rough32):
        g = rough32.grid
        out, _ = dyn.step(rough32, 0.01, 0.0)
        outside = ~two_thirds(g)
        before = np.stack([g.rfft(c)[outside] for c in rough32.W.data])
        after = np.stack([g.rfft(c)[outside] for c in out.W.data])
        assert np.max(np.abs(before)) > 1.0
        assert np.max(np.abs(after - before)) <= 1e-12 * np.max(np.abs(before))

    def test_drift_guard(self, sheared32, monkeypatch):
        monkeypatch.setitem(config.DEFAULTS["dynamics"], "drift_limit", 1e-6)
        g = sheared32.grid
        rng = np.random.default_rng(3)
        bad_a = sheared32.A.data + 1e-3 * rng.standard_normal((3,) + g.shape)
        bad = fz.FieldBundle(VectorField(g, bad_a), sheared32.W, dict(sheared32.meta))
        with pytest.raises(ConsistencyLoss):
            dyn.step(bad, 0.02, 0.0)

    def test_tracked_errors_name_the_step(self, sheared32, monkeypatch):
        monkeypatch.setitem(config.DEFAULTS["dynamics"], "drift_limit", 1e-6)
        g = sheared32.grid
        rng = np.random.default_rng(3)
        bad_a = sheared32.A.data + 1e-3 * rng.standard_normal((3,) + g.shape)
        bad = fz.FieldBundle(VectorField(g, bad_a), sheared32.W, dict(sheared32.meta))
        with pytest.raises(ConsistencyLoss, match=r"^step 1 of 3: curl\(A\) - W drift") as exc:
            dyn.track_invariants(bad, 0.02, 3)
        assert isinstance(exc.value.__cause__, ConsistencyLoss)
        with pytest.raises(CflViolation, match=r"^step 1 of 2: CFL number") as exc:
            dyn.track_invariants(sheared32, 10.0, 2)
        assert isinstance(exc.value.__cause__, CflViolation)


    @pytest.mark.parametrize("name", ["sheared32", "rough32"])
    def test_stepped_bundle_carries_its_spectra(self, request, name):
        # W1 and A1 hold read-only views of the step's own spectra, which
        # their samples are the inverse of
        b, _ = dyn.step(request.getfixturevalue(name), 0.01, 0.0)
        g = b.grid
        for f in (b.W, b.A):
            for s, c in zip(f.spec, f.data):
                assert not s.flags.writeable
                assert s.base is b.W.spec[0].base
                ref = g.rfft(c)
                assert np.max(np.abs(s - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestCoState:
    def test_vector_invariant_form_matches_gradient_form(self):
        # kmax <= n/6: every quadratic product is resolved under the 2/3 rule
        g = cube(32)
        W = random_band_limited_vector(g, 5, 11, div_free=True)
        A = random_band_limited_vector(g, 5, 23)
        U = inverse_curl(W)
        # the stage input (W^, A^) fills the first six of the stage's twelve slots
        stack = np.empty((12,) + g.box_shape, dtype=complex)
        stack[:6] = g.rfft(np.concatenate((W.data, A.data)), box=True)
        rhs_a = dyn._rhs(g, stack)[3:]
        got = g.irfft(rhs_a)
        # dA[i][j] = d_j A_i, dU[i][j] = d_j U_i
        dA = [grad(g, c).data for c in A.data]
        dU = [grad(g, c).data for c in U.data]
        ref = np.stack(
            [
                -sum(U.data[j] * dA[i][j] + A.data[j] * dU[j][i] for j in range(3))
                for i in range(3)
            ]
        )
        assert np.max(np.abs(ref)) > 0.1
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "n, box, dt, steps, lanes",
        [
            # 32^3 is not above fft_serial_max_points: the lanes never split
            (32, (TWO_PI,) * 3, 0.05, 10, None),
            (48, (TWO_PI, 2 * TWO_PI, 5.0), 0.025, 20, "1"),
            (48, (TWO_PI, 2 * TWO_PI, 5.0), 0.025, 20, "2"),
        ],
    )
    def test_steady_eigenflow_transports_a_by_a_gradient(self, monkeypatch, n, box, dt, steps, lanes):
        # psi = sin x sin y + 0.5 cos(x + y) has -lap(psi) = 2 psi, so
        # A = (psi_y, -psi_x, 0) is its own velocity, W = curl A = (0, 0, 2 psi)
        # is steady and A.W = 0. The co-state then moves A by an exact
        # gradient: dA/dt = A x W - grad|A|^2 = -grad(psi^2 + |grad psi|^2)
        if lanes is not None:
            monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
        g = Grid3((n, n, n), box)
        x, y, _ = g.mesh()
        s = np.sin(x + y)
        psi = np.sin(x) * np.sin(y) + 0.5 * np.cos(x + y)
        px = np.cos(x) * np.sin(y) - 0.5 * s
        py = np.sin(x) * np.cos(y) - 0.5 * s
        pxy = np.cos(x) * np.cos(y) - 0.5 * np.cos(x + y)
        b0 = fz.FieldBundle(VectorField.from_components(g, py, -px, 0.0),
                            VectorField.from_components(g, 0.0, 0.0, 2.0 * psi))
        b, t = b0, 0.0
        for _ in range(steps):
            b, _ = dyn.step(b, dt, t)
            t += dt
        # with psi_xx = psi_yy = -psi, grad(psi^2 + |grad psi|^2) = 2 psi_xy (psi_y, psi_x)
        gradient = VectorField.from_components(g, 2.0 * pxy * py, 2.0 * pxy * px, 0.0)
        expected = b0.A.data - t * gradient.data
        assert np.max(np.abs(b.A.data - b0.A.data)) > 0.1
        assert np.max(np.abs(b.A.data - expected)) <= 1e-13 * b0.A.maxabs
        assert np.max(np.abs(b.W.data - b0.W.data)) <= 1e-13 * b0.W.maxabs

    def test_integrability_column_stays_below_its_tolerance(self, sheared32):
        # A transported as a 1-form stays integrable; a fixed step well
        # inside the CFL limit keeps the step error below the tolerance
        _, _, series = dyn.track_invariants(sheared32, 0.02, 3)
        residual = series.column("integrability_residual")
        assert np.max(residual) <= config.TOL["integrability_rel"]


class TestTrackInvariants:
    def test_steady_series_constant(self):
        b = fz.gen_clebsch(cube(32))
        _, _, series = dyn.track_invariants(b, 0.02, steps=3)
        for name in ("helicity", "gv", "energy", "enstrophy"):
            col = series.column(name)
            assert np.max(np.abs(col - col[0])) < 1e-9 * (1.0 + abs(col[0]))

    @pytest.mark.parametrize("name", ["sheared32", "rough32", "sheared_box"])
    def test_parseval_samples_match_physical_integrals(self, request, name):
        # energy and enstrophy are Parseval sums on W's spectra, for the
        # loaded-like bundle and for a stepped one that carries its spectra
        b0 = request.getfixturevalue(name)
        for b in (b0, dyn.step(b0, 0.01, 0.0)[0]):
            _, _, series = dyn.track_invariants(b, 0.01, 0)
            energy = 0.5 * b.grid.integral(magnitude2(b.U))
            enstrophy = b.grid.integral(magnitude2(b.W))
            assert abs(series.column("energy")[0] - energy) <= 1e-13 * energy
            assert abs(series.column("enstrophy")[0] - enstrophy) <= 1e-13 * enstrophy

    def test_energy_leaves_out_the_pure_nyquist_modes(self):
        # (-1)^(i+j) z-hat lives on a mode that first derivatives annihilate:
        # it counts in the enstrophy but carries no velocity
        g = cube(16)
        x, y, z = g.mesh()
        i = np.arange(16)
        checker = (-1.0) ** (i[:, None, None] + i[None, :, None])
        W = VectorField.from_components(g, np.sin(y), np.sin(z), np.sin(x) + checker)
        U = inverse_curl(W)
        energy, enstrophy = gv.energy_enstrophy(fz.FieldBundle(U, W))
        assert energy == pytest.approx(0.5 * g.integral(magnitude2(U)), rel=1e-12, abs=0.0)
        assert enstrophy == pytest.approx(g.integral(magnitude2(W)), rel=1e-12, abs=0.0)

    def test_helicity_conserved_at_the_integrator_order(self):
        # the sheared beltrami bundle has helicity 3 (2 pi)^3, not 0: the
        # truncated equations conserve it exactly, so its drift measures the
        # time integrator alone, and halving dt must cut it by RK4's 16 (>= 8)
        shear = fz.DiffeoMap((fz.Shear.from_names("x", "z", 0.3, 1),))
        b = fz.apply_diffeo(fz.gen_beltrami_abc(cube(32)), shear)
        drifts = []
        for steps in (16, 32):
            _, _, series = dyn.track_invariants(b, 0.4 / steps, steps)
            h = series.column("helicity")
            assert h[0] == pytest.approx(3.0 * TWO_PI**3, rel=1e-12, abs=0.0)
            drifts.append(float(np.max(np.abs(h - h[0]))) / h[0])
        assert max(drifts) <= 1e-10
        assert drifts[0] >= 8.0 * drifts[1]

    def test_rows_carry_the_time_and_drift_of_their_step(self, sheared32):
        # t advances by t += dt, so the rows hold that float sequence bit for
        # bit, and a row's drift is the one step returned for its step; every
        # entry is a Python float, never a numpy scalar
        dt = 0.02
        b, t, series = dyn.track_invariants(sheared32, dt, 3, record_every=2)
        stepped, drifts = sheared32, []
        for i in range(3):
            stepped, drift = dyn.step(stepped, dt, i * dt)
            drifts.append(drift)
        assert min(drifts) > 0.0
        assert series.column("t").tolist() == [0.0, dt + dt, dt + dt + dt]
        assert t == series.rows[-1][0]
        assert series.column("curl_drift").tolist() == [0.0, drifts[1], drifts[2]]
        assert b.W.data.tobytes() == stepped.W.data.tobytes()
        for row in series.rows:
            assert [type(v) for v in row] == [float] * len(row), row

    def test_csv_format(self, tmp_path, sheared32):
        _, _, series = dyn.track_invariants(sheared32, 0.02, steps=2)
        path = tmp_path / "series.csv"
        series.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,helicity,gv,energy,enstrophy,integrability_residual,curl_drift"
        assert len(lines) == 1 + len(series.rows)
        # deterministic formatting
        series.write_csv(tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


class TestConservationLaw:
    def test_steady_residual_vanishes(self):
        b = fz.gen_clebsch(cube(32))
        R, k = dyn.conservation_residual(b, 0.01)
        assert np.max(np.abs(R)) < 1e-9

    def test_second_order_in_dt(self, sheared32):
        maxima = []
        for dt in (0.02, 0.01, 0.005):
            R, _ = dyn.conservation_residual(sheared32, dt)
            maxima.append(np.max(np.abs(R)))
        order = np.log2(maxima[0] / maxima[2]) / 2.0
        assert 1.8 <= order <= 2.2

    def test_divergence_theorem(self, sheared32):
        _, k = dyn.conservation_residual(sheared32, 0.01)
        kw = VectorField(sheared32.grid, k * sheared32.W.data)
        total = sheared32.grid.integral(div(kw))
        scale = 1.0 + float(np.abs(div(kw)).sum()) * sheared32.grid.cell_volume
        assert abs(total) / scale < 1e-12

    def test_k_field_masked_and_finite(self, sheared32):
        R, k = dyn.conservation_residual(sheared32, 0.01)
        assert np.all(np.isfinite(R)) and np.all(np.isfinite(k))


def test_cfl_timestep_helper(sheared32):
    dt = dyn.cfl_timestep(sheared32, 0.4)
    umax = sheared32.U.maxnorm
    assert dt * umax / min(sheared32.grid.spacing) == pytest.approx(0.4)


class TestNonCubicCfl:
    """On a 16 x 24 x 32 box of sides 2 pi, 5 and 7 the spacings are
    2 pi/16, 5/24 and 7/32: the CFL number is set by the smallest, 5/24."""

    H_MIN = 5.0 / 24.0

    @pytest.fixture(scope="class")
    def box(self):
        return fz.gen_clebsch(Grid3((16, 24, 32), (TWO_PI, 5.0, 7.0)))

    def test_cfl_timestep_from_the_smallest_spacing(self, box):
        umax = box.U.maxnorm
        assert dyn.cfl_timestep(box, 0.4) == pytest.approx(0.4 * self.H_MIN / umax, rel=1e-15, abs=0.0)

    def test_step_refuses_a_dt_within_the_largest_spacing_only(self, box):
        limit = config.DEFAULTS["dynamics"]["cfl_limit"]
        dt = limit * 0.5 * (self.H_MIN + TWO_PI / 16.0) / box.U.maxnorm
        with pytest.raises(CflViolation, match="CFL number"):
            dyn.step(box, dt, 0.0)


class TestLanes:
    """The stepper's stacked transforms split over the FFT lanes without
    changing a bit, a thread or an error."""

    @pytest.fixture(autouse=True)
    def split_small_grids(self, monkeypatch):
        split_every_stack(monkeypatch)

    @staticmethod
    def outputs(bundle):
        st, drift = dyn.step(bundle, 0.01, 0.0)
        _, _, series = dyn.track_invariants(bundle, 0.01, 2)
        arrays = (
            st.W.data, st.A.data, st.U.data, *st.W.spec,
            np.array([drift]), rate(bundle).data,
            dyn.bernoulli_head(bundle), np.array(series.rows),
        )
        return [a.tobytes() for a in arrays]

    @pytest.mark.parametrize("name", ["sheared32", "rough32", "sheared_box"])
    def test_identical_bytes_at_one_and_two_lanes(self, request, monkeypatch, name):
        bundle = request.getfixturevalue(name)
        results = []
        for lanes in ("1", "2"):
            monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
            results.append(self.outputs(bundle))
        assert results[0] == results[1]

    def test_worker_lane_error_propagates(self, monkeypatch, sheared32):
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], "2")
        if config.fft_workers() < 2:
            pytest.skip("one CPU: no worker lane")
        expected = dyn.step(sheared32, 0.01, 0.0)[0].W.data.tobytes()
        original = Grid3._irfft
        claimed = threading.Event()

        def failing(self, *args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                # the calling lane waits until the worker lane has claimed
                # a component, so the failure always comes from the worker
                claimed.wait(timeout=30)
                return original(self, *args, **kwargs)
            claimed.set()
            raise RuntimeError("lane failure")

        monkeypatch.setattr(Grid3, "_irfft", failing)
        with pytest.raises(RuntimeError, match="lane failure"):
            dyn.step(sheared32, 0.01, 0.0)
        monkeypatch.setattr(Grid3, "_irfft", original)
        assert dyn.step(sheared32, 0.01, 0.0)[0].W.data.tobytes() == expected

    def test_threads_bounded_by_lanes(self, monkeypatch, sheared32):
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], "2")
        lanes = config.fft_workers()
        before = threading.active_count()
        b = sheared32
        for i in range(5):
            b, _ = dyn.step(b, 0.01, i * 0.01)
        assert threading.active_count() - before <= lanes - 1
