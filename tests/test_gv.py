"""Invariant engine: residuals, helicity, dual-field solves, densities."""

import dataclasses
import json
import re

import numpy as np
import pytest

from wring import cli, config, wrg1
from wring import dynamics as dyn
from wring import fieldzoo as fz
from wring import gv
from wring.errors import DegenerateField, MaskTooSmall, NonZeroMeanVorticity
from wring.fieldcore import (
    Grid3,
    VectorField,
    cross,
    curl,
    dot,
    inverse_curl,
    magnitude2,
    random_band_limited_scalar,
)

from helpers import sample, split_every_stack

TWO_PI = 2.0 * np.pi


def cube(n):
    return Grid3((n, n, n), (TWO_PI, TWO_PI, TWO_PI))


def canonical(bundle, eps=config.DEFAULTS["eta"]["default_eps"]):
    """The canonical evaluation at ``eps``, read for its dual field H and its
    mask ``masks[0]``."""
    return gv.gv_invariant(bundle, "canonical", eps)


def gv_of_field(H):
    """Integral of H . curl(H) for a field smooth on the whole torus."""
    return H.grid.integral(dot(H, curl(H)))


def gauge_shift(H, bundle, f):
    """The dual-field gauge freedom H -> H + f A."""
    return VectorField(H.grid, H.data + f * bundle.A.data)


@pytest.fixture(scope="module")
def clebsch64():
    return fz.gen_clebsch(cube(64))


@pytest.fixture(scope="module")
def kupka64():
    return fz.gen_kupka_tube(cube(64))


class TestIntegrabilityResidual:
    def test_clebsch_and_kupka_integrable(self, clebsch64, kupka64):
        assert gv.integrability_residual(clebsch64) < 1e-10
        assert gv.integrability_residual(kupka64) < 1e-10

    def test_beltrami_far_from_integrable(self):
        b = fz.gen_beltrami_abc(cube(32))
        assert gv.integrability_residual(b) > 0.1

    def test_degenerate_rejected(self):
        g = cube(16)
        zero = VectorField(g, np.zeros((3,) + g.shape))
        b = fz.FieldBundle(zero, zero)
        with pytest.raises(DegenerateField):
            gv.integrability_residual(b)


def with_z_mean(w, mean):
    """A new field: ``w`` with ``mean`` added to its z component."""
    return VectorField(w.grid, w.data + np.array([0.0, 0.0, mean])[:, None, None, None])


class TestFluxCheck:
    def test_curl_generated_fluxes_vanish(self, clebsch64):
        assert max(abs(f) for f in gv.flux_check(clebsch64)) < 1e-12

    def test_added_constant_shows_up_exactly(self):
        g = cube(16)
        b = fz.gen_clebsch(g)
        shifted = fz.FieldBundle(b.A, with_z_mean(b.W, 0.25))
        fx, fy, fzz = gv.flux_check(shifted)
        assert fzz == pytest.approx(0.25 * g.box[0] * g.box[1], rel=1e-12)

    def test_rings_fluxless(self):
        b = fz.hopf_rings(cube(48))
        assert max(abs(f) for f in gv.flux_check(b)) < 1e-12

    def test_flux_obstruction_blocks_helicity(self):
        g = cube(16)
        b = fz.gen_clebsch(g)
        with pytest.raises(NonZeroMeanVorticity):
            gv.helicity(fz.FieldBundle(b.A, with_z_mean(b.W, 0.25)))


class TestHelicity:
    def test_abc_closed_form(self):
        b = fz.gen_beltrami_abc(cube(32))
        target = 3.0 * TWO_PI**3
        assert abs(gv.helicity(b) - target) / target < 1e-8

    def test_clebsch_helicity_zero_vs_brute_force_oracle(self, clebsch64):
        # oracle: the analytic fields give U = (0, 0, f - mean(f)) and
        # W = (df/dy, -df/dx, 0); the integrand U.W vanishes pointwise, so
        # the independent quadrature at n=128 is exactly zero
        n = 128
        h = TWO_PI / n
        x = np.arange(n) * h
        f2d = 2.0 + np.sin(x)[:, None] * np.cos(x)[None, :]
        u = f2d - f2d.mean()
        integrand = u * 0.0  # U has only a z-component, W_z = 0
        oracle = integrand.sum() * h**2 * TWO_PI
        assert oracle == 0.0
        assert abs(gv.helicity(clebsch64) - oracle) < 1e-9

    @pytest.mark.parametrize("family", ["beltrami", "rings", "sheared-clebsch"])
    def test_parseval_sum_is_physical_integral(self, family):
        g = cube(32)
        if family == "sheared-clebsch":
            shear = fz.DiffeoMap((fz.Shear.from_names("x", "z", 0.3, 1),))
            b = fz.apply_diffeo(fz.gen_clebsch(g), shear)
        else:
            b = fz.make_family(g, family)
        hel = gv.helicity(b)
        assert "U" not in vars(b)  # the sum forms no velocity
        # oracle: the physical quadrature of U . W, with U solved from W
        U = inverse_curl(b.W)
        physical = b.grid.integral(dot(U, b.W))
        # Cauchy-Schwarz bound on |integral U . W|, the scale of the sum
        scale = np.sqrt(b.grid.integral(magnitude2(U)) * b.grid.integral(magnitude2(b.W)))
        assert abs(hel - physical) <= 1e-12 * max(abs(physical), scale)

    def test_hopf_pair_matches_linking_target(self):
        b = fz.hopf_rings(cube(96))
        assert abs(gv.helicity(b) - 2.0) / 2.0 < 0.02


class TestSolveEta:
    def test_clebsch_matches_log_gradient(self, clebsch64):
        g = clebsch64.grid
        sol = canonical(clebsch64)
        x, y, _ = g.mesh()
        f = 2.0 + np.sin(x) * np.cos(y)
        hx = -np.cos(x) * np.cos(y) / f
        hy = np.sin(x) * np.sin(y) / f
        assert np.max(np.abs(sol.H.data[0] - np.broadcast_to(hx, g.shape))) < 1e-8
        assert np.max(np.abs(sol.H.data[1] - np.broadcast_to(hy, g.shape))) < 1e-8
        assert np.max(np.abs(sol.H.data[2])) < 1e-10

    def test_identity_a_cross_h_equals_w(self, clebsch64, kupka64):
        for bundle, eps in ((clebsch64, 0.05), (kupka64, 0.05)):
            sol = canonical(bundle, eps)
            axh = cross(bundle.A, sol.H)
            err = np.max(np.abs((axh.data - bundle.W.data) * sol.masks[0]))
            assert err / bundle.W.maxnorm < 1e-7

    def test_kupka_radial_profile(self, kupka64):
        g = kupka64.grid
        sol = canonical(kupka64, 0.05)
        r0 = kupka64.meta["params"]["r0"]
        chi, dchi = fz.default_kupka_profile(r0, kupka64.meta["params"]["power"])
        x, y, _ = g.mesh()
        dx, dy = x - np.pi, y - np.pi
        r = np.sqrt(dx**2 + dy**2)
        mask = sol.masks[0]
        wz = 2.0 * chi(r) + r * dchi(r)
        safe_r = np.where(r > 1e-12, r, 1.0)
        safe_chi = np.where(chi(r) > 1e-12, chi(r), 1.0)
        h_rad = -wz / (safe_r * safe_chi)
        exact_x = np.broadcast_to(h_rad * dx / safe_r, g.shape)
        scale = np.max(np.abs(sol.H.data))
        err = np.max(np.abs((sol.H.data[0] - exact_x) * mask)) / scale
        assert err < 1e-6

    def test_irrotational_field_admits_zero_h(self):
        b = fz.gen_clebsch(cube(16), f="1 + 0*x")
        sol = canonical(b)
        assert sol.H.maxabs == 0.0
        assert gv.gv_invariant(b).value == 0.0


class TestGvInvariant:
    def test_first_integral_families_vanish(self, clebsch64):
        for variant in ("canonical", "velocity"):
            assert abs(gv.gv_invariant(clebsch64, variant).value) < 1e-6

    def test_morse_vanishes(self):
        b = fz.gen_morse(cube(64))
        for variant in ("canonical", "velocity"):
            assert abs(gv.gv_invariant(b, variant).value) < 1e-6

    def test_kupka_eps_independent(self, kupka64):
        values = [
            gv.gv_invariant(kupka64, eps=eps).value
            for eps in (0.02, 0.05, 0.1, 0.2)
        ]
        assert all(abs(v) < 1e-6 for v in values)
        assert max(values) - min(values) < 1e-7

    def test_density_shape_and_mask(self, kupka64):
        res = gv.gv_invariant(kupka64, eps=0.05)
        assert res.density.shape == kupka64.grid.shape
        assert 0.0 <= res.excluded_volume_fraction < 1.0
        outside = res.density[~res.masks[0]]
        assert np.all(outside == 0.0)

    def test_analyze_density_is_an_array(self, kupka64):
        report = gv.analyze(kupka64, eps=0.05)
        assert type(report.gv_density) is np.ndarray
        assert report.gv_density.shape == kupka64.grid.shape

    def test_richardson_report(self, kupka64):
        res = gv.gv_invariant(kupka64, eps=0.1, richardson=True)
        assert res.richardson_value is not None
        assert abs(res.richardson_value) < 1e-6


class TestMaskedDensityValue:
    """A manufactured evaluation with a nonzero value: G = ABC(1, 1, 1), so
    curl G = G, and q = 2 + sin x. The y-z sum of |G|^2 dy dz is 12 pi^2 at
    every grid x, so the invariant is the 1-D sum of 12 pi^2 / q(x)^2 dx over
    the mask, and over the whole torus 16 pi^3 / sqrt(3)."""

    @staticmethod
    def manufactured(g):
        x, y, z = g.mesh()
        G = VectorField.from_components(
            g, np.sin(z) + np.cos(y), np.sin(x) + np.cos(z), np.sin(y) + np.cos(x)
        )
        q = np.ascontiguousarray(np.broadcast_to(2.0 + np.sin(x), g.shape))
        return g, G, q

    @pytest.fixture(scope="class")
    def abc32(self):
        return self.manufactured(cube(32))

    def slab(self, g, half_width):
        x = g.mesh()[0]
        return np.broadcast_to(np.abs(x - np.pi) < half_width, g.shape)

    def slab_sum(self, g, half_width):
        x = g.axes[0]
        inside = np.abs(x - np.pi) < half_width
        return float(np.sum(12.0 * np.pi**2 / (2.0 + np.sin(x[inside])) ** 2)) * g.spacing[0]

    def test_whole_torus_value(self, abc32):
        g, G, q = abc32
        res = gv.GvResult(G, q, [np.ones(g.shape, dtype=bool)])
        assert res.value == pytest.approx(16.0 * np.pi**3 / np.sqrt(3.0), rel=1e-13, abs=0.0)
        assert res.richardson_value is None
        assert res.excluded_volume_fraction == 0.0

    def test_whole_box_value(self):
        # on a 2 pi x 4 pi x 4 pi box the y-z sum is 48 pi^2, four times the
        # cube's, so the cell volume must take each axis's spacing
        g, G, q = self.manufactured(Grid3((32, 32, 32), (TWO_PI, 2.0 * TWO_PI, 2.0 * TWO_PI)))
        res = gv.GvResult(G, q, [np.ones(g.shape, dtype=bool)])
        assert res.value == pytest.approx(64.0 * np.pi**3 / np.sqrt(3.0), rel=1e-13, abs=0.0)

    def test_nested_slabs_and_richardson(self, abc32):
        g, G, q = abc32
        res = gv.GvResult(G, q, [self.slab(g, 1.0), self.slab(g, 2.0)])
        inner, outer = self.slab_sum(g, 1.0), self.slab_sum(g, 2.0)
        assert res.value == pytest.approx(inner, rel=1e-13, abs=0.0)
        assert res.richardson_value == pytest.approx(2.0 * outer - inner, rel=1e-13, abs=0.0)
        assert np.all(res.density[~self.slab(g, 1.0)] == 0.0)


class TestBoundValues:
    """The printed ``--bound`` fields against closed forms. The ABC(1, 1, 1)
    bundle at n=32 has G = W = U = curl G; with q = 2 + sin x on the whole
    torus, the mean of |G|^2 over y and z is 3 at every grid x, so
    C = 3 (2 pi)^2 int dx/(2 + sin x)^4 = 3 (2 pi)^2 22 pi / (27 sqrt 3).
    With V = (2 pi)^3, E = 3V/2, the rate is 3V and lambda_min = 1."""

    C = 3.0 * TWO_PI**2 * 22.0 * np.pi / (27.0 * np.sqrt(3.0))
    V = TWO_PI**3

    @pytest.fixture(scope="class")
    def abc32(self):
        return fz.gen_beltrami_abc(cube(32))

    def bound(self, b, sign):
        g = b.grid
        q = sign * np.ascontiguousarray(np.broadcast_to(2.0 + np.sin(g.mesh()[0]), g.shape))
        return gv._bound(b, 0.0, gv.GvResult(b.W, q, [np.ones(g.shape, dtype=bool)]), 0.0)

    def test_C(self, abc32):
        report = self.bound(abc32, 1.0)
        assert self.C == pytest.approx(175.03671472651580, rel=1e-15)
        assert report.C == pytest.approx(self.C, rel=1e-13, abs=0.0)
        assert report.enstrophy_rate == pytest.approx(3.0 * self.V, rel=1e-13, abs=0.0)

    def test_negative_q_gives_the_same_C(self, abc32):
        # q^4 of a negative base: the same squarings as of its magnitude
        assert self.bound(abc32, -1.0).C == self.bound(abc32, 1.0).C

    def test_delta_measure_and_approx_rhs(self, abc32):
        # max|q - 2E/V| V/E = max|sin x - 1| / (3/2), at the grid point x = 3 pi/2;
        # V^2 / sqrt(lambda_min) / (4 E^2) * rate = V/3
        report = self.bound(abc32, 1.0)
        assert report.E == pytest.approx(1.5 * self.V, rel=1e-13, abs=0.0)
        assert report.lambda_min == 1.0
        assert report.delta_measure == pytest.approx(4.0 / 3.0, rel=1e-13, abs=0.0)
        assert report.approx_bound_rhs == pytest.approx(self.V / 3.0, rel=1e-13, abs=0.0)

    def test_lambda_min_from_the_longest_side(self):
        b = fz.gen_clebsch(Grid3((16, 24, 32), (TWO_PI, 5.0, 7.0)))
        assert gv.obstruction_bound(b).lambda_min == (TWO_PI / 7.0) ** 2

    def test_every_field_is_a_python_float(self, abc32):
        box = fz.gen_clebsch(Grid3((16, 24, 32), (TWO_PI, 5.0, 7.0)))
        for report in (self.bound(abc32, 1.0), gv.obstruction_bound(box)):
            for f in dataclasses.fields(report):
                assert type(getattr(report, f.name)) is float, f.name


class TestGaugeShift:
    def test_specific_gauge_field(self, clebsch64):
        g = clebsch64.grid
        sol = canonical(clebsch64)
        base = gv_of_field(sol.H)
        f = sample(g, lambda x, y, z: np.sin(x) * np.cos(z) + 0 * y)
        shifted = gauge_shift(sol.H, clebsch64, f)
        assert abs(gv_of_field(shifted) - base) < 1e-6

    def test_random_band_limited_shifts(self, clebsch64):
        sol = canonical(clebsch64)
        base = gv_of_field(sol.H)
        for seed in range(5):
            f = random_band_limited_scalar(clebsch64.grid, 8, 500 + seed)
            drift = abs(gv_of_field(gauge_shift(sol.H, clebsch64, f)) - base)
            assert drift < 1e-6


class TestAnalyze:
    def test_clebsch_report(self, clebsch64):
        report = gv.analyze(clebsch64)
        assert report.integrable
        assert abs(report.gv) < 1e-6
        assert abs(report.helicity) < 1e-9
        assert report.deviations["gv"] == report.gv
        assert report.deviations["helicity"] == report.helicity
        doc = report.to_json_dict()
        json.dumps(doc)  # must be serializable as-is
        assert doc["schema"] == "wring-report/1"

    def test_every_float_field_is_a_python_float(self, seeded_sheared32):
        # numpy scalars would print as np.float64(...) in a report's repr
        report = gv.analyze(seeded_sheared32, richardson=True)
        for f in dataclasses.fields(report):
            if "float" in str(f.type):
                value = getattr(report, f.name)
                values = value if isinstance(value, tuple) else (value,)
                assert all(type(v) is float for v in values), f.name

    def test_beltrami_refused(self):
        report = gv.analyze(fz.gen_beltrami_abc(cube(32)))
        assert not report.integrable
        assert report.gv is None
        assert report.helicity == pytest.approx(3.0 * TWO_PI**3, rel=1e-8)

    def test_eta_agreement_on_high_coverage_bundle(self):
        b = fz.gen_clebsch(cube(64), f="2 + sin(2*pi*x/Lx + 1)*cos(2*pi*y/Ly + 1)")
        eps = 5e-4
        can = gv.gv_invariant(b, "canonical", eps)
        vel = gv.gv_invariant(b, "velocity", eps)
        assert 1.0 - can.excluded_volume_fraction > 0.99
        assert 1.0 - vel.excluded_volume_fraction > 0.99
        assert abs(can.value - vel.value) < 1e-5

    def test_eta_choice_validation(self):
        # refused before anything is measured, on a non-integrable bundle too
        b = fz.gen_beltrami_abc(cube(16))
        with pytest.raises(ValueError, match="unknown eta variant 'magic'"):
            gv.analyze(b, "magic")
        for eps in EPS_OUTSIDE:
            with pytest.raises(ValueError, match=EPS_MESSAGE):
                gv.analyze(b, "velocity", eps, bound=True)


EPS_OUTSIDE = (-0.1, 1.5, float("nan"))
EPS_MESSAGE = re.escape("eps must lie in [0, 1)")


class TestEtaValidation:
    """The variant and eps are checked once, in ``eta_parts``, which every
    evaluation and the bound pass through."""

    @pytest.fixture(scope="class")
    def clebsch16(self):
        return fz.gen_clebsch(cube(16))

    @pytest.mark.parametrize("eps", EPS_OUTSIDE, ids=["negative", "above-one", "nan"])
    @pytest.mark.parametrize("bound", [gv.obstruction_bound, dyn.obstruction_bound], ids=["gv", "dynamics"])
    def test_bound_refuses_eps_outside_unit_interval(self, clebsch16, bound, eps):
        with pytest.raises(ValueError, match=EPS_MESSAGE):
            bound(clebsch16, eps)

    @pytest.mark.parametrize("eps", EPS_OUTSIDE, ids=["negative", "above-one", "nan"])
    def test_gv_invariant_refuses_eps_outside_unit_interval(self, clebsch16, eps):
        with pytest.raises(ValueError, match=EPS_MESSAGE):
            gv.gv_invariant(clebsch16, "canonical", eps, richardson=True)

    @pytest.mark.parametrize("parts", [gv.eta_parts, gv.gv_invariant], ids=["eta_parts", "gv_invariant"])
    def test_unknown_variant_refused(self, clebsch16, parts):
        with pytest.raises(ValueError, match="unknown eta variant 'magic'"):
            parts(clebsch16, "magic", 0.05)


class TestDensityValue:
    """A Clebsch pair whose density is nonzero: f = 2 + sin(kx x) cos(ky y)
    and g = 0.5 sin(kx x) + z, with kx = 2 pi/Lx and ky = 2 pi/Ly. The
    canonical dual field is H = h grad(g) - grad(f)/f with
    h = (grad f . grad g)/(f |grad g|^2), so curl(H) = grad(h) x grad(g) and
    the density is -(grad f/f) . (grad(h) x grad(g)), here in closed form.
    Its integral vanishes by Stokes: eta ^ d eta = d(-log f dh ^ dg)."""

    F = "2 + sin(2*pi*x/Lx)*cos(2*pi*y/Ly)"
    G = "0.5*sin(2*pi*x/Lx)"
    BOXES = {"cube": (TWO_PI,) * 3, "box": (TWO_PI, 2.0 * TWO_PI, 1.5 * TWO_PI)}

    def bundle(self, grid):
        return fz.gen_clebsch(grid, f=self.F, g=self.G, g_linear=(0.0, 0.0, 1.0))

    @staticmethod
    def closed_form(grid):
        Lx, Ly, _ = grid.box
        kx, ky = TWO_PI / Lx, TWO_PI / Ly
        x, y, _ = grid.mesh()
        s, c, sy, cy = np.sin(kx * x), np.cos(kx * x), np.sin(ky * y), np.cos(ky * y)
        f = 2.0 + s * cy
        fx, fy = kx * c * cy, -ky * s * sy
        gx = 0.5 * kx * c  # grad g = (gx, 0, 1)
        g2 = gx**2 + 1.0
        # h = P/Q with P = grad f . grad g and Q = f |grad g|^2
        P, Px, Py = fx * gx, -(kx**3) * c * s * cy, -0.5 * kx**2 * c**2 * ky * sy
        Q, Qx, Qy = f * g2, fx * g2 - 0.5 * kx**3 * c * s * f, fy * g2
        hx, hy = (Px * Q - P * Qx) / Q**2, (Py * Q - P * Qy) / Q**2
        # grad h x grad g = (hy, -hx, -hy gx), and grad f has no z part
        return np.broadcast_to(-(fx * hy - fy * hx) / f, grid.shape)

    @pytest.mark.parametrize("box", sorted(BOXES))
    def test_canonical_density_matches_closed_form(self, monkeypatch, box):
        split_every_stack(monkeypatch)
        grid = Grid3((48, 48, 48), self.BOXES[box])
        exact = self.closed_form(grid)
        scale = float(np.max(np.abs(exact)))
        assert scale > 0.05
        for lanes in ("1", "2"):
            monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
            res = gv.gv_invariant(self.bundle(grid), eps=0.0)
            assert res.excluded_volume_fraction == 0.0
            assert np.max(np.abs(res.density - exact)) < 1e-10 * scale
            assert abs(res.value) < 1e-12

    def test_density_out_matches_closed_form(self, tmp_path):
        grid = Grid3((48, 48, 48), self.BOXES["box"])
        field, dens = tmp_path / "f.wrg", tmp_path / "d.wrg"
        self.bundle(grid).save(field)
        args = ["analyze", str(field), "--eps", "0", "--density-out", str(dens), "--json", str(tmp_path / "r.json")]
        assert cli.main(args) == 0
        _, arrays, _ = wrg1.read_fields(dens)
        exact = self.closed_form(grid)
        assert np.max(np.abs(arrays["gv_density"] - exact)) < 1e-10 * np.max(np.abs(exact))


@pytest.fixture(scope="module")
def seeded_sheared32():
    """Sheared Clebsch bundle with a seeded multiplier; U is cached."""
    f = fz.random_trig_scalar(2, 4, 71)
    shear = fz.DiffeoMap((fz.Shear.from_names("x", "z", 0.3, 1),))
    b = fz.apply_diffeo(fz.gen_clebsch(cube(32), f=f), shear)
    b.U
    return b


class TestAnalyzeBound:
    @pytest.mark.parametrize("richardson", [False, True])
    @pytest.mark.parametrize("eps", [0.05, 0.01])
    @pytest.mark.parametrize("variant", ["canonical", "velocity"])
    def test_matches_obstruction_bound(self, seeded_sheared32, variant, eps, richardson):
        b = seeded_sheared32
        report = gv.analyze(b, variant, eps, richardson=richardson, bound=True)
        assert dataclasses.asdict(report.bound) == dataclasses.asdict(gv.obstruction_bound(b, eps))
        if variant == "velocity":
            assert report.bound.gv == report.gv
            assert report.bound.covered_fraction == 1.0 - report.excluded_volume_fraction
        assert report.to_json_dict()["bound"] == report.bound.to_json_dict()

    def test_bound_forms_no_density_or_mask(self, seeded_sheared32, monkeypatch):
        # the bound reads the evaluation's value and first mask, never its
        # dual field H
        def refuse(self):
            raise AssertionError("full-size field formed for the bound")

        monkeypatch.setattr(gv.GvResult, "H", property(refuse))
        report = gv.obstruction_bound(seeded_sheared32)
        assert report.to_json_dict()["schema"] == "wring-bound/1"

    def test_richardson_forms_the_numerator_once(self, seeded_sheared32, monkeypatch):
        # the masks at eps and eps/2 share one G . curl(G)
        curls, numerators = [], []
        curl, dot = gv.curl, gv.dot
        monkeypatch.setattr(gv, "curl", lambda v: curls.append(curl(v)) or curls[-1])
        monkeypatch.setattr(gv, "dot", lambda a, b: numerators.append(b in curls) or dot(a, b))
        report = gv.analyze(seeded_sheared32, "velocity", richardson=True, bound=True)
        assert report.gv_richardson is not None
        assert numerators.count(True) == 1

    def test_velocity_evaluation_never_squares_A(self, seeded_sheared32, monkeypatch):
        # the scale of |A| is the field's cached maximum; only the canonical
        # q is |A|^2
        b = seeded_sheared32
        b.A.maxnorm
        squared = []
        magnitude2 = gv.magnitude2
        monkeypatch.setattr(gv, "magnitude2", lambda v: squared.append(v) or magnitude2(v))
        gv.eta_parts(b, "velocity", 0.05)
        assert all(v is not b.A for v in squared)

    def test_bound_never_squares_U(self, seeded_sheared32, monkeypatch):
        # the bound's E is the Parseval energy on W's spectra
        b = seeded_sheared32
        squared = []
        magnitude2 = gv.magnitude2
        monkeypatch.setattr(gv, "magnitude2", lambda v: squared.append(v) or magnitude2(v))
        report = gv.analyze(b, "velocity", bound=True)
        assert all(v is not b.U for v in squared)
        assert report.bound.E == gv.energy_enstrophy(b)[0]

    def test_no_bound_unless_asked(self, seeded_sheared32):
        report = gv.analyze(seeded_sheared32)
        assert report.bound is None and report.to_json_dict()["bound"] is None

    def test_bound_without_integrability(self):
        report = gv.analyze(fz.gen_beltrami_abc(cube(16)), bound=True)
        assert report.gv is None and report.bound is not None

    @pytest.mark.parametrize("variant", ["canonical", "velocity"])
    def test_kupka_mask_too_small(self, variant):
        with pytest.raises(MaskTooSmall, match="U.A mask misses"):
            gv.analyze(fz.gen_kupka_tube(cube(32)), variant, bound=True)
