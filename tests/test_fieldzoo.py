"""Field families: analytic structure, claims, and the shear transforms."""

import re

import numpy as np
import pytest

from wring import config
from wring import fieldzoo as fz
from wring import linkref
from wring.errors import (
    ConsistencyLoss,
    InvalidGrid,
    MapNotInvertible,
    NonPeriodic,
    SupportTooLarge,
    TubesOverlap,
    ZeroF,
)
from wring.fieldcore import (
    Grid3,
    ScalarField,
    curl,
    dot,
    grad,
    integrate,
    inverse_curl,
    magnitude2,
    VectorField,
)

TWO_PI = 2.0 * np.pi


def cube(n):
    return Grid3((n, n, n), (TWO_PI, TWO_PI, TWO_PI))


BUNDLE_TOLS = {"curl_consistency": 1e-8, "div_w": 1e-10, "mean_w": 1e-12, "integrability": 1e-10}


@pytest.mark.parametrize(
    "builder",
    [
        lambda g: fz.gen_clebsch(g),
        lambda g: fz.gen_morse(g),
        lambda g: fz.gen_kupka_tube(g),
        lambda g: fz.gen_beltrami_abc(g),
    ],
    ids=["clebsch", "morse", "kupka", "beltrami"],
)
def test_generated_bundles_pass_invariants(builder):
    bundle = builder(cube(64))
    residuals = bundle.verify()
    for key, tol in BUNDLE_TOLS.items():
        if key in residuals:
            assert residuals[key] < tol, (key, residuals[key])


def test_bundle_takes_its_grid_from_its_fields():
    b = fz.gen_clebsch(cube(16))
    assert b.grid is b.A.grid
    other = Grid3((16, 16, 16), (1.0, 1.0, 1.0))
    W = VectorField(other, b.W.data)
    with pytest.raises(InvalidGrid, match=f"A is on {re.escape(repr(b.grid))}, W on {re.escape(repr(other))}"):
        fz.FieldBundle(b.A, W)


class TestClebsch:
    def test_vertical_structure(self):
        g = cube(32)
        b = fz.gen_clebsch(g)
        x, y, _ = g.mesh()
        f = 2.0 + np.sin(x) * np.cos(y)
        assert np.max(np.abs(b.A.data[2] - np.broadcast_to(f, g.shape))) < 1e-12
        assert np.max(np.abs(b.A.data[0])) < 1e-13 and np.max(np.abs(b.A.data[1])) < 1e-13
        fy = -np.sin(x) * np.sin(y)
        fx = np.cos(x) * np.cos(y)
        assert np.max(np.abs(b.W.data[0] - np.broadcast_to(fy, g.shape))) < 1e-11
        assert np.max(np.abs(b.W.data[1] - np.broadcast_to(-fx, g.shape))) < 1e-11
        assert np.max(np.abs(b.W.data[2])) < 1e-12

    def test_pointwise_orthogonality(self):
        b = fz.gen_clebsch(cube(32))
        assert np.max(np.abs(dot(b.A, b.W).data)) < 1e-12

    def test_constant_f_linear_g_is_irrotational(self):
        b = fz.gen_clebsch(cube(16), f="1 + 0*x")
        assert b.W.maxabs < 1e-13

    def test_morse_vorticity_vanishes_at_critical_points(self):
        g = cube(32)
        b = fz.gen_morse(g)
        # critical points of g sit on grid points (multiples of pi)
        wmag = np.sqrt(np.sum(b.W.data**2, axis=0))
        for i in (0, 16):
            for j in (0, 16):
                for k in (0, 16):
                    assert wmag[i, j, k] < 1e-12
        assert b.W.maxnorm > 0.1

    def test_zero_f_rejected(self):
        with pytest.raises(ZeroF):
            fz.gen_clebsch(cube(16), f="sin(x)")

    def test_non_periodic_g_rejected(self):
        with pytest.raises(NonPeriodic):
            fz.gen_clebsch(cube(16), f="2 + sin(x)", g="z", g_linear=None)

    def test_claims(self):
        claims = fz.gen_clebsch(cube(16)).claims()
        assert claims["integrable"] and claims["gv"] == 0.0


class TestKupka:
    def test_zero_line_with_nonzero_vorticity(self):
        g = cube(32)
        b = fz.gen_kupka_tube(g)
        i = j = 16  # box centre is a grid point
        amag = np.sqrt(np.sum(b.A.data[:, i, j, :] ** 2, axis=0))
        assert np.max(amag) < 1e-14
        assert np.min(b.W.data[2][i, j, :]) > 1.9  # 2 chi(0) with chi(0) = 1
        assert np.max(np.abs(dot(b.A, b.W).data)) < 1e-14

    def test_zero_net_flux(self):
        b = fz.gen_kupka_tube(cube(32))
        assert abs(float(np.mean(b.W.data[2]))) < 1e-16

    def test_support_too_large(self):
        with pytest.raises(SupportTooLarge):
            fz.gen_kupka_tube(cube(16), r0=0.6 * TWO_PI)


class TestBeltrami:
    def test_eigenfield_and_helicity_claim(self):
        g = cube(32)
        b = fz.gen_beltrami_abc(g, 1.0, 1.0, 1.0)
        assert np.max(np.abs(curl(b.U).data - b.W.data)) < 1e-11
        assert b.claims()["helicity"] == pytest.approx(3.0 * TWO_PI**3)
        value = integrate(dot(b.U, b.W))
        assert value == pytest.approx(3.0 * TWO_PI**3, rel=1e-12)

    def test_single_mode_helicity(self):
        g = cube(32)
        b = fz.gen_beltrami_abc(g, 1.0, 0.0, 0.0)
        assert integrate(dot(b.U, b.W)) == pytest.approx(TWO_PI**3, rel=1e-12)

    def test_not_integrable(self):
        b = fz.gen_beltrami_abc(cube(32))
        num = np.max(np.abs(dot(b.A, b.W).data))
        assert num / (b.A.maxnorm * b.W.maxnorm) > 0.1


class TestRings:
    def test_hopf_meta_and_solenoidality(self):
        g = cube(48)
        b = fz.hopf_rings(g)
        assert b.claims()["linking_number"] == 1
        assert b.claims()["helicity"] == pytest.approx(2.0)
        res = b.verify()
        assert res["div_w"] < 1e-12
        assert res["curl_consistency"] < 1e-10

    @pytest.mark.parametrize("family", ["rings", "unlinked-rings"])
    def test_presets_read_the_default_core_radius(self, monkeypatch, family):
        monkeypatch.setitem(config.DEFAULTS["rings"], "default_core_radius", 0.4)
        assert fz.make_family(cube(32), family).meta["params"]["core_radius"] == 0.4

    @pytest.mark.parametrize("explicit", [False, True], ids=["hopf", "ring1-ring2"])
    def test_pair_has_no_nyquist_content(self, explicit):
        # A^ and W^ are formed from the tube spectra less their Nyquist planes
        g = cube(32)
        if explicit:
            c = tuple(L / 2 for L in g.box)
            b = fz.gen_linked_rings(
                g,
                fz.Ring(c, 1.0, (0.0, 0.6, 0.8)),
                fz.Ring((c[0] + 1.0, c[1], c[2]), 0.9, (0.0, 0.8, -0.6)),
            )
        else:
            b = fz.hopf_rings(g)
        for field in (b.A, b.W):
            mags = np.abs(np.stack(field.spec))
            assert mags[:, ~g.non_nyquist_mask].max() <= 1e-14 * mags.max()

    def test_unlinked_claim(self):
        b = fz.unlinked_rings(cube(48))
        assert b.claims()["linking_number"] == 0
        assert b.claims()["helicity"] == 0.0

    def test_flux_scaled_target(self):
        b = fz.hopf_rings(cube(48), fluxes=(2.0, 1.0))
        assert b.claims()["helicity"] == pytest.approx(4.0)

    def test_overlap_rejected(self):
        g = cube(32)
        c = tuple(L / 2 for L in g.box)
        r1 = fz.Ring(c, 1.0, (0.0, 0.0, 1.0))
        r2 = fz.Ring((c[0] + 0.1, c[1], c[2]), 1.0, (0.0, 0.0, 1.0))
        with pytest.raises(TubesOverlap):
            fz.gen_linked_rings(g, r1, r2, 0.3, (1.0, 1.0))

    def test_too_large_rejected(self):
        g = cube(32)
        c = tuple(L / 2 for L in g.box)
        with pytest.raises(SupportTooLarge):
            fz.gen_linked_rings(
                g,
                fz.Ring(c, 3.0, (0, 0, 1.0)),
                fz.Ring(c, 1.0, (0, 1.0, 0)),
                0.3,
                (1.0, 1.0),
            )


class TestTubeKernel:
    """``_tube_vorticity`` against its closed form: flux (p + 1) / (pi a^2)
    times the unit tangent on the centreline, zero outside the core (a) and
    on the ring's axis."""

    G = cube(32)  # spacing pi/16; the box centre (pi, pi, pi) is a grid point
    H = TWO_PI / 32
    C = (16, 16, 16)

    CENTER = tuple(float(ax[i]) for ax, i in zip(G.axes, C))

    def kernel(self, normal, radius, core, flux=1.5, power=3):
        return fz._tube_vorticity(self.G, fz.Ring(self.CENTER, radius, normal), flux, core, power)

    @pytest.mark.parametrize(
        "normal, offset, tangent",
        [
            ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
            ((0, 0, -1), (1, 0, 0), (0, -1, 0)),
            ((0, 0, 1), (0, -1, 0), (1, 0, 0)),
            ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ],
    )
    def test_centreline_value(self, normal, offset, tangent):
        # the tangent is normal x offset, the right-hand sense about the normal
        w = self.kernel(normal, 8 * self.H, 0.3, flux=1.5, power=3)
        point = tuple(c + 8 * o for c, o in zip(self.C, offset))
        expected = 1.5 * 4 / (np.pi * 0.3**2) * np.array(tangent, float)
        assert np.allclose(w[(slice(None), *point)], expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("normal", [(0, 0, 1), (0, 0, -1), (0, 1, 0), (1, 0, 0)])
    def test_runs_as_circle_points_traverses(self, normal):
        # the orientation the linking number is measured with
        w = self.kernel(normal, 8 * self.H, 0.3)
        p0, p1 = linkref.circle_points(self.CENTER, 8 * self.H, normal, 64)[:2]
        point = tuple(np.rint(p0 / self.H).astype(int))
        assert np.dot(w[(slice(None), *point)], p1 - p0) > 0.0

    def test_zero_outside_the_core(self):
        core = 0.3
        w = self.kernel((0, 0, 1), 8 * self.H, core)
        x, y, z = (m - ax[i] for m, ax, i in zip(self.G.mesh(), self.G.axes, self.C))
        s = np.sqrt((np.sqrt(x**2 + y**2) - 8 * self.H) ** 2 + z**2)
        s = np.broadcast_to(s, self.G.shape)
        norm = np.sqrt(np.sum(w**2, axis=0))
        assert np.all(norm[s >= core * (1 + 1e-12)] == 0.0)
        assert np.all(norm[s <= core * (1 - 1e-12)] > 0.0)

    @pytest.mark.parametrize("normal", [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    def test_zero_on_the_axis(self, normal):
        # a core wider than the ring puts the axis inside the tube, where the
        # profile is nonzero but the tangent has no direction
        w = self.kernel(normal, 2 * self.H, 0.5)
        for k in range(-2, 3):
            point = tuple(c + k * n for c, n in zip(self.C, normal))
            assert np.array_equal(w[(slice(None), *point)], np.zeros(3))
        off_axis = tuple(c + (n == 0) for c, n in zip(self.C, normal))
        assert np.linalg.norm(w[(slice(None), *off_axis)]) > 0.0
        assert np.all(np.isfinite(w))


class TestDiffeo:
    def test_identity_is_bit_exact(self):
        b = fz.gen_clebsch(cube(16))
        out = fz.apply_diffeo(b, fz.DiffeoMap(()))
        assert np.array_equal(out.A.data, b.A.data)
        assert np.array_equal(out.W.data, b.W.data)

    def test_shear_preserves_integrability(self):
        b = fz.gen_clebsch(cube(32))
        dm = fz.DiffeoMap((fz.Shear.from_names("x", "y", 0.3, 1),))
        out = fz.apply_diffeo(b, dm)
        res = out.verify()
        assert res["integrability"] < 1e-14
        assert res["curl_consistency"] < 1e-8

    def test_shear_then_inverse_recovers(self):
        b = fz.gen_clebsch(cube(32))
        dm = fz.DiffeoMap(
            (
                fz.Shear.from_names("x", "z", 0.25, 2),
                fz.Shear.from_names("y", "x", 0.2, 1),
            )
        )
        inverse = fz.DiffeoMap(
            tuple(
                fz.Shear(p.axis, p.shear_axis, -p.amplitude, p.wavenumber)
                for p in reversed(dm.primitives)
            )
        )
        out = fz.apply_diffeo(fz.apply_diffeo(b, dm), inverse)
        num = integrate(magnitude2(VectorField(b.grid, out.A.data - b.A.data)))
        den = integrate(magnitude2(b.A))
        assert np.sqrt(num / den) < 1e-9

    def test_unit_jacobian_via_transported_scalar(self):
        # A.W is a transported scalar; with a unit Jacobian its integral is
        # preserved exactly. The eigenfield bundle has it nonzero.
        b = fz.gen_beltrami_abc(cube(32))
        dm = fz.DiffeoMap(
            (
                fz.Shear.from_names("x", "y", 0.3, 3),
                fz.Shear.from_names("z", "x", 0.2, 2),
            )
        )
        out = fz.apply_diffeo(b, dm, consistency_tol=1.0)
        before = integrate(dot(b.A, b.W))
        after = integrate(dot(out.A, out.W))
        assert after == pytest.approx(before, rel=1e-10)

    def test_absurd_amplitude_rejected(self):
        b = fz.gen_clebsch(cube(16))
        dm = fz.DiffeoMap((fz.Shear.from_names("x", "y", 10.0, 1),))
        with pytest.raises(MapNotInvertible):
            fz.apply_diffeo(b, dm)

    def test_consistency_loss_when_underresolved(self):
        # the sharp tube profile at n=16 cannot represent the composed field
        b = fz.gen_kupka_tube(cube(16))
        dm = fz.DiffeoMap((fz.Shear.from_names("x", "z", 0.3, 3),))
        with pytest.raises(ConsistencyLoss):
            fz.apply_diffeo(b, dm, consistency_tol=1e-8)

    def test_shear_validation(self):
        with pytest.raises(ValueError):
            fz.Shear(0, 0, 0.1, 1)
        with pytest.raises(ValueError):
            fz.Shear(0, 1, 0.1, 0)
        with pytest.raises(ValueError, match="finite"):
            fz.Shear(0, 1, float("nan"), 1)
        with pytest.raises(ValueError, match="x, y or z"):
            fz.Shear.from_names("x", "w", 0.1)


class TestExpressions:
    def test_basic_evaluation(self):
        g = cube(16)
        s = fz.eval_scalar_expr(g, "1 + sin(2*pi*x/Lx)*cos(y)")
        assert s.data.shape == g.shape

    @pytest.mark.parametrize(
        "expr",
        [
            "__import__('os').system('true')",
            "x.__class__",
            "(lambda: 1)()",
            "open('x')",
            "'a'",
        ],
    )
    def test_hostile_expressions_rejected(self, expr):
        with pytest.raises(ValueError):
            fz.eval_scalar_expr(cube(16), expr)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            fz.eval_scalar_expr(cube(16), "q + 1")


def test_make_family_dispatch():
    g = cube(16)
    for family in ("clebsch", "morse", "kupka", "beltrami"):
        assert fz.make_family(g, family).meta["family"] in (family,)
    with pytest.raises(ValueError):
        fz.make_family(g, "nope")


def test_save_load_round_trip(tmp_path):
    b = fz.gen_clebsch(cube(16))
    path = tmp_path / "b.wrg"
    b.save(path)
    b2 = fz.FieldBundle.load(path)
    assert np.array_equal(b2.A.data, b.A.data)
    assert np.array_equal(b2.W.data, b.W.data)
    assert b2.meta["family"] == "clebsch"
    assert b2.claims()["integrable"]


def test_bundle_fields_are_read_only():
    g = cube(16)
    b = fz.gen_clebsch(g)
    s = ScalarField.sample(g, lambda x, y, z: np.sin(x) * np.cos(y))
    fields = (b.A, b.W, curl(b.A), grad(s), inverse_curl(b.W), VectorField.from_components(g, 1.0, 0.0, 0.0))
    for v in fields:
        for data in (v.data, *v.spec):
            with pytest.raises(ValueError):
                data[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        s.data[0, 0, 0] = 1.0
    for obj, name in ((b, "W"), (b.W, "data"), (b.W, "spec"), (s, "data")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
