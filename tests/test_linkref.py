"""Reference calculators: slopes, flux identities, Gauss linking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wring import linkref
from wring.errors import (
    CurvesIntersect,
    DegenerateFluxes,
    MissingLinkData,
    ZeroSlopeOne,
)

from helpers import curves_doc

PI2 = np.pi**2


def helicities(cs):
    return linkref.linking_helicities(cs.fluxes, linkref.linking_matrix(cs)[0])

finite_slopes = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
).filter(lambda v: abs(v) > 1e-3)


class TestThurston:
    def test_symmetric_three_component(self):
        value = linkref.thurston_gv(linkref.SlopeData((1.0, 1.0, 1.0)))
        assert value == pytest.approx(-8.0 * PI2, abs=1e-12)

    def test_cancelling_two_component(self):
        assert linkref.thurston_gv(linkref.SlopeData((-1.0, 1.0))) == pytest.approx(0.0)

    def test_flux_slope_combination(self):
        sd, _ = linkref.flux_slopes((1.0, 1.0, 1.0))
        assert linkref.thurston_gv(sd) == pytest.approx(20.0 * PI2, abs=1e-12)

    def test_zero_first_slope_rejected(self):
        with pytest.raises(ZeroSlopeOne):
            linkref.SlopeData((0.0, 1.0))

    @given(s1=finite_slopes, s2=finite_slopes, s3=finite_slopes)
    @settings(max_examples=60, deadline=None)
    def test_affine_in_later_slopes(self, s1, s2, s3):
        base = linkref.thurston_gv(linkref.SlopeData((s1, s2, s3)))
        bumped = linkref.thurston_gv(linkref.SlopeData((s1, s2 + 1.0, s3)))
        assert bumped - base == pytest.approx(-4.0 * PI2, rel=1e-9, abs=1e-9)

    @given(s1=finite_slopes)
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_dependence_on_first_slope(self, s1):
        a = linkref.thurston_gv(linkref.SlopeData((s1, 2.0)))
        b = linkref.thurston_gv(linkref.SlopeData((2.0 * s1, 2.0)))
        assert a - b == pytest.approx(-4.0 * PI2 * (1.0 / s1 - 1.0 / (2.0 * s1)), rel=1e-9, abs=1e-9)


class TestFluxSlopes:
    def test_equal_fluxes(self):
        sd, residual = linkref.flux_slopes((1.0, 1.0, 1.0))
        assert sd.slopes == (-0.5, -1.0, -1.0)
        assert residual == -4.0

    def test_mixed_fluxes(self):
        sd, residual = linkref.flux_slopes((1.0, 1.0, -2.0))
        assert sd.slopes == (1.0, -1.0, 2.0)
        assert residual == 2.0

    def test_degenerate_first_flux(self):
        with pytest.raises(DegenerateFluxes):
            linkref.flux_slopes((0.0, 1.0, 1.0))

    def test_degenerate_rest_sum(self):
        with pytest.raises(DegenerateFluxes):
            linkref.flux_slopes((1.0, 1.0, -1.0))

    @given(
        phi1=finite_slopes,
        phi2=finite_slopes,
        phi3=finite_slopes,
    )
    @settings(max_examples=60, deadline=None)
    def test_residual_closed_form(self, phi1, phi2, phi3):
        rest = phi2 + phi3
        if abs(rest) < 1e-3:
            return
        _, residual = linkref.flux_slopes((phi1, phi2, phi3))
        assert residual == pytest.approx(-2.0 * rest / phi1, rel=1e-9, abs=1e-9)


class TestGaussLinking:
    def test_hopf_pair(self):
        cs = linkref.hopf_pair(256)
        lk = linkref.gauss_linking(cs.curves[0], cs.curves[1])
        assert abs(lk - 1.0) < 1e-3

    def test_symmetry(self):
        cs = linkref.hopf_pair(200)
        ab = linkref.gauss_linking(cs.curves[0], cs.curves[1])
        ba = linkref.gauss_linking(cs.curves[1], cs.curves[0])
        assert abs(ab - ba) < 1e-10

    def test_orientation_reversal(self):
        cs = linkref.hopf_pair(256, reverse_second=True)
        lk = linkref.gauss_linking(cs.curves[0], cs.curves[1])
        assert abs(lk + 1.0) < 1e-3

    def test_distant_pair(self):
        cs = linkref.distant_pair(256)
        assert abs(linkref.gauss_linking(cs.curves[0], cs.curves[1])) < 1e-6

    def test_refinement_improves_deviation(self):
        coarse = linkref.hopf_pair(64)
        fine = linkref.hopf_pair(512)
        d_coarse = abs(linkref.gauss_linking(coarse.curves[0], coarse.curves[1]) - 1.0)
        d_fine = abs(linkref.gauss_linking(fine.curves[0], fine.curves[1]) - 1.0)
        assert d_coarse < 1e-2
        assert d_fine < d_coarse

    def test_intersecting_curves_rejected(self):
        a = linkref.circle_points((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 128)
        with pytest.raises(CurvesIntersect):
            linkref.gauss_linking(a, a.copy())


def unblocked_gauss_linking(curve_a, curve_b):
    """The Gauss sum over the whole len(a) x len(b) x 3 difference array at
    once, with its minimum distance: the oracle of the blocked sum."""
    a = np.asarray(curve_a, float)
    b = np.asarray(curve_b, float)
    da = np.roll(a, -1, axis=0) - a
    db = np.roll(b, -1, axis=0) - b
    xa = a + 0.5 * da
    xb = b + 0.5 * db
    diff = xa[:, None, :] - xb[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    tri = np.einsum("ijk,ijk->ij", np.cross(da[:, None, :], db[None, :, :]), diff)
    return float(np.sum(tri / dist**3) / (4.0 * np.pi)), dist.min()


PAIRS = {
    "hopf": lambda m: linkref.hopf_pair(m).curves,
    "hopf-reversed": lambda m: linkref.hopf_pair(m, reverse_second=True).curves,
    "distant": lambda m: linkref.distant_pair(m).curves,
    "quad": lambda m: linkref.zero_helicity_quad(m).curves,
}


class TestBlockedGaussLinking:
    # 1000 rows is not a whole number of blocks
    @pytest.mark.parametrize("samples", [64, 1000, 1024])
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_equals_unblocked_sum_bit_for_bit(self, name, samples):
        curves = PAIRS[name](samples)
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                expected, _ = unblocked_gauss_linking(curves[i], curves[j])
                assert linkref.gauss_linking(curves[i], curves[j]) == expected

    def test_unequal_sample_counts(self):
        a = linkref.circle_points((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 300)
        b = linkref.circle_points((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), 77)
        assert linkref.gauss_linking(a, b) == unblocked_gauss_linking(a, b)[0]
        assert linkref.gauss_linking(b, a) == unblocked_gauss_linking(b, a)[0]

    def test_intersection_names_the_global_minimum(self):
        # b lies just above a, closest near its last points, far past the first block
        a = linkref.circle_points((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 256)
        b = a.copy()
        b[:, 2] += 1e-12 * (1.0 + np.arange(256)[::-1])
        _, nearest = unblocked_gauss_linking(a, b)
        with pytest.raises(CurvesIntersect, match=f"within {nearest:g} < "):
            linkref.gauss_linking(a, b)

    def test_link_command_integrates_the_pair_once(self, monkeypatch, tmp_path):
        from wring import cli

        calls = []
        integrate = linkref.gauss_linking
        monkeypatch.setattr(linkref, "gauss_linking", lambda a, b: calls.append(1) or integrate(a, b))
        assert cli.main(["link", "--preset", "hopf", "--json", str(tmp_path / "l.json")]) == 0
        assert len(calls) == 1


class TestLinkingHelicities:
    def test_hopf_unit_fluxes(self):
        per, total = helicities(linkref.hopf_pair(256))
        assert per[0] == pytest.approx(1.0)
        assert per[1] == pytest.approx(1.0)
        assert total == pytest.approx(2.0)

    def test_flux_two_one(self):
        cs = linkref.hopf_pair(256, fluxes=(2.0, 1.0))
        per, total = helicities(cs)
        assert per == [pytest.approx(2.0), pytest.approx(2.0)]
        assert total == pytest.approx(4.0)

    def test_zero_fluxes(self):
        cs = linkref.hopf_pair(128, fluxes=(0.0, 0.0))
        per, total = helicities(cs)
        assert per == [0.0, 0.0] and total == 0.0

    def test_quad_preset_zero_rows_nonzero_links(self):
        cs = linkref.zero_helicity_quad(192)
        lk, dev = linkref.linking_matrix(cs)
        assert dev == 0.0  # declared matrix takes precedence
        assert np.any(lk != 0)
        assert np.all(lk.sum(axis=1) == 0)
        per, total = helicities(cs)
        assert per == [0.0, 0.0, 0.0, 0.0] and total == 0.0

    def test_quad_matrix_validated_by_quadrature(self):
        cs = linkref.zero_helicity_quad(256)
        declared = cs.linking
        cs_raw = linkref.CurveSet(cs.curves, cs.fluxes, linking=None)
        computed, dev = linkref.linking_matrix(cs_raw)
        assert np.array_equal(computed, declared)
        assert dev < 1e-2

    def test_total_matches_independent_double_sum(self):
        cs = linkref.hopf_pair(256, fluxes=(1.5, -2.0))
        lk, _ = linkref.linking_matrix(cs)
        phi = np.asarray(cs.fluxes)
        expected = sum(
            phi[i] * phi[j] * lk[i, j]
            for i in range(len(phi))
            for j in range(len(phi))
            if i != j
        )
        _, total = helicities(cs)
        assert total == pytest.approx(expected)

    def test_missing_link_data(self):
        cs = linkref.CurveSet(None, [1.0, 1.0])
        with pytest.raises(MissingLinkData):
            helicities(cs)


class TestCurveSet:
    def test_validation_lengths(self):
        c = linkref.circle_points((0, 0, 0), 1.0, (0, 0, 1), 128)
        with pytest.raises(ValueError):
            linkref.CurveSet([c], [1.0, 2.0])

    def test_validation_min_samples(self):
        c = linkref.circle_points((0, 0, 0), 1.0, (0, 0, 1), 16)
        with pytest.raises(ValueError):
            linkref.CurveSet([c], [1.0])

    def test_validation_matrix_symmetry(self):
        c1 = linkref.circle_points((0, 0, 0), 1.0, (0, 0, 1), 128)
        c2 = linkref.circle_points((4, 0, 0), 1.0, (0, 0, 1), 128)
        with pytest.raises(ValueError):
            linkref.CurveSet([c1, c2], [1.0, 1.0], linking=[[0, 1], [-1, 0]])
        with pytest.raises(ValueError):
            linkref.CurveSet([c1, c2], [1.0, 1.0], linking=[[1, 0], [0, 0]])

    def test_json_round_trip(self):
        cs = linkref.hopf_pair(128)
        doc = curves_doc(cs)
        back = linkref.CurveSet.from_json_dict(doc)
        assert np.allclose(back.curves[0], cs.curves[0])
        assert back.fluxes == cs.fluxes
