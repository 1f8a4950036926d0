"""Grid FFT budgets: upper bounds on the transforms one operation makes.

The counts do not depend on n, so a small grid keeps these fast. A change
that lowers a count may lower its bound; a bound never goes up.
"""

from collections import Counter

import numpy as np
import pytest

from wring import config
from wring import dynamics as dyn
from wring import fieldzoo as fz
from wring import gv
from wring.fieldcore import Grid3, VectorField, inverse_curl, require_potential

STEP_BUDGET = 85
INVERSE_CURL_BUDGET = 3
BERNOULLI_HEAD_BUDGET = 10
GV_INVARIANT_BUDGET = 6
ANALYZE_BUDGET = 6
ANALYZE_RICHARDSON_BUDGET = 6
OBSTRUCTION_BOUND_BUDGET = 6
# analyze with the bound: the velocity choice shares its evaluation with
# the bound, the canonical choice cannot
ANALYZE_BOUND_VELOCITY_BUDGET = 6
ANALYZE_BOUND_CANONICAL_BUDGET = 12
TRACK_ONE_STEP_BUDGET = 97
# on a bundle with nothing cached: W's spectra are transformed once
HELICITY_UNCACHED_BUDGET = 3
ANALYZE_UNCACHED_BUDGET = 9
VERIFY_UNCACHED_BUDGET = 7
# counts Grid3.rfft/irfft only: the one-axis real transforms of the shear
# shifts (Grid3.shift) are not among them
APPLY_DIFFEO_BUDGET = 7
# the generators, verify included: A and W are each transformed once; the
# rings also transform their tube samples once and invert A and W together
GEN_CLEBSCH_BUDGET = 11
HOPF_RINGS_BUDGET = 16
# Grid3.shift calls per shear primitive of apply_diffeo: one for A, one for W
SHIFTS_PER_SHEAR = 2


def wrap_transforms(monkeypatch, record) -> None:
    """Wrap Grid3.rfft and Grid3.irfft so that each call runs ``record(name,
    component count, one component's spectrum shape)``."""
    for name in ("rfft", "irfft"):
        original = getattr(Grid3, name)

        def counted(self, data, *args, _original=original, _name=name, **kwargs):
            out = _original(self, data, *args, **kwargs)
            spec = out if _name == "rfft" else data
            record(_name, spec.shape[0] if spec.ndim == 4 else 1, spec.shape[-3:])
            return out

        monkeypatch.setattr(Grid3, name, counted)


def count_components(monkeypatch, calls: list) -> None:
    """``wrap_transforms`` appending (name, spectrum shape) to ``calls``; a
    stacked call of k components appends k entries of one component's shape."""
    wrap_transforms(monkeypatch, lambda name, k, shape: calls.extend([(name, shape)] * k))


@pytest.fixture
def transforms(monkeypatch):
    """``transforms(fn, *args)`` calls fn and returns the spectrum shapes of
    the Grid3.rfft and Grid3.irfft calls it made, in order, counted by
    components as ``count_components`` counts them."""
    calls = []
    count_components(monkeypatch, calls)

    def run(fn, *args, **kwargs):
        start = len(calls)
        fn(*args, **kwargs)
        return [shape for _, shape in calls[start:]]

    return run


SHEAR = fz.DiffeoMap((fz.Shear.from_names("x", "z", 0.3, 1),))


@pytest.fixture(scope="module")
def clebsch32():
    return fz.gen_clebsch(Grid3((32, 32, 32), (2.0 * np.pi,) * 3))


@pytest.fixture(scope="module")
def sheared32(clebsch32):
    """The sheared bundle with W's spectra and U cached, as the budgets assume."""
    b = fz.apply_diffeo(clebsch32, SHEAR)
    b.U
    return b


@pytest.fixture(scope="module")
def sheared32_file(sheared32, tmp_path_factory):
    path = tmp_path_factory.mktemp("sheared32") / "sheared32.wrg"
    sheared32.save(path)
    return path


def loaded(path):
    """The bundle as ``wring evolve`` starts from it: read from its file,
    with W's spectra and U cached and A's spectra not."""
    b = fz.FieldBundle.load(path)
    b.U
    return b


@pytest.fixture
def uncached32(sheared32):
    """New fields of the same samples in a new bundle: nothing cached."""
    g = sheared32.grid
    A, W = (VectorField(g, v.data.copy()) for v in (sheared32.A, sheared32.W))
    return fz.FieldBundle(A, W, meta=dict(sheared32.meta))


# the stepper's stacked transforms split over the FFT lanes; the counts do
# not depend on the lane count
LANES = ("1", "2")


def test_rk4_step_budget(transforms, sheared32_file, monkeypatch):
    for lanes in LANES:
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
        assert len(transforms(dyn.step, loaded(sheared32_file), 0.02, 0.0)) <= STEP_BUDGET


def test_rk4_step_transforms_split(transforms, sheared32_file, monkeypatch):
    # every stage transform is a box transform, and each goes through Grid3:
    # one that bypasses it leaves this split short. The full ones are A's
    # three spectra, which a loaded bundle has not cached, and the inverse
    # of (W1, A1)
    for lanes in LANES:
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
        b = loaded(sheared32_file)
        shapes = transforms(dyn.step, b, 0.02, 0.0)
        assert Counter(shapes) == {b.grid.box_shape: 76, (32, 32, 17): 9}


def test_each_stage_makes_one_stacked_inverse_and_one_forward(monkeypatch, sheared32_file):
    # a stage inverts (W, A, U, curl A) in one call and transforms the
    # products (W x U, U x curl A, U.A) in one; the Bernoulli head runs the
    # same kernel on (W, U) and W x U, then inverts its head
    calls = []
    wrap_transforms(monkeypatch, lambda *call: calls.append(call))
    for lanes in LANES:
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
        b = loaded(sheared32_file)
        box, full = b.grid.box_shape, (32, 32, 17)
        calls.clear()
        dyn.step(b, 0.02, 0.0)
        stage = [("irfft", 12, box), ("rfft", 7, box)]
        assert calls == [("rfft", 3, full)] + 4 * stage + [("irfft", 6, full)]
        calls.clear()
        dyn.bernoulli_head(b)
        assert calls == [("irfft", 6, box), ("rfft", 3, box), ("irfft", 1, box)]


def test_second_step_makes_no_forward_full_transform(monkeypatch, sheared32_file):
    # a step starts from the spectra the previous one handed over
    b, _ = dyn.step(loaded(sheared32_file), 0.02, 0.0)
    full = []
    original = Grid3.rfft

    def counted(self, data, box=False):
        if not box:
            full.append(data.shape)
        return original(self, data, box)

    monkeypatch.setattr(Grid3, "rfft", counted)
    dyn.step(b, 0.02, 0.02)
    assert full == []


def test_inverse_curl_budget(transforms, sheared32):
    assert len(transforms(inverse_curl, sheared32.W)) <= INVERSE_CURL_BUDGET


def test_gated_bundle_solves_for_velocity_with_three_inverses(monkeypatch, uncached32):
    # the gate leaves W's spectra and residuals cached, so the solve makes
    # three c2r components and no r2c: it neither transforms W again nor
    # recomputes the gate's divergence
    require_potential(uncached32.W)
    calls = []
    count_components(monkeypatch, calls)
    uncached32.U
    assert calls == [("irfft", (32, 32, 17))] * 3


def test_bernoulli_head_budget(transforms, sheared32):
    assert len(transforms(dyn.bernoulli_head, sheared32)) <= BERNOULLI_HEAD_BUDGET


@pytest.mark.parametrize("variant", ["canonical", "velocity"])
def test_gv_invariant_budget(transforms, sheared32, variant):
    assert len(transforms(gv.gv_invariant, sheared32, variant)) <= GV_INVARIANT_BUDGET


def test_analyze_budget(transforms, sheared32):
    assert len(transforms(gv.analyze, sheared32)) <= ANALYZE_BUDGET
    shapes = transforms(gv.analyze, sheared32, richardson=True)
    assert len(shapes) <= ANALYZE_RICHARDSON_BUDGET


@pytest.mark.parametrize(
    "variant, budget",
    [("velocity", ANALYZE_BOUND_VELOCITY_BUDGET), ("canonical", ANALYZE_BOUND_CANONICAL_BUDGET)],
    ids=["velocity", "canonical"],
)
def test_analyze_bound_budget(transforms, sheared32, variant, budget):
    assert len(transforms(gv.analyze, sheared32, variant, bound=True)) <= budget


def test_obstruction_bound_budget(transforms, sheared32):
    assert len(transforms(gv.obstruction_bound, sheared32)) <= OBSTRUCTION_BOUND_BUDGET


def test_track_invariants_one_step_budget(transforms, sheared32_file, monkeypatch):
    for lanes in LANES:
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
        assert len(transforms(dyn.track_invariants, loaded(sheared32_file), 0.02, 1)) <= TRACK_ONE_STEP_BUDGET


def test_track_invariants_never_forms_the_final_velocity(sheared32_file):
    # the samples need no velocity: energy is a Parseval sum on W's spectra
    b, _, _ = dyn.track_invariants(loaded(sheared32_file), 0.02, 1)
    assert "U" not in vars(b)


def test_helicity_budget(transforms, sheared32, uncached32):
    assert len(transforms(gv.helicity, uncached32)) <= HELICITY_UNCACHED_BUDGET
    assert len(transforms(gv.helicity, sheared32)) == 0


def test_analyze_uncached_budget(transforms, uncached32):
    assert len(transforms(gv.analyze, uncached32)) <= ANALYZE_UNCACHED_BUDGET


def test_verify_budget(transforms, uncached32):
    assert len(transforms(uncached32.verify)) <= VERIFY_UNCACHED_BUDGET


def test_apply_diffeo_budget(transforms, clebsch32):
    assert len(transforms(fz.apply_diffeo, clebsch32, SHEAR)) <= APPLY_DIFFEO_BUDGET


@pytest.mark.parametrize(
    "generate, budget",
    [(fz.gen_clebsch, GEN_CLEBSCH_BUDGET), (fz.hopf_rings, HOPF_RINGS_BUDGET)],
    ids=["clebsch", "hopf_rings"],
)
def test_generator_budget(transforms, generate, budget):
    assert len(transforms(generate, Grid3((32, 32, 32), (2.0 * np.pi,) * 3))) <= budget


def test_apply_diffeo_shift_count(monkeypatch, clebsch32):
    calls = []
    original = Grid3.shift

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Grid3, "shift", counted)
    shears = [fz.Shear.from_names("x", "z", 0.3, 1), fz.Shear.from_names("y", "x", 0.0, 1),
              fz.Shear.from_names("y", "x", 0.2, 1)]
    for primitives, nonzero in ((shears[:1], 1), (shears[1:2], 0), (shears, 2)):
        calls.clear()
        fz.apply_diffeo(clebsch32, fz.DiffeoMap(tuple(primitives)), consistency_tol=1.0)
        assert len(calls) == SHIFTS_PER_SHEAR * nonzero
