"""Spectral calculus: analytic examples and operator identities."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from wring import config, fieldcore, gv
from wring.errors import InvalidGrid, NonFiniteData, NonZeroMeanVorticity, NotDivergenceFree
from wring.fieldcore import (
    Grid3,
    VectorField,
    check_finite,
    cross,
    curl,
    div,
    dot,
    grad,
    inverse_curl,
    magnitude2,
    random_band_limited_scalar,
    spectral_tail_fraction,
)

from helpers import random_band_limited_vector, sample, split_every_stack, two_thirds

TWO_PI = 2.0 * np.pi
# 8^3 is the smallest grid: n//3 = 2 keeps five of eight indices per axis
BOX_GRIDS = [(32, 32, 32), (16, 24, 32), (8, 8, 8)]


def cube(n, L=TWO_PI):
    return Grid3((n, n, n), (L, L, L))


def abc_velocity(grid, a=1.0, b=1.0, c=1.0):
    kappa = TWO_PI / grid.box[0]
    x, y, z = grid.mesh()
    return VectorField.from_components(
        grid,
        a * np.sin(kappa * z) + c * np.cos(kappa * y),
        b * np.sin(kappa * x) + a * np.cos(kappa * z),
        c * np.sin(kappa * y) + b * np.cos(kappa * x),
    )


class TestGrid3:
    def test_invariants(self):
        g = Grid3((16, 32, 8), (1.0, 2.0, 0.5))
        assert all(h > 0 for h in g.spacing)
        assert g.volume == pytest.approx(1.0 * 2.0 * 0.5)
        assert g.cell_volume * g.n[0] * g.n[1] * g.n[2] == pytest.approx(g.volume)

    @pytest.mark.parametrize("n", [(7, 8, 8), (8, 8, 6), (8, 9, 8)])
    def test_rejects_bad_counts(self, n):
        with pytest.raises(InvalidGrid):
            Grid3(n, (1.0, 1.0, 1.0))

    def test_rejects_non_integral_count(self):
        with pytest.raises(InvalidGrid):
            Grid3((16.5, 16, 16), (1.0, 1.0, 1.0))

    def test_rejects_bad_box(self):
        with pytest.raises(InvalidGrid):
            Grid3((8, 8, 8), (1.0, -2.0, 1.0))

    @pytest.mark.parametrize("n", [(float("inf"), 8, 8), (8, float("nan"), 8), (8, 8, -float("inf"))])
    def test_rejects_non_finite_count(self, n):
        with pytest.raises(InvalidGrid, match="finite"):
            Grid3(n, (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("box", [(1e7, 1.0, 1.0), (1.0, 1e-7, 1.0), (1.0, 1.0, 10**400)])
    def test_rejects_box_outside_range(self, box):
        with pytest.raises(InvalidGrid):
            Grid3((8, 8, 8), box)

    @pytest.mark.parametrize("n", BOX_GRIDS)
    def test_rfft_box_is_kept_modes(self, n):
        g = Grid3(n, (TWO_PI, 3.0, 5.0))
        data = np.random.default_rng(4).standard_normal(n)
        assert g.box_shape == tuple(2 * (m // 3) + 1 for m in n[:2]) + (n[2] // 3 + 1,)
        kept = g.rfft(data)[two_thirds(g)].reshape(g.box_shape)
        assert np.array_equal(g.rfft(data, box=True), kept)

    @pytest.mark.parametrize("n", BOX_GRIDS)
    def test_irfft_box_is_zero_filled_spectrum(self, n):
        g = Grid3(n, (TWO_PI, 3.0, 5.0))
        box = g.rfft(np.random.default_rng(5).standard_normal(n), box=True)
        filled = np.zeros((n[0], n[1], n[2] // 2 + 1), dtype=complex)
        filled[two_thirds(g)] = box.ravel()
        assert g.irfft(box).tobytes() == g.irfft(filled).tobytes()

    @pytest.mark.parametrize("lanes", ["1", "2"])
    @pytest.mark.parametrize("box", [False, True], ids=["full", "box"])
    @pytest.mark.parametrize("n", BOX_GRIDS[:2])
    def test_stacked_transforms_equal_per_component(self, monkeypatch, n, box, lanes):
        # seven components split unevenly over the lanes; each result is the
        # single-component transform, bit for bit, at any lane count
        split_every_stack(monkeypatch)
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
        g = Grid3(n, (TWO_PI, 3.0, 5.0))
        data = np.random.default_rng(7).standard_normal((7,) + n)
        spec = g.rfft(data, box=box)
        assert spec.shape == (7,) + (g.box_shape if box else (n[0], n[1], n[2] // 2 + 1))
        assert spec.tobytes() == np.stack([g.rfft(c, box=box) for c in data]).tobytes()
        assert g.irfft(spec).tobytes() == np.stack([g.irfft(s) for s in spec]).tobytes()

    @pytest.mark.parametrize("lanes", ["1", "2"])
    def test_irfft_overwrites_only_when_asked(self, monkeypatch, lanes):
        # the default leaves a writeable full stack as it was, byte for
        # byte; with overwrite, a stack or one spectrum handed over gives
        # the same inverse bit for bit
        split_every_stack(monkeypatch)
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
        g = Grid3((16, 24, 32), (TWO_PI, 3.0, 5.0))
        spec = g.rfft(np.random.default_rng(6).standard_normal((5,) + g.shape))
        before = spec.tobytes()
        expected = g.irfft(spec.copy()).tobytes()
        assert spec.flags.writeable
        assert g.irfft(spec).tobytes() == expected
        assert spec.tobytes() == before
        assert g.irfft(spec[0].copy(), overwrite=True).tobytes() == g.irfft(spec[0]).tobytes()
        assert g.irfft(spec, overwrite=True).tobytes() == expected

    def test_cut_and_add_box_keep_leading_axes(self):
        g = Grid3((16, 24, 32), (TWO_PI, 3.0, 5.0))
        rng = np.random.default_rng(8)
        full = rng.standard_normal((2, 16, 24, 17)) + 1j * rng.standard_normal((2, 16, 24, 17))
        box = g.cut_box(full)
        assert np.array_equal(box, np.stack([g.cut_box(s) for s in full]))
        twice = full.copy()
        g.add_box(twice, box)
        for before, after, inc in zip(full, twice, box):
            expected = before.copy()
            g.add_box(expected, inc)
            assert np.array_equal(after, expected)

    def test_box_keeps_two_thirds_on_every_even_grid(self):
        # per-axis arrays only: no 3-D mask is built, so all 253 grids stay fast
        for n in range(8, 513, 2):
            g = Grid3((n, n, n), (1.0, 1.0, 1.0))
            k = n // 3
            rows, cols, planes = g.box_index
            kept = np.r_[0 : k + 1, n - k : n]
            assert g.box_shape == (2 * k + 1, 2 * k + 1, k + 1), n
            assert np.array_equal(rows, kept) and np.array_equal(cols, kept), n
            assert np.array_equal(planes, np.arange(k + 1)), n

    def test_box_is_dealias_mask_where_mode_index_rounds(self):
        # at n = 10 and 20, |index| = n//3 is lost by a mode index taken in
        # floating point as fftfreq(n) * n
        g = Grid3((10, 20, 14), (1.0, 1.0, 1.0))
        full = np.zeros((10, 20, 8), dtype=complex)
        g.add_box(full, np.ones(g.box_shape, dtype=complex))
        assert np.array_equal(full != 0, two_thirds(g))

    @pytest.mark.parametrize("axis, delta_axis", [(0, 2), (2, 1), (1, 0)])
    def test_shift_samples_the_displaced_field(self, axis, delta_axis):
        g = Grid3((16, 12, 10), (TWO_PI, 3.0, 5.0))
        coords = list(g.mesh())
        k = [TWO_PI * m / L for m, L in zip((3, 2, 1), g.box)]
        shape = [1, 1, 1]
        shape[delta_axis] = g.n[delta_axis]
        delta = 0.4 * np.sin(TWO_PI * g.axes[delta_axis] / g.box[delta_axis]).reshape(shape)
        nyquist = np.pi / g.spacing[axis]
        smooth = lambda c: np.sin(k[0] * c[0] + k[1] * c[1] + k[2] * c[2] + 0.3)
        data = np.stack(np.broadcast_arrays(smooth(coords), 2.0 * smooth(coords), np.cos(nyquist * coords[axis])))
        coords[axis] = coords[axis] - delta
        # the Nyquist mode keeps its real part: cos(k_N (x - d)) sampled is cos(k_N d) cos(k_N x)
        expected = np.stack(np.broadcast_arrays(smooth(coords), 2.0 * smooth(coords), np.cos(nyquist * delta) * data[2]))
        assert np.max(np.abs(g.shift(data, axis, delta) - expected)) < 1e-13

    def test_tail_fraction_splits_at_three_eighths_on_every_grid(self):
        # the 3n/8 mode was misplaced by a floating-point wavenumber ratio, on
        # the 2*pi box at n = 104, 200, 208, 280, 328, 400 and 416
        for L in (TWO_PI, 1.0, 3.7):
            for n in range(8, 513, 8):
                g = Grid3((n, 8, 8), (L, 1.0, 1.0))
                x = g.mesh()[0]
                tail = VectorField.from_components(g, np.cos(TWO_PI * (3 * n // 8) * x / L), 0.0, 0.0)
                below = VectorField.from_components(g, np.cos(TWO_PI * (3 * n // 8 - 1) * x / L), 0.0, 0.0)
                assert spectral_tail_fraction(tail) > 0.99, (L, n)
                assert spectral_tail_fraction(below) < 1e-20, (L, n)

    @pytest.mark.parametrize("n", BOX_GRIDS)
    def test_single_modes_land_at_their_index(self, n):
        # cos(k x) puts N/2 at the mode index m and, on a complex axis, at -m;
        # sin(k x) puts -i N/2 at m and i N/2 at -m. Along z only m is stored
        g = Grid3(n, (TWO_PI, 3.0, 5.0))
        points = n[0] * n[1] * n[2]
        for axis in range(3):
            coord = g.mesh()[axis]
            for m in (1, n[axis] // 2 - 1):
                k = TWO_PI * m / g.box[axis]
                for wave, coef in ((np.cos, 0.5), (np.sin, -0.5j)):
                    expected = np.zeros((n[0], n[1], n[2] // 2 + 1), dtype=complex)
                    index = [0, 0, 0]
                    index[axis] = m
                    expected[tuple(index)] = coef * points
                    if axis < 2:
                        index[axis] = n[axis] - m
                        expected[tuple(index)] = np.conj(coef) * points
                    data = np.broadcast_to(wave(k * coord), n)
                    assert np.max(np.abs(g.rfft(data) - expected)) < 1e-14 * points, (axis, m, wave)

    @pytest.mark.parametrize("n", BOX_GRIDS)
    def test_transforms_are_the_dft_and_its_inverse(self, n):
        g = Grid3(n, (TWO_PI, 3.0, 5.0))
        data = np.random.default_rng(6).standard_normal(n)
        spec = g.rfft(data)
        reference = np.fft.rfftn(data)
        assert np.max(np.abs(spec - reference)) < 1e-14 * np.max(np.abs(reference))
        assert np.max(np.abs(g.irfft(spec) - data)) < 1e-15 * np.max(np.abs(data))

    def test_non_finite_rejected(self):
        g = cube(8)
        data = np.zeros(g.shape)
        data[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteData, match="scalar samples contains non-finite entries"):
            check_finite(data, "scalar samples")


def test_fft_workers_clamped_to_cpu_count(monkeypatch):
    cpus = os.cpu_count() or 1
    monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], str(cpus + 1))
    assert config.fft_workers() == cpus


@pytest.mark.parametrize("raw, lanes", [(None, 2), ("1", 1), ("0", 1), ("two", 1)])
def test_fft_workers_default_and_fallback(monkeypatch, raw, lanes):
    if raw is None:
        monkeypatch.delenv(config.DEFAULTS["fft_workers_env"], raising=False)
    else:
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], raw)
    assert config.fft_workers() == min(lanes, os.cpu_count() or 1)


@pytest.mark.parametrize("n, split", [((32, 32, 32), False), ((32, 32, 34), True)])
def test_stacks_split_only_above_the_serial_size(monkeypatch, n, split):
    # a stack reaches a worker lane only on a grid of more than
    # fft_serial_max_points (32^3) points
    monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], "2")
    if config.fft_workers() < 2:
        pytest.skip("one CPU: no worker lane")
    threads = set()
    original = Grid3._rfft

    def recorded(self, *args):
        threads.add(threading.current_thread())
        return original(self, *args)

    monkeypatch.setattr(Grid3, "_rfft", recorded)
    g = Grid3(n, (TWO_PI, 3.0, 5.0))
    for _ in range(50):  # until the worker lane claims a component
        g.rfft(np.ones((6,) + n))
        if len(threads) > 1:
            break
    assert (threads != {threading.current_thread()}) == split


def test_concurrent_callers_share_the_lanes(monkeypatch):
    # more callers than cores, switching threads often: every caller's
    # stacked transforms still equal the serial per-component ones
    split_every_stack(monkeypatch)
    monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], "2")
    g = Grid3((16, 24, 32), (TWO_PI, 3.0, 5.0))
    data = np.random.default_rng(9).standard_normal((6, 16, 24, 32))
    box = np.stack([g.rfft(c, box=True) for c in data])
    expected = (box.tobytes(), np.stack([g.irfft(s) for s in box]).tobytes())
    results = []

    def caller():
        for _ in range(10):
            spec = g.rfft(data, box=True)
            results.append((spec.tobytes(), g.irfft(spec).tobytes()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 40


def cross_reference(a, b):
    """a x b as one numpy expression per component, for sequences of three arrays."""
    (ax, ay, az), (bx, by, bz) = a, b
    return np.stack((ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx))


def masked_quotient_reference(num, q, mask, power):
    """The masked quotient as one numpy expression, q**power by numpy's power."""
    return np.where(mask, num / np.where(mask, q, 1.0) ** power, 0.0)


def pointwise_cases(g, rng):
    """name -> (the engine's result, the plain numpy expression it replaces)
    for every kernel that runs through ``pointwise``, on random data of ``g``."""
    a, b = (VectorField(g, rng.standard_normal((3,) + g.shape)) for _ in range(2))
    num = rng.standard_normal(g.shape)
    q = rng.standard_normal(g.shape)
    mask = np.abs(q) > 0.2
    s = g.rfft(a.data)
    cases = {
        "dot": (lambda: dot(a, b), lambda: np.einsum("i...,i...->...", a.data, b.data)),
        "cross": (lambda: cross(a, b).data, lambda: cross_reference(a.data, b.data)),
        "cross_parts ik": (
            lambda: fieldcore.cross_parts(g.ik, s, out=np.empty_like(s)),
            lambda: cross_reference(g.ik, s),
        ),
        "magnitude2": (lambda: magnitude2(a), lambda: a.data[0] ** 2 + a.data[1] ** 2 + a.data[2] ** 2),
    }
    for power in (1, 2):
        cases[f"masked quotient {power}"] = (
            lambda p=power: gv.masked_quotient(num, q, mask, p),
            lambda p=power: masked_quotient_reference(num, q, mask, p),
        )
    cases["masked quotient of a stack"] = (
        lambda: gv.masked_quotient(a.data, q, mask, 1),
        lambda: masked_quotient_reference(a.data, q, mask, 1),
    )
    return cases


class TestPointwise:
    """The kernels that ``fieldcore.pointwise`` splits into x-slabs give the
    bytes of the whole-array numpy expressions they replace, at one and two
    lanes (q**4 excepted: two squarings, within 2 ulp of pow)."""

    GRIDS = [(48, 48, 48), (40, 48, 64)]

    def results(self, monkeypatch, lanes, g):
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
        cases = pointwise_cases(g, np.random.default_rng(11))
        return {name: (engine(), plain()) for name, (engine, plain) in cases.items()}

    @pytest.mark.parametrize("n", GRIDS, ids=lambda n: "x".join(map(str, n)))
    def test_equal_to_numpy_at_one_and_two_lanes(self, monkeypatch, n):
        g = Grid3(n, (TWO_PI, 3.0, 5.0))
        one, two = (self.results(monkeypatch, lanes, g) for lanes in ("1", "2"))
        for name, (engine, plain) in one.items():
            assert type(engine) is np.ndarray, name
            assert np.array_equal(engine, plain), name
            assert np.array_equal(two[name][0], engine), name

    def test_box_spectrum_cross(self, monkeypatch):
        # 43 x 43 x 22 modes at n = 64: more than fft_serial_max_points
        g = cube(64)
        box = g.rfft(np.random.default_rng(12).standard_normal((3,) + g.shape), box=True)
        plain = cross_reference(g.box_ik, box)
        for lanes in ("1", "2"):
            monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
            assert np.array_equal(fieldcore.cross_parts(g.box_ik, box, out=np.empty_like(box)), plain)

    @pytest.mark.parametrize("lanes", ["1", "2"])
    def test_fourth_power_within_roundoff_and_even(self, monkeypatch, lanes):
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
        rng = np.random.default_rng(13)
        num, q = rng.standard_normal((2, 48, 48, 48))
        mask = np.abs(q) > 0.2
        out = gv.masked_quotient(num, q, mask, 4)
        np.testing.assert_allclose(out, masked_quotient_reference(num, q, mask, 4), rtol=1e-15, atol=0.0)
        assert np.array_equal(gv.masked_quotient(num, -q, mask, 4), out)
        assert np.all(out[~mask] == 0.0)

    @pytest.mark.parametrize("lanes", ["1", "2"])
    @pytest.mark.parametrize("shape", [(48, 48, 48), (3, 40, 48, 64)], ids=["scalar", "vector"])
    def test_nan_in_the_last_slab_raises(self, monkeypatch, lanes, shape):
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
        data = np.zeros(shape)
        data[..., -1, -1, -1] = np.nan
        with pytest.raises(NonFiniteData):
            if len(shape) == 3:
                check_finite(data, "scalar samples")
            else:
                VectorField(Grid3(shape[-3:], (TWO_PI, 3.0, 5.0)), data)

    def test_worker_lanes_keep_the_error_state(self, monkeypatch):
        # np.errstate is per context: a worker lane runs in a copy of the caller's
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], "2")
        if config.fft_workers() < 2:
            pytest.skip("one CPU: no worker lane")
        seen = set()

        def kernel(o):
            seen.add((threading.current_thread(), np.geterr()["over"]))
            time.sleep(0.001)  # lets the worker lane claim a slab

        out = np.empty((48, 48, 48))
        with np.errstate(over="raise"):
            for _ in range(50):  # until a worker lane claims a slab
                fieldcore.pointwise(kernel, out)
                if len({t for t, _ in seen}) > 1:
                    break
        assert len({t for t, _ in seen}) > 1
        assert {state for _, state in seen} == {"raise"}

    def test_a_kernel_inside_a_lane_runs_on_that_lane(self, monkeypatch):
        monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], "2")
        inner = np.empty((48, 48, 48))
        mismatched = []

        def outer(o):
            lane = threading.current_thread()
            fieldcore.pointwise(lambda i: mismatched.append(threading.current_thread() is not lane), inner)

        done = threading.Thread(target=fieldcore.pointwise, args=(outer, np.empty((48, 48, 48))))
        done.start()
        done.join(timeout=60)
        assert not done.is_alive()
        assert mismatched and not any(mismatched)

    @pytest.mark.parametrize("n, slabs", [((32, 32, 32), 1), ((32, 32, 34), 2), ((64, 64, 64), 8), ((96, 96, 96), 32)])
    def test_slabs_of_at_most_the_serial_size(self, n, slabs):
        # one call up to fft_serial_max_points points a component, above it
        # slabs of at most that many: 8 rows at n = 64, 3 at n = 96
        sizes = []
        fieldcore.pointwise(lambda o: sizes.append(o.shape), np.empty((3,) + n))
        assert len(sizes) == slabs
        assert sum(s[1] for s in sizes) == n[0]
        limit = config.DEFAULTS["fft_serial_max_points"]
        assert all(s[0] == 3 and s[1] * s[2] * s[3] <= limit for s in sizes)


class TestGrad:
    def test_constant(self):
        g = cube(16)
        out = grad(g, sample(g, lambda x, y, z: 3.0 + 0 * x))
        assert out.maxabs == pytest.approx(0.0, abs=1e-14)

    def test_single_mode_noncubic_box(self):
        g = Grid3((32, 32, 32), (3.0, TWO_PI, 1.0))
        kx = TWO_PI / 3.0
        s = sample(g, lambda x, y, z: np.sin(kx * x) + 0 * y + 0 * z)
        out = grad(g, s)
        x, _, _ = g.mesh()
        exact = kx * np.cos(kx * x)
        assert np.max(np.abs(out.data[0] - exact)) < 1e-12
        assert np.max(np.abs(out.data[1:])) < 1e-12

    def test_two_mode(self):
        g = cube(32)
        s = sample(g, lambda x, y, z: np.sin(x) + np.cos(y) + 0 * z)
        out = grad(g, s)
        x, y, _ = g.mesh()
        assert np.max(np.abs(out.data[0] - np.cos(x))) < 1e-12
        assert np.max(np.abs(out.data[1] - (-np.sin(y)))) < 1e-12
        assert np.max(np.abs(out.data[2])) < 1e-13


class TestCurlDiv:
    def test_curl_and_magnitude2_are_the_direct_forms(self):
        # the streamed curl and the per-component |v|^2 keep the arithmetic
        # of the direct forms, so they agree bit for bit
        g = Grid3((16, 24, 32), (TWO_PI, 3.0, 5.0))
        v = VectorField(g, np.random.default_rng(8).standard_normal((3,) + g.shape))
        sx, sy, sz = (g.rfft(c) for c in v.data)
        ikx, iky, ikz = g.ik
        direct = np.stack(
            [g.irfft(iky * sz - ikz * sy), g.irfft(ikz * sx - ikx * sz), g.irfft(ikx * sy - iky * sx)]
        )
        assert curl(v).data.tobytes() == direct.tobytes()
        assert magnitude2(v).tobytes() == np.sum(v.data**2, axis=0).tobytes()

    def test_curl_of_gradient_vanishes(self):
        g = cube(32)
        s = random_band_limited_scalar(g, 6, seed=1)
        assert curl(grad(g, s)).maxabs < 1e-11

    def test_abc_is_curl_eigenfield(self):
        g = cube(32)
        v = abc_velocity(g)
        w = curl(v)
        assert np.max(np.abs(w.data - v.data)) < 1e-11

    def test_kupka_tube_curl_matches_analytic(self):
        from wring.fieldzoo import default_kupka_profile

        g = cube(64)
        r0 = np.pi / 2
        chi, dchi = default_kupka_profile(r0, 16)
        x, y, _ = g.mesh()
        dx, dy = x - np.pi, y - np.pi
        r = np.sqrt(dx**2 + dy**2)
        v = VectorField.from_components(g, -dy * chi(r), dx * chi(r), 0.0)
        wx, wy, wz = curl(v).data
        exact = 2.0 * chi(r) + r * dchi(r)
        num = g.integral(magnitude2(VectorField.from_components(g, wx, wy, wz - exact)))
        den = g.integral(np.broadcast_to(exact, g.shape) ** 2)
        assert np.sqrt(num / den) < 1e-6

    def test_div_of_curl_vanishes(self):
        g = cube(32)
        v = random_band_limited_vector(g, 6, seed=2)
        assert np.max(np.abs(div(curl(v)))) < 1e-11

    def test_div_analytic(self):
        g = cube(32)
        x, y, z = g.mesh()
        vf = VectorField.from_components(g, np.sin(x) + 0 * y + 0 * z, np.sin(y), np.sin(z))
        out = div(vf)
        exact = np.cos(x) + np.cos(y) + np.cos(z)
        assert np.max(np.abs(out - exact)) < 1e-12

    def test_non_periodic_data_is_caller_error(self):
        # a sawtooth is not representable; the operator returns finite
        # nonsense rather than raising (periodicity is the caller's contract)
        g = cube(16)
        x, _, _ = g.mesh()
        vf = VectorField.from_components(g, np.broadcast_to(x, g.shape), 0.0, 0.0)
        out = div(vf)
        assert np.all(np.isfinite(out))


class TestInverseCurl:
    def test_zero_maps_to_zero(self):
        g = cube(16)
        assert inverse_curl(VectorField(g, np.zeros((3,) + g.shape))).maxabs == 0.0

    def test_abc_eigenfield_recovered(self):
        g = cube(32)
        v = abc_velocity(g)
        u = inverse_curl(v)
        rel = np.max(np.abs(u.data - v.data)) / v.maxabs
        assert rel < 1e-10

    def test_round_trip_on_divfree(self):
        g = cube(32)
        v = random_band_limited_vector(g, 7, seed=5, div_free=True)
        u = inverse_curl(curl(v))
        rel = np.sqrt(g.integral(magnitude2(VectorField(g, u.data - v.data))) / g.integral(magnitude2(v)))
        assert rel < 1e-10

    def test_rejects_mean_flow(self):
        g = cube(16)
        v = random_band_limited_vector(g, 4, seed=6, div_free=True)
        v = VectorField(g, v.data + np.array([0.0, 0.0, 0.5])[:, None, None, None])
        with pytest.raises(NonZeroMeanVorticity):
            inverse_curl(v)

    def test_rejects_divergent_field(self):
        g = cube(16)
        s = random_band_limited_scalar(g, 4, seed=7)
        with pytest.raises(NotDivergenceFree):
            inverse_curl(grad(g, s))


class TestIntegrate:
    def test_constant(self):
        g = cube(16)
        one = sample(g, lambda x, y, z: 1.0 + 0 * x)
        assert g.integral(one) == pytest.approx(TWO_PI**3)

    def test_odd_mode_integrates_to_zero(self):
        g = cube(16)
        s = sample(g, lambda x, y, z: np.sin(x) + 0 * y + 0 * z)
        assert abs(g.integral(s)) < 1e-12

    def test_abc_energy_closed_form(self):
        g = cube(32)
        v = abc_velocity(g)
        value = g.integral(magnitude2(v))
        assert abs(value - 3.0 * TWO_PI**3) / (3.0 * TWO_PI**3) < 1e-9


@pytest.mark.parametrize("lanes", ["1", "2"])
def test_dot_overflow_raises_under_errstate(monkeypatch, lanes):
    # dot's ufuncs honour np.errstate on every lane, as einsum did not
    monkeypatch.setenv(config.DEFAULTS["fft_workers_env"], lanes)
    g = cube(64)
    a = VectorField(g, np.full((3,) + g.shape, 1e200))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        dot(a, a)


def test_maxnorm_is_cached(monkeypatch):
    v = abc_velocity(cube(16))
    expected = float(np.sqrt(np.max(magnitude2(v))))
    calls = []
    monkeypatch.setattr(fieldcore, "magnitude2", lambda a: calls.append(a) or magnitude2(a))
    assert v.maxnorm == expected and v.maxnorm == expected
    assert len(calls) == 1


def test_spec_is_one_read_only_stacked_transform():
    g = Grid3((16, 8, 12), (TWO_PI, 3.0, 5.0))
    v = random_band_limited_vector(g, 3, seed=4)
    assert type(v.spec) is np.ndarray and v.spec.shape == (3, 16, 8, 7)
    assert not v.spec.flags.writeable
    assert np.array_equal(v.spec, g.rfft(v.data))


class TestOperatorProperties:
    def test_integration_by_parts(self):
        g = cube(32)
        v = random_band_limited_vector(g, 5, seed=11)
        for seed in (12, 13):
            s = random_band_limited_scalar(g, 5, seed=seed)
            lhs = g.integral(div(v) * s)
            rhs = -g.integral(dot(v, grad(g, s)))
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) / scale < 1e-10

    def test_parseval(self):
        g = cube(32)
        s = random_band_limited_scalar(g, 9, seed=21)
        phys = g.integral(s**2)
        spec = g.rfft(s) / (g.n[0] * g.n[1] * g.n[2])
        weights = np.full(g.n[2] // 2 + 1, 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        spectral = float(np.sum(np.abs(spec) ** 2 * weights[None, None, :])) * g.volume
        assert abs(phys - spectral) / abs(phys) < 1e-12

    def test_parseval_with_nyquist_content(self):
        # (-1)^(i+j+k) is the corner mode on the kz = n/2 plane, which the rfft
        # layout holds once; the smooth term fills the kz = 0 and interior planes
        g = Grid3((16, 24, 32), (TWO_PI, 5.0, 7.0))
        x, y, z = g.mesh()
        i, j, k = np.indices(g.shape)
        f = (-1.0) ** (i + j + k) + np.sin(x) * np.cos(TWO_PI * y / 5.0) + np.cos(2.0 * TWO_PI * z / 7.0) + 0.5
        spec = g.rfft(f)
        physical = float(np.sum(f * f)) * g.cell_volume
        assert g.parseval(spec.real**2 + spec.imag**2) == pytest.approx(physical, rel=1e-13, abs=0.0)

    def test_cross_and_dot_are_pointwise(self):
        g = cube(8)
        a = random_band_limited_vector(g, 2, seed=41)
        b = random_band_limited_vector(g, 2, seed=42)
        c = cross(a, b)
        assert np.max(np.abs(np.einsum("i...,i...->...", a.data, c.data))) < 1e-13
        assert np.max(np.abs(np.einsum("i...,i...->...", b.data, c.data))) < 1e-13
        assert dot(a, a) == pytest.approx(np.sum(a.data**2, axis=0))
