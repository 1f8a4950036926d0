"""Periodic-grid fields and exact-to-roundoff spectral calculus.

The domain is the flat 3-torus: a rectangular box with periodic boundary
conditions in all three directions. All derivatives, inverses and integrals
are computed through real FFTs, so they are exact for band-limited data and
spectrally accurate for smooth periodic data.

Conventions fixed here and relied on elsewhere:

* scalar data is a float64 array of shape ``(nx, ny, nz)``, row-major over
  the (x, y, z) indices; vector data is ``(3, nx, ny, nz)``;
* first-derivative operators zero the Nyquist mode of each axis so that
  results stay real-symmetric;
* the inverse-curl fixes the gauge by returning the unique divergence-free
  field with zero mean (harmonic part set to zero).

The FFT lanes (``_Lanes``) are this module's only parallelism. They run
the components of a stacked transform and the x-slabs of a ``pointwise``
kernel: the product arrays and the finite checks of fields here, the
engine's masked quotients and the stepper's stage products. Both split only above
``fft_serial_max_points`` points a component, and neither changes a bit
of any result.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config
from .errors import (
    InvalidGrid,
    NonFiniteData,
    NonZeroMeanVorticity,
    NotDivergenceFree,
)

_MIN_N = config.DEFAULTS["grid"]["min_points_per_axis"]
_BOX_RANGE = (config.DEFAULTS["grid"]["min_box_length"], config.DEFAULTS["grid"]["max_box_length"])
_SERIAL_MAX_POINTS = config.DEFAULTS["fft_serial_max_points"]


@dataclass(frozen=True)
class Grid3:
    """Periodic rectangular lattice with physical box lengths.

    Parameters
    ----------
    n : (int, int, int)
        Points per axis. Each must be even and at least 8.
    box : (float, float, float)
        Physical side lengths (Lx, Ly, Lz), each from ``min_box_length`` to
        ``max_box_length`` (defaults.json), so the integrals stay finite.
    """

    n: tuple[int, int, int]
    box: tuple[float, float, float]

    def __post_init__(self):
        try:
            n = tuple(int(v) for v in self.n)
            box = tuple(float(v) for v in self.box)
        except (OverflowError, ValueError) as exc:
            raise InvalidGrid(f"points per axis and box lengths must be finite numbers: {exc}") from exc
        if len(n) != 3 or len(box) != 3:
            raise InvalidGrid("grid needs three point counts and three box lengths")
        if n != tuple(self.n):
            raise InvalidGrid(f"points per axis must be integers, got {tuple(self.n)}")
        for v in n:
            if v < _MIN_N or v % 2 != 0:
                raise InvalidGrid(f"points per axis must be even and >= {_MIN_N}, got {v}")
        for length in box:
            if not _BOX_RANGE[0] <= length <= _BOX_RANGE[1]:
                raise InvalidGrid(f"box lengths must lie in [{_BOX_RANGE[0]:g}, {_BOX_RANGE[1]:g}], got {length}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "box", box)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.n

    @cached_property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(L / m for L, m in zip(self.box, self.n))

    @property
    def volume(self) -> float:
        return self.box[0] * self.box[1] * self.box[2]

    @property
    def cell_volume(self) -> float:
        return self.spacing[0] * self.spacing[1] * self.spacing[2]

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate values along each axis (cell corners, endpoint excluded)."""
        return tuple(
            np.arange(m) * h for m, h in zip(self.n, self.spacing)
        )

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays (sparse meshgrid, ij indexing)."""
        x, y, z = self.axes
        return x[:, None, None], y[None, :, None], z[None, None, :]

    # -- spectral machinery -------------------------------------------------

    @cached_property
    def _k1d(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        nx, ny, nz = self.n
        hx, hy, hz = self.spacing
        kx = 2.0 * np.pi * np.fft.fftfreq(nx, d=hx)
        ky = 2.0 * np.pi * np.fft.fftfreq(ny, d=hy)
        kz = 2.0 * np.pi * np.fft.rfftfreq(nz, d=hz)
        return kx, ky, kz

    @cached_property
    def ik(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Derivative multipliers i*k per axis, Nyquist modes zeroed."""
        kx, ky, kz = (k.copy() for k in self._k1d)
        kx[self.n[0] // 2] = 0.0
        ky[self.n[1] // 2] = 0.0
        kz[-1] = 0.0
        return (
            (1j * kx)[:, None, None],
            (1j * ky)[None, :, None],
            (1j * kz)[None, None, :],
        )

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 in the same Nyquist-zeroed convention as the ik multipliers.

        First derivatives annihilate the Nyquist planes, so inverse
        operators must treat those modes as degenerate too; mixing the two
        conventions would leave spurious divergence after projections.
        """
        ikx, iky, ikz = self.ik
        return -(ikx**2 + iky**2 + ikz**2).real

    @cached_property
    def inv_k2(self) -> np.ndarray:
        """1/|k|^2 with degenerate (mean and pure-Nyquist) modes mapped to zero."""
        k2 = self.k2
        out = np.zeros_like(k2)
        np.divide(1.0, k2, out=out, where=k2 > 0.0)
        return out

    @cached_property
    def _mode_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """|mode index| along each axis in the rfft layout (last axis halved), in integers."""
        nx, ny, nz = self.n
        ix, iy = np.arange(nx), np.arange(ny)
        return np.minimum(ix, nx - ix), np.minimum(iy, ny - iy), np.arange(nz // 2 + 1)

    @cached_property
    def plane_weights(self) -> np.ndarray:
        """Parseval weights (1, 2, ..., 2, 1) of the rfft kz planes; an
        interior plane stands for its conjugate too."""
        weights = np.full(self.n[2] // 2 + 1, 2.0)
        weights[0] = weights[-1] = 1.0
        return weights

    @cached_property
    def _mode_volume(self) -> float:
        """cell volume / N: the volume one unit of Parseval power stands for."""
        return self.cell_volume / (self.n[0] * self.n[1] * self.n[2])

    def integral(self, values: np.ndarray) -> float:
        """The volume integral of the samples ``values``: their sum times the
        cell volume, spectrally accurate on a periodic grid."""
        return float(np.sum(values)) * self.cell_volume

    def parseval(self, power: np.ndarray) -> float:
        """The volume integral of f g from ``power``, the real rfft-layout
        array of Re(f^ conj(g^)): its sum weighted by ``plane_weights``,
        times cell volume / N."""
        return float(np.sum(power * self.plane_weights)) * self._mode_volume

    def mode_mask(self, keep) -> np.ndarray:
        """rfft-layout mask of the modes whose index passes ``keep(idx, m)`` on every axis.

        ``keep`` takes an axis's |mode index| array and its point count.
        """
        kx, ky, kz = (keep(idx, m) for idx, m in zip(self._mode_index, self.n))
        return kx[:, None, None] & ky[None, :, None] & kz[None, None, :]

    @cached_property
    def non_nyquist_mask(self) -> np.ndarray:
        """True on modes untouched by the first-derivative Nyquist zeroing."""
        return self.mode_mask(lambda idx, m: idx < m // 2)

    @cached_property
    def box_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """rfft-layout indices, per axis, of the 2/3-rule box: the modes whose
        |mode index| is at most m//3 on every axis of m points.

        Along x and y these are 2k+1 indices, 0..k and -k..-1, at both ends
        of the fft layout; along z, the k+1 leading planes of the rfft
        layout; k is n//3.
        """
        return tuple(np.flatnonzero(idx <= m // 3) for idx, m in zip(self._mode_index, self.n))

    @cached_property
    def box_shape(self) -> tuple[int, int, int]:
        """Shape of a box spectrum: 43 x 43 x 22 at n = 64."""
        return tuple(len(i) for i in self.box_index)

    @cached_property
    def box_ik(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``ik`` multipliers of the box modes, broadcastable against a box spectrum."""
        rows, cols, planes = self.box_index
        ikx, iky, ikz = self.ik
        return ikx[rows], iky[:, cols], ikz[:, :, planes]

    @cached_property
    def box_inv_k2(self) -> np.ndarray:
        """``inv_k2`` on the box modes."""
        return self.cut_box(self.inv_k2)

    @cached_property
    def _box_runs(self) -> tuple:
        """The box's x runs and y runs as (full slice, box slice) pairs, low
        run first in the box, and its kz band."""
        xy = []
        for count, m in zip(self.box_shape, self.n):
            k = count // 2
            xy.append(
                ((slice(0, k + 1), slice(0, k + 1)), (slice(m - k, m), slice(k + 1, count)))
            )
        return xy[0], xy[1], slice(0, self.box_shape[2])

    @cached_property
    def _box_blocks(self) -> tuple:
        """(full-layout slices, box slices) of the four kx run x ky run blocks."""
        xruns, yruns, band = self._box_runs
        return tuple(
            ((fx, fy, band), (bx, by, slice(None))) for fx, bx in xruns for fy, by in yruns
        )

    def cut_box(self, spec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The box modes of a full-layout ``spec``, in a new contiguous box
        spectrum or in ``out``; leading axes are kept."""
        if out is None:
            out = np.empty(spec.shape[:-3] + self.box_shape, dtype=spec.dtype)
        for full, box in self._box_blocks:
            out[(..., *box)] = spec[(..., *full)]
        return out

    def add_box(self, spec: np.ndarray, inc: np.ndarray) -> None:
        """Add the box spectrum ``inc`` into the box modes of ``spec``, in place;
        leading axes broadcast."""
        for full, box in self._box_blocks:
            spec[(..., *full)] += inc[(..., *box)]

    def rfft(self, data: np.ndarray, box: bool = False) -> np.ndarray:
        """Forward transform in the rfft layout, or only its 2/3-rule box.

        The real transform runs along every z line, then the x transform,
        then the y transform, each in place; this equals ``numpy.fft.rfftn``
        to roundoff. With ``box`` the result holds only the 2/3-rule box
        modes (``box_index``), in the layout of ``cut_box``: the x transform
        runs on the kz band only and the y transform on the kept kx rows
        only, in the same order, so the box equals those modes of the full
        transform bit for bit.

        A stack of components, shape (k, nx, ny, nz), gives the stack of
        their transforms, each equal bit for bit to the transform of its
        component alone; on a grid of more than ``fft_serial_max_points``
        points (defaults.json) the components are split over the FFT lanes.
        """
        if data.ndim == 3:
            return self._rfft(data, box)
        shape = self.box_shape if box else self._half_shape
        return _LANES.stack(lambda d, out: self._rfft(d, box, out), data, shape, complex, self._split)

    def _rfft(self, data: np.ndarray, box: bool, out: np.ndarray | None = None) -> np.ndarray:
        xruns, _, band = self._box_runs if box else self._whole
        spec = np.fft.rfft(data, axis=2, out=None if box else out)
        view = spec[:, :, band]
        np.fft.fft(view, axis=0, out=view)
        for rows, _ in xruns:
            view = spec[rows, :, band]
            np.fft.fft(view, axis=1, out=view)
        return self.cut_box(spec, out) if box else spec

    @cached_property
    def _whole(self) -> tuple:
        """``_box_runs`` for the whole spectrum: one run per axis, every kz plane."""
        run = ((slice(None), slice(None)),)
        return run, run, slice(None)

    @property
    def _split(self) -> bool:
        """Whether stacks on this grid split over the FFT lanes: up to
        ``fft_serial_max_points`` points two lanes were slower than one."""
        return self.n[0] * self.n[1] * self.n[2] > _SERIAL_MAX_POINTS

    @cached_property
    def _half_shape(self) -> tuple[int, int, int]:
        """Shape of a full rfft spectrum: the last axis halved."""
        nx, ny, nz = self.n
        return nx, ny, nz // 2 + 1

    @cached_property
    def _inv_points(self) -> float:
        """1/(nx*ny*nz), rounded once from long double."""
        return float(np.longdouble(1) / np.prod(self.n, dtype=np.longdouble))

    def irfft(self, spec: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
        """Inverse of ``rfft``; a spectrum of ``box_shape`` is a box spectrum.

        The x transform runs first, then the y transform and the real
        transform along every z line, unscaled, with one 1/N scale at the
        end. A box is scattered into a zeroed (nx, ny, nz//3 + 1) buffer of
        its kz band only; the x transform runs on the band's kept ky
        columns and the y transform on the whole band, and the z transform
        of length nz pads the missing planes with zeros, so the result
        equals the inverse of the zero-filled spectrum bit for bit. A stack
        of spectra, shape (k, ...), gives the stack of their inverses,
        split over the FFT lanes as in ``rfft``.

        A full spectrum is never written unless ``overwrite`` is true: then
        its x and y transforms run in place in ``spec``, which the caller
        hands over as a temporary and must not read again. A box spectrum
        is never written.
        """
        if spec.ndim == 3:
            return self._irfft(spec, overwrite=overwrite)
        return _LANES.stack(lambda s, out: self._irfft(s, out, overwrite), spec, self.n, float, self._split)

    def _irfft(self, spec: np.ndarray, out: np.ndarray | None = None, overwrite: bool = False) -> np.ndarray:
        if spec.shape == self.box_shape:
            buf = np.zeros(self.n[:2] + self.box_shape[2:], dtype=complex)
            for f, b in self._box_blocks:
                buf[f] = spec[b]
            for cols, _ in self._box_runs[1]:
                view = buf[:, cols]
                np.fft.ifft(view, axis=0, norm="forward", out=view)
        else:
            buf = np.fft.ifft(spec, axis=0, norm="forward", out=spec if overwrite else None)
        np.fft.ifft(buf, axis=1, norm="forward", out=buf)
        r = np.fft.irfft(buf, n=self.n[2], axis=2, norm="forward", out=out)
        return np.multiply(r, self._inv_points, out=r)

    def shift(self, data: np.ndarray, axis: int, delta: np.ndarray) -> np.ndarray:
        """A vector field's components at points displaced by -delta along ``axis``.

        ``delta`` broadcasts against the grid shape and is constant along
        ``axis``, so a phase on the real transform along that axis evaluates
        the trigonometric interpolant exactly. The inverse keeps the real
        part of the phased Nyquist coefficient, as the real part of a complex
        transform's shift does.
        """
        m = self.n[axis]
        k = np.abs(self._k1d[axis][: m // 2 + 1])
        shape = [1, 1, 1]
        shape[axis] = k.size
        spec = np.fft.rfft(data, axis=axis + 1)
        spec *= np.exp(-1j * k.reshape(shape) * delta)
        return np.fft.irfft(spec, n=m, axis=axis + 1)


class _Lanes:
    """The FFT lanes: the calling thread plus a pool of
    ``config.fft_workers() - 1`` threads, built once per process at its
    first split and kept.

    They run the components of a stacked transform and the x-slabs of a
    ``pointwise`` kernel. numpy's transforms and elementwise loops release
    the interpreter lock, so one piece of work per lane runs on its own
    core. Every piece is computed by the same code whichever lane runs it,
    so results do not depend on the lane count. Work handed out from
    inside a lane runs on that lane alone, so lanes never wait on each
    other.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pool = None
        self._inside = threading.local()

    def _workers(self, size: int):
        """The pool, built with ``size`` threads on first use and kept."""
        with self._lock:
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(size, thread_name_prefix="wring-fft-lane")
            return self._pool

    def run(self, count: int, fn, size: int) -> None:
        """Call ``fn(i)`` once for every i in range(count) on up to ``size``
        lanes, each lane claiming the next unclaimed i until none is left,
        so a lane that another process slows down takes fewer. A worker lane
        runs in a copy of the caller's context, so numpy's error state
        (``np.errstate``) holds there too. Called from inside a lane, every
        ``fn(i)`` runs on that lane. Returns, or raises a lane's error (the
        calling lane's first), once every lane is done."""
        inside = self._inside
        lanes = 1 if getattr(inside, "busy", False) else min(size, count)
        indices = iter(range(count))
        claim = threading.Lock()

        def lane():
            outer = getattr(inside, "busy", False)
            inside.busy = True
            try:
                while True:
                    with claim:
                        i = next(indices, None)
                    if i is None:
                        return
                    fn(i)
            finally:
                inside.busy = outer

        if lanes < 2:
            lane()
            return
        pool = self._workers(size - 1)
        futures = [pool.submit(contextvars.copy_context().run, lane) for _ in range(lanes - 1)]
        try:
            lane()
        finally:
            for f in futures:
                f.exception()  # waits for the lane without raising its error
        for f in futures:
            f.result()

    def stack(self, one, data: np.ndarray, shape: tuple, dtype, split: bool) -> np.ndarray:
        """The stack of ``one(data[i], out[i])`` over the leading axis of
        ``data``, each lane writing its own slices of one new array ``out``;
        on the calling thread alone unless ``split``."""
        out = np.empty((len(data),) + tuple(shape), dtype=dtype)
        self.run(len(data), lambda i: one(data[i], out[i]), config.fft_workers() if split else 1)
        return out


_LANES = _Lanes()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def pointwise(kernel, *arrays) -> None:
    """Call ``kernel`` on matching x-slabs of ``arrays``: rows of their grid
    x axis, the third from last, with every leading axis kept. An array of
    fewer than three axes, or whose x axis has length 1, broadcasts and is
    passed whole.

    The first array sets the slabs. When one of its components has more
    than ``fft_serial_max_points`` points (defaults.json), the rule stacked
    transforms split by, it is cut into slabs of at most that many points
    per component, handed out on the FFT lanes; otherwise ``kernel`` runs
    once on the whole arrays. ``kernel`` writes its results into outputs
    among ``arrays`` and may raise, as a lane's error is raised. Elementwise
    arithmetic rounds every entry alone, so what it writes does not depend
    on the slabs or the lane count; reductions belong to the caller, on
    the whole array.
    """
    nx, ny, nz = arrays[0].shape[-3:]
    if nx * ny * nz <= _SERIAL_MAX_POINTS:
        kernel(*arrays)
        return
    rows = max(1, _SERIAL_MAX_POINTS // (ny * nz))

    def slab(i):
        cut = (..., slice(i * rows, (i + 1) * rows), slice(None), slice(None))
        kernel(*(a[cut] if np.ndim(a) >= 3 and a.shape[-3] > 1 else a for a in arrays))

    _LANES.run(-(-nx // rows), slab, config.fft_workers())


def _check_finite(data: np.ndarray, what: str):
    def check(d):
        if not np.all(np.isfinite(d)):
            raise NonFiniteData(f"{what} contains non-finite entries")

    pointwise(check, data)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real scalar samples on a Grid3, read-only from construction."""

    grid: Grid3
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.shape != self.grid.shape:
            raise InvalidGrid(
                f"scalar data shape {data.shape} does not match grid {self.grid.shape}"
            )
        _check_finite(data, "scalar field")
        object.__setattr__(self, "data", _read_only(data))

    @classmethod
    def sample(cls, grid: Grid3, fn) -> "ScalarField":
        """Evaluate fn(x, y, z) on the mesh (fn may broadcast)."""
        x, y, z = grid.mesh()
        values = np.broadcast_to(np.asarray(fn(x, y, z), dtype=np.float64), grid.shape)
        return cls(grid, np.ascontiguousarray(values))

    @property
    def maxabs(self) -> float:
        return float(np.max(np.abs(self.data)))


@dataclass(frozen=True, eq=False, init=False)
class VectorField:
    """Real vector samples on a Grid3, components stacked along axis 0.

    The array is read-only from construction, so the field caches what it
    derives from it: ``spec``, its read-only stacked rfft spectrum of shape
    (3, nx, ny, nz//2 + 1), ``maxnorm``, ``maxabs``, ``component_means``
    and the inverse-curl gate's ``potential_residuals``. ``step`` seeds
    the stepped W's and A's ``spec`` with the spectra it inverted to get
    them, equal to their rfft to roundoff.
    """

    grid: Grid3
    data: np.ndarray

    def __init__(self, grid: Grid3, data, *, spec=None):
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (3,) + grid.shape:
            raise InvalidGrid(
                f"vector data shape {data.shape} does not match grid {grid.shape}"
            )
        _check_finite(data, "vector field")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "data", _read_only(data))
        if spec is not None:
            self.__dict__["spec"] = _read_only(spec)

    @classmethod
    def from_components(cls, grid: Grid3, cx, cy, cz) -> "VectorField":
        out = np.empty((3,) + grid.shape)
        for i, comp in enumerate((cx, cy, cz)):
            out[i] = np.broadcast_to(np.asarray(comp, dtype=np.float64), grid.shape)
        return cls(grid, out)

    @cached_property
    def spec(self) -> np.ndarray:
        """The rfft spectra of the components, one read-only stacked transform."""
        return _read_only(self.grid.rfft(self.data))

    # the maximum pointwise Euclidean magnitude
    maxnorm = cached_property(lambda self: float(np.sqrt(np.max(magnitude2(self)))))
    # max(max x, -min x) is max|x| exactly, without an |x| temporary
    maxabs = cached_property(lambda self: float(max(self.data.max(), -self.data.min())))
    component_means = cached_property(lambda self: tuple(float(np.mean(c)) for c in self.data))

    @cached_property
    def potential_residuals(self) -> tuple[float, float]:
        """What the inverse-curl gate measures, from ``spec``: (div_w, mean_w) =
        (max|div w| min(h), max|component mean|) / max|w|."""
        scale = max(self.maxabs, config.TOL["underflow"])
        div_w = div(self).maxabs * min(self.grid.spacing) / scale
        return div_w, max(abs(m) for m in self.component_means) / scale


# -- pointwise algebra -------------------------------------------------------


def dot(a: VectorField, b: VectorField) -> np.ndarray:
    """The array ax*bx + ay*by + az*bz + 0.0 in that order, by ufuncs that honour
    ``np.errstate``; the + 0.0 turns a -0.0 sum into +0.0. Unchecked."""

    def kernel(o, x, y):
        np.multiply(x[0], y[0], out=o)
        tmp = np.multiply(x[1], y[1])
        o += tmp
        o += np.multiply(x[2], y[2], out=tmp)
        o += 0.0

    out = np.empty(a.grid.shape)
    pointwise(kernel, out, a.data, b.data)
    return out


def cross_parts(a, b, out: np.ndarray) -> np.ndarray:
    """Components of a x b, for two sequences of three component arrays,
    written into the stack of three ``out`` x-slab by x-slab (``pointwise``);
    returns ``out``. Each entry is rounded as ``a*b - c*d`` rounds it.
    """

    def kernel(o, ax, ay, az, bx, by, bz):
        tmp = np.empty_like(o[0])
        for oc, (p, q, r, s) in zip(o, ((ay, bz, az, by), (az, bx, ax, bz), (ax, by, ay, bx))):
            np.multiply(p, q, out=oc)
            oc -= np.multiply(r, s, out=tmp)

    pointwise(kernel, out, *a, *b)
    return out


def cross(a: VectorField, b: VectorField) -> VectorField:
    return VectorField(a.grid, cross_parts(a.data, b.data, out=np.empty((3,) + a.grid.shape)))


def magnitude2(a: VectorField) -> np.ndarray:
    """The array x^2 + y^2 + z^2 as ``dot(a, a)``: np.sum(a.data**2, axis=0) bit for bit."""
    return dot(a, a)


# -- spectral calculus -------------------------------------------------------


def grad(s: ScalarField) -> VectorField:
    """Spectral gradient; exact for band-limited fields."""
    g = s.grid
    spec = g.rfft(s.data)
    parts = np.empty((3,) + spec.shape, dtype=complex)
    for ik, p in zip(g.ik, parts):
        np.multiply(ik, spec, out=p)
    return VectorField(g, g.irfft(parts, overwrite=True))


def div(v: VectorField) -> ScalarField:
    """Spectral divergence, from the field's cached spectra."""
    g = v.grid
    (ikx, iky, ikz), (sx, sy, sz) = g.ik, v.spec
    acc = ikx * sx
    acc += iky * sy
    acc += ikz * sz
    return ScalarField(g, g.irfft(acc, overwrite=True))


def curl(v: VectorField) -> VectorField:
    """Spectral curl; div(curl v) vanishes to roundoff.

    One stacked forward transform of the components, ik x their spectra in
    one preallocated stack, and one stacked inverse in place in it.
    """
    g = v.grid
    s = g.rfft(v.data)
    c = cross_parts(g.ik, s, out=np.empty_like(s))
    del s
    return VectorField(g, g.irfft(c, overwrite=True))


def require_potential(w: VectorField) -> None:
    """The inverse-curl gate on ``w.potential_residuals``: raises
    NonZeroMeanVorticity (net flux through a fundamental torus, so no
    periodic potential) or NotDivergenceFree past their tolerances."""
    div_w, mean_w = w.potential_residuals
    mean_tol = config.TOL["zero_mean_rel"]
    div_tol = config.TOL["div_free_rel"]
    if mean_w > mean_tol:
        raise NonZeroMeanVorticity(f"relative component mean {mean_w:g} exceeds {mean_tol:g}")
    if div_w > div_tol:
        raise NotDivergenceFree(f"relative divergence residual {div_w:g} exceeds {div_tol:g}")


def inverse_curl(w: VectorField) -> VectorField:
    """Vector potential inverse: the unique U with curl U = w, div U = 0, zero mean.

    The harmonic (constant) part is set to zero, which fixes the gauge
    deterministically and makes helicity values reproducible. ``w`` must
    pass ``require_potential``, whose errors this raises. U is solved from
    ``w.spec``, so a gated field costs one stacked inverse of three components.
    """
    require_potential(w)
    g = w.grid
    c = cross_parts(g.ik, w.spec, out=np.empty_like(w.spec))
    c *= g.inv_k2
    return VectorField(g, g.irfft(c, overwrite=True))


def curl_drift(g: Grid3, a, w) -> float:
    """L2 norm of curl(A) - W relative to that of W (absolute when W vanishes),
    from the rfft spectra ``a`` of A and ``w`` of W: a Parseval sum, with
    curl(A) formed in one preallocated stack and W subtracted in place."""
    d = cross_parts(g.ik, a, out=np.empty_like(a))
    num = den = 0.0
    for dc, wc in zip(d, w):
        dc -= wc
        num += float(np.sum((dc.real**2 + dc.imag**2) * g.plane_weights))
        den += float(np.sum((wc.real**2 + wc.imag**2) * g.plane_weights))
    return float(np.sqrt(num / den if den > 0.0 else num * g._mode_volume))


def spectral_tail_fraction(v: VectorField) -> float:
    """Fraction of spectral energy in the modes with |index| >= 3n/8 on some axis.

    A cheap periodicity diagnostic: sampled non-periodic data (ramps,
    sawtooths) puts O(1) energy near the Nyquist shell. The band lies below
    the Nyquist planes, which first derivatives zero out.
    """
    g = v.grid
    high = ~g.mode_mask(lambda idx, m: 8 * idx < 3 * m)
    total = tail = 0.0
    for spec in v.spec:
        p = np.abs(spec) ** 2 * g.plane_weights
        total += float(p.sum())
        tail += float(p[high].sum())
    if total == 0.0:
        return 0.0
    return tail / total


def random_band_limited_scalar(grid: Grid3, kmax: int, seed: int) -> ScalarField:
    """Deterministic zero-mean smooth test scalar with modes confined to |k_i| <= kmax.

    Used by gauge-invariance checks and property tests; the seed pins the
    field exactly.
    """
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.shape)
    spec = grid.rfft(data)
    spec = np.where(grid.mode_mask(lambda idx, m: idx <= kmax), spec, 0.0)
    spec[0, 0, 0] = 0.0
    out = grid.irfft(spec, overwrite=True)
    peak = np.max(np.abs(out))
    if peak > 0:
        out = out / peak
    return ScalarField(grid, out)

