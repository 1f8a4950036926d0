"""Test-only field builders shared by several test modules."""

import numpy as np

from wring import fieldcore
from wring.fieldcore import VectorField, curl, random_band_limited_scalar


def split_every_stack(monkeypatch):
    """Let stacked transforms split over the FFT lanes on every grid, so the
    small grids of the tests run the worker lanes too."""
    monkeypatch.setattr(fieldcore, "_SERIAL_MAX_POINTS", 0)


def random_band_limited_vector(grid, kmax, seed, *, div_free=False):
    """Deterministic band-limited vector field; with ``div_free``, the curl of
    one, which is solenoidal with zero mean and band-limited alike."""
    comps = [random_band_limited_scalar(grid, kmax, seed + 7 * i).data for i in range(3)]
    v = VectorField(grid, np.stack(comps))
    return curl(v) if div_free else v


def two_thirds(grid):
    """The 2/3-rule mask in the rfft layout (True = keep): |mode index| <= m//3 on every axis."""
    return grid.mode_mask(lambda idx, m: idx <= m // 3)


def curves_doc(cs):
    """The JSON curves document of a CurveSet, as ``CurveSet.from_json_dict`` reads it."""
    out = {"fluxes": list(cs.fluxes)}
    if cs.curves is not None:
        out["curves"] = [c.tolist() for c in cs.curves]
    if cs.linking is not None:
        out["linking"] = cs.linking.tolist()
    return out
