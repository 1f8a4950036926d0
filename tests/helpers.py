"""Test-only field builders shared by several test modules."""

import numpy as np

from wring.fieldcore import VectorField, project_solenoidal, random_band_limited_scalar


def random_band_limited_vector(grid, kmax, seed, *, div_free=False):
    """Deterministic band-limited vector field, optionally solenoidal with zero mean."""
    comps = [random_band_limited_scalar(grid, kmax, seed + 7 * i).data for i in range(3)]
    v = VectorField(grid, np.stack(comps))
    if not div_free:
        return v
    proj = project_solenoidal(grid, v.spec)
    return VectorField(grid, proj.data - np.array(proj.component_means())[:, None, None, None])


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
