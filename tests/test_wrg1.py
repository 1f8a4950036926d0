"""WRG1 container: bit-exact round trips and format validation."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest

from wring import wrg1
from wring.errors import FormatError, InvalidGrid
from wring.fieldcore import Grid3, VectorField
from wring.fieldzoo import FieldBundle

from helpers import random_band_limited_vector


@pytest.fixture
def grid():
    return Grid3((16, 8, 12), (1.0, 2.5, 2 * np.pi))


def test_round_trip_bit_exact(tmp_path, grid):
    rng = np.random.default_rng(0)
    s = rng.standard_normal(grid.shape)
    v = rng.standard_normal((3,) + grid.shape)
    path = tmp_path / "fields.wrg"
    meta = {"family": "test", "params": {"alpha": 0.25}}
    wrg1.write_fields(path, grid, {"s": s, "v": v}, meta)
    grid2, arrays, meta2 = wrg1.read_fields(path)
    assert grid2 == grid
    assert meta2 == meta
    assert list(arrays) == ["s", "v"]
    for name, a in (("s", s), ("v", v)):
        assert type(arrays[name]) is np.ndarray and arrays[name].dtype == np.float64
        assert arrays[name].tobytes() == a.tobytes() and arrays[name].shape == a.shape
        assert not arrays[name].flags.writeable


def test_write_read_write_identical_bytes(tmp_path, grid):
    v = random_band_limited_vector(grid, 3, seed=5)
    p1 = tmp_path / "a.wrg"
    p2 = tmp_path / "b.wrg"
    wrg1.write_fields(p1, grid, {"v": v.data}, {"k": 1})
    grid2, arrays, meta = wrg1.read_fields(p1)
    wrg1.write_fields(p2, grid2, {"v": arrays["v"]}, meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_bytes_match_a_tobytes_oracle(tmp_path, grid):
    # a non-contiguous scalar takes the copying path, the vector the direct one
    rng = np.random.default_rng(1)
    s = rng.standard_normal(grid.shape)[::-1]
    v = rng.standard_normal((3,) + grid.shape)
    meta = {"k": [1, 2.5]}
    path = tmp_path / "f.wrg"
    wrg1.write_fields(path, grid, {"s": s, "v": v}, meta)
    header = {
        "grid": {"n": list(grid.n), "box": list(grid.box)},
        "fields": [{"name": "s", "kind": "scalar"}, {"name": "v", "kind": "vector"}],
        "meta": meta,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    arrays = [s, *v]
    oracle = wrg1.MAGIC + struct.pack("<II", wrg1.VERSION, len(blob)) + blob
    oracle += b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    assert path.read_bytes() == oracle


def test_fixed_bundle_hash(tmp_path):
    # exact arithmetic only, so the bytes do not depend on the FFT library
    g = Grid3((8, 8, 8), (1.0, 2.0, 3.0))
    ramp = np.arange(3 * 512).reshape((3,) + g.shape)
    A = VectorField(g, ramp / 7.0)
    W = VectorField(g, (ramp % 11 - 5) / 3.0)
    path = tmp_path / "fixed.wrg"
    FieldBundle(A, W, {"family": "fixed", "params": {"k": 1}}).save(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "5f229968440f05e0f0f31efef3cc45b856f3c2987c40c8034e552bee056b80e8"


def test_array_of_another_shape_rejected(tmp_path, grid):
    # a scalar is grid.shape and a vector (3,) + grid.shape, nothing else;
    # the check runs before the file is opened, after a field that passes it
    path = tmp_path / "g.wrg"
    for shape in [(16, 8, 10), (8, 16, 12), (2, 16, 8, 12), (3, 16, 8, 10), (16, 8, 12, 3), (3,), ()]:
        arrays = {"v": np.zeros((3,) + grid.shape), "s": np.zeros(shape)}
        with pytest.raises(InvalidGrid, match=re.escape(f"field 's' has shape {shape}")):
            wrg1.write_fields(path, grid, arrays)
        assert not path.exists()


def test_header_only_file_round_trips(tmp_path, grid):
    path = tmp_path / "e.wrg"
    wrg1.write_fields(path, grid, {}, {"note": "no fields"})
    assert wrg1.read_fields(path) == (grid, {}, {"note": "no fields"})


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.wrg"
    path.write_bytes(b"NOTWRG1!" + b"\x00" * 32)
    with pytest.raises(FormatError):
        wrg1.read_fields(path)


def test_truncated_data_rejected(tmp_path, grid):
    v = random_band_limited_vector(grid, 3, seed=6)
    path = tmp_path / "t.wrg"
    wrg1.write_fields(path, grid, {"v": v.data})
    raw = path.read_bytes()
    path.write_bytes(raw[:-64])
    with pytest.raises(FormatError):
        wrg1.read_fields(path)


def test_trailing_bytes_rejected(tmp_path, grid):
    v = random_band_limited_vector(grid, 3, seed=7)
    path = tmp_path / "t.wrg"
    wrg1.write_fields(path, grid, {"v": v.data})
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(FormatError):
        wrg1.read_fields(path)


def test_header_is_16_bytes_plus_json(tmp_path, grid):
    path = tmp_path / "h.wrg"
    wrg1.write_fields(path, grid, {"s": np.zeros(grid.shape)}, {"note": "header check"})
    raw = path.read_bytes()
    assert raw[:8] == b"WRG1\x00\x00\x00\x00"
    version = int.from_bytes(raw[8:12], "little")
    meta_len = int.from_bytes(raw[12:16], "little")
    assert version == 1
    import json

    meta = json.loads(raw[16 : 16 + meta_len])
    assert meta["meta"]["note"] == "header check"


def _write_raw(path, n, fields, data=b"", meta={}):
    header = {"grid": {"n": n, "box": [1.0, 1.0, 1.0]}, "fields": fields, "meta": meta}
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(wrg1.MAGIC + struct.pack("<II", wrg1.VERSION, len(blob)) + blob + data)


@pytest.mark.parametrize(
    "entry", [{"kind": "scalar"}, {"name": "s"}, {"name": "s", "kind": "tensor"}, "s"]
)
def test_bad_field_entry_rejected(tmp_path, grid, entry):
    path = tmp_path / "e.wrg"
    _write_raw(path, list(grid.n), [entry], np.zeros(grid.shape).tobytes())
    with pytest.raises(FormatError):
        wrg1.read_fields(path)


def test_field_declared_twice_rejected(tmp_path, grid):
    path = tmp_path / "d.wrg"
    entries = [{"name": "v", "kind": "vector"}, {"name": "s", "kind": "scalar"}, {"name": "v", "kind": "vector"}]
    _write_raw(path, list(grid.n), entries, np.zeros((7,) + grid.shape).tobytes())
    with pytest.raises(FormatError, match=re.escape(f"{path}: field 'v' is declared twice")):
        wrg1.read_fields(path)


@pytest.mark.parametrize("n", [[15, 16, 16], [16.5, 16, 16]])
def test_bad_grid_rejected(tmp_path, n):
    path = tmp_path / "g.wrg"
    _write_raw(path, n, [])
    with pytest.raises(FormatError):
        wrg1.read_fields(path)


@pytest.mark.parametrize("meta", [[1, 2], "x", None])
def test_non_object_meta_rejected(tmp_path, grid, meta):
    path = tmp_path / "m.wrg"
    _write_raw(path, list(grid.n), [], meta=meta)
    with pytest.raises(FormatError):
        wrg1.read_fields(path)


@pytest.mark.parametrize(
    "meta", [{"claims": 5}, {"claims": {"helicity": "x"}}, {"claims": {"gv": [0]}}, {"diffeo": 1}]
)
def test_bundle_meta_of_wrong_type_rejected(tmp_path, grid, meta):
    from wring.fieldzoo import FieldBundle

    path = tmp_path / "b.wrg"
    zeros = np.zeros((3,) + grid.shape)
    wrg1.write_fields(path, grid, {"A": zeros, "W": zeros}, meta)
    with pytest.raises(FormatError):
        FieldBundle.load(path)
