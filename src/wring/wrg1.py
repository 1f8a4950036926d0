"""WRG1 binary field container.

Layout, all little-endian:

    bytes 0..7    magic  b"WRG1\\x00\\x00\\x00\\x00"
    bytes 8..11   uint32 format version (currently 1)
    bytes 12..15  uint32 byte length of the JSON metadata block
    ...           UTF-8 JSON metadata
    ...           float64 arrays, C order, in the order declared by
                  metadata["fields"]; a "scalar" entry is one nx*ny*nz
                  array, a "vector" entry is three of them (x, y, z)

The metadata block records grid dims and box lengths, taken from the
fields written (which must share one grid), the ordered field
declarations (each name at most once), and free-form provenance (family
name, creation parameters, claims), as strict JSON: no NaN, Infinity or
number that overflows float64.
The data size it declares is checked against the file size before any array
is read. Round-trips are bit-exact: arrays are written from their own
buffers and read with frombuffer(), as read-only arrays on the file bytes.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import FormatError, InvalidGrid
from .fieldcore import Grid3, ScalarField, VectorField

MAGIC = b"WRG1\x00\x00\x00\x00"
VERSION = 1


def _meta_bytes(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text} is not a finite float64 number")
    return value


def write_fields(path, fields: dict, meta: dict | None = None) -> None:
    """Write named scalar/vector fields to a WRG1 file.

    ``fields`` maps name -> ScalarField | VectorField; insertion order is the
    storage order. The header grid is the fields' own: an empty mapping
    raises ValueError, and a field on another grid than the first
    InvalidGrid naming it, before the file is opened.
    """
    grid = None
    declared = []
    arrays: list[np.ndarray] = []
    for name, f in fields.items():
        if isinstance(f, ScalarField):
            declared.append({"name": name, "kind": "scalar"})
            arrays.append(f.data)
        elif isinstance(f, VectorField):
            declared.append({"name": name, "kind": "vector"})
            arrays.extend(f.data)
        else:
            raise TypeError(f"unsupported field type for {name!r}: {type(f)}")
        grid = grid or f.grid
        if f.grid != grid:
            raise InvalidGrid(f"{path}: field {name!r} is on {f.grid}, the first field on {grid}")
    if grid is None:
        raise ValueError(f"{path}: no fields to write; the header grid is taken from them")
    header_meta = {
        "grid": {"n": list(grid.n), "box": list(grid.box)},
        "fields": declared,
        "meta": meta or {},
    }
    blob = _meta_bytes(header_meta)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        for arr in arrays:
            # the array's own buffer: a contiguous little-endian float64
            # array is written without a copy
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def read_fields(path) -> tuple[Grid3, dict, dict]:
    """Read a WRG1 file; returns (grid, fields, meta)."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:8] != MAGIC:
            raise FormatError(f"{path}: not a WRG1 file (bad magic)")
        version, meta_len = struct.unpack("<II", head[8:16])
        if version != VERSION:
            raise FormatError(f"{path}: unsupported WRG1 version {version}")
        blob = fh.read(meta_len)
        if len(blob) != meta_len:
            raise FormatError(f"{path}: truncated metadata block")
        try:
            header = json.loads(blob.decode("utf-8"), parse_constant=_finite_float, parse_float=_finite_float)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: invalid metadata JSON: {exc}") from exc
        try:
            grid = Grid3(tuple(header["grid"]["n"]), tuple(header["grid"]["box"]))
            declared = list(header["fields"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: invalid grid or field list in metadata: {exc}") from exc
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise FormatError(f"{path}: metadata 'meta' must be an object, got {meta!r}")
        names = set()
        for i, entry in enumerate(declared):
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("name"), str)
                and entry.get("kind") in ("scalar", "vector")
            ):
                raise FormatError(
                    f"{path}: field entry {i} needs a string 'name' and a 'kind' of "
                    f"'scalar' or 'vector', got {entry!r}"
                )
            if entry["name"] in names:
                raise FormatError(f"{path}: field {entry['name']!r} is declared twice")
            names.add(entry["name"])
        npts = grid.n[0] * grid.n[1] * grid.n[2]
        # the sizes are compared before any read, so a header that declares
        # more data than the file holds never allocates it
        declared_bytes = sum(8 * npts * (3 if e["kind"] == "vector" else 1) for e in declared)
        file_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if declared_bytes != file_bytes:
            raise FormatError(
                f"{path}: the declared fields take {declared_bytes} data bytes, "
                f"the file holds {file_bytes} after the metadata"
            )
        fields: dict = {}
        for entry in declared:
            count = 3 if entry["kind"] == "vector" else 1
            arr = np.frombuffer(fh.read(8 * npts * count), dtype="<f8").astype(np.float64, copy=False)
            if count == 3:
                fields[entry["name"]] = VectorField(grid, arr.reshape((3,) + grid.shape))
            else:
                fields[entry["name"]] = ScalarField(grid, arr.reshape(grid.shape))
    return grid, fields, meta
