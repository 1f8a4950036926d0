"""CLI fuzz contract: every drawn input gets a documented exit code.

Hypothesis draws WRG1 headers and payload lengths for ``analyze``,
``evolve`` and ``diffeo``, curves documents for ``link`` and float text for
``thurston``. Each call must return an exit code in {0, 2, 3, 4, 5} with no
exception escaping ``cli.main``, and a command that writes JSON to stdout
must write strict JSON (no NaN or Infinity).
"""

import contextlib
import functools
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wring import cli, fieldzoo, linkref, wrg1
from wring.fieldcore import Grid3

EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ = settings(max_examples=60, derandomize=True, database=None, deadline=None)
TWO_PI = 2.0 * math.pi
# payloads are built only up to this many points, so no draw writes a large file
MAX_BUILT_POINTS = 16**3


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def call(argv, json_out: bool) -> int:
    """Run ``cli.main``; an argparse exit counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in EXIT_CODES, (argv, rc, err.getvalue())
    if json_out and out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    if json_out and rc == 0:
        assert out.getvalue(), argv
    return rc


# -- WRG1 headers ------------------------------------------------------------

INTEGER = st.one_of(st.integers(), st.sampled_from([2**63, 10**400, -(10**400)]))
HOSTILE = st.sampled_from(
    [None, True, "8", [8], {}, 0, -8, 7, 8.5, math.inf, -math.inf, math.nan, 2**70, 10**400, "x"]
)
GRID_N = st.one_of(
    st.just([8, 8, 8]),
    st.lists(st.one_of(st.sampled_from([8, 10, 16, 65536]), HOSTILE), min_size=2, max_size=4),
    HOSTILE,
)
BOX_LENGTH = st.one_of(st.floats(), INTEGER, HOSTILE)
GRID_BOX = st.one_of(
    st.just([TWO_PI] * 3),
    st.lists(st.floats(1e-6, 1e6), min_size=3, max_size=3),
    st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), min_size=3, max_size=3),
    st.lists(BOX_LENGTH, max_size=4),
    HOSTILE,
)
NAME = st.one_of(st.sampled_from(["A", "W", "U"]), HOSTILE, st.lists(st.text(max_size=2), max_size=2))
KIND = st.one_of(st.sampled_from(["vector", "scalar"]), HOSTILE)
ENTRY = st.one_of(
    st.fixed_dictionaries({"name": NAME, "kind": KIND}),
    st.fixed_dictionaries({}, optional={"name": NAME, "kind": KIND}),
    HOSTILE,
)
BUNDLE_FIELDS = [{"name": "A", "kind": "vector"}, {"name": "W", "kind": "vector"}]
FIELDS = st.one_of(st.just(BUNDLE_FIELDS), st.lists(ENTRY, max_size=3), HOSTILE)
JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), INTEGER, st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
META = st.one_of(
    st.just({}),
    st.fixed_dictionaries(
        {},
        optional={
            "family": JSON_VALUE,
            "claims": st.one_of(
                st.fixed_dictionaries({}, optional={"helicity": JSON_VALUE, "gv": JSON_VALUE, "integrable": JSON_VALUE}),
                JSON_VALUE,
            ),
            "diffeo": JSON_VALUE,
            "params": JSON_VALUE,
        },
    ),
    JSON_VALUE,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# field scales: at the load gate's bounds (1e-100, 1e100) and past them,
# and in range where the products the analysis forms overflow float64
SCALES = [1.0, 1e-101, 1e-60, 1e-40, 1e40, 1e50, 1e90, 1e99, 1e101]


@functools.cache
def samples(scale: float = 1.0) -> bytes:
    """float64 samples of a valid n=8 bundle (A then W) times ``scale``, repeated to fill any payload."""
    b = fieldzoo.gen_clebsch(Grid3((8, 8, 8), (TWO_PI,) * 3))
    return (scale * np.concatenate([b.A.data.ravel(), b.W.data.ravel()])).astype("<f8").tobytes()


def _declared_bytes(n, fields):
    """Data bytes a well-formed header declares, or None."""
    try:
        npts = math.prod(int(v) for v in n)
        count = sum(3 if e["kind"] == "vector" else 1 for e in fields)
    except (TypeError, ValueError, OverflowError, KeyError):
        return None
    return 8 * npts * count if 0 < npts <= MAX_BUILT_POINTS else None


VALID = {"n": [8, 8, 8], "box": [TWO_PI] * 3, "fields": BUNDLE_FIELDS, "meta": {}}
DRAWN = {"n": GRID_N, "box": GRID_BOX, "fields": FIELDS, "meta": META}


def draw_wrg1(data, path) -> None:
    """Write a WRG1 file whose header has one drawn part, or all four, and a drawn
    payload length, of samples at a drawn scale."""
    drawn = data.draw(st.sampled_from(["n", "box", "fields", "meta", "size", "all"]))
    header = {key: data.draw(DRAWN[key]) if drawn in (key, "all") else VALID[key] for key in VALID}
    blob = json.dumps(
        {"grid": {"n": header["n"], "box": header["box"]}, "fields": header["fields"], "meta": header["meta"]}
    ).encode()
    exact = _declared_bytes(header["n"], header["fields"])
    if exact is None or drawn in ("size", "all") and data.draw(st.booleans()):
        size = data.draw(st.integers(0, 2 * len(samples())))
    else:
        size = max(exact + data.draw(st.sampled_from([0, 0, 0, -8, 8, -1])), 0)
    unit = samples(data.draw(st.sampled_from(SCALES)))
    payload = (unit * (size // len(unit) + 1))[:size]
    path.write_bytes(wrg1.MAGIC + struct.pack("<II", wrg1.VERSION, len(blob)) + blob + payload)


class TestWrg1Fuzz:
    @FUZZ
    @given(data=st.data())
    def test_analyze(self, workdir, data):
        path = workdir / "in.wrg"
        draw_wrg1(data, path)
        flags = data.draw(st.sampled_from([[], ["--bound"], ["--eta", "velocity", "--bound", "--richardson"]]))
        call(["analyze", str(path), *flags], json_out=True)

    @FUZZ
    @given(data=st.data())
    def test_evolve(self, workdir, data):
        path = workdir / "in.wrg"
        draw_wrg1(data, path)
        call(["evolve", str(path), "--steps", "1", "--out", str(workdir / "out.wrg")], json_out=False)

    @FUZZ
    @given(data=st.data())
    def test_diffeo(self, workdir, data):
        path = workdir / "in.wrg"
        draw_wrg1(data, path)
        call(["diffeo", str(path), "--shear", "x,z,0.3", "--out", str(workdir / "out.wrg")], json_out=False)


# -- curves documents -----------------------------------------------------------

NUMBER = st.one_of(st.floats(), INTEGER, st.sampled_from([0, 1, -1, 1.5, -(2**63), True, None, "1", [1]]))
FLUXES = st.one_of(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
    st.lists(NUMBER, min_size=2, max_size=2),
    st.lists(NUMBER, max_size=3),
    NUMBER,
)


class TestCurvesFuzz:
    # a class mark, so the test's source, and with it the derandomized
    # draws, stay the same; some of them overflow near the float64 limit
    pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

    @FUZZ
    @given(data=st.data())
    def test_link(self, workdir, data):
        """A valid two-curve document with its fluxes, curves or linking matrix drawn, or all three."""
        drawn = data.draw(st.sampled_from(["fluxes", "curves", "linking", "all"]))
        pair = linkref.hopf_pair(64).to_json_dict()["curves"]
        doc = {"fluxes": [1.0, 2.0], "curves": pair}
        if drawn in ("fluxes", "all"):
            doc["fluxes"] = data.draw(FLUXES)
        if drawn in ("curves", "all"):
            how = data.draw(st.sampled_from(["none", "point", "scaled", "junk"]))
            if how == "none":
                del doc["curves"]
            elif how == "point":
                pair[1][data.draw(st.integers(0, 63))][data.draw(st.integers(0, 2))] = data.draw(NUMBER)
            elif how == "scaled":
                scale = data.draw(st.floats(allow_nan=False, allow_infinity=False))
                doc["curves"] = [[[scale * x for x in p] for p in c] for c in pair]
            else:
                doc["curves"] = data.draw(JSON_VALUE)
        if drawn in ("linking", "all"):
            off = data.draw(NUMBER)
            doc["linking"] = data.draw(st.one_of(st.just([[0, off], [off, 0]]), JSON_VALUE))
        path = workdir / "curves.json"
        path.write_text(json.dumps(doc))
        call(["link", "--curves", str(path)], json_out=True)


# -- thurston float text --------------------------------------------------------

FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    INTEGER.map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "1e-320", "5e-324", "1e308", "0", "-0", "", "x"]),
)


class TestThurstonFuzz:
    @FUZZ
    @given(data=st.data())
    def test_thurston(self, data):
        argv = ["thurston"]
        for flag in ("--slopes", "--fluxes"):
            if data.draw(st.booleans()):
                argv.append(flag + "=" + ",".join(data.draw(st.lists(FLOAT_TEXT, min_size=1, max_size=4))))
        call(argv, json_out=True)
