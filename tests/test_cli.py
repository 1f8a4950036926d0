"""CLI behavior: pipelines, exit codes, determinism."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wring import cli
from wring.fieldzoo import FAMILY_PARAMS, FieldBundle

from helpers import curves_doc


def run(args):
    return cli.main(args)


class TestGenerateAnalyze:
    def test_clebsch_pipeline(self, tmp_path, capsys):
        field = tmp_path / "f.wrg"
        report = tmp_path / "r.json"
        assert run(["generate", "--family", "clebsch", "--n", "32", "--out", str(field)]) == 0
        assert run(["analyze", str(field), "--json", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["integrable"] is True
        assert abs(doc["gv"]) < 1e-6
        assert doc["family"] == "clebsch"
        assert doc["deviations"]["gv"] == doc["gv"]

    def test_beltrami_refused_with_exit_4(self, tmp_path, capsys):
        field = tmp_path / "b.wrg"
        assert run(["generate", "--family", "beltrami", "--n", "16", "--out", str(field)]) == 0
        report = tmp_path / "r.json"
        code = run(["analyze", str(field), "--json", str(report)])
        captured = capsys.readouterr()
        assert code == 4
        assert "integrability residual" in captured.err
        assert "GV undefined" in captured.err
        doc = json.loads(report.read_text())
        assert doc["gv"] is None and doc["integrable"] is False

    def test_generate_with_shear_and_bound(self, tmp_path):
        field = tmp_path / "s.wrg"
        assert (
            run(
                [
                    "generate",
                    "--family",
                    "clebsch",
                    "--n",
                    "32",
                    "--shear",
                    "x,z,0.3,1",
                    "--out",
                    str(field),
                ]
            )
            == 0
        )
        report = tmp_path / "r.json"
        assert run(["analyze", str(field), "--bound", "--json", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["bound"]["slack"] >= -1e-10 * doc["bound"]["C"] * doc["bound"]["enstrophy_rate"]

    def test_bound_solves_for_velocity_once(self, tmp_path, monkeypatch):
        from wring import fieldcore, fieldzoo

        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--out", str(field)])
        calls = []
        original = fieldcore.inverse_curl

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (fieldcore, fieldzoo):
            monkeypatch.setattr(module, "inverse_curl", counted)
        assert run(["analyze", str(field), "--bound", "--json", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("eps", ["1.5", "nan", "-0.1"])
    @pytest.mark.parametrize("family", ["clebsch", "beltrami"])
    def test_eps_outside_unit_interval_exit_2(self, tmp_path, capsys, family, eps):
        # the beltrami file is not integrable: eps is refused before its exit 4
        field, report = tmp_path / "f.wrg", tmp_path / "r.json"
        assert run(["generate", "--family", family, "--n", "16", "--out", str(field)]) == 0
        capsys.readouterr()
        assert run(["analyze", str(field), "--eps", eps, "--json", str(report)]) == 2
        assert "error: eps must lie in [0, 1)" in capsys.readouterr().err
        assert not report.exists()

    def test_density_output(self, tmp_path):
        field = tmp_path / "f.wrg"
        dens = tmp_path / "d.wrg"
        run(["generate", "--family", "kupka", "--n", "32", "--out", str(field)])
        assert run(["analyze", str(field), "--density-out", str(dens), "--json", str(tmp_path / "r.json")]) == 0
        from wring import wrg1

        grid, arrays, meta = wrg1.read_fields(dens)
        assert arrays["gv_density"].shape == grid.shape

    def test_bad_family_exit_2(self, tmp_path):
        assert run(["generate", "--family", "clebsch", "--n", "4", "--out", str(tmp_path / "x.wrg")]) == 2

    def test_unallocatable_grid_exit_2(self, tmp_path, capsys):
        # n^2 float64 samples of one mesh plane alone are 512 TiB: numpy
        # refuses the allocation, and the refusal is a bad argument
        out = tmp_path / "x.wrg"
        assert run(["generate", "--family", "clebsch", "--n", "8388608", "--out", str(out)]) == 2
        assert "error: Unable to allocate" in capsys.readouterr().err
        assert not out.exists()

    def test_hostile_param_exit_2(self, tmp_path):
        code = run(
            [
                "generate",
                "--family",
                "clebsch",
                "--n",
                "16",
                "--param",
                "f=__import__('os').getcwd()",
                "--out",
                str(tmp_path / "x.wrg"),
            ]
        )
        assert code == 2

    def test_non_object_params_exit_2(self, tmp_path):
        out = str(tmp_path / "x.wrg")
        assert run(["generate", "--family", "clebsch", "--n", "16", "--params", "[1]", "--out", out]) == 2

    @pytest.mark.parametrize("power", ["-3", "0", "1", "2.5"])
    def test_bad_kupka_power_exit_2(self, tmp_path, capsys, power):
        out = str(tmp_path / "x.wrg")
        args = ["generate", "--family", "kupka", "--n", "16", "--param", f"power={power}", "--out", out]
        assert run(args) == 2
        assert "power" in capsys.readouterr().err

    def test_unresolved_kupka_names_the_grid_exit_4(self, tmp_path, capsys):
        # at n=8 the sampled profile leaves a z mean no periodic field has
        out = tmp_path / "x.wrg"
        assert run(["generate", "--family", "kupka", "--n", "8", "--out", str(out)]) == 4
        assert "either not periodic or not resolved by the grid (raise n)" in capsys.readouterr().err
        assert not out.exists()

    def test_vanishing_velocity_denominator_exit_4(self, tmp_path, capsys):
        # U = (0, -cos x, 0) for W = (0, 0, sin x), so U.A vanishes for A along x
        from wring import gv
        from wring.errors import MaskTooSmall
        from wring.fieldcore import Grid3, VectorField

        g = Grid3((16, 16, 16), (2 * np.pi,) * 3)
        x, y, _ = g.mesh()
        bundle = FieldBundle(VectorField.from_components(g, 2.0 + np.sin(y), 0.0, 0.0),
                             VectorField.from_components(g, 0.0, 0.0, np.sin(x)))
        path = tmp_path / "b.wrg"
        bundle.save(path)
        for flags in (["--eta", "velocity"], ["--bound"]):
            assert run(["analyze", str(path), *flags]) == 4
            captured = capsys.readouterr()
            assert "U.A is at roundoff level everywhere" in captured.err and captured.out == ""
        with pytest.raises(MaskTooSmall):
            gv.obstruction_bound(FieldBundle.load(path))

    def test_beltrami_bound_block_without_gv(self, tmp_path):
        field = tmp_path / "b.wrg"
        report = tmp_path / "r.json"
        assert run(["generate", "--family", "beltrami", "--n", "16", "--out", str(field)]) == 0
        assert run(["analyze", str(field), "--bound", "--json", str(report)]) == 4
        doc = json.loads(report.read_text())
        assert doc["gv"] is None
        assert doc["bound"]["schema"] == "wring-bound/1"

    def test_kupka_bound_fails_alike_for_both_variants(self, tmp_path, capsys):
        field = tmp_path / "k.wrg"
        assert run(["generate", "--family", "kupka", "--n", "16", "--out", str(field)]) == 0
        capsys.readouterr()
        errors = []
        for eta in ("canonical", "velocity"):
            report, dens = tmp_path / f"{eta}.json", tmp_path / f"{eta}.wrg"
            args = ["analyze", str(field), "--eta", eta, "--bound", "--json", str(report), "--density-out", str(dens)]
            assert run(args) == 4
            captured = capsys.readouterr()
            assert "U.A mask misses" in captured.err and captured.out == ""
            assert not report.exists() and not dens.exists()
            errors.append(captured.err)
        assert errors[0] == errors[1]

    def test_corrupt_magic_exit_3(self, tmp_path):
        bad = tmp_path / "bad.wrg"
        bad.write_bytes(b"GARBAGE!" + b"\x00" * 64)
        assert run(["analyze", str(bad)]) == 3

    def test_non_object_meta_exit_3(self, tmp_path, capsys):
        import struct

        from wring import wrg1

        fields = [{"name": "A", "kind": "vector"}, {"name": "W", "kind": "vector"}]
        header = {"grid": {"n": [16, 16, 16], "box": [1.0, 1.0, 1.0]}, "fields": fields, "meta": [1, 2]}
        blob = json.dumps(header).encode("utf-8")
        bad = tmp_path / "bad.wrg"
        head = wrg1.MAGIC + struct.pack("<II", wrg1.VERSION, len(blob))
        bad.write_bytes(head + blob + np.zeros(6 * 16**3).tobytes())
        out = str(tmp_path / "o.wrg")
        for command in (["analyze", str(bad)], ["diffeo", str(bad), "--shear", "x,z,0.1", "--out", out]):
            assert run(command) == 3
            assert "Traceback" not in capsys.readouterr().err


def _raw_wrg1(path, n="[16, 16, 16]", box="[1.0, 1.0, 1.0]", fields=None, meta="{}", data=None):
    """A WRG1 file with its header given as JSON text, so literals such as 1e400 stay as written."""
    import struct

    from wring import wrg1

    if fields is None:
        fields = '[{"name": "A", "kind": "vector"}, {"name": "W", "kind": "vector"}]'
    blob = f'{{"grid": {{"n": {n}, "box": {box}}}, "fields": {fields}, "meta": {meta}}}'.encode()
    if data is None:
        data = np.zeros(6 * 16**3).tobytes()
    path.write_bytes(wrg1.MAGIC + struct.pack("<II", wrg1.VERSION, len(blob)) + blob + data)


class TestHostileWrg1:
    """Malformed WRG1 headers exit 3 from every command that reads one."""

    COMMANDS = {
        "analyze": lambda src, out: ["analyze", src],
        "evolve": lambda src, out: ["evolve", src, "--steps", "1", "--out", out],
        "diffeo": lambda src, out: ["diffeo", src, "--shear", "x,z,0.1", "--out", out],
    }

    def _exit_3(self, tmp_path, capsys, command, message, **header):
        src = tmp_path / "bad.wrg"
        _raw_wrg1(src, **header)
        assert run(self.COMMANDS[command](str(src), str(tmp_path / "o.wrg"))) == 3
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_overflowing_grid_count(self, tmp_path, capsys, command):
        self._exit_3(tmp_path, capsys, command, "1e400 is not a finite float64", n="[1e400, 16, 16]")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_list_field_name(self, tmp_path, capsys, command):
        fields = '[{"name": ["A"], "kind": "vector"}, {"name": "W", "kind": "vector"}]'
        self._exit_3(tmp_path, capsys, command, "string 'name'", fields=fields)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_declared_size_beyond_file(self, tmp_path, capsys, command):
        src = tmp_path / "bad.wrg"
        _raw_wrg1(src, n="[65536, 65536, 8]", data=b"")
        pad = 200 - src.stat().st_size
        _raw_wrg1(src, n="[65536, 65536, 8]", data=b"\x00" * pad)
        assert src.stat().st_size == 200
        err = self._exit_3(tmp_path, capsys, command, "data bytes", n="[65536, 65536, 8]", data=b"\x00" * pad)
        assert f"take {8 * 6 * 65536 * 65536 * 8} data bytes" in err
        assert f"holds {pad} after the metadata" in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "version, meta_len, message",
        [(2, 2, "unsupported WRG1 version 2"), (1, 100, "truncated metadata block")],
        ids=["version-2", "truncated-metadata"],
    )
    def test_bad_preamble(self, tmp_path, capsys, command, version, meta_len, message):
        import struct

        from wring import wrg1

        src = tmp_path / "bad.wrg"
        src.write_bytes(wrg1.MAGIC + struct.pack("<II", version, meta_len) + b"{}")
        assert run(self.COMMANDS[command](str(src), str(tmp_path / "o.wrg"))) == 3
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "header, message",
        [
            ({"meta": '{"family": NaN}'}, "NaN is not a finite float64 number"),
            ({"meta": '{"family": 1e400}'}, "1e400 is not a finite float64 number"),
            ({"meta": '{"claims": {"helicity": 1%s}}' % ("0" * 400)}, "claim 'helicity'"),
            ({"meta": '{"deep": %s}' % ("[" * 100000 + "]" * 100000)}, "recursion"),
            ({"box": "[1e300, 1.0, 1.0]"}, "box lengths must lie in"),
            ({"fields": '[{"name": "A", "kind": "scalar"}, {"name": "W", "kind": "vector"}]',
              "data": np.zeros(4 * 16**3).tobytes()}, "must be vectors"),
            ({"fields": '[{"name": "A", "kind": "vector"}, {"name": "W", "kind": "vector"}, '
                        '{"name": "A", "kind": "vector"}]',
              "data": np.zeros(9 * 16**3).tobytes()}, "bad.wrg: field 'A' is declared twice"),
        ],
        ids=["nan-meta", "overflow-meta", "overflow-claim", "deep-meta", "huge-box", "scalar-A", "duplicate-A"],
    )
    def test_header_outside_schema(self, tmp_path, capsys, command, header, message):
        self._exit_3(tmp_path, capsys, command, message, **header)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_file_without_a_or_w(self, tmp_path, capsys, command):
        # analyze's density output holds neither A nor W; a bundle needs both
        field, dens = tmp_path / "f.wrg", tmp_path / "d.wrg"
        assert run(["generate", "--family", "clebsch", "--n", "16", "--out", str(field)]) == 0
        assert run(["analyze", str(field), "--density-out", str(dens)]) == 0
        capsys.readouterr()
        assert run(self.COMMANDS[command](str(dens), str(tmp_path / "o.wrg"))) == 3
        assert "bundle file lacks field 'A'" in capsys.readouterr().err
        only_a = '[{"name": "A", "kind": "vector"}]'
        self._exit_3(tmp_path, capsys, command, "lacks field 'W'", fields=only_a, data=np.zeros(3 * 16**3).tobytes())

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("field, scale", [("A", 1e160), ("W", 1e160), ("W", 1e-160)])
    def test_field_values_out_of_range(self, tmp_path, capsys, command, field, scale):
        # a valid bundle scaled out of [1e-100, 1e100] is refused on load,
        # naming the file and the field, before anything overflows
        from wring import wrg1
        from wring.fieldcore import Grid3
        from wring.fieldzoo import gen_clebsch

        g = Grid3((8, 8, 8), (2 * np.pi,) * 3)
        b = gen_clebsch(g)
        arrays = {"A": b.A.data, "W": b.W.data}
        arrays[field] = arrays[field] * scale
        src = tmp_path / "scaled.wrg"
        wrg1.write_fields(src, g, arrays, {"family": "clebsch"})
        assert run(self.COMMANDS[command](str(src), str(tmp_path / "o.wrg"))) == 3
        captured = capsys.readouterr()
        assert f"{src}: field '{field}' has max|component|" in captured.err
        assert "[1e-100, 1e+100]" in captured.err
        assert captured.out == ""


class TestOverflowingScale:
    """A bundle scaled inside the load range until a product overflows
    float64 exits 4 naming the quantity and its field scale, with no numpy
    warning and no report; below that it is analyzed as before."""

    def _scaled(self, tmp_path, scale):
        from wring import wrg1
        from wring.fieldcore import Grid3
        from wring.fieldzoo import gen_clebsch

        g = Grid3((8, 8, 8), (2 * np.pi,) * 3)
        b = gen_clebsch(g)
        src = tmp_path / "scaled.wrg"
        wrg1.write_fields(src, g, {"A": b.A.data * scale, "W": b.W.data * scale}, {"family": "clebsch"})
        return str(src)

    @pytest.mark.parametrize(
        "scale, args, quantity",
        [
            (1e50, ["analyze", "--bound"], "the bound constant C"),
            (1e50, ["analyze", "--eta", "velocity", "--bound"], "the bound constant C"),
            (1e90, ["analyze", "--bound"], "the invariant density"),
            (1e90, ["analyze", "--eta", "velocity", "--bound"], "the invariant density"),
            (1e90, ["evolve", "--steps", "1"], "the invariant density"),
        ],
    )
    def test_overflow_exit_4(self, tmp_path, capsys, scale, args, quantity):
        report = tmp_path / "report.json"
        out = ["--json", str(report)] if args[0] == "analyze" else ["--series", str(report)]
        assert run([args[0], self._scaled(tmp_path, scale), *args[1:], *out]) == 4
        captured = capsys.readouterr()
        assert f"error: {quantity}" in captured.err
        assert "overflows float64 at field scale max|G| = " in captured.err
        assert captured.out == "" and not report.exists()

    def test_in_range_scale_still_analyzed(self, tmp_path, capsys):
        assert run(["analyze", self._scaled(tmp_path, 1e30), "--eta", "velocity", "--bound"]) == 0
        bound = json.loads(capsys.readouterr().out)["bound"]
        assert 0.0 < bound["C"] < 1e-100


class TestStoredVelocity:
    """A U stored by older versions is read and ignored; the velocity comes from W."""

    def _with_u(self, src, dst, U):
        from wring import wrg1

        grid, arrays, meta = wrg1.read_fields(src)
        wrg1.write_fields(dst, grid, {"A": arrays["A"], "W": arrays["W"], "U": U}, meta)

    def test_stored_velocity_is_ignored(self, tmp_path):
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--shear", "x,z,0.3,1", "--out", str(field)])
        stale = tmp_path / "stale.wrg"
        self._with_u(field, stale, np.random.default_rng(1).standard_normal((3, 16, 16, 16)))
        reports = []
        for path in (field, stale):
            report = tmp_path / (path.stem + ".json")
            assert run(["analyze", str(path), "--eta", "velocity", "--bound", "--json", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_non_finite_stored_velocity_is_ignored(self, tmp_path):
        # a field nothing reads is never checked: the report is the one without it
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--shear", "x,z,0.3,1", "--out", str(field)])
        U = np.zeros((3, 16, 16, 16))
        U[1, 2, 3, 4] = np.nan
        stale = tmp_path / "stale.wrg"
        self._with_u(field, stale, U)
        reports = []
        for path in (field, stale):
            report = tmp_path / (path.stem + ".json")
            assert run(["analyze", str(path), "--json", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("name", ["A", "W"])
    def test_non_finite_a_or_w_exit_4(self, tmp_path, capsys, name):
        from wring import wrg1

        field, bad, report = tmp_path / "f.wrg", tmp_path / "bad.wrg", tmp_path / "r.json"
        run(["generate", "--family", "clebsch", "--n", "16", "--out", str(field)])
        grid, arrays, meta = wrg1.read_fields(field)
        arrays = {**arrays, name: arrays[name].copy()}
        arrays[name][2, 3, 4, 5] = np.inf if name == "W" else np.nan
        wrg1.write_fields(bad, grid, arrays, meta)
        capsys.readouterr()
        assert run(["analyze", str(bad), "--json", str(report)]) == 4
        assert "vector field contains non-finite entries" in capsys.readouterr().err
        assert not report.exists()

    def test_divergent_vorticity_refused_despite_stored_velocity(self, tmp_path, capsys):
        from wring import wrg1
        from wring.fieldcore import Grid3, grad, random_band_limited_scalar

        g = Grid3((16, 16, 16), (2 * np.pi,) * 3)
        W = grad(g, random_band_limited_scalar(g, 3, seed=4)).data
        path = tmp_path / "divergent.wrg"
        wrg1.write_fields(path, g, {"A": W, "W": W, "U": W}, {"family": "test"})
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["analyze", str(path), "--json", str(report)]) == 4
        assert "divergence residual" in capsys.readouterr().err
        assert not report.exists()
        assert run(["evolve", str(path), "--steps", "1"]) == 4
        assert "divergence residual" in capsys.readouterr().err


class TestDeterminism:
    def test_generate_twice_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.wrg", tmp_path / "b.wrg"
        for path in (a, b):
            run(["generate", "--family", "morse", "--n", "16", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_analyze_twice_identical_reports(self, tmp_path):
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--out", str(field)])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run(["analyze", str(field), "--json", str(r1)])
        run(["analyze", str(field), "--json", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()


class TestEvolveAndDiffeo:
    def test_evolve_writes_series_and_state(self, tmp_path):
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--shear", "x,z,0.3,1", "--out", str(field)])
        series = tmp_path / "s.csv"
        out = tmp_path / "out.wrg"
        code = run(
            [
                "evolve",
                str(field),
                "--steps",
                "2",
                "--dt",
                "0.02",
                "--series",
                str(series),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = series.read_text().splitlines()
        assert lines[0].startswith("t,helicity,gv,energy")
        assert len(lines) == 4  # header + initial sample + 2 steps
        assert out.exists()

    def test_evolve_outputs_are_deterministic(self, tmp_path):
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--shear", "x,z,0.3,1", "--out", str(field)])
        outputs = []
        for i in (1, 2):
            series, out = tmp_path / f"s{i}.csv", tmp_path / f"out{i}.wrg"
            args = ["evolve", str(field), "--steps", "3", "--series", str(series), "--out", str(out)]
            assert run(args) == 0
            outputs.append((series.read_bytes(), out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_negative_dt_steps_backward(self, tmp_path):
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--shear", "x,z,0.3,1", "--out", str(field)])
        series = tmp_path / "s.csv"
        code = run(["evolve", str(field), "--dt", "-0.01", "--time", "0.05", "--series", str(series)])
        assert code == 0
        rows = series.read_text().splitlines()[1:]
        t = [float(r.split(",")[0]) for r in rows]
        assert len(t) == 6  # initial sample + 5 steps
        assert t[0] == 0.0 and all(b < a for a, b in zip(t, t[1:]))
        assert t[-1] == pytest.approx(-0.05, rel=1e-12)

    def test_cfl_violation_exit_4(self, tmp_path):
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--shear", "x,z,0.3,1", "--out", str(field)])
        assert run(["evolve", str(field), "--steps", "1", "--dt", "50.0"]) == 4

    @pytest.mark.parametrize(
        "bad",
        [
            ["--record-every", "0"],
            ["--dt", "0"],
            ["--cfl", "0"],
            ["--dt", "nan"],
            ["--steps", "-1"],
        ],
    )
    def test_bad_evolve_argument_exit_2(self, tmp_path, capsys, bad):
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--shear", "x,z,0.3,1", "--out", str(field)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["evolve", str(field), "--steps", "1", *bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert bad[0] in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "bad, flag",
        [
            (["--time", "1e308"], "--time"),
            (["--cfl", "1e-310"], "--time"),
            (["--time", "1e300", "--dt", "1e-300"], "--time"),
            (["--cfl", "5e-324"], "--cfl"),
            (["--cfl", "5e-324", "--steps", "3"], "--cfl"),
            (["--time", "1e300"], "--time"),
            (["--time", "1e17", "--dt", "1"], "--time"),
            (["--steps", str(2**53 + 1)], "--steps"),
        ],
    )
    def test_unusable_step_exit_2(self, tmp_path, capsys, bad, flag):
        # a CFL step that underflows to zero, or a step count past float64
        # or past 2**53 (where t + dt stops advancing t), is refused before
        # any step, naming the option and the step
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--shear", "x,z,0.3,1", "--out", str(field)])
        capsys.readouterr()
        series = tmp_path / "s.csv"
        assert run(["evolve", str(field), *bad, "--series", str(series)]) == 2
        err = capsys.readouterr().err
        assert flag in err and "step" in err and "Traceback" not in err
        assert not series.exists()

    def test_cfl_refusal_prints_a_short_number(self, tmp_path, capsys):
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--shear", "x,z,0.3,1", "--out", str(field)])
        capsys.readouterr()
        assert run(["evolve", str(field), "--dt", "1e307", "--steps", "1"]) == 4
        err = capsys.readouterr().err
        assert "CFL number 2.52e+307 in the step" in err and len(err) < 120

    def test_time_with_steps_exit_2(self, tmp_path, capsys):
        # --steps fixes the step count at the step dt, so a --time beside it
        # would be ignored; the pair is refused before the input is read
        with pytest.raises(SystemExit) as exc:
            run(["evolve", str(tmp_path / "missing.wrg"), "--time", "0.1", "--steps", "16"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--time" in err and "--steps" in err and "Traceback" not in err

    def test_no_dealias_option_is_gone(self, tmp_path, capsys):
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--out", str(field)])
        with pytest.raises(SystemExit) as exc:
            run(["evolve", str(field), "--steps", "1", "--no-dealias"])
        assert exc.value.code == 2
        assert "--no-dealias" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_consistency_tol_exit_2(self, tmp_path, capsys, tol):
        src = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--out", str(src)])
        capsys.readouterr()
        out = str(tmp_path / "g.wrg")
        with pytest.raises(SystemExit) as exc:
            run(["diffeo", str(src), "--shear", "x,z,0.3", "--consistency-tol", tol, "--out", out])
        assert exc.value.code == 2
        assert "--consistency-tol" in capsys.readouterr().err

    def test_tiny_consistency_tol_exit_5(self, tmp_path, capsys):
        src = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--out", str(src)])
        out = tmp_path / "g.wrg"
        args = ["diffeo", str(src), "--shear", "x,z,0.3", "--consistency-tol", "1e-30", "--out", str(out)]
        assert run(args) == 5
        assert "exceeds 1e-30" in capsys.readouterr().err
        assert not out.exists()

    def test_diffeo_output_outside_the_load_range_exit_2(self, tmp_path, capsys):
        # a shear of a bundle at the top of the load range pushes A past it;
        # diffeo refuses to write what load would refuse
        from wring import wrg1
        from wring.fieldcore import Grid3
        from wring.fieldzoo import gen_clebsch

        g = Grid3((16, 16, 16), (2 * np.pi,) * 3)
        b = gen_clebsch(g)
        scale = 1e100 / b.A.maxabs
        src, out = tmp_path / "top.wrg", tmp_path / "g.wrg"
        wrg1.write_fields(src, g, {"A": b.A.data * scale, "W": b.W.data * scale}, {"family": "clebsch"})
        FieldBundle.load(src)
        assert run(["diffeo", str(src), "--shear", "x,z,0.3,1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: field 'A' has max|component| " in err and "[1e-100, 1e+100]" in err
        # the value is printed in full, never rounded into the range it is refused by
        assert float(err.split("max|component| ")[1].split(";")[0]) > 1e100
        assert not out.exists()

    def test_diffeo_round_trip_file(self, tmp_path):
        src = tmp_path / "f.wrg"
        out = tmp_path / "g.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--out", str(src)])
        assert run(["diffeo", str(src), "--shear", "x,y,0.2,1", "--out", str(out)]) == 0
        b = FieldBundle.load(out)
        assert b.meta["diffeo"][0]["amplitude"] == 0.2

    @pytest.mark.parametrize(
        "shear, code, message",
        [
            ("q,z,0.3", 2, "x, y or z"),
            ("x,z,nan", 2, "finite"),
            ("x,z,inf", 2, "finite"),
            ("x,z,3.2", 4, "unreasonable"),
        ],
    )
    def test_bad_shear_exit_code(self, tmp_path, capsys, shear, code, message):
        src = tmp_path / "f.wrg"
        out = str(tmp_path / "g.wrg")
        run(["generate", "--family", "clebsch", "--n", "16", "--out", str(src)])
        capsys.readouterr()
        assert run(["diffeo", str(src), "--shear", shear, "--out", out]) == code
        assert message in capsys.readouterr().err
        gen = ["generate", "--family", "clebsch", "--n", "16", "--shear", shear, "--out", out]
        assert run(gen) == code
        assert message in capsys.readouterr().err


RING = {"center": [3.1, 3.1, 3.1], "radius": 1.0, "normal": [0.0, 0.0, 1.0]}


class TestOutputPaths:
    """Every output path is checked before any work: a missing directory or
    a path that is a directory exits 2 and prints nothing to stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["link", "--preset", "hopf", "--json"],
            ["thurston", "--fluxes", "1,1,1", "--json"],
            ["selftest", "--criteria", "11", "--json"],
        ],
        ids=["link", "thurston", "selftest"],
    )
    def test_json_in_missing_directory_exit_2(self, tmp_path, capsys, argv):
        assert run(argv + [str(tmp_path / "missing" / "x.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "output directory does not exist" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{field}", "--json"],
            ["analyze", "{field}", "--density-out"],
            ["generate", "--family", "clebsch", "--n", "16", "--out"],
            ["link", "--preset", "hopf", "--json"],
            ["thurston", "--fluxes", "1,1,1", "--json"],
            ["selftest", "--criteria", "11", "--json"],
        ],
        ids=["analyze-json", "analyze-density", "generate", "link", "thurston", "selftest"],
    )
    def test_directory_output_exit_2(self, tmp_path, capsys, argv):
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--out", str(field)])
        capsys.readouterr()
        argv = [a.format(field=field) for a in argv]
        assert run(argv + [str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"output path is a directory: {tmp_path}" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{field}", "--json"],
            ["thurston", "--fluxes", "1,1,1", "--json"],
            ["link", "--preset", "hopf", "--json"],
            ["generate", "--family", "clebsch", "--n", "16", "--out"],
        ],
        ids=["analyze-json", "thurston", "link", "generate"],
    )
    def test_empty_output_path_exit_2(self, tmp_path, capsys, argv):
        field = tmp_path / "f.wrg"
        run(["generate", "--family", "clebsch", "--n", "16", "--out", str(field)])
        capsys.readouterr()
        assert run([a.format(field=field) for a in argv] + [""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "output path is empty" in captured.err

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{field}", "--json", "{first}", "--density-out", "{second}"],
            ["evolve", "{field}", "--steps", "1", "--series", "{first}", "--out", "{second}"],
        ],
        ids=["analyze", "evolve"],
    )
    def test_two_outputs_naming_one_file_exit_2(self, tmp_path, capsys, argv, spelling):
        # compared after os.path.realpath, before any work: nothing is written
        field, first = tmp_path / "f.wrg", tmp_path / "x"
        run(["generate", "--family", "clebsch", "--n", "16", "--out", str(field)])
        (tmp_path / "sub").mkdir()
        second = {
            "same": str(first),
            "dotted": str(tmp_path / "sub" / ".." / "x"),
            "symlink": str(tmp_path / "link"),
        }[spelling]
        (tmp_path / "link").symlink_to(first)
        capsys.readouterr()
        assert run([a.format(field=field, first=first, second=second) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"two outputs name one file: {second}" in captured.err
        assert not first.exists()

    def test_dash_is_stdout_not_a_file(self, tmp_path, capsys, monkeypatch):
        # --json - is stdout, so a density written to the file named - is another output
        from wring import wrg1

        monkeypatch.chdir(tmp_path)
        run(["generate", "--family", "clebsch", "--n", "16", "--out", "f.wrg"])
        capsys.readouterr()
        assert run(["analyze", "f.wrg", "--json", "-", "--density-out", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["family"] == "clebsch"
        assert list(wrg1.read_fields("-")[1]) == ["gv_density"]


class TestGenerateParams:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize(
        "family, params, key",
        [
            ("clebsch", {"f": 5}, "f"),
            ("clebsch", {"g": 5}, "g"),
            ("clebsch", {"g_linear": 3}, "g_linear"),
            ("clebsch", {"g_linear": None}, "g_linear"),
            ("clebsch", {"g_linear": [1, 2]}, "g_linear"),
            ("clebsch", {"g_linear": [1, True, 2]}, "g_linear"),
            ("clebsch", {"r0": "x"}, "r0"),
            ("kupka", {"r0": "x"}, "r0"),
            ("beltrami", {"a": "q"}, "a"),
            ("beltrami", {"a": 1e308}, "a"),
            ("beltrami", {"b": True}, "b"),
            ("rings", {"fluxes": "ab"}, "fluxes"),
            ("rings", {"radius": "x"}, "radius"),
            ("rings", {"ring1": 5}, "ring1"),
            ("rings", {"ring1": RING}, "ring2"),
            ("rings", {"ring1": RING, "ring2": {**RING, "radius": [1]}}, "radius"),
            ("rings", {"fluxes": [1]}, "fluxes"),
            ("rings", {"fluxes": [1, 2, 3]}, "fluxes"),
            ("rings", {"core_radius": 0}, "core_radius"),
            ("rings", {"core_radius": 1e-180}, "core_radius"),
            ("unlinked-rings", {"ring1": RING}, "ring1"),
            ("morse", {"f": "x"}, "f"),
        ],
    )
    def test_bad_params_exit_2(self, tmp_path, capsys, n, family, params, key):
        out = tmp_path / "x.wrg"
        args = ["generate", "--family", family, "--n", str(n), "--params", json.dumps(params)]
        assert run(args + ["--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "params, ring, axis",
        [
            # linked across the x face: the R^3 centrelines give Lk 0, the torus helicity 2
            ({"ring1": {**RING, "center": [3, 3, 3]},
              "ring2": {"center": [4 + 2 * np.pi, 3, 3], "radius": 1.0, "normal": [0, 1, 0]}}, "ring2", "x"),
            # ring2 is ring1's periodic image: the tubes coincide on the torus
            ({"ring1": {**RING, "center": [3, 3, 3]},
              "ring2": {**RING, "center": [3 + 2 * np.pi, 3, 3]}}, "ring2", "x"),
            # the hopf preset's second ring crosses x = 2 pi
            ({"radius": 2.0}, "ring2", "x"),
        ],
        ids=["linked-across-a-face", "periodic-image", "hopf-radius-2"],
    )
    def test_ring_outside_the_box_exit_4(self, tmp_path, capsys, params, ring, axis):
        out = tmp_path / "x.wrg"
        args = ["generate", "--family", "rings", "--n", "32", "--params", json.dumps(params), "--out", str(out)]
        assert run(args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{ring} centre {axis} = " in captured.err and "each ring must lie inside the box" in captured.err
        assert not out.exists()

    def test_ring_reach_along_the_normal_is_its_core(self, tmp_path, capsys):
        # coaxial rings of radius 1.8 at z = pi -+ 1.1 reach only their cores along z
        out = tmp_path / "x.wrg"
        args = ["generate", "--family", "unlinked-rings", "--n", "32", "--params", '{"radius": 1.8}']
        assert run(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        run(["analyze", str(out)])
        report = json.loads(capsys.readouterr().out)
        assert report["claims"]["helicity"] == 0.0
        assert abs(report["deviations"]["helicity"]) < 1e-12

    @pytest.mark.parametrize(
        "expr",
        ["1/0", "10**1000", "(-1)**0.5", "9**9**7", "x*1e999", "exp(1000*x)", "sqrt(x - 10)", "1/(x - x)"],
    )
    def test_bad_expression_value_exit_2(self, tmp_path, capsys, expr):
        out = str(tmp_path / "x.wrg")
        start = time.perf_counter()
        assert run(["generate", "--family", "clebsch", "--n", "8", "--param", f"f={expr}", "--out", out]) == 2
        assert time.perf_counter() - start < 1.0
        assert "bad scalar expression" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, params, field",
        [
            ("beltrami", {"a": 1e100, "b": 1e100, "c": 1e100}, "A"),
            ("rings", {"fluxes": [1e100, 1e100]}, "A"),
        ],
        ids=["beltrami-1e100", "rings-flux-1e100"],
    )
    def test_bundle_outside_the_load_range_exit_2(self, tmp_path, capsys, family, params, field):
        # in-range parameters can still make a field that load would refuse;
        # generate refuses it instead of writing it. n=32 resolves the
        # default ring core.
        out = tmp_path / "x.wrg"
        args = ["generate", "--family", family, "--n", "32", "--params", json.dumps(params), "--out", str(out)]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert f"error: field {field!r} has max|component| " in err
        assert "[1e-100, 1e+100]" in err and err.count("\n") == 1
        assert not out.exists()

    def test_explicit_ring_pair(self, tmp_path):
        out = str(tmp_path / "x.wrg")
        ring2 = {"center": [4.1, 3.1, 3.1], "radius": 1.0, "normal": [0.0, 1.0, 0.0]}
        params = json.dumps({"ring1": RING, "ring2": ring2, "fluxes": [1, 2]})
        assert run(["generate", "--family", "rings", "--n", "32", "--params", params, "--out", out]) == 0

    @pytest.mark.parametrize(
        "n, core",
        [(16, 1e-60), (8, 1e-100), (16, 0.3), (32, 0.19)],
        ids=["1e-60", "1e-100", "default-at-16", "just-below-at-32"],
    )
    def test_core_thinner_than_the_grid_exit_2(self, tmp_path, capsys, n, core):
        # a core the grid cannot sample would leave W = A = 0 claiming
        # helicity 2; the generator refuses it, naming radius and spacing
        out = tmp_path / "x.wrg"
        params = json.dumps({"ring1": RING, "ring2": {**RING, "center": [4.1, 3.1, 3.1],
                                                      "normal": [0.0, 1.0, 0.0]}, "core_radius": core})
        assert run(["generate", "--family", "rings", "--n", str(n), "--params", params, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"core_radius {core:g} is below the grid spacing {2 * np.pi / n:g}" in err
        assert not out.exists()

    # the edges of the parameter range, as in test_cli_fuzz.SCALES
    EDGES = [sign * v for v in (1e-100, 1e-60, 1e60, 1e100) for sign in (1, -1)]
    JSON = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-(10**6), 10**6)
        | st.floats(-1e6, 1e6, allow_nan=False)
        | st.sampled_from(EDGES)
        | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
        max_leaves=6,
    )

    # numbers a family accepts, and the edges, so that the generators, not
    # only the schema check, see the edges of the number range
    NUMBER = st.sampled_from([0.3, 1.0, 2.0, -1.0] + EDGES)

    @classmethod
    def typed(cls, kind):
        """Values of a ``FAMILY_PARAMS`` kind."""
        if isinstance(kind, dict):
            return st.fixed_dictionaries({key: cls.typed(sub) for key, sub in kind.items()})
        if isinstance(kind, int):
            return st.lists(cls.NUMBER, min_size=kind, max_size=kind)
        return {"number": cls.NUMBER, "integer": st.integers(-10, 40), "string": st.text(max_size=8)}[kind]

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_any_params_give_a_documented_exit_code(self, tmp_path_factory, data):
        family = data.draw(st.sampled_from(sorted(FAMILY_PARAMS)))
        if data.draw(st.booleans()):
            keys = list(FAMILY_PARAMS[family]) + ["not_a_parameter"]
            optional = {key: self.JSON for key in keys}
        else:
            optional = {key: self.typed(kind) for key, kind in FAMILY_PARAMS[family].items()}
        params = data.draw(st.fixed_dictionaries({}, optional=optional))
        out = str(tmp_path_factory.mktemp("params") / "x.wrg")
        args = ["generate", "--family", family, "--n", "8", "--params", json.dumps(params), "--out", out]
        code = run(args)
        assert code in {0, 2, 3, 4, 5}
        if code == 0:
            FieldBundle.load(out)


class TestReference:
    def test_thurston_stdout(self, capsys):
        assert run(["thurston", "--slopes", "1,1,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gv"] == pytest.approx(-8.0 * np.pi**2)

    def test_thurston_fluxes(self, capsys):
        assert run(["thurston", "--fluxes", "1,1,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flux_slopes"] == [-0.5, -1.0, -1.0]
        assert doc["identity_residual"] == -4.0

    def test_thurston_zero_slope_exit_4(self):
        assert run(["thurston", "--slopes", "0,1,1"]) == 4

    def test_link_preset(self, capsys):
        assert run(["link", "--preset", "hopf", "--samples", "128"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["linking_matrix"] == [[0, 1], [1, 0]]
        assert doc["total_helicity"] == pytest.approx(2.0)

    def test_link_curves_file(self, tmp_path, capsys):
        from wring import linkref

        cs = linkref.hopf_pair(128, fluxes=(2.0, 1.0))
        path = tmp_path / "curves.json"
        path.write_text(json.dumps(curves_doc(cs)))
        assert run(["link", "--curves", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_helicity"] == pytest.approx(4.0)

    def test_link_bad_json_exit_3(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["link", "--curves", str(path)]) == 3

    @pytest.mark.parametrize("doc", [{"curves": []}, [1, 2], {"fluxes": 5}])
    def test_link_schema_error_exit_3(self, tmp_path, doc):
        path = tmp_path / "curves.json"
        path.write_text(json.dumps(doc))
        assert run(["link", "--curves", str(path)]) == 3


class TestHostileReference:
    """Out-of-schema curves documents exit 3 and overflowing numbers exit 2; neither writes stdout."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"fluxes": [NaN, 1.0], "linking": [[0, 1], [1, 0]]}', "fluxes must be finite"),
            ('{"fluxes": [1e400, 1.0], "linking": [[0, 1], [1, 0]]}', "fluxes must be finite"),
            ('{"fluxes": ["2", true], "linking": [[0, 1], [1, 0]]}', "fluxes must be numbers"),
            (None, "curve points must be finite"),
            ('{"fluxes": [1.0, 1.0], "linking": [[0, 1.5], [1.5, 0]]}', "integers within int64"),
            ('{"fluxes": [1.0, 1.0], "linking": [[0, 1%s], [1%s, 0]]}' % ("0" * 400, "0" * 400), "within int64"),
            ('{"fluxes": [1.0, 1.0], "linking": %s}' % ("[" * 100000 + "]" * 100000), "recursion"),
        ],
        ids=["nan-flux", "overflow-flux", "text-flux", "nan-point", "fractional-linking", "overflow-linking", "deep-linking"],
    )
    def test_curves_outside_schema_exit_3(self, tmp_path, capsys, doc, message):
        from wring import linkref

        if doc is None:
            cs = curves_doc(linkref.hopf_pair(64))
            cs["curves"][0][5][1] = float("nan")
            doc = json.dumps(cs)
        path = tmp_path / "curves.json"
        path.write_text(doc)
        assert run(["link", "--curves", str(path)]) == 3
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_helicities_exit_2(self, tmp_path, capsys):
        path = tmp_path / "curves.json"
        path.write_text('{"fluxes": [1e200, 1e200], "linking": [[0, 1], [1, 0]]}')
        assert run(["link", "--curves", str(path)]) == 2
        captured = capsys.readouterr()
        assert "overflow" in captured.err and captured.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_curves_near_the_float64_limit_exit_2(self, tmp_path, capsys):
        from wring import linkref

        cs = curves_doc(linkref.hopf_pair(64))
        cs["curves"] = [[[1e307 * x for x in p] for p in c] for c in cs["curves"]]
        path = tmp_path / "curves.json"
        path.write_text(json.dumps(cs))
        assert run(["link", "--curves", str(path)]) == 2
        captured = capsys.readouterr()
        assert "not finite" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--slopes", "nan,1", "must be finite"),
            ("--slopes", "1e-320,1", "1/s_1 must be finite"),
            ("--slopes", "1,1e308,1e308", "overflows"),
            ("--fluxes", "1e400,1", "fluxes and their sum"),
            ("--fluxes", "1,1e-320", "1/s_1 must be finite"),
            ("--fluxes", "1,1e308,1e308", "fluxes and their sum"),
        ],
    )
    def test_thurston_non_finite_exit_2(self, capsys, flag, text, message):
        assert run(["thurston", flag, text]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


def test_selftest_subset(capsys):
    assert run(["selftest", "--criteria", "11"]) == 0
    out = capsys.readouterr().out
    assert "criterion 11" in out and "PASS" in out


@pytest.mark.parametrize("ids", ["0", "13", "99", "11,99"])
def test_selftest_unknown_criterion_exit_2(capsys, ids):
    assert run(["selftest", "--criteria", ids]) == 2
    captured = capsys.readouterr()
    assert "valid ids are [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]" in captured.err
    assert captured.out == ""


def test_selftest_repeated_criterion_runs_once(tmp_path, capsys):
    table = tmp_path / "s.json"
    assert run(["selftest", "--criteria", "11,11", "--json", str(table)]) == 0
    assert [r["criterion"] for r in json.loads(table.read_text())] == [11]
