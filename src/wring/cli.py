"""Command-line interface.

Subcommands: generate, analyze, evolve, diffeo, thurston, link, selftest.
The options' numeric defaults live in defaults.json next to this module,
except the 0.5 of ``evolve --time``; reports are JSON with sorted keys and
arrays are written in the WRG1 container, so identical inputs give
byte-identical outputs.

Exit codes: 0 success, 2 bad arguments, 3 input format error, 4 numerical
precondition failed, 5 internal tolerance breach or failed selftest.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

# every module but selftest loads here, not in its handler, because
# perfbench/spans.py wraps them in sys.modules right after ``import wring.cli``
from . import config, dynamics, fieldzoo, gv, linkref, wrg1
from .errors import FormatError, PreconditionError, ToleranceError, WringError
from .fieldcore import Grid3, ScalarField, require_potential

_D = config.DEFAULTS
# past 2**53 steps of one size, t + dt rounds back to t in float64
_MAX_STEPS = 2**53


def _check_writable(*paths) -> None:
    """Validate output locations up front, before any compute happens: each
    must name a file, not a directory, in a directory that exists."""
    import os

    for path in paths:
        if path is None or path == "-":
            continue
        if path == "":
            raise ValueError("output path is empty")
        if os.path.isdir(path):
            raise ValueError(f"output path is a directory: {path}")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ValueError(f"output directory does not exist: {parent}")


def _json_dump(obj, path=None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_box(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ValueError("box needs one or three comma-separated lengths")
    return tuple(parts)


def _parse_shear(text: str) -> fieldzoo.Shear:
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise ValueError("shear spec is axis,shear_axis,amplitude[,wavenumber]")
    axis, shear_axis = parts[0].strip(), parts[1].strip()
    amplitude = float(parts[2])
    wavenumber = int(parts[3]) if len(parts) == 4 else 1
    return fieldzoo.Shear.from_names(axis, shear_axis, amplitude, wavenumber)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _finite_positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _finite_nonzero_float(text: str) -> float:
    """A step size; negative values step backward in time."""
    value = _finite_float(text)
    if value == 0.0:
        raise argparse.ArgumentTypeError(f"must be nonzero, got {text!r}")
    return value


def _grid_from_args(args) -> Grid3:
    return Grid3((args.n,) * 3, _parse_box(args.box))


def _cmd_generate(args) -> int:
    _check_writable(args.out)
    grid = _grid_from_args(args)
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ValueError(f"--params must be a JSON object, got {args.params!r}")
    for item in args.param or []:
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--param needs key=value, got {item!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    bundle = fieldzoo.make_family(grid, args.family, params)
    if args.shear:
        dmap = fieldzoo.DiffeoMap(tuple(_parse_shear(s) for s in args.shear))
        bundle = fieldzoo.apply_diffeo(bundle, dmap)
    bundle.save(args.out)
    print(f"wrote {args.out} (family={args.family}, n={grid.n}, box={grid.box})")
    return 0


def _cmd_analyze(args) -> int:
    _check_writable(args.json, args.density_out)
    bundle = fieldzoo.FieldBundle.load(args.input)
    require_potential(bundle.W)
    report = gv.analyze(bundle, args.eta, args.eps, richardson=args.richardson, bound=args.bound)
    if args.density_out and report.gv_density is not None:
        wrg1.write_fields(
            args.density_out,
            {"gv_density": ScalarField(bundle.grid, report.gv_density)},
            meta={"family": report.family, "eta": args.eta, "eps": args.eps},
        )
    _json_dump(report.to_json_dict(), args.json)
    if not report.integrable:
        print(
            f"integrability residual {report.integrability_residual:.3e} exceeds "
            f"tolerance; GV undefined",
            file=sys.stderr,
        )
        return 4
    return 0


def _cmd_evolve(args) -> int:
    _check_writable(args.series, args.out)
    bundle = fieldzoo.FieldBundle.load(args.input)
    require_potential(bundle.W)
    if args.dt is not None:
        dt = args.dt
    else:
        dt = dynamics.cfl_timestep(bundle, args.cfl)
        if dt == 0.0:
            raise ValueError(f"--cfl {args.cfl:g} gives a zero time step; raise --cfl or give --dt")
    if args.steps is not None:
        steps, remedy = args.steps, "lower --steps"
    else:
        count = args.time / abs(dt)
        remedy = "lower --time or raise the step (--dt or --cfl)"
        if not math.isfinite(count):
            raise ValueError(
                f"--time {args.time:g} at the step {abs(dt):g} is not a finite step count; {remedy}"
            )
        steps = max(1, math.ceil(count))
        dt = math.copysign(args.time / steps, dt)
    if steps > _MAX_STEPS:
        raise ValueError(f"{steps:g} steps is past 2**53, where t + dt no longer advances a float64 t; {remedy}")
    bundle, t, series = dynamics.track_invariants(bundle, dt, steps, record_every=args.record_every)
    if args.series:
        series.write_csv(args.series)
        print(f"wrote {args.series} ({len(series.rows)} samples)")
    if args.out:
        bundle.save(args.out)
        print(f"wrote {args.out} at t={t:.6g}")
    return 0


def _cmd_diffeo(args) -> int:
    _check_writable(args.out)
    bundle = fieldzoo.FieldBundle.load(args.input)
    dmap = fieldzoo.DiffeoMap(tuple(_parse_shear(s) for s in args.shear))
    out = fieldzoo.apply_diffeo(bundle, dmap, consistency_tol=args.consistency_tol)
    out.save(args.out)
    res = out.meta["residuals"]["curl_consistency"]
    print(f"wrote {args.out} (curl consistency {res:.3e})")
    return 0


def _cmd_thurston(args) -> int:
    _check_writable(args.json)
    doc = {}
    if args.slopes:
        sd = linkref.SlopeData(tuple(float(v) for v in args.slopes.split(",")))
        doc["slopes"] = list(sd.slopes)
        doc["gv"] = linkref.thurston_gv(sd)
    if args.fluxes:
        fluxes = tuple(float(v) for v in args.fluxes.split(","))
        sd, residual = linkref.flux_slopes(fluxes)
        doc["fluxes"] = list(fluxes)
        doc["flux_slopes"] = list(sd.slopes)
        doc["identity_residual"] = residual
        doc["gv_of_flux_slopes"] = linkref.thurston_gv(sd)
    if not doc:
        raise ValueError("need --slopes and/or --fluxes")
    _json_dump(doc, args.json)
    return 0


_PRESETS = {
    "hopf": linkref.hopf_pair,
    "hopf-reversed": functools.partial(linkref.hopf_pair, reverse_second=True),
    "distant": linkref.distant_pair,
    "quad": linkref.zero_helicity_quad,
}


def _cmd_link(args) -> int:
    _check_writable(args.json)
    if args.curves:
        with open(args.curves) as fh:
            try:
                doc = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise FormatError(f"{args.curves}: invalid JSON: {exc}") from exc
        cs = linkref.CurveSet.from_json_dict(doc)
    elif args.preset:
        cs = _PRESETS[args.preset](args.samples)
    else:
        raise ValueError("need --curves FILE or --preset NAME")
    matrix, deviation = linkref.linking_matrix(cs)
    per, total = linkref.linking_helicities(cs.fluxes, matrix)
    _json_dump(
        {
            "fluxes": list(cs.fluxes),
            "linking_matrix": matrix.tolist(),
            "quadrature_deviation": deviation,
            "helicities": per,
            "total_helicity": total,
        },
        args.json,
    )
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    _check_writable(args.json)
    ids = None
    if args.criteria:
        ids = {int(v) for v in args.criteria.split(",")}
        unknown = sorted(ids - selftest.CRITERIA.keys())
        if unknown:
            raise ValueError(f"unknown criteria {unknown}; valid ids are {sorted(selftest.CRITERIA)}")
    results = selftest.run_selftest(ids)
    if args.json:
        _json_dump([r.to_json_dict() for r in results], args.json)
    return 0 if all(r.passed for r in results) else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wring",
        description=(
            "Construct integrable vorticity fields on a periodic box, measure "
            "their helicity and Godbillon-Vey invariant, and check the "
            "conservation laws and bounds that come with them. Numeric "
            "defaults are documented in the packaged defaults.json."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a named field family and write a WRG1 file")
    p.add_argument("--family", required=True, choices=fieldzoo.FAMILY_PARAMS)
    p.add_argument(
        "--n",
        type=int,
        default=_D["grid"]["default_n"],
        help=f"points per axis (default: {_D['grid']['default_n']})",
    )
    p.add_argument("--box", default=str(_D["grid"]["default_box"]), help="box length(s), e.g. 6.283 or Lx,Ly,Lz")
    p.add_argument("--params", help="JSON object of family parameters")
    p.add_argument("--param", action="append", help="single key=value parameter (repeatable)")
    p.add_argument("--shear", action="append", help="axis,shear_axis,amp[,k] applied after generation (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="measure invariants of a WRG1 bundle")
    p.add_argument("input", help="WRG1 bundle file")
    p.add_argument(
        "--eta",
        choices=("canonical", "velocity"),
        default="canonical",
        help="dual-field construction (default: canonical)",
    )
    p.add_argument(
        "--eps",
        type=float,
        default=_D["eta"]["default_eps"],
        help=f"relative exclusion threshold (default: {_D['eta']['default_eps']})",
    )
    p.add_argument("--richardson", action="store_true", help="report the eps->0 extrapolation too")
    p.add_argument("--bound", action="store_true", help="include the obstruction-bound block")
    p.add_argument("--json", help="report path (default stdout)")
    p.add_argument("--density-out", help="write the invariant density as a WRG1 scalar")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("evolve", help="advance a bundle by ideal transport, tracking invariants")
    p.add_argument("input")
    span = p.add_mutually_exclusive_group()
    span.add_argument(
        "--time", type=_finite_positive_float, default=0.5, help="total integration time (default: 0.5)"
    )
    span.add_argument("--steps", type=_positive_int, help="step count at the --dt or CFL step (not with --time)")
    p.add_argument("--dt", type=_finite_nonzero_float, help="fixed step (overrides --cfl)")
    p.add_argument(
        "--cfl",
        type=_finite_positive_float,
        default=_D["dynamics"]["default_cfl"],
        help=f"advective CFL target (default: {_D['dynamics']['default_cfl']})",
    )
    p.add_argument("--record-every", type=_positive_int, default=1, help="sampling stride (default: 1)")
    p.add_argument("--series", help="CSV output path")
    p.add_argument("--out", help="final bundle WRG1 path")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("diffeo", help="apply volume-preserving shears to a bundle")
    p.add_argument("input")
    p.add_argument("--shear", action="append", required=True, help="axis,shear_axis,amp[,k] (repeatable)")
    p.add_argument("--consistency-tol", type=_finite_positive_float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diffeo)

    p = sub.add_parser("thurston", help="closed-form slope/flux calculators")
    p.add_argument("--slopes", help="comma-separated s_1,...,s_N")
    p.add_argument("--fluxes", help="comma-separated phi_1,...,phi_N")
    p.add_argument("--json", help="output path (default stdout)")
    p.set_defaults(func=_cmd_thurston)

    p = sub.add_parser("link", help="linking matrix and per-tube helicities of curves")
    p.add_argument("--curves", help="JSON file with curves/fluxes[/linking]")
    p.add_argument("--preset", choices=sorted(_PRESETS))
    p.add_argument(
        "--samples",
        type=int,
        default=_D["linking"]["default_samples"],
        help=f"points per curve (default: {_D['linking']['default_samples']})",
    )
    p.add_argument("--json", help="output path (default stdout)")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("selftest", help="run the acceptance criteria and print pass/fail")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,2,11")
    p.add_argument("--json", help="write the result table as JSON")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError, MemoryError, json.JSONDecodeError, WringError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
