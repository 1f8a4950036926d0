"""Mutation check of the numerics: which hand-written source mutations the
test suite catches.

    python3 tools/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/wring``, an exact piece of
its source text and a replacement. For each entry the script copies this
checkout's ``src``, ``tests``, ``tools`` and ``pyproject.toml`` into a
temporary directory, makes the replacement there, and runs
``python -m pytest -x -q`` in that copy with its ``src`` first on
``PYTHONPATH``. A mutant is killed when pytest fails and survives when it
passes. The unmutated copy runs first and must pass, or no verdict means
anything. The copy has no ``.git``, so the tests that need git skip, and
``tests/test_mutants.py`` is left out, since a mutated tree fails it.

Every source text must occur exactly once in its file (the tier-1 test
``tests/test_mutants.py`` checks it), so the list cannot silently stop
applying. One run of the full list (33 mutants) took about 8 minutes on
2 vCPUs: the suite runs once per mutant, to the end for a survivor.

Exit codes: 0 when every mutant is killed, 1 when one survives, 2 when an
entry does not apply or the unmutated copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "tools", "pyproject.toml")
TIMEOUT_S = 1800

# (name, file under src/wring, exact source text, replacement)
MUTANTS = [
    # the sample of eleven measured before this script existed
    ("co-state gradient sign", "dynamics.py",
     "np.subtract(qi, np.multiply(ik, q[6], out=r), out=r)", "np.add(qi, np.multiply(ik, q[6], out=r), out=r)"),
    ("RK4 last stage at dt/2", "dynamics.py",
     "enumerate((dt / 2, dt / 2, dt))", "enumerate((dt / 2, dt / 2, dt / 2))"),
    ("energy without 1/2", "gv.py",
     "return 0.5 * g.parseval(u2), g.parseval(w2)", "return g.parseval(u2), g.parseval(w2)"),
    ("Gauss sum at segment starts", "linkref.py",
     "xa = a + 0.5 * da", "xa = a"),
    ("(U.A)^2 in C", "gv.py",
     "masked_quotient(magnitude2(G), q, mask, 4)", "masked_quotient(magnitude2(G), q, mask, 2)"),
    ("tail band from n/4", "fieldcore.py",
     "8 * idx < 3 * m", "4 * idx < m"),
    ("Nyquist kz plane weight 2", "fieldcore.py",
     "weights[0] = weights[-1] = 1.0", "weights[0] = 1.0"),
    ("approx_bound_rhs with 2E^2", "gv.py",
     "L7 / (4.0 * E**2) * rate", "L7 / (2.0 * E**2) * rate"),
    ("delta_measure with E/V", "gv.py",
     "delta = q - 2.0 * E / V", "delta = q - E / V"),
    ("lambda_min from min(box)", "gv.py",
     "(2.0 * np.pi / max(g.box)) ** 2", "(2.0 * np.pi / min(g.box)) ** 2"),
    ("cfl_timestep from max(spacing)", "dynamics.py",
     "return cfl * min(bundle.grid.spacing) / umax", "return cfl * max(bundle.grid.spacing) / umax"),
    # the Richardson weights and the helicity prefactor
    ("Richardson weights swapped", "gv.py",
     "2.0 * halves[0] - self.value if halves", "2.0 * self.value - halves[0] if halves"),
    ("GV cell volume from the x spacing", "fieldcore.py",
     "return float(np.sum(values)) * self.cell_volume", "return float(np.sum(values)) * self.spacing[0] ** 3"),
    ("helicity without its 2", "gv.py",
     "return 2.0 * g.parseval(kab * g.inv_k2)", "return g.parseval(kab * g.inv_k2)"),
    # each sign of the stepper's right-hand side
    ("vorticity tendency sign", "dynamics.py",
     "np.negative(cross_parts(g.box_ik, q[:3]", "np.positive(cross_parts(g.box_ik, q[:3]"),
    ("co-state U x curl(A) order", "dynamics.py",
     "cross_parts(U, p[9:], out=p[3:6])", "cross_parts(p[9:], U, out=p[3:6])"),
    ("U.A with A[1] in its last term", "dynamics.py",
     "ua += U[2] * A[2]", "ua += U[2] * A[1]"),
    ("step CFL from max(spacing)", "dynamics.py",
     "b.U.maxnorm / min(g.spacing)", "b.U.maxnorm / max(g.spacing)"),
    # the RK4 weights and stage offsets
    ("RK4 middle weights 1", "dynamics.py",
     "total += 2 * k if i < 2 else k", "total += k"),
    ("RK4 sum over 5", "dynamics.py",
     "g.add_box(s, dt / 6.0 * total)", "g.add_box(s, dt / 5.0 * total)"),
    ("RK4 third stage at dt", "dynamics.py",
     "enumerate((dt / 2, dt / 2, dt))", "enumerate((dt / 2, dt, dt))"),
    # the series' drift column
    ("series drift dropped", "dynamics.py",
     "b, drift = step(b, dt, t)", "b, _ = step(b, dt, t)"),
    # the spectral layer
    ("2/3 box without its edge", "fieldcore.py",
     "np.flatnonzero(idx <= m // 3)", "np.flatnonzero(idx < m // 3)"),
    ("inv_k2 one on degenerate modes", "fieldcore.py",
     "out = np.zeros_like(k2)", "out = np.ones_like(k2)"),
    ("box inverse drops a scattered block", "fieldcore.py",
     "for f, b in self._box_blocks:", "for f, b in self._box_blocks[:-1]:"),
    # the ring pair's spectral construction
    ("ring pair keeps the Nyquist planes", "fieldzoo.py",
     "spec *= grid.non_nyquist_mask", "spec *= 1.0"),
    ("ring potential without 1/|k|^2", "fieldzoo.py",
     "pair[:3] *= grid.inv_k2", "pair[:3] *= 1.0"),
    ("ring vorticity as A^ x ik", "fieldzoo.py",
     "cross_parts(grid.ik, pair[:3], out=pair[3:])", "cross_parts(pair[:3], grid.ik, out=pair[3:])"),
    # the WRG1 header's one entry per field name
    ("duplicate WRG1 field accepted", "wrg1.py",
     'if entry["name"] in names:', 'if entry["name"] in ():'),
    # the ring pair must lie inside the box, and a bundle on one grid
    ("ring position check dropped", "fieldzoo.py",
     "if not (c - reach > 0.0 and c + reach < L):", "if False:"),
    ("ring reach radius + core along every axis", "fieldzoo.py",
     "ring.radius * np.sqrt(1.0 - linkref.circle_frame(ring.normal)[2] ** 2)", "ring.radius * (1.0 + 0.0 * ring.radius)"),
    ("bundle grid mismatch accepted", "fieldzoo.py",
     "if self.W.grid != self.A.grid:", "if False:"),
    # the Gauss linking normalization
    ("Gauss 2 pi", "linkref.py",
     "np.sum(terms) / (4.0 * np.pi)", "np.sum(terms) / (2.0 * np.pi)"),
]


def occurrences(root: str, file: str, text: str) -> int:
    """How often ``text`` occurs in ``src/wring/<file>`` under ``root``."""
    with open(os.path.join(root, "src", "wring", file), encoding="utf-8") as fh:
        return fh.read().count(text)


def _copy(dest: str) -> None:
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest)


def _pytest(tree: str) -> str:
    """'passed', 'failed' or 'timed out' for the suite run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    # test_mutants checks that each source text is in the tree, so a mutated copy fails it
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--ignore=tests/test_mutants.py", "tests"]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if proc.returncode == 0 else "failed"


def _run(file: str | None = None, text: str = "", replacement: str = "") -> str:
    """The suite's outcome on a fresh copy, with ``text`` replaced in ``file``."""
    with tempfile.TemporaryDirectory(prefix="wring-mutant-") as tree:
        _copy(tree)
        if file is not None:
            path = os.path.join(tree, "src", "wring", file)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source.replace(text, replacement))
        return _pytest(tree)


def main() -> int:
    for name, file, text, _ in MUTANTS:
        count = occurrences(ROOT, file, text)
        if count != 1:
            print(f"{name}: {text!r} occurs {count} times in {file}, not once", file=sys.stderr)
            return 2
    start = time.monotonic()
    baseline = _run()
    print(f"unmutated: {baseline} ({time.monotonic() - start:.0f} s)", flush=True)
    if baseline != "passed":
        return 2
    survivors = []
    for name, file, text, replacement in MUTANTS:
        start = time.monotonic()
        outcome = _run(file, text, replacement)
        verdict = {"passed": "survived", "failed": "killed"}.get(outcome, f"killed ({outcome})")
        if outcome == "passed":
            survivors.append(name)
        print(f"{verdict}: {name} ({file}, {time.monotonic() - start:.0f} s)", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed; survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
