"""Machine and environment record attached to every result.

Read-only: /sys, /proc/cpuinfo and version attributes. Nothing here
changes the machine.
"""

from __future__ import annotations

import os
import platform
import subprocess


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _size_bytes(text):
    if not text:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"l{level}_bytes"] = _size_bytes(_read(os.path.join(base, entry, "size")))
    return out


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _git_commit():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def record(largest_field_file_bytes: int) -> dict:
    """Describe this machine, the toolchain and the working set of the run."""
    import numpy
    import scipy
    from wring import config

    caches = _caches()
    l3 = caches.get("l3_bytes")
    fits = l3 is not None and largest_field_file_bytes <= l3
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": config.fft_workers(),
        "git_commit": _git_commit(),
        "largest_field_file_bytes": largest_field_file_bytes,
        "working_set_note": (
            f"largest WRG1 file {largest_field_file_bytes / 1e6:.1f} MB "
            + (f"fits in the {l3 / 2**20:.0f} MiB L3; the bandwidth-bound regime "
               "(working set beyond L3) is not exercised" if fits else
               "does not fit in L3 or L3 size unknown")
        ),
    }
