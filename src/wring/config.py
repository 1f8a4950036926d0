"""Package-wide defaults, loaded from the machine-readable defaults.json."""

from __future__ import annotations

import json
import os
from importlib import resources


def _load_defaults() -> dict:
    with resources.files(__package__).joinpath("defaults.json").open("rb") as fh:
        return json.load(fh)


DEFAULTS: dict = _load_defaults()

TOL = DEFAULTS["tolerances"]


def fft_workers() -> int:
    """Worker count for FFT calls, from the documented environment variable.

    Defaults to 1 so repeated runs are reproducible without any setup, and
    is clamped to the machine's CPU count.
    """
    raw = os.environ.get(DEFAULTS["fft_workers_env"], "1")
    try:
        workers = int(raw)
    except ValueError:
        return 1
    return max(1, min(workers, os.cpu_count() or 1))
