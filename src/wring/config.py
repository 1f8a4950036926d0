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
    """Number of FFT lanes, from the documented environment variable.

    A stacked ``Grid3.rfft``/``irfft`` call on a grid of more than
    ``fft_serial_max_points`` points splits its components over this many
    threads, the caller included, and a ``fieldcore.pointwise`` kernel of
    that size its x-slabs; every other transform runs serially.
    Defaults to 2 and is clamped to the machine's CPU count; a value that is
    not an integer counts as 1, the serial path. The lane count changes no
    output bit.
    """
    raw = os.environ.get(DEFAULTS["fft_workers_env"], "2")
    try:
        workers = int(raw)
    except ValueError:
        return 1
    return max(1, min(workers, os.cpu_count() or 1))
