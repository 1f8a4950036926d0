"""Grid FFT budgets: upper bounds on the transforms one operation makes.

The counts do not depend on n, so a small grid keeps these fast. A change
that lowers a count may lower its bound; a bound never goes up.
"""

import numpy as np
import pytest

from wring import dynamics as dyn
from wring import fieldzoo as fz
from wring.fieldcore import Grid3, inverse_curl

STEP_BUDGET = 95
INVERSE_CURL_BUDGET = 7
VORTICITY_RATE_BUDGET = 15
BERNOULLI_HEAD_BUDGET = 13


@pytest.fixture
def fft_count(monkeypatch):
    """Running count of Grid3.rfft and Grid3.irfft calls."""
    count = [0]
    for name in ("rfft", "irfft"):
        original = getattr(Grid3, name)

        def counted(self, data, *args, _original=original):
            count[0] += 1
            return _original(self, data, *args)

        monkeypatch.setattr(Grid3, name, counted)
    return count


@pytest.fixture(scope="module")
def sheared32():
    g = Grid3((32, 32, 32), (2.0 * np.pi,) * 3)
    dm = fz.DiffeoMap((fz.Shear.from_names("x", "z", 0.3, 1),))
    return fz.apply_diffeo(fz.gen_clebsch(g), dm).with_velocity()


def test_rk4_step_budget(fft_count, sheared32):
    before = fft_count[0]
    dyn.step(dyn.EvolutionState(sheared32, dt=0.02))
    assert fft_count[0] - before <= STEP_BUDGET


def test_inverse_curl_budget(fft_count, sheared32):
    before = fft_count[0]
    inverse_curl(sheared32.W)
    assert fft_count[0] - before <= INVERSE_CURL_BUDGET


def test_vorticity_rate_budget(fft_count, sheared32):
    before = fft_count[0]
    dyn.vorticity_rate(sheared32)
    assert fft_count[0] - before <= VORTICITY_RATE_BUDGET


def test_bernoulli_head_budget(fft_count, sheared32):
    before = fft_count[0]
    dyn.bernoulli_head(sheared32)
    assert fft_count[0] - before <= BERNOULLI_HEAD_BUDGET
