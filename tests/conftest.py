"""Shared fixtures for the test suite.

Grids are deliberately small (8 or 16 points per axis) except where a test
is explicitly about resolution; random data is always seeded so failures
reproduce.
"""

import numpy as np
import pytest

from moistpe import fields
from moistpe.grid import Grid
from moistpe.params import PhysParams


@pytest.fixture
def params():
    return PhysParams()


@pytest.fixture
def grid8(params):
    return Grid(8, 8, 8, params.p0, params.p1)


@pytest.fixture
def grid16(params):
    return Grid(16, 16, 16, params.p0, params.p1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def fft_fields(monkeypatch):
    """start(grid): count from now on the 3-D fields of grid moved through
    scipy.fft, in the one-item list it returns.  A field moves through
    rfftn/irfftn or, its passes taken apart, through its pass along p
    (rfft/irfft on 3-D input); a stack counts each of its fields, and an x
    slab its share of one."""
    def start(grid):
        moved = [0.0]

        def counting(fn, along_p):
            def wrapped(x, *args, **kwargs):
                shape = np.shape(x)
                if len(shape) >= 3:
                    share = shape[-3] / grid.nx if along_p else 1
                    moved[0] += int(np.prod(shape[:-3])) * share
                return fn(x, *args, **kwargs)
            return wrapped

        for name, along_p in (("rfftn", False), ("irfftn", False), ("rfft", True),
                              ("irfft", True)):
            monkeypatch.setattr(fields._fft, name, counting(getattr(fields._fft, name), along_p))
        return moved
    return start


# every entry point of scipy.fft the package can call
FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                    "fftn", "ifftn", "rfftn", "irfftn")


@pytest.fixture
def fft_calls(monkeypatch):
    """A two-item list [calls, fields]: the calls of every scipy.fft entry
    point and the 3-D fields they move, a stack counting each of its fields
    (whatever axes the call transforms)."""
    counts = [0, 0]

    def counting(fn):
        def wrapped(x, *args, **kwargs):
            counts[0] += 1
            counts[1] += int(np.prod(np.shape(x)[:-3]))
            return fn(x, *args, **kwargs)
        return wrapped

    for name in FFT_ENTRY_POINTS:
        monkeypatch.setattr(fields._fft, name, counting(getattr(fields._fft, name)))
    return counts


@pytest.fixture
def fft_log(monkeypatch):
    """A list of (entry point, shape of its input, its axis or axes keyword
    or None) for every scipy.fft call."""
    log = []

    def logging(name, fn):
        def wrapped(x, *args, **kwargs):
            log.append((name, np.shape(x), kwargs.get("axis", kwargs.get("axes"))))
            return fn(x, *args, **kwargs)
        return wrapped

    for name in FFT_ENTRY_POINTS:
        monkeypatch.setattr(fields._fft, name, logging(name, getattr(fields._fft, name)))
    return log
