"""Triply periodic scalar fields and the transforms that act on them.

A Field3D is a value: operations return new fields and never mutate their
inputs.  Physical data has shape grid.shape; spectral data holds normalized
Fourier coefficients c_k (f = sum_k c_k exp(i k.x)) in the half-spectrum
layout of a real FFT over the last (pressure) axis, shape grid.spectral_shape.
With this normalization a constant field c has a single nonzero coefficient c
at k = 0, and cos(2*pi*x) carries amplitude 1/2 in each conjugate slot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.fft as _fft

from .errors import ConfigError, DataError
from .grid import Grid

PHYSICAL = "physical"
SPECTRAL = "spectral"


@cache
def _workers() -> int:
    """The transform worker count: MOISTPE_THREADS (default 1), the only
    environment variable the package reads, parsed once per process on
    first use.  Anything but an integer >= 1 is a ConfigError."""
    raw = os.environ.get("MOISTPE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"MOISTPE_THREADS: need an integer >= 1, got {raw!r}")
    return n


@dataclass(frozen=True)
class Field3D:
    """A scalar field on a Grid, in physical or spectral representation."""

    grid: Grid
    data: np.ndarray
    rep: str

    def __post_init__(self):
        if self.rep == PHYSICAL:
            if self.data.shape != self.grid.shape:
                raise DataError(f"physical data shape {self.data.shape} != grid shape {self.grid.shape}")
            if not np.isrealobj(self.data):
                raise DataError("physical data must be real")
        elif self.rep == SPECTRAL:
            if self.data.shape != self.grid.spectral_shape:
                raise DataError(
                    f"spectral data shape {self.data.shape} != spectral shape {self.grid.spectral_shape}"
                )
            if not np.iscomplexobj(self.data):
                raise DataError("spectral data must be complex")
        else:
            raise DataError(f"unknown representation {self.rep!r}")

    # --- constructors -----------------------------------------------------

    @classmethod
    def physical(cls, grid: Grid, data: np.ndarray) -> "Field3D":
        return cls(grid, np.asarray(data, dtype=np.float64), PHYSICAL)

    @classmethod
    def spectral(cls, grid: Grid, coeff: np.ndarray) -> "Field3D":
        return cls(grid, np.asarray(coeff, dtype=np.complex128), SPECTRAL)

    @classmethod
    def zeros(cls, grid: Grid, rep: str = PHYSICAL) -> "Field3D":
        if rep == PHYSICAL:
            return cls(grid, np.zeros(grid.shape), PHYSICAL)
        return cls(grid, np.zeros(grid.spectral_shape, dtype=np.complex128), SPECTRAL)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field3D":
        """Sample fn(x, y, p) on the collocation grid (broadcasting arguments)."""
        X, Y, P = grid.mesh()
        return cls.physical(grid, np.broadcast_to(fn(X, Y, P), grid.shape).copy())

    # --- conversions ------------------------------------------------------

    def as_physical(self) -> "Field3D":
        if self.rep == PHYSICAL:
            return self
        return Field3D.physical(self.grid, checked_backward(self.grid, self.data))

    def as_spectral(self) -> "Field3D":
        if self.rep == SPECTRAL:
            return self
        return Field3D.spectral(self.grid, checked_forward(self.grid, self.data))

    def require(self, rep: str, op: str) -> "Field3D":
        if self.rep != rep:
            raise DataError(f"{op} requires a {rep} field, got {self.rep}")
        return self


# --- raw-array transforms used by the hot paths ---------------------------
#
# rfftn_norm and irfftn_norm are the plain full transforms, one call each.
# The tendency runs their passes apart, on the one pruned route: the
# forward transform as rfft_p, then fft_xy in place on its result; the
# inverse as ifft_xy in place, then irfft_p, as the vertical integrals of
# the diagnostics and monitors (model._integral_to_p1) also take it.  A
# pass along p acts on each line alone, so a stack can take it in slices
# (an x slab at a time, say), and the slices get the same bits as the
# whole stack.
#
# fft_xy and ifft_xy take a ball flag and make one set of passes over the
# box it names.  A spectrum inside the 2/3-rule ball (in_ball) is zero
# beyond the kept radius K = (n - 1)//3 of each axis (grid.ball, the one
# place the rule is computed): on the p-planes above Kp and on the x and y
# rows beyond Kx and Ky.  Its nonzero coefficients lie in the box |jx| <=
# Kx, |jy| <= Ky, jp <= Kp, so much of a 3-D transform works on zeros.
# grid.runs(ball) is the one description of that box on a plane: two
# contiguous runs of rows on x and on y with ball (j >= 0, then j < 0), one
# run over the whole axis without; grid.blocks, grid.box and grid.gaps
# (the rows between the runs) derive from it, and grid.planes(ball) counts
# the box's p-planes.  fft_xy runs its x pass on those planes, its y pass
# and scaling on the runs on x, and sets the rest to zero: with ball that
# is all a masked product keeps.  ifft_xy takes a spectrum in the box,
# runs its x pass on the runs on y of those planes and its y pass on the
# planes; irfft_p then runs on everything.  Without ball each pass is one
# call on the whole array, the full transform's.  What is skipped is zero
# or masked, and the passes are the full transform's in the same order
# (forward: p, x, y; inverse: x, y, p), so every kept coefficient and
# every sample the route returns, with or without ball, is bit-identical
# to the full transform's.  The forward transform runs unscaled and is
# scaled by 1/N afterwards, a step fft_xy repeats exactly; the inverse
# needs no scaling.


def in_ball(grid: Grid, A: np.ndarray) -> bool:
    """Whether the spectra A (one field or a stack, rfft layout) are zero
    outside the 2/3 ball: on the p-planes beyond grid.planes(True) and on
    the x and y rows between the ball's runs (grid.gaps)."""
    gx, gy = grid.gaps(True)
    return not (np.any(A[..., grid.planes(True):]) or np.any(A[..., gx, :, :])
                or np.any(A[..., gy, :]))


def rfftn_norm(grid: Grid, data: np.ndarray) -> np.ndarray:
    """Forward real FFT over the trailing three axes (one field or a
    stack), normalized coefficients."""
    out = _fft.rfftn(data, axes=(-3, -2, -1), workers=_workers())
    out *= 1.0 / (grid.nx * grid.ny * grid.np)
    return out


def rfft_p(data: np.ndarray) -> np.ndarray:
    """The first pass of rfftn_norm, along p, unscaled: a new array that
    fft_xy finishes.  A slice of a stack takes it alone, with the bits the
    whole stack would get."""
    return _fft.rfft(data, axis=-1, workers=_workers())


def fft_xy(grid: Grid, out: np.ndarray, ball: bool = False) -> np.ndarray:
    """The x and y passes and the scaling of rfftn_norm, in place on out,
    the spectra along p that rfft_p gives (one field or a stack), which is
    returned.  Only the box of grid.runs(ball) is computed: the x pass on
    its p-planes (grid.planes), the y pass and the scaling on its runs on
    x.  The rest is set to zero, so with ball the result is rfftn_norm's
    times grid.dealias_mask, bit for bit, and what out holds on the
    p-planes beyond the ball's is never read; without, it is rfftn_norm's."""
    out[..., grid.planes(ball):] = 0.0
    kept = out[..., :grid.planes(ball)]
    _fft.fft(kept, axis=-3, overwrite_x=True, workers=_workers())
    for xs, _ in grid.runs(ball)[0]:
        rows = kept[..., xs, :, :]
        _fft.fft(rows, axis=-2, overwrite_x=True, workers=_workers())
        rows *= 1.0 / (grid.nx * grid.ny * grid.np)
    clear_outside_box(grid, kept, ball)
    return out


def clear_outside_box(grid: Grid, A: np.ndarray, ball: bool) -> None:
    """Zero what the spectra A (rfft layout, one field or a stack) hold
    outside the box of grid.runs(ball) on each p-plane: the x and y rows
    between its runs (grid.gaps), none without ball."""
    gx, gy = grid.gaps(ball)
    A[..., gx, :, :] = 0.0
    A[..., gy, :] = 0.0


def irfftn_norm(grid: Grid, coeff: np.ndarray) -> np.ndarray:
    """Inverse of rfftn_norm; returns real samples on the collocation grid.
    coeff is left as it was."""
    return _fft.irfftn(coeff, s=grid.shape, axes=(-3, -2, -1), norm="forward",
                       workers=_workers())


def ifft_xy(grid: Grid, coeff: np.ndarray, ball: bool = False) -> np.ndarray:
    """The x and y passes of irfftn_norm, in place on coeff, which is
    returned; irfft_p of it finishes the transform, one slice of a stack
    at a time if need be.  What coeff holds on the p-planes of grid.planes(ball)
    must lie in the box of grid.runs(ball) (with ball, inside the ball,
    in_ball): the other planes are set to zero, the x pass runs on the
    box's runs on y of its planes and the y pass on its planes, and the
    samples are irfftn_norm's bit for bit."""
    coeff[..., grid.planes(ball):] = 0.0
    kept = coeff[..., :grid.planes(ball)]
    for ys, _ in grid.runs(ball)[1]:
        _fft.ifft(kept[..., ys, :], axis=-3, norm="forward", overwrite_x=True, workers=_workers())
    _fft.ifft(kept, axis=-2, norm="forward", overwrite_x=True, workers=_workers())
    return coeff


def irfft_p(grid: Grid, coeff: np.ndarray) -> np.ndarray:
    """The last pass of irfftn_norm, along p: the samples of coefficients
    whose x and y passes ifft_xy has taken."""
    return _fft.irfft(coeff, n=grid.np, axis=-1, norm="forward", workers=_workers())


def fft2_norm(data: np.ndarray) -> np.ndarray:
    """Normalized Fourier coefficients of a horizontal (nx, ny) array, the
    two-dimensional counterpart of rfftn_norm (full, complex layout)."""
    return _fft.fft2(data, norm="forward", workers=_workers())


def ifft2_norm(coeff: np.ndarray) -> np.ndarray:
    """Inverse of fft2_norm; complex samples, real for a Hermitian coeff."""
    return _fft.ifft2(coeff, norm="forward", workers=_workers())


class HorizontalRows:
    """A set of horizontal rows (kx, ky) for the transforms along p alone,
    and where the rows and their mirrors sit in the rfft layout.

    The rows are those with |jx| <= Kx and 0 <= jy <= Ky (the 2/3 band,
    (Kx, Ky) the radius of grid.ball) for band=True, and every row with
    0 <= jy <= ny//2 otherwise; planes is the number of leading p-planes
    the inverse writes, grid.planes(band).  A row stands for itself and its
    mirror (-kx, -ky), whose coefficients are the conjugates of its own for
    a real field; the rows jy = 0 (and jy = ny/2) hold their own mirrors.
    indices and mirrors are their flat (kx, ky) indices in the rfft layout.
    The rows and their mirrors fill the box grid.box(band): the rows its
    y indices jy >= 0, the mirrors the others.
    """

    def __init__(self, grid: Grid, band: bool):
        nx, ny = grid.nx, grid.ny
        self.box = jx, ys = grid.box(band)
        jy = ys[ys <= ny // 2]
        self.planes = grid.planes(band)
        self.grid = grid
        self.shape = (len(jx), len(jy))
        self.indices = (jx[:, None] * ny + jy).ravel()
        self.mirrors = ((-jx % nx)[:, None] * ny + (-jy % ny)).ravel()

    @cached_property
    def src(self) -> np.ndarray:
        """Flat indices into the spectra along p of the rows, shape
        (n_rows, np), of the values of the box's kept planes, in the box's
        layout: kp itself on a row, -kp (to be conjugated) on a mirror."""
        g, (_, ys), (n_x, n_y) = self.grid, self.box, self.shape
        ix = np.arange(n_x)[:, None]  # -ix % n_x is where the mirror of ix sits
        own = ys < n_y
        row = np.where(own, ix * n_y + ys, (-ix % n_x) * n_y + (-ys % g.ny))
        kp = np.arange(self.planes)
        return row[:, :, None] * g.np + np.where(own[:, None], kp, -kp % g.np)

    def targets(self, Fhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The coefficients on the box's kept planes of the fields whose
        spectra along p on the rows Fhat holds (shape (..., *shape, np)),
        in the box's layout: shape (..., *src.shape)."""
        lead = Fhat.shape[:-3]
        out = np.take(Fhat.reshape(lead + (-1,)), self.src, axis=-1, out=out, mode="clip")
        mirrored = out[..., self.shape[1]:, :]
        np.conjugate(mirrored, out=mirrored)
        return out


def fft_p(F: np.ndarray) -> np.ndarray:
    """The spectra along p of the complex samples F, in place, normalized like
    rfftn_norm's."""
    return _fft.fft(F, axis=-1, norm="forward", overwrite_x=True, workers=_workers())


def ifft_p(F: np.ndarray) -> np.ndarray:
    """The inverse of fft_p, in place."""
    return _fft.ifft(F, axis=-1, norm="forward", overwrite_x=True, workers=_workers())


def horizontal_spectra(grid: Grid, coeff: np.ndarray, rows: HorizontalRows | None = None,
                       factor=None, out: np.ndarray | None = None) -> np.ndarray:
    """The horizontal Fourier coefficients of one field or a stack at every
    p-level: F with

        f(x, y, p_m) = sum over (kx, ky) of F[kx, ky, m] exp(i (kx x + ky y)),

    f the samples irfftn_norm(grid, coeff) gives, on the rows of rows
    (default: every row with ky = 0 .. ny//2).  f is real, so F(-kx, -ky) =
    conj F(kx, ky) gives the other rows.  The result has shape
    (..., *rows.shape, np).

    It is the inverse transform along p alone, which needs both halves of
    the kp axis: the stored one, and for kp < 0 the conjugates of the
    mirrored modes c(-kx, -ky, -kp).  The kp = 0 and Nyquist planes enter
    with their Hermitian part, the part irfftn_norm reads.  factor, a
    multiplier along the stored kp axis broadcasting against the rows of
    coeff (i kp, say), multiplies coeff first: the samples are then those
    of irfftn_norm(grid, factor * coeff).  Given out, the result goes into
    it; the gathered rows and their mirrors are new arrays either way.
    """
    rows = HorizontalRows(grid, band=False) if rows is None else rows
    n, h = grid.np, grid.np // 2
    lead = coeff.shape[:-3]
    flat = coeff.reshape(lead + (-1, h + 1))
    direct = np.take(flat, rows.indices, axis=-2, mode="clip")
    mirror = np.take(flat, rows.mirrors, axis=-2, mode="clip")
    if factor is not None:
        direct *= factor
        mirror *= factor
    np.conjugate(mirror, out=mirror)
    if out is None:
        out = np.empty(lead + rows.shape + (n,), dtype=np.complex128)
    full = out.reshape(lead + (-1, n))
    full[..., :h + 1] = direct
    full[..., h + 1:] = mirror[..., h - 1:0:-1]
    for j in (0, h):
        full[..., j] += mirror[..., j]
        full[..., j] *= 0.5
    return ifft_p(out)


def checked_forward(grid: Grid, data: np.ndarray) -> np.ndarray:
    """rfftn_norm of one field or a stack.  Non-finite input is rejected:
    NaN/Inf would silently poison every subsequent spectral operation."""
    if not np.all(np.isfinite(data)):
        raise DataError("forward: non-finite values in physical data")
    return rfftn_norm(grid, data)


def checked_backward(grid: Grid, coeff: np.ndarray) -> np.ndarray:
    """irfftn_norm of one field or a stack, finite input only."""
    if not np.all(np.isfinite(coeff)):
        raise DataError("backward: non-finite values in spectral data")
    return irfftn_norm(grid, coeff)


_AXES = {"x": 0, "y": 1, "p": 2}


def derivative(field: Field3D, axis: str) -> Field3D:
    """Spectral derivative along 'x', 'y' or 'p'.

    Accepts either representation and returns the same representation it was
    given.  Differentiation is the exact derivative of the trigonometric
    interpolant: multiplication by i*k mode by mode.
    """
    if axis not in _AXES:
        raise DataError(f"derivative: unknown axis {axis!r}")
    g = field.grid
    spec = field.as_spectral()
    k = (g.KX, g.KY, g.KP)[_AXES[axis]]
    out = Field3D.spectral(g, spec.data * (1j * k))
    return out if field.rep == SPECTRAL else out.as_physical()


def dealias(field: Field3D) -> Field3D:
    """Zero all modes outside the 2/3 ball (grid.ball) in any direction."""
    field.require(SPECTRAL, "dealias")
    return Field3D.spectral(field.grid, field.data * field.grid.dealias_mask)


def _flip_p(data: np.ndarray) -> np.ndarray:
    """Reflect samples about p_tilde = 0: index j -> (np - j) mod np on the last axis."""
    return np.roll(data[..., ::-1], 1, axis=-1)


def parity_part(data: np.ndarray, sign) -> np.ndarray:
    """0.5 (f + sign * reflected f): the even part for sign 1, the odd part
    for sign -1; sign may broadcast over a stack."""
    part = _flip_p(data)
    part *= sign
    part += data
    part *= 0.5
    return part


def parity_deviation(data: np.ndarray, sign) -> np.ndarray:
    """max |f - P f| over the trailing three axes of physical samples (one
    field or a stack), P the projection onto the class of sign (1 even,
    -1 odd; it may broadcast over a stack)."""
    dev = parity_part(data, sign)
    np.subtract(data, dev, out=dev)
    return np.abs(dev, out=dev).max(axis=(-3, -2, -1))

