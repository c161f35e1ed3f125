"""Collocation grid for the periodic cylinder (0,1)^2 x (p0,p1).

The domain is periodic in all three directions: period 1 in x and y, period
Lp = p1 - p0 in the pressure coordinate.  Sample points are

    x_i = i/nx,  y_j = j/ny,  p_k = p0 + k*Lp/np,

so p1 is identified with p0.  Arrays are laid out C-order with shape
(nx, ny, np): the pressure index varies fastest, and the real FFT therefore
halves the p axis, giving spectral shape (nx, ny, np//2 + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError


def check_pressure_bounds(p0: float, p1: float) -> None:
    """The pressure shell rule of Grid and PhysParams: 0 < p0 < p1 < inf."""
    if not 0.0 < p0 < p1 < math.inf:
        raise ParameterError(f"domain.p0, domain.p1: need 0 < p0 < p1 < inf, "
                             f"got p0={p0!r}, p1={p1!r}")


@dataclass(frozen=True)
class Grid:
    """Grid sizes and pressure bounds.

    nx, ny, np are the number of collocation points per direction; all must be
    even and at least 8 so the 2/3-rule dealiasing band is nonempty.  ball
    is the one home of the 2/3 rule: every dealiasing mask, pruned
    transform, row set and stored box reads its kept radius from there.
    """

    nx: int
    ny: int
    np: int
    p0: float
    p1: float

    # horizontal periods are fixed by the model's nondimensionalization
    Lx = 1.0
    Ly = 1.0

    def __post_init__(self):
        for name in ("nx", "ny", "np"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 8 or n % 2 != 0:
                raise ParameterError(f"grid.{name}: must be an even integer >= 8, got {n!r}")
        check_pressure_bounds(self.p0, self.p1)

    @property
    def Lp(self) -> float:
        return self.p1 - self.p0

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.np)

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.np // 2 + 1)

    @property
    def volume(self) -> float:
        return self.Lx * self.Ly * self.Lp

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * (self.Lx / self.nx)

    @cached_property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * (self.Ly / self.ny)

    @cached_property
    def p(self) -> np.ndarray:
        return self.p0 + np.arange(self.np) * (self.Lp / self.np)

    # --- wavenumbers ------------------------------------------------------

    @cached_property
    def kx(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.Lx / self.nx)

    @cached_property
    def ky(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.Ly / self.ny)

    @cached_property
    def kp(self) -> np.ndarray:
        # half-spectrum axis
        return 2.0 * np.pi * np.fft.rfftfreq(self.np, d=self.Lp / self.np)

    @cached_property
    def KX(self) -> np.ndarray:
        return self.kx[:, None, None]

    @cached_property
    def KY(self) -> np.ndarray:
        return self.ky[None, :, None]

    @cached_property
    def KP(self) -> np.ndarray:
        return self.kp[None, None, :]

    @cached_property
    def kh2(self) -> np.ndarray:
        """Horizontal |k|^2 = kx^2 + ky^2, broadcast to spectral shape."""
        return np.broadcast_to(self.KX**2 + self.KY**2, self.spectral_shape)

    @cached_property
    def k2(self) -> np.ndarray:
        """Full |k|^2 = kx^2 + ky^2 + kp^2, broadcast to spectral shape."""
        return np.broadcast_to(self.KX**2 + self.KY**2 + self.KP**2, self.spectral_shape)

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Multiplicity of each stored p-mode under conjugate symmetry.

        Interior p-modes represent a +/- pair; the mean and the Nyquist mode
        are their own conjugates.
        """
        w = np.full(self.np // 2 + 1, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        return w[None, None, :]

    # --- mode-index masks -------------------------------------------------

    @cached_property
    def mode_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer mode indices |j| along each axis, broadcastable."""
        jx = np.abs(np.fft.fftfreq(self.nx, d=1.0 / self.nx)).astype(int)
        jy = np.abs(np.fft.fftfreq(self.ny, d=1.0 / self.ny)).astype(int)
        jp = np.arange(self.np // 2 + 1)
        return jx[:, None, None], jy[None, :, None], jp[None, None, :]

    @cached_property
    def ball(self) -> tuple[int, int, int]:
        """The kept radius K of the 2/3 rule on each axis (x, y, p): the
        modes with |j| <= K survive dealiasing.  K = (n - 1)//3 is the
        largest radius with n >= 3K + 1 (Orszag 1971): a product of two kept
        modes reaches |j| <= 2K, and its alias image j -+ n then lies beyond
        K, so no aliased content survives the mask."""
        return tuple((n - 1) // 3 for n in self.shape)

    def planes(self, ball: bool) -> int:
        """The number of leading p-planes a spectrum can occupy: those up to
        the ball's radius with ball, all np//2 + 1 without."""
        return self.ball[2] + 1 if ball else self.np // 2 + 1

    def runs(self, ball: bool) -> tuple[tuple[tuple[slice, slice], ...], ...]:
        """The box that holds the ball on a p-plane, |jx| <= Kx and
        |jy| <= Ky, with ball, or the whole plane without, as contiguous
        runs of indices on x and on y: for each axis, the runs in ascending
        order, each its slice of the rfft layout and of the box's layout.
        With ball, two per axis (j >= 0, then j < 0); without, one.  Every
        other description of the box derives from these."""
        return self._runs[ball]

    @cached_property
    def _runs(self) -> dict[bool, tuple]:
        return {ball: tuple(((slice(0, k + 1),) * 2, (slice(n - k, n), slice(k + 1, 2 * k + 1)))
                            if ball else ((slice(0, n),) * 2,)
                            for n, k in zip(self.shape[:2], self.ball[:2]))
                for ball in (False, True)}

    def blocks(self, ball: bool) -> list[tuple[tuple[slice, slice], tuple[slice, slice]]]:
        """The box as contiguous blocks of a plane, the products of the runs
        on x and on y: for each, its (x, y) slices of the rfft layout and of
        the box's layout.  With ball, four; without, the whole plane."""
        xs, ys = self.runs(ball)
        return [((x, y), (xb, yb)) for x, xb in xs for y, yb in ys]

    def gaps(self, ball: bool) -> tuple[slice, slice]:
        """The x and y rows of the rfft layout between the runs: those
        beyond the ball's radius with ball, none (empty slices) without."""
        return tuple(slice(axis[0][0].stop, axis[-1][0].start) for axis in self.runs(ball))

    def box(self, ball: bool) -> tuple[np.ndarray, np.ndarray]:
        """The x and y indices of the runs, ascending.  Arrays restricted
        to them have the box's layout."""
        return tuple(np.r_[tuple(s for s, _ in axis)] for axis in self.runs(ball))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: modes outside the ball in any direction are zeroed."""
        (jx, jy, jp), (bx, by, bp) = self.mode_index, self.ball
        return (jx <= bx) & (jy <= by) & (jp <= bp)

    def band_mask(self, band: int) -> np.ndarray:
        """Mask keeping modes with |j| <= band in every direction."""
        jx, jy, jp = self.mode_index
        return (jx <= band) & (jy <= band) & (jp <= band)

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable physical coordinates (X, Y, P)."""
        return (
            self.x[:, None, None],
            self.y[None, :, None],
            self.p[None, None, :],
        )
