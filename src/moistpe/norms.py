"""Sobolev norms, the pressure-weighted norm, and grid inner products.

All integrals are over the full domain M with |M| = Lp (unit horizontal
periods).  Sobolev norms are computed spectrally,

    ||f||_{H^s}^2 = |M| * sum_k (1 + |k|^2)^s |c_k|^2,

so that order 0 reproduces the L^2 integral of f^2 exactly (Parseval).
The weighted norm and the inner products use the plain collocation mean
times the volume; that quadrature is exactly the pairing under which the
discrete energy budgets close, which is why no fancier rule is used.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .fields import PHYSICAL, Field3D
from .grid import Grid


def parseval_sum(grid: Grid, coeff: np.ndarray, multiplier=None):
    """sum_k w_k |c_k|^2 (times multiplier_k) over the half spectrum.

    w_k counts each stored mode with its conjugate (grid.parseval_weights);
    times the volume this is the L^2 integral of the weighted field.  Given a
    stack of fields, it returns one sum per field.
    """
    mag2 = (coeff.real**2 + coeff.imag**2) * grid.parseval_weights
    return (mag2 if multiplier is None else mag2 * multiplier).sum(axis=(-3, -2, -1))


def sobolev_norm(field: Field3D, order: int) -> float:
    """H^order norm for order in {0, 1, 2, 3}; order 0 is the L^2 norm."""
    if order not in (0, 1, 2, 3):
        raise DataError(f"sobolev_norm: order must be 0..3, got {order!r}")
    g = field.grid
    multiplier = None if order == 0 else (1.0 + g.k2) ** order
    return float(np.sqrt(g.volume * parseval_sum(g, field.as_spectral().data, multiplier)))


def spectral_weighted_sum(field: Field3D, multiplier: np.ndarray) -> float:
    """sum_k multiplier_k |c_k|^2 * |M| with conjugate-pair counting.

    Building block for seminorms like ||grad f||^2 (multiplier kh2) or
    ||Delta f||^2 (multiplier kh2^2).
    """
    g = field.grid
    return float(g.volume * parseval_sum(g, field.as_spectral().data, multiplier))


def vector_sobolev_norm(components: tuple[Field3D, ...], order: int) -> float:
    return float(np.sqrt(sum(sobolev_norm(c, order) ** 2 for c in components)))


def l2_inner(f: Field3D, g_field: Field3D) -> float:
    """Collocation inner product <f, g> = volume * mean(f*g)."""
    f.require(PHYSICAL, "l2_inner")
    g_field.require(PHYSICAL, "l2_inner")
    if f.grid != g_field.grid:
        raise DataError("l2_inner: fields live on different grids")
    return float(f.grid.volume * np.mean(f.data * g_field.data))


def weight_profile(grid: Grid, params) -> np.ndarray:
    """The pressure weight g*p/(R*theta_bar(p)) sampled on the p grid;
    theta_bar comes from model.Coefficients, which checks it."""
    from .model import Coefficients  # model imports this module
    return params.g * grid.p / (params.R * Coefficients(grid, params).theta_bar)


def weighted_norm_w(field: Field3D, params) -> float:
    """||f||_w = || (g p / (R theta_bar)) f ||_{L^2}.

    Quadrature is the collocation mean of the integrand times the volume.
    Equivalent to the L^2 norm up to the constants c1 = min w, c2 = max w.
    """
    field.require(PHYSICAL, "weighted_norm_w")
    w = weight_profile(field.grid, params)
    integrand = (w[None, None, :] * field.data) ** 2
    return float(np.sqrt(field.grid.volume * np.mean(integrand)))
