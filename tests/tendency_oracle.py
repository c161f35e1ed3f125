"""The tendency assembled through 3-D transforms only, as a test oracle.

Every operator goes through full real 3-D FFTs on every p-plane and every
horizontal row: the hydrostatic Phi is synthesised in physical space,
transformed forward and differentiated, and each vertical viscous flux and
the (p0/p)^kappa conjugation of theta's viscosity is a dealiased product of
physical samples.  model.tendency takes the p-only terms on the horizontal
spectra of the kept rows instead; the two must agree to roundoff, for
every variant (a viscosity-only one checks the viscous operator alone).
"""

import numpy as np

from moistpe.fields import irfftn_norm, rfftn_norm
from moistpe.model import (FAITHFUL, Coefficients, _divergence_hat, _integral_to_p1,
                           _integrand, _phi, _ramp, _viscosities, coriolis_term)

VARIABLES = ("v", "v", "theta", "q")


def dealiased_hat(grid, mask, f):
    """dealias(rfft(f)) of physical samples f (one field or a stack)."""
    return rfftn_norm(grid, f) * mask


def conjugated_hat(grid, co, mask, f):
    """dealias(rfft((p0/p)^kappa f)) of physical samples f."""
    return dealiased_hat(grid, mask, co.pk * f)


def viscous_flux_hat(grid, co, mask, dpf):
    """W = dealias(rfft(c * dpf)) of a physical p-derivative dpf or a stack."""
    return dealiased_hat(grid, mask, co.c * dpf)


def dp_viscous(grid, co, mask, F, which):
    """Physical d/dp of what the vertical viscosity differentiates: f for v
    and q, the dealiased s = (p0/p)^kappa f for theta."""
    if which == "theta":
        F = conjugated_hat(grid, co, mask, irfftn_norm(grid, F))
    return irfftn_norm(grid, 1j * grid.KP * F)


def tendency_3d(state, params, forcing=None, variant=FAITHFUL):
    """The spectral tendency stack of state, through 3-D transforms only."""
    g = state.grid
    co = Coefficients(g, params)
    mask = g.dealias_mask if variant.dealias else 1.0
    iKX, iKY, iKP = 1j * g.KX, 1j * g.KY, 1j * g.KP
    U = state.as_spectral().data
    phys = irfftn_norm(g, U)
    grads = [irfftn_norm(g, np.stack([iKX * u, iKY * u, iKP * u])) for u in U]
    v1, v2, th = phys[0], phys[1], phys[2]
    om = _integral_to_p1(g, _divergence_hat(g, U[0], U[1]))
    it = _integrand(g, params, co, th)
    Phat = rfftn_norm(g, _phi(g, co, it, _ramp(g, params, it.gbar)))
    dxphi, dyphi = irfftn_norm(g, np.stack([iKX * Phat, iKY * Phat]))

    P = np.zeros((4,) + g.shape)
    for Pi, (dx, dy, dp) in zip(P, grads):
        if variant.advection:
            Pi += v1 * dx + v2 * dy + om * dp
    if variant.pressure:
        P[0] += dxphi
        P[1] += dyphi
    cor1, cor2 = coriolis_term(v1, v2, params, variant)
    P[0] += cor1
    P[1] += cor2
    if variant.viscosity:
        Wth = viscous_flux_hat(g, co, mask, dp_viscous(g, co, mask, U[2], "theta"))
        P[2] -= params.nu_theta * co.pk * irfftn_norm(g, iKP * Wth)

    H = -rfftn_norm(g, P)
    if variant.viscosity:
        for i, which in enumerate(VARIABLES):
            mu, nu = _viscosities(params, which)
            H[i] -= mu * g.kh2 * U[i]
            if which != "theta":
                H[i] += nu * iKP * viscous_flux_hat(g, co, mask, grads[i][2])
    H *= mask
    if forcing is not None:
        H += forcing(state.t)
    return H
