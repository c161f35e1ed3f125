"""Spatial operators of the moist primitive-equation system.

Prognostic equations (pressure coordinates, gradient and Laplacian horizontal):

    dv/dt  = -(v.grad)v - omega dv/dp - grad(Phi) - f_cor v_perp - A_v v + f_v
    dth/dt = -(v.grad)th - omega dth/dp - A_th th + f_th
    dq/dt  = -(v.grad)q - omega dq/dp - A_q q + f_q

with v_perp = (-v2, v1) and the viscosity operators

    A_v f  = -mu_v Lap f - nu_v d/dp( c(p) df/dp ),          c = (g p / (R theta_bar))^2
    A_q f  = -mu_q Lap f - nu_q d/dp( c(p) df/dp )
    A_th f = -mu_th Lap f - nu_th (p0/p)^kappa d/dp( c(p) d/dp( (p0/p)^kappa f ) )

where kappa = R/cp.  The diagnostic fields are recovered from the prognostic
ones: omega by vertical antidifferentiation of -div(v), Phi by hydrostatic
integration of R T / p down from the top pressure p1.

Both diagnostics need care on a periodic pressure grid.  omega is periodic
because the projected velocity has pointwise-zero vertical-mean divergence.
Phi is not: the vertical mean of R T / p contributes a piece linear in p.
That ramp is carried analytically, and only the fluctuating part goes
through spectral antidifferentiation.  Differentiating the raw Phi samples
in p would differentiate a sawtooth, so consistency monitors use the same
ramp/fluctuation split.  A horizontal derivative does not see the p axis, so
the gradient of Phi may take the spectrum of the ramp's samples: gbar times
the DFT of p1 - p.

The tendency takes the pressure gradient and the vertical viscosity along p
alone.  Their coefficients depend on p only, so they commute with the x-y
transforms and act on the horizontal spectra of the rows the 2/3 mask keeps
(_VerticalBand): the spectrum of Phi is assembled from that of the integrand
(its antiderivative, the ramp and phi_s) and its gradient is i k_h times
it, and each viscous flux and theta's conjugated chain is a pair of
transforms along p.  Only advection and rotation go through 3-D transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import scipy.fft

from .errors import ConstraintError, DataError, ParameterError
from .fields import (PHYSICAL, SPECTRAL, Field3D, HorizontalRows, _workers, clear_outside_box,
                     fft2_norm, fft_p, fft_xy, horizontal_spectra, ifft2_norm, ifft_p, ifft_xy,
                     in_ball, irfft_p, irfftn_norm, rfft_p, rfftn_norm)
from .grid import Grid
from .norms import vector_sobolev_norm
from .params import PhysParams
from .state import State


@dataclass(frozen=True)
class ModelVariant:
    """Term toggles and deliberate defects for verification runs.

    The defaults are the faithful model.  The toggles isolate operator groups
    (pure diffusion runs, advection-only probes).  The two defect switches
    exist for mutation testing of the verification suite:

      coriolis_bug   replaces v_perp = (-v2, v1) by (v2, v1), the classic
                     transcription slip; unlike a global sign flip it breaks
                     the antisymmetry that makes Coriolis work vanish.
      dealias=False  skips every 2/3-rule truncation.
    """

    advection: bool = True
    coriolis: bool = True
    pressure: bool = True
    viscosity: bool = True
    dealias: bool = True
    coriolis_bug: bool = False

    def with_(self, **kwargs) -> "ModelVariant":
        return replace(self, **kwargs)


FAITHFUL = ModelVariant()


@dataclass(frozen=True)
class Diagnostics:
    omega: Field3D
    phi: Field3D
    temperature: Field3D


class Tendency(State):
    """Spectral time derivatives of the prognostic fields, stacked as in State."""


class Coefficients:
    """Pressure-profile coefficients sampled on the grid (1D along p).

    The one check of the profiles: theta_bar must be positive and finite and
    theta_h finite at every grid level, or ParameterError is raised.
    """

    def __init__(self, grid: Grid, params: PhysParams):
        params.check_grid(grid)
        p = grid.p
        self.p = p
        self.inv_p = 1.0 / p
        theta_bar = params.theta_bar.evaluate(p)
        if not np.all((0.0 < theta_bar) & (theta_bar < np.inf)):
            raise ParameterError("physics.theta_bar: must be positive and finite on the grid")
        self.theta_bar = theta_bar
        self.theta_h = params.theta_h.evaluate(p)
        if not np.all(np.isfinite(self.theta_h)):
            raise ParameterError("physics.theta_h: must be finite on the grid")
        self.c = (params.g * p / (params.R * theta_bar)) ** 2
        kappa = params.kappa
        self.kappa = kappa
        self.pk = (params.p0 / p) ** kappa      # (p0/p)^kappa
        self.pk_inv = (p / params.p0) ** kappa  # (p/p0)^kappa
        # constant-coefficient split used by the implicit time integrator
        self.c_mean = float(np.mean(self.c))
        if params.phi_s is None:
            self.phi_s = np.zeros((grid.nx, grid.ny))
        else:
            phi_s = np.asarray(params.phi_s, dtype=np.float64)
            if phi_s.shape != (grid.nx, grid.ny):
                raise DataError(f"phi_s must have shape {(grid.nx, grid.ny)}, got {phi_s.shape}")
            self.phi_s = phi_s


# --- potential temperature <-> temperature --------------------------------


def _temperature(co: Coefficients, theta_phys: np.ndarray) -> np.ndarray:
    return (theta_phys + co.theta_h) * co.pk_inv


def temperature_from_theta(theta: Field3D, params: PhysParams) -> Field3D:
    """T = (theta + theta_h) * (p/p0)^kappa, evaluated pointwise."""
    theta.require(PHYSICAL, "temperature_from_theta")
    co = Coefficients(theta.grid, params)
    return Field3D.physical(theta.grid, _temperature(co, theta.data))


def theta_from_temperature(T: Field3D, params: PhysParams) -> Field3D:
    """theta = T * (p0/p)^kappa - theta_h, the inverse of temperature_from_theta."""
    T.require(PHYSICAL, "theta_from_temperature")
    co = Coefficients(T.grid, params)
    return Field3D.physical(T.grid, T.data * co.pk - co.theta_h)


# --- vertical calculus ----------------------------------------------------


def _divergence_hat(grid: Grid, V1: np.ndarray, V2: np.ndarray) -> np.ndarray:
    D = np.multiply(1j * grid.KX, V1)
    D += 1j * grid.KY * V2
    return D


def _integral_to_p1(grid: Grid, F: np.ndarray, base=None) -> np.ndarray:
    """base + integral from p to p1 of the zero-p-mean part of F, sampled.

    F holds spectral coefficients (one field or a stack) and is left as it
    was.  The antiderivative G = F / (i kp) is taken mode by mode with the
    p-mean plane dropped, on the p-planes F can occupy (in_ball, as tendency
    reads it), and G(p0) - G(p) equals the integral from p to p1 by
    periodicity.  Its samples take the inverse's passes apart, pruned inside
    the ball, with irfftn_norm's bits either way.  base (default zero) is
    the value at p = p0.  The tendency takes omega the same way, in its
    first inverse group (_products).
    """
    ball = in_ball(grid, F)
    n = grid.planes(ball)
    G = np.empty_like(F)
    G[..., 0] = 0.0
    np.divide(F[..., 1:n], 1j * grid.kp[1:n], out=G[..., 1:n])
    G = irfft_p(grid, ifft_xy(grid, G, ball))
    top = G[..., :1].copy() if base is None else base + G[..., :1]
    return np.subtract(top, G, out=G)


# --- vertical velocity ----------------------------------------------------


def divergence_residual(v1: Field3D, v2: Field3D) -> float:
    """Spectral max modulus of the divergence of the vertical average of v."""
    V1 = v1.as_spectral().data
    V2 = v2.as_spectral().data
    D = _divergence_hat(v1.grid, V1[..., :1], V2[..., :1])
    return float(np.max(np.abs(D)))


def diagnose_omega(v1: Field3D, v2: Field3D, check: bool = True) -> Field3D:
    """omega(x,y,p) = -integral from p0 to p of div(v) dp'.

    Requires the vertically-averaged divergence to vanish; otherwise the
    reconstruction is not periodic and a ConstraintError reports the offending
    residual (the state was not projected).  omega(p0) = 0 holds exactly by
    construction.
    """
    g = v1.grid
    S1, S2 = v1.as_spectral(), v2.as_spectral()
    D = _divergence_hat(g, S1.data, S2.data)
    if check:
        residual = float(np.max(np.abs(D[:, :, 0])))
        vnorm = vector_sobolev_norm((S1, S2), 1)
        if residual > 1e-11 * vnorm:
            raise ConstraintError(
                f"vertically-averaged divergence residual {residual:.3e} exceeds "
                f"1e-11 * ||v||_H1 = {1e-11 * vnorm:.3e}; project the state first",
                residual,
            )
    return Field3D.physical(g, _integral_to_p1(g, D))


def omega_top_residual(v1: Field3D, v2: Field3D) -> float:
    """max |omega(p1)| = Lp * (max over the horizontal grid of |div vbar|),
    vbar the vertical average of v; omega(p0) = 0 holds by construction."""
    g = v1.grid
    dbar_hat = _divergence_hat(g, v1.as_spectral().data[..., :1],
                               v2.as_spectral().data[..., :1])[:, :, 0]
    dbar = ifft2_norm(dbar_hat).real
    return g.Lp * float(np.max(np.abs(dbar)))


# --- geopotential ---------------------------------------------------------


class _Integrand(NamedTuple):
    """The hydrostatic integrand g = R*T/p and its parts, from theta samples.

    fluct_hat holds the zero-p-mean part of g with the p-Nyquist plane
    removed: the antiderivative of the Nyquist cosine is a sine that
    vanishes at every node, so the discrete vertical calculus cannot see
    that mode.  Dropping it up front makes antidifferentiation followed by
    differentiation an exact identity on the retained modes; the discarded
    residue is ordinary spectral truncation of the non-band-limited
    integrand, which the convergence suite measures instead.
    """

    T: np.ndarray
    gfield: np.ndarray
    gbar: np.ndarray
    fluct_hat: np.ndarray


def _integrand(grid: Grid, params: PhysParams, co: Coefficients,
               theta_phys: np.ndarray) -> _Integrand:
    T = _temperature(co, theta_phys)
    gfield = params.R * T * co.inv_p
    gbar = gfield.mean(axis=2)
    fluct_hat = rfftn_norm(grid, gfield - gbar[:, :, None])
    if grid.np % 2 == 0:
        fluct_hat[..., -1] = 0.0
    return _Integrand(T, gfield, gbar, fluct_hat)


def _ramp_hat(grid: Grid, params: PhysParams) -> np.ndarray:
    """The spectrum along p of the samples p1 - p, normalized like
    rfftn_norm's (kp >= 0): the vertical factor of the ramp's spectrum."""
    return scipy.fft.rfft(params.p1 - grid.p, norm="forward", workers=_workers())


def _ramp(grid: Grid, params: PhysParams, gbar: np.ndarray) -> np.ndarray:
    """gbar*(p1 - p): the integral from p to p1 of the p-mean of g."""
    return gbar[:, :, None] * (params.p1 - grid.p)[None, None, :]


def _phi(grid: Grid, co: Coefficients, it: _Integrand, ramp: np.ndarray) -> np.ndarray:
    """phi = phi_s + gbar*(p1 - p) + integral from p to p1 of the fluctuation
    of g, given the ramp gbar*(p1 - p) (_ramp)."""
    return _integral_to_p1(grid, it.fluct_hat, co.phi_s[:, :, None] + ramp)


def diagnose_phi(theta: Field3D, params: PhysParams) -> Field3D:
    """Phi = Phi_s + integral from p to p1 of R T / p' dp', T from theta."""
    theta.require(PHYSICAL, "diagnose_phi")
    g = theta.grid
    co = Coefficients(g, params)
    it = _integrand(g, params, co, theta.data)
    return Field3D.physical(g, _phi(g, co, it, _ramp(g, params, it.gbar)))


def _hydrostatic_residual(grid: Grid, Pper: np.ndarray, it: _Integrand) -> float:
    """hydrostatic_residual for the spectrum Pper of phi minus its ramp and
    the integrand of theta."""
    dphi, g_fluct = irfftn_norm(grid, np.stack([1j * grid.KP * Pper, it.fluct_hat]))
    dphi -= it.gbar[:, :, None]
    g_used = it.gbar[:, :, None] + g_fluct
    res = dphi + g_used
    return float(np.sqrt(grid.volume * np.mean(res**2)))


def hydrostatic_residual(phi: Field3D, theta: Field3D, params: PhysParams) -> float:
    """|| d(phi)/dp + R T / p ||_{L2}, differentiating phi structurally.

    The ramp gbar*(p1-p) is rebuilt from theta and subtracted before the
    spectral p-derivative (the raw samples contain that non-periodic piece);
    the comparison term R T / p is rebuilt from theta as the interpolant the
    vertical calculus acts on (zero-mean part Nyquist-free, see
    _Integrand), so the residual measures consistency of the supplied
    phi samples rather than truncation of the integrand.
    """
    phi.require(PHYSICAL, "hydrostatic_residual")
    theta.require(PHYSICAL, "hydrostatic_residual")
    g = phi.grid
    co = Coefficients(g, params)
    it = _integrand(g, params, co, theta.data)
    return _hydrostatic_residual(g, rfftn_norm(g, phi.data - _ramp(g, params, it.gbar)), it)


def hydrostatic_gradient_residual(theta: Field3D, params: PhysParams) -> float:
    """Relative size of d/dp(grad Phi) + (R/p) grad T.

    Route one differentiates the assembled Phi (ramp split off before the
    spectral p-derivative); route two forms (R/p) grad T from theta as the
    interpolant the vertical calculus acts on (see _Integrand).  The
    two routes traverse independent code paths and must agree to roundoff.
    """
    theta.require(PHYSICAL, "hydrostatic_gradient_residual")
    g = theta.grid
    co = Coefficients(g, params)
    it = _integrand(g, params, co, theta.data)
    ramp = _ramp(g, params, it.gbar)
    Pper = rfftn_norm(g, _phi(g, co, it, ramp) - ramp)
    Gb = np.ascontiguousarray(np.broadcast_to(it.gbar[:, :, None], g.shape))
    Gbhat = rfftn_norm(g, Gb)
    Ghat = Gbhat + it.fluct_hat
    worst = 0.0
    scale = 0.0
    for K in (g.KX, g.KY):
        dp_grad_per = irfftn_norm(g, 1j * K * 1j * g.KP * Pper)
        grad_gbar = irfftn_norm(g, 1j * K * Gbhat)
        route_one = dp_grad_per - grad_gbar
        route_two = -irfftn_norm(g, 1j * K * Ghat)
        diff = route_one - route_two
        worst = max(worst, float(np.sqrt(g.volume * np.mean(diff**2))))
        scale = max(scale, float(np.sqrt(g.volume * np.mean(route_two**2))))
    if scale == 0.0:
        return worst
    return worst / scale


# --- operators along p on the horizontal rows ----------------------------


def _viscosities(params: PhysParams, which: str) -> tuple[float, float]:
    """(mu, nu) of variable 'v', 'theta' or 'q'."""
    return getattr(params, f"mu_{which}"), getattr(params, f"nu_{which}")


_VARIABLES = ("v", "v", "theta", "q")  # the viscosity pair of v1, v2, theta, q


def _hermitian_planes(grid: Grid, M) -> np.ndarray:
    """The multiplier M (rfft layout, x and y axes of length 1 or full)
    with its Hermitian part on the kp = 0 and Nyquist planes, on the whole
    kp axis and as thin as M on x and y: what M becomes between an inverse
    and a forward 3-D transform, acting on a Hermitian spectrum.  It differs
    from M only where M(-k) != -M(k): for i kx and i ky, on the x and y
    Nyquist rows, which only a variant without dealiasing keeps, and in the
    sign of a zero real part."""
    M = np.array(np.broadcast_to(M, M.shape[:2] + grid.spectral_shape[2:]), dtype=np.complex128)
    ix, iy = (-np.arange(n) % n for n in M.shape[:2])
    for j in (0, -1):
        plane = M[:, :, j]
        plane += np.conj(plane[ix][:, iy])
        plane *= 0.5
    return M


class _VerticalBand:
    """The operators along p of one (grid, params, dealias), on the rows of
    the 2/3 band when dealiasing and on every half row otherwise: products
    with a profile of the samples along p, and multipliers on both halves
    of the kp axis.

    rows         the fields.HorizontalRows
    factor       i kp, 1, i kp, i kp along the stored kp axis: the spectra
                 whose samples the viscous fluxes take (dp f, and theta)
    profiles     c, c, (p0/p)^kappa, c: the products that follow
    integrand    R (p/p0)^kappa / p, of the hydrostatic integrand
    dp           i kp on the full kp axis, zero on the mean and Nyquist
                 planes (as irfftn_norm applies it) and, when dealiasing,
                 beyond the ball's radius on p (grid.ball)
    neg_inv_ikp  -1/(i kp), zero on the mean and Nyquist planes
    ramp         the spectrum of p1 - p on the full kp axis
    phi_s        fft2_norm(phi_s) on the rows
    nu           along the kept planes, per variable: nu i kp for v1, v2
                 and q, nu for theta
    iKX, iKY     i kx and i ky on the box's kept planes (rows.box, in its
                 layout), Hermitian on the kp = 0 and Nyquist planes
                 (_hermitian_planes); each varies along one axis only, so
                 iKX has the box's x rows and iKY its y rows, and both
                 broadcast over the other
    """

    def __init__(self, grid: Grid, params: PhysParams, co: Coefficients, dealias: bool):
        self.rows = rows = HorizontalRows(grid, dealias)
        n = grid.np
        ikp = 1j * grid.kp
        self.factor = np.stack([ikp, ikp, np.ones_like(ikp), ikp])[:, None, :]
        self.profiles = np.stack([co.c, co.c, co.pk, co.c])[:, None, None, :]
        self.integrand = params.R * co.pk_inv * co.inv_p
        self.c, self.pk = co.c, co.pk
        kp = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.Lp / n)
        kp[n // 2] = 0.0
        m = grid.planes(dealias)  # i kp on the kept planes and their mirrors
        keep = np.zeros(n)
        keep[:m] = keep[n + 1 - m:] = 1.0
        self.dp = 1j * kp * keep
        self.neg_inv_ikp = np.zeros(n, dtype=np.complex128)
        self.neg_inv_ikp[kp != 0.0] = -1.0 / (1j * kp[kp != 0.0])
        half = _ramp_hat(grid, params)
        self.ramp = np.concatenate([half, np.conj(half[-2:0:-1])])
        self.phi_s = fft2_norm(co.phi_s).ravel()[rows.indices].reshape(rows.shape)
        self.nu = np.empty((4, 1, 1, rows.planes), dtype=np.complex128)
        for i, which in enumerate(_VARIABLES):
            nu = _viscosities(params, which)[1]
            self.nu[i] = nu if which == "theta" else nu * ikp[:rows.planes]
        jx, jy = rows.box
        self.iKX = _hermitian_planes(grid, 1j * grid.KX)[jx, :, :rows.planes]
        self.iKY = _hermitian_planes(grid, 1j * grid.KY)[:, jy, :rows.planes]

    def outer_theta(self, s: np.ndarray) -> None:
        """theta's viscous chain on the rows, in place: from the spectra
        along p of s = (p0/p)^kappa theta to the samples of
        (p0/p)^kappa d/dp(c ds/dp), every product dealiased."""
        s *= self.dp
        ifft_p(s)
        s *= self.c
        fft_p(s)
        s *= self.dp
        ifft_p(s)
        s *= self.pk

    def phi_hat(self, ghat: np.ndarray, top: np.ndarray, tmp: np.ndarray) -> None:
        """The spectra along p of Phi on the rows, in place of those of the
        integrand R (p/p0)^kappa theta / p, assembled as _phi assembles Phi:
        phi_s + gbar (p1 - p) + the integral from p to p1 of the
        fluctuation, that is G(p0) - G with G its antiderivative.  theta_h
        is left out: it moves only the horizontal mean, which has no
        gradient.  top (one plane of the rows) and tmp (like ghat) are
        scratch."""
        np.multiply(ghat[..., :1], self.ramp, out=tmp)
        ghat *= self.neg_inv_ikp
        np.sum(ghat, axis=-1, out=top)
        np.subtract(self.phi_s, top, out=ghat[..., 0])
        ghat += tmp


# --- barotropic projection ------------------------------------------------


def _project_in_place(grid: Grid, V1: np.ndarray, V2: np.ndarray) -> None:
    """The projection of barotropic_project, written into the spectral
    velocity arrays V1 and V2 (their kp = 0 planes)."""
    kx = grid.kx[:, None]
    ky = grid.ky[None, :]
    kh2 = kx**2 + ky**2
    kh2[0, 0] = 1.0  # mean mode has no gradient part
    u = V1[:, :, 0]
    w = V2[:, :, 0]
    proj = (kx * u + ky * w) / kh2
    proj[0, 0] = 0.0
    V1[:, :, 0] = u - kx * proj
    V2[:, :, 0] = w - ky * proj


def barotropic_project(v1: Field3D, v2: Field3D) -> tuple[Field3D, Field3D]:
    """Remove the gradient part of the vertical average of v.

    Solves Lap(phi) = div(vbar) on the horizontal torus (phi of zero mean) and
    subtracts grad(phi).  In the half-spectrum layout the vertical average is
    exactly the kp = 0 plane, so only that plane changes; the projection is
    idempotent and an L2 contraction.
    """
    g = v1.grid
    V1 = v1.as_spectral().data.copy()
    V2 = v2.as_spectral().data.copy()
    _project_in_place(g, V1, V2)
    out1 = Field3D.spectral(g, V1)
    out2 = Field3D.spectral(g, V2)
    if v1.rep == PHYSICAL:
        return out1.as_physical(), out2.as_physical()
    return out1, out2


def project_state(state: State) -> State:
    """A new spectral state: state with its velocity projected (see
    barotropic_project)."""
    out = State.of(state.grid, state.as_spectral().data.copy(), SPECTRAL, state.t)
    _project_in_place(out.grid, out.data[0], out.data[1])
    return out


# --- advection and rotation -----------------------------------------------


def advection_work(v1: Field3D, v2: Field3D, omega: Field3D, s: Field3D) -> float:
    """integral of (v.grad(s) + omega ds/dp) * s over M, collocation quadrature."""
    g = s.grid
    S = s.as_spectral()
    dxs = irfftn_norm(g, 1j * g.KX * S.data)
    dys = irfftn_norm(g, 1j * g.KY * S.data)
    dps = irfftn_norm(g, 1j * g.KP * S.data)
    sp = s.as_physical().data
    v1p = v1.as_physical().data
    v2p = v2.as_physical().data
    omp = omega.as_physical().data
    integrand = (v1p * dxs + v2p * dys + omp * dps) * sp
    return float(g.volume * np.mean(integrand))


def coriolis_term(v1: np.ndarray, v2: np.ndarray, params: PhysParams,
                  variant: ModelVariant = FAITHFUL) -> tuple[np.ndarray, np.ndarray]:
    """f_cor v_perp on physical samples, as the tendency subtracts it from dv/dt.

    Faithful: (-f v2, f v1).  The coriolis_bug slip gives (f v2, f v1), and a
    variant without rotation gives zeros.
    """
    if not variant.coriolis:
        zeros = np.zeros_like(v1)
        return zeros, zeros
    f = params.f_cor
    if variant.coriolis_bug:
        return f * v2, f * v1
    return -f * v2, f * v1


# --- full tendency --------------------------------------------------------


class Forcing:
    """A spectral forcing of v1, v2, theta and q that is zero off a box of
    the spectral stack: the tendency adds it on the box alone.

    box indexes the box in a state's stack (box[1:] in one field's
    spectrum), and on_box(t) gives the forcing's values there, stacked; an
    array of on_box holds until the next call with another time.  A
    manufactured solution stores its forcing on the box that holds its
    responses (manufactured._box); forcing read from a file is one stack at
    every time, on the whole half spectrum (static).

    Called with t, a Forcing gives the full stack, zero off the box, in a
    new read-only array, so a stack returned earlier never changes.
    """

    def __init__(self, grid: Grid, box: tuple, on_box: Callable[[float], np.ndarray]):
        self.grid = grid
        self.box = box
        self.on_box = on_box

    @classmethod
    def static(cls, grid: Grid, stack: np.ndarray) -> "Forcing":
        """The forcing that is the spectral stack at every time."""
        values = stack.view()
        values.flags.writeable = False
        return cls(grid, (slice(None),) * 4, lambda t: values)

    def __call__(self, t: float) -> np.ndarray:
        f = np.zeros((4,) + self.grid.spectral_shape, dtype=np.complex128)
        f[self.box] = self.on_box(t)
        f.flags.writeable = False
        return f


class Workspace:
    """The model of a tendency call, its (grid, params, variant), and what
    the tendency and the time steppers reuse for it: the coefficient
    profiles, the i*k multipliers, the operators along p on the rows (band,
    a _VerticalBand), for a variant with viscosity mu*|k_h|^2 of each field
    on the box (mu_box: complex, like the spectra it multiplies, in the
    box's layout, grid.box, and one plane thick, since it does not vary
    along p), and scratch buffers sized by the grid.  For a variant without
    dealiasing the box is the whole half spectrum, one block.

    The implicit multipliers lam of the IMEX split (stacked like a state)
    and the real temporary real of an IMEX step are built the first time an
    IMEX step reads them, so an ERK4 run never holds them.  lam_max, the
    stiffest of them, which the ERK4 stability check reads, is lam's value
    at the corner of the spectrum (largest |k_h|^2 and kp^2): each rounded
    step of lam grows with both, so it is lam's maximum bit for bit.

    The band and its row scratch exist only for a variant with a term along
    p (pressure or viscosity); otherwise band is None.  An advection-only
    variant without dealiasing would take them on every half row, and at
    64^3 they are ~58 MB.

    The scratch holds intermediate values of one tendency call or one step;
    nothing a call returns refers to it.  A run builds one workspace and
    passes it to every step.  The spectra of the tendency's inverse (v1, v2,
    omega's antiderivative and the 12 derivatives) take their x and y passes
    in spec: all 15 at once, or, where 14 fields would pass STREAM_BYTES
    (streamed), one group at a time in a spec of three fields, which holds
    the first group (v1, v2 and omega's antiderivative) exactly.  Both give
    the same bits.
    With the whole stack (up to 32^3) the grid is one slab and prod holds
    its four products.  Streamed, prod is None: the passes along p on
    either side of each product run on x slabs (slabs), as wide as keeps
    one group's samples on a slab within SLAB_BYTES (10 of the 64 x planes
    at 64^3), and each product is formed in its group's samples.

    The scratch of the tendency's three phases, spec (the inverse),
    rows_work (the operators on the rows) and box_tmp (the tail on the
    box), are views of one buffer, scratch, as large as the largest of them
    (spec, on the cubic grids from 16^3 to 64^3).  The phases run one after
    the other: _products is done with spec before _row_terms fills
    rows_work, rows_work is dead once its targets are in the terms
    _row_terms returns, and only then does the tail write box_tmp.  Each
    phase writes every element it reads before reading it, so what another
    phase left there is never read.  The gathered rows and the terms on the
    box are live beside rows_work; they are made per call, so they are not
    held through _products, where every step peaks.  At 64^3 the workspace
    holds 15.4 MB.
    """

    # Where splitting the stack starts to pay: the time of a warm in-ball
    # tendency, the two paths interleaved in one process (one FFT thread),
    # streamed against whole at N^3.  On a 2-core AMD EPYC (two runs): +8 to
    # +10% at 16, +3% at 24, +1 to +2% at 32, -1 to -2% at 36 and 40, -5 to
    # -8% at 44 and 48, -10 to -12% at 64.  On a 2-core Intel Xeon (ten
    # runs of an unforced state, two sittings) the streamed/whole ratio was
    # 1.16-1.18 at 16 and 1.07-1.24 at 24 (slower in 9-10 of 10), 0.93-0.97
    # at 32 (faster in 7-10 of 10).  The rule counts the 14 fields of v1, v2
    # and the derivatives, 3.9 MB at 32^3 and 5.5 MB at 36^3; omega's slot
    # does not move it.
    STREAM_BYTES = 4 << 20
    # the samples of one group (three fields) on one x slab
    SLAB_BYTES = 1 << 20

    def __init__(self, grid: Grid, params: PhysParams, variant: ModelVariant = FAITHFUL):
        co = Coefficients(grid, params)
        self.grid = grid
        self.params = params
        self.variant = variant
        self.c_mean = co.c_mean
        # p-planes a masked product can occupy
        self.planes = grid.planes(variant.dealias)
        self.iK = tuple(np.broadcast_to(1j * K, grid.spectral_shape)
                        for K in (grid.KX, grid.KY, grid.KP))
        # lam's largest value, at the corner of the spectrum (see above)
        corner = float(grid.kh2[..., 0].max()), float((grid.kp**2).max())
        self.lam_max = (max(self._lam(which, *corner) for which in _VARIABLES)
                        if variant.viscosity else 0.0)
        # scratch of tendency: the spectral input of the inverse of v1, v2,
        # omega's antiderivative and the 12 derivatives, and the products
        # (spec, slabs and prod: see above)
        field_bytes = 16 * int(np.prod(grid.spectral_shape))
        self.streamed = 14 * field_bytes > self.STREAM_BYTES
        shapes = {"spec": (3 if self.streamed else 15,) + grid.spectral_shape}
        width = (max(1, self.SLAB_BYTES // (3 * grid.ny * grid.np * 8)) if self.streamed
                 else grid.nx)
        self.slabs = [slice(x, min(x + width, grid.nx)) for x in range(0, grid.nx, width)]
        self.prod = None if self.streamed else np.empty((4,) + grid.shape)
        # scratch of the steps: a stage state or spectral temporary, stacked
        # like a state
        self.stage = np.empty((4,) + grid.spectral_shape, dtype=np.complex128)
        self.band = None  # without a term along p: no operators on the rows
        if variant.pressure or variant.viscosity:
            self.band = _VerticalBand(grid, params, co, variant.dealias)
            # scratch of the operators on the rows: six fields on the rows
            # (four fluxes, the integrand, a temporary) and one plane of them
            rows = self.band.rows
            jx, jy = rows.box
            shapes["rows_work"] = (6,) + rows.shape + (grid.np,)
            self.rows_plane = np.empty(rows.shape, dtype=np.complex128)
            if variant.viscosity:
                # mu |k_h|^2 of v1, v2, theta and q on the box, one plane,
                # and a temporary on the box's kept planes
                kh2 = grid.kh2[..., :1][jx][:, jy]
                self.mu_box = np.stack([_viscosities(params, which)[0] * kh2
                                        for which in _VARIABLES]).astype(np.complex128)
                shapes["box_tmp"] = self.mu_box.shape[:3] + (self.planes,)
        # spec, rows_work and box_tmp are views of the one buffer scratch
        # (see above)
        sizes = {name: int(np.prod(shape)) for name, shape in shapes.items()}
        self.scratch = np.empty(max(sizes.values()), dtype=np.complex128)
        for name, shape in shapes.items():
            setattr(self, name, self.scratch[:sizes[name]].reshape(shape))

    def _lam(self, which: str, kh2, kp2):
        """mu |k_h|^2 + nu c_mean kp^2 of variable which, in lam's order of
        operations."""
        mu, nu = _viscosities(self.params, which)
        return mu * kh2 + nu * self.c_mean * kp2

    @cached_property
    def lam(self) -> np.ndarray:
        """The implicit multipliers of the IMEX split, stacked like a state,
        zero without viscosity."""
        g = self.grid
        if not self.variant.viscosity:
            return np.zeros((4,) + g.spectral_shape)
        kp2 = g.KP**2
        return np.stack([self._lam(which, g.kh2, kp2) for which in _VARIABLES])

    @cached_property
    def real(self) -> np.ndarray:
        """A real temporary of an IMEX step, stacked like a state."""
        return np.empty((4,) + self.grid.spectral_shape)


def _row_terms(ws: Workspace, U: np.ndarray) -> np.ndarray:
    """The terms along p of the spectral state U on the box's kept planes
    (fields.HorizontalRows.targets), stacked: the viscous fluxes
    W = dealias(c df/dp) of v1 and v2, theta's outer viscous term
    (_VerticalBand.outer_theta), W of q, and the spectrum of Phi, in the
    first five fields of a new six-field array, which is returned (the
    tail takes i ky times Phi in the sixth)."""
    g, vb, X = ws.grid, ws.band, ws.rows_work
    horizontal_spectra(g, U, vb.rows, vb.factor, out=X[:4])
    np.multiply(X[2], vb.integrand, out=X[4])
    X[:4] *= vb.profiles
    fft_p(X[:5])
    vb.outer_theta(X[2])
    fft_p(X[2])
    vb.phi_hat(X[4], ws.rows_plane, X[5])
    terms = np.empty((6,) + vb.rows.src.shape, dtype=np.complex128)
    vb.rows.targets(X[:5], out=terms[:5])
    return terms


def _derivatives(ws: Workspace, U: np.ndarray, out: np.ndarray, ball: bool) -> None:
    """i kx U, i ky U and i kp U into out[..., 0, :, :, :], out[..., 1, ...]
    and out[..., 2, ...], on the p-planes U holds (ball as for ifft_xy): on
    the box's blocks, the rest of those planes zero with ball."""
    n = U.shape[-1]
    for (xs, ys), _ in ws.grid.blocks(ball):
        for j, iK in enumerate(ws.iK):
            np.multiply(iK[xs, ys, :n], U[..., xs, ys, :], out=out[..., j, xs, ys, :n])
    clear_outside_box(ws.grid, out[..., :n], ball)


def _advect(v1: np.ndarray, v2: np.ndarray, om: np.ndarray, d: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """v1 dx + v2 dy + om dp into out, which is returned, from the samples
    d = (dx, dy, dp) of one field's derivatives, which it overwrites."""
    np.multiply(v1, d[0], out=out)
    out += np.multiply(v2, d[1], out=d[1])
    out += np.multiply(om, d[2], out=d[2])
    return out


def _products(ws: Workspace, Un: np.ndarray, ball: bool) -> np.ndarray:
    """The products of advection and rotation after the forward transform's
    pass along p (fields.rfft_p), in a new stack that fft_xy finishes: its
    leading ws.planes p-planes, what lies beyond them undefined.  Un is the
    state's leading p-planes (ball as for ifft_xy).

    The inverse transforms run in groups: v1, v2 and omega's antiderivative
    G, then each field's x, y and p derivatives.  The spectra take their x
    and y passes in ws.spec, all 15 at once or, where ws.streamed, one group
    at a time; the first group takes its pass along p whole, and omega =
    G(p0) - G follows in its samples.  On the whole stack the four products
    are formed in ws.prod, group by group, and take one forward pass.
    Streamed, each group takes its pass along p, its product (with the
    Coriolis term for v1 and v2) and that product's forward pass one x slab
    (ws.slabs) at a time.  Every sample has the bits of irfftn_norm, and
    every product and its pass those of the whole grid.

    G = (dx v1 + dy v2) / (i kp) is divided on the box's blocks, its p-mean
    plane zero (a projected state carries no vertical-mean divergence) and
    the rest of its planes cleared with ball.  The divergence is the sum of
    two of the derivatives when they are all there, and is built from Un on
    the box's blocks otherwise."""
    g, buf, n, m = ws.grid, ws.spec, Un.shape[-1], ws.planes
    params, variant = ws.params, ws.variant
    G = buf[2, ..., :n]
    if ws.streamed:
        for (xs, ys), _ in g.blocks(ball):
            Gb = G[xs, ys]
            np.multiply(ws.iK[0][xs, ys, :n], Un[0, xs, ys], out=Gb)
            Gb += np.multiply(ws.iK[1][xs, ys, :n], Un[1, xs, ys], out=buf[0, xs, ys, :n])
    else:
        _derivatives(ws, Un, buf[3:].reshape((4, 3) + buf.shape[1:]), ball)
        np.add(buf[3, ..., :n], buf[7, ..., :n], out=G)
    G[..., 0] = 0.0
    ikp = 1j * g.kp[1:n]
    for (xs, ys), _ in g.blocks(ball):
        G[xs, ys, 1:] /= ikp
    clear_outside_box(g, G, ball)
    buf[:2, ..., :n] = Un[:2]
    v1, v2, om = irfft_p(g, ifft_xy(g, buf, ball)[:3])
    np.subtract(om[..., :1].copy(), om, out=om)
    if not ws.streamed:
        for i, Pi in enumerate(ws.prod):
            if variant.advection:
                _advect(v1, v2, om, irfft_p(g, buf[3 + 3 * i:6 + 3 * i]), Pi)
            else:
                Pi.fill(0.0)
        cor1, cor2 = coriolis_term(v1, v2, params, variant)
        ws.prod[0] += cor1
        ws.prod[1] += cor2
        del v1, v2, cor1, cor2, om  # before the forward pass's output arrives
        return rfft_p(ws.prod)
    H = np.empty((4,) + g.spectral_shape, dtype=np.complex128)
    for i, u in enumerate(Un):
        if variant.advection:
            _derivatives(ws, u, buf, ball)
            ifft_xy(g, buf, ball)
        for xs in ws.slabs:
            if variant.advection:
                d = irfft_p(g, buf[:, xs])
                Pi = _advect(v1[xs], v2[xs], om[xs], d, d[0])
            else:
                Pi = np.zeros(v1[xs].shape)
            if i < 2:
                Pi += coriolis_term(v1[xs], v2[xs], params, variant)[i]
            H[i, xs, :, :m] = rfft_p(Pi)[..., :m]
    return H


def tendency(state: State, ws: Workspace, forcing: Forcing | None = None) -> Tendency:
    """Evaluate the semi-discrete right-hand side of the model of ws (its
    grid, params and variant) at the state's time.

    All operator terms are truncated by the 2/3 mask (variant permitting) and
    supplied forcing is added untruncated, on its box (Forcing), so evolved
    states stay inside the dealiased ball only when the forcing does:
    manufactured forcing does on grids with n >= 22, forcing read from a
    file in general does not.  Returns a Tendency whose stacked array is a
    fresh one (nothing else refers to it); diagnose gives omega, Phi and T.

    Advection and rotation are products of physical samples, taken through
    3-D transforms: 15 fields in (v1, v2, omega's antiderivative and the 12
    derivatives of the state) and 4 fields out.  The inverse runs in groups:
    v1, v2 and omega's antiderivative, then each field's three derivatives
    (_products).  Its x and y passes run in place in the workspace, over the
    whole stack on a small grid and one group at a time on a large one
    (Workspace.streamed).  The passes along p on either side of the products
    run one x slab at a time (Workspace.slabs): a group's samples, its
    products, and the forward transform's first pass, written into the
    result, whose x and y passes (fields.fft_xy) then run on the whole of
    it.  So no group's samples and no product exist on the whole grid beyond
    one slab, and every value carries the bits of the whole-grid transforms.
    omega's divergence dx v1 + dy v2 is the sum of two of the derivatives
    when the whole stack is there, and is built from the state's spectra
    when it streams.

    The pressure gradient and the vertical viscosity act along p alone and
    are taken on the horizontal spectra of the rows the mask keeps
    (_row_terms): Phi as a spectrum, from the hydrostatic integral, and the
    gradient as i k times it; each viscous flux and theta's conjugated chain
    by pairs of transforms along p.  Their values fill the box of the 2/3
    ball (grid.box), the rows the part ky >= 0 and the mirrors the rest.

    The spectral arithmetic runs on that box alone, block by block
    (grid.blocks), with complex operands on both sides: the forward
    transform H of the products is zero off the box, and on it the result
    is -(H + mu |k_h|^2 U), then + nu d/dp(c dp f) and - i k_h Phi, each
    element in that order.  Without dealiasing the box is the whole half
    spectrum, one block, so both variants share the one tail.

    The state must lie on ws.grid; one on another grid is a DataError.  The
    transforms prune what is zero (fields.fft_xy and fields.ifft_xy):
    whenever the variant dealiases the forward one computes the box alone,
    skipping the p-planes beyond the 2/3 ball (grid.ball, grid.planes) and,
    in its y pass, the x rows beyond the ball's radius on x.  When the state
    lies inside the ball (fields.in_ball) the i k multiplies that feed the
    inverse ones run on the box alone, the rest of their planes set to
    zero, and the inverses skip those planes and the y rows beyond the
    ball's radius on y in their x pass, bit for bit as the full transforms.
    """
    g, variant = state.grid, ws.variant
    if ws.grid != g:
        raise DataError("tendency: the state lies on another grid than its workspace")
    U = state.as_spectral().data
    # nk: planes kept by the masked transforms; n: planes the state occupies
    nk = ws.planes
    ball = in_ball(g, U)
    n = g.planes(ball)

    # the products' spectrum, zero off the box; its array becomes the
    # result.  On the box, block by block: -(H + mu |k_h|^2 U), then
    # + nu d/dp(c dp f) (theta's conjugated) and - grad Phi
    H = _products(ws, U[..., :n], ball)
    if variant.pressure or variant.viscosity:
        terms = _row_terms(ws, U)
    fft_xy(g, H, variant.dealias)
    if variant.viscosity:
        np.multiply(ws.band.nu, terms[:4], out=terms[:4])
    if variant.pressure:
        np.multiply(ws.band.iKY, terms[4], out=terms[5])
        np.multiply(ws.band.iKX, terms[4], out=terms[4])
    for (xs, ys), (xb, yb) in g.blocks(variant.dealias):
        Hb = H[:, xs, ys, :nk]
        if variant.viscosity:
            Hb += np.multiply(ws.mu_box[:, xb, yb], U[:, xs, ys, :nk], out=ws.box_tmp[:, xb, yb])
        np.negative(Hb, out=Hb)
        if variant.viscosity:
            Hb += terms[:4, xb, yb]
        if variant.pressure:
            Hb[:2] -= terms[4:, xb, yb]
    if forcing is not None:
        values = forcing.on_box(state.t)  # before H[box]'s copy is taken
        H[forcing.box] += values

    return Tendency.of(g, H, SPECTRAL, state.t)


def diagnose(state: State, params: PhysParams) -> Diagnostics:
    """Fresh omega, Phi and T for the given state (with the constraint check),
    those of diagnose_omega, diagnose_phi and temperature_from_theta, from
    one set of profiles and one integrand."""
    g, phys = state.grid, state.as_physical()
    omega = diagnose_omega(phys.v1, phys.v2)
    co = Coefficients(g, params)
    it = _integrand(g, params, co, phys.theta.data)
    phi = _phi(g, co, it, _ramp(g, params, it.gbar))
    return Diagnostics(omega, Field3D.physical(g, phi), Field3D.physical(g, it.T))


# --- energy pairings used by the budget monitor ---------------------------


def _pair(grid: Grid, Ahat: np.ndarray, Bhat: np.ndarray) -> float:
    """<a, b> = |M| * sum_k w_k Re(a_k conj(b_k)) over the half spectrum."""
    prod = (Ahat.real * Bhat.real + Ahat.imag * Bhat.imag) * grid.parseval_weights
    return float(grid.volume * prod.sum())

