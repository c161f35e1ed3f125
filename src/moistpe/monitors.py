"""Runtime verification instruments.

Three families live here:

  * NormReport / norm_report: the per-sample scalar panel (Sobolev norms,
    constraint residuals, symmetry deviations) streamed during runs.
  * Energy budgets: per-variable decompositions of dE/dt into work and
    dissipation pairings, with the residual measuring everything the
    decomposition does not account for (advective transfer, scheme error).
    The pairings mirror the discrete operators term by term, so with a
    smooth resolved solution the residual is limited by time discretization
    alone.  They always use the faithful operator definitions; a defective
    model variant therefore shows up as a budget residual, not as a
    redefined budget.
  * A-priori inequality probes: a trilinear anisotropic estimate, a
    Minkowski-type integral inequality for the diagnosed vertical velocity,
    and four differential-inequality collectors whose left and right sides
    are emitted as time series for offline comparison.

The per-sample monitors (norm panel, budget, Gronwall record) take one
SampleContext: the sample converted once, with the faithful constants of
the run (MonitorConstants), which a run builds once.  The state's checksum
reads the same context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields
from functools import cached_property

import numpy as np

from .errors import DataError, SamplingError
from .fields import (SPECTRAL, Field3D, HorizontalRows, fft2_norm, horizontal_spectra,
                     in_ball, irfftn_norm, parity_deviation, rfftn_norm)
from .model import (
    FAITHFUL,
    Coefficients,
    ModelVariant,
    _divergence_hat,
    _hydrostatic_residual,
    _Integrand,
    _integral_to_p1,
    _integrand,
    _pair,
    _phi,
    _ramp,
    _ramp_hat,
    _viscosities,
    coriolis_term,
    divergence_residual,
    omega_top_residual,
)
from .norms import parseval_sum, sobolev_norm, spectral_weighted_sum
from .grid import Grid
from .initial import PARITY_SIGNS
from .params import PhysParams
from .state import State


# --- one sample, converted once --------------------------------------------


def _expansion(s: int, i0: int, j0: int) -> np.ndarray:
    """Coefficients T[i, j] of kh2^i kp2^j in kh2^i0 kp2^j0 (1 + kh2 + kp2)^s."""
    T = np.zeros((4, 4))
    for i in range(s + 1):
        for j in range(s + 1 - i):
            T[i0 + i, j0 + j] = (math.factorial(s) / math.factorial(i)
                                 / math.factorial(j) / math.factorial(s - i - j))
    return T


# The quadratic forms the monitors read, as (s, i0, j0) of the multiplier
# kh2^i0 kp2^j0 (1 + |k|^2)^s: the Sobolev norms, those of the p-derivative
# and the horizontal seminorms of the budget and the Gronwall forms.
_FORMS = {
    "l2": (0, 0, 0), "h1": (1, 0, 0), "h2": (2, 0, 0), "h3": (3, 0, 0),
    "dp": (0, 0, 1), "dp_h1": (1, 0, 1), "dp_h2": (2, 0, 1),
    "kh2": (0, 1, 0), "kh4": (0, 2, 0), "kh6": (0, 3, 0),
    "kh2_kp2": (0, 1, 1), "kh4_kp2": (0, 2, 1),
}
_FORM_TABLE = np.stack([_expansion(*spec).ravel() for spec in _FORMS.values()], axis=1)


def _half_rows(kh2: np.ndarray) -> np.ndarray:
    """kh2^r, r = 0, 1, 2, on the rows ky = 0 .. ny//2 of a (kx, ky) plane,
    doubled on the rows that stand for their mirror row -ky as well."""
    ny = kh2.shape[1]
    rows = np.arange(ny // 2 + 1)
    pairs = np.where(2 * rows % ny == 0, 1.0, 2.0)
    return (pairs * kh2[:, :ny // 2 + 1] ** np.arange(3)[:, None, None]).reshape(3, -1)


class MonitorConstants:
    """The faithful constants the monitors use on one (grid, params): the
    pressure profiles, the weight c(p) = w(p)^2 of the weighted norms, the
    powers of |k_h|^2 and kp^2 the quadratic forms are taken against, the
    horizontal rows of the weighted norms, and the 2/3 mask.  A run builds
    them once.  They never depend on the ModelVariant being run: the
    monitors check every run against the faithful definitions.
    """

    def __init__(self, grid: Grid, params: PhysParams):
        self.grid = grid
        self.params = params
        self.co = Coefficients(grid, params)
        kh2 = (grid.KX**2 + grid.KY**2)[:, :, 0]
        self.kh2_pow = kh2.ravel() ** np.arange(4)[:, None]   # (4, nx*ny)
        # Parseval weight times kp2^j, for the interleaved real and
        # imaginary parts of a complex row: (2 * (np//2+1), 4)
        kp2_pow = (grid.kp**2)[:, None] ** np.arange(4)
        self.w_kp2_pow = np.repeat(grid.parseval_weights[0, 0, :, None] * kp2_pow, 2, axis=0)
        self.iKP = 1j * grid.KP
        self.mask = grid.dealias_mask
        # the rows horizontal_spectra keeps by default, and kh2^r on them,
        # each counted with its conjugate
        self.rows = HorizontalRows(grid, band=False)
        self.kh2_half = _half_rows(kh2)
        # volume / np * c(p), a mean over p times the volume, for the
        # interleaved real and imaginary parts of a complex row
        self.c_mean2 = np.repeat(grid.volume / grid.np * self.co.c, 2)
        # the spectrum of p1 - p, normalized like rfftn_norm's
        self.ramp_hat = _ramp_hat(grid, params)


def _quadratic_forms(k: MonitorConstants, A: np.ndarray) -> dict:
    """{form: per-field value} of |M| sum_k w_k |c_k|^2 m_k for the fields of
    the spectral stack A and each multiplier m of _FORMS.

    One pass forms |c_k|^2 w_k and reduces it to the moments
    sum_k w_k |c_k|^2 kh2^i kp2^j (i, j < 4); every form is a fixed
    combination of them.
    """
    g = k.grid
    sq = np.square(np.ascontiguousarray(A).view(np.float64))
    moments = k.kh2_pow @ (sq.reshape(len(A), g.nx * g.ny, -1) @ k.w_kp2_pow)
    values = g.volume * (moments.reshape(len(A), 16) @ _FORM_TABLE)
    return dict(zip(_FORMS, values.T))


# The horizontal spectra _w_sums forms at once: every field of
# SampleContext.vertical in one chunk at 16^3 and 32^3, one field per chunk
# at 64^3 (2.2 MB each).
_W_CHUNK_BYTES = 2 << 20


def _w_sums(k: MonitorConstants, n: int, field, pair=None) -> np.ndarray:
    """|M| * mean over p of c(p) sum_kh kh2^r Re(conj(b_kh) a_kh), r = 0, 1, 2,
    for n fields a and b, shape (n, 3): field(i, out) writes the spectrum of
    the i-th a into out, and pair that of the i-th b (default: b = a).

    The fields go to the mixed representation (horizontal modes at each
    p-level, see horizontal_spectra), where Parseval in x and y turns the
    weighted collocation integral into a sum over the modes and horizontal
    derivatives into multipliers.  For r = 0 and b = a this is ||f||_w^2.
    The multipliers treat the horizontal Nyquist rows like the others; a
    field inside the 2/3 ball has nothing there.  The fields are built and
    taken in chunks of about _W_CHUNK_BYTES of horizontal spectra; each
    field's sums have the bits of a single pass over all of them.
    """
    g = k.grid
    size = max(1, min(n, _W_CHUNK_BYTES // (k.rows.indices.size * g.np * 16)))
    spec = np.empty((size,) + g.spectral_shape, dtype=np.complex128)
    sums = np.empty((n, 3))
    for start in range(0, n, size):
        chunk = range(start, min(start + size, n))
        # Re(conj(b) a) summed against c(p) on the real and imaginary parts
        a = _chunk_spectra(k, field, chunk, spec)
        b = a if pair is None else _chunk_spectra(k, pair, chunk, spec)
        prod = np.multiply(a, b, out=a).reshape(len(chunk), -1, 2 * g.np)
        sums[start:chunk.stop] = (k.kh2_half @ prod) @ k.c_mean2
    return sums


def _chunk_spectra(k: MonitorConstants, write, chunk: range, spec: np.ndarray) -> np.ndarray:
    """The horizontal spectra of the fields chunk of write (see _w_sums),
    built in spec, as real and imaginary parts."""
    A = spec[:len(chunk)]
    for i, out in zip(chunk, A):
        write(i, out)
    return horizontal_spectra(k.grid, A, k.rows).view(np.float64)


@dataclass(frozen=True, eq=False)
class SampleContext:
    """One state converted once, for every monitor of one record point.

    spec and phys are the spectral and physical stacks (the state's own
    array in its representation; phys of a spectral state is
    checked_backward of its stack, so a checksum hashes the same bits), sq
    the quadratic forms of the fields (_quadratic_forms), in_ball whether
    the state lies inside the 2/3 ball, it the hydrostatic integrand of the
    faithful model and hats the spectra of its Phi minus the ramp and of T.
    Nothing here writes into the state's array.
    """

    state: State
    constants: MonitorConstants
    spec: np.ndarray
    phys: np.ndarray
    sq: dict
    in_ball: bool
    it: _Integrand
    hats: np.ndarray

    @cached_property
    def vertical(self) -> np.ndarray:
        """_w_sums of dp v1, dp v2, dp q, dp^2 v1 and dp^2 v2, in that order."""
        iKP, spec = self.constants.iKP, self.spec

        def field(i, out):
            np.multiply(iKP, spec[(0, 1, 3, 0, 1)[i]], out=out)
            if i >= 3:
                np.multiply(iKP, out, out=out)

        return _w_sums(self.constants, 5, field)


def sample_context(state: State, constants: MonitorConstants) -> SampleContext:
    """The SampleContext of state, with the constants of its grid and the
    params they were built with."""
    g, params = state.grid, constants.params
    if constants.grid != g:
        raise DataError("sample_context: the constants belong to another grid")
    co = constants.co
    spec = state.as_spectral().data
    phys = state.as_physical().data
    it = _integrand(g, params, co, phys[2])
    ramp = _ramp(g, params, it.gbar)
    periodic_and_T = np.empty((2,) + g.shape)
    np.subtract(_phi(g, co, it, ramp), ramp, out=periodic_and_T[0])
    periodic_and_T[1] = it.T
    hats = rfftn_norm(g, periodic_and_T)
    return SampleContext(state, constants, spec, phys, _quadratic_forms(constants, spec),
                         in_ball(g, spec), it, hats)


# --- norm panel -----------------------------------------------------------

@dataclass(frozen=True)
class NormReport:
    t: float
    l2_v: float
    h1_v: float
    h2_v: float
    l2_theta: float
    h1_theta: float
    h2_theta: float
    l2_q: float
    h1_q: float
    h2_q: float
    l2_dp_v: float
    h1_dp_v: float
    l2_dp_theta: float
    h1_dp_theta: float
    l2_dp_q: float
    h1_dp_q: float
    w_dp_v: float
    w_dp2_v: float
    w_grad_dp_v: float
    div_residual: float
    hydro_residual: float
    l2_T: float
    omega_p1: float
    parity_dev_v: float
    parity_dev_theta: float
    parity_dev_q: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    @classmethod
    def field_names(cls) -> list[str]:
        return [f.name for f in dc_fields(cls)]


def norm_report(ctx: SampleContext) -> NormReport:
    """The norm panel of the state of ctx."""
    g = ctx.state.grid
    sq, W = ctx.sq, ctx.vertical
    v1, v2 = (Field3D(g, ctx.spec[i], SPECTRAL) for i in (0, 1))
    parity = parity_deviation(ctx.phys, PARITY_SIGNS)

    def v(form):
        return math.sqrt(sq[form][0] + sq[form][1])

    def scalar(form, i):
        return math.sqrt(sq[form][i])

    return NormReport(
        t=ctx.state.t,
        l2_v=v("l2"),
        h1_v=v("h1"),
        h2_v=v("h2"),
        l2_theta=scalar("l2", 2),
        h1_theta=scalar("h1", 2),
        h2_theta=scalar("h2", 2),
        l2_q=scalar("l2", 3),
        h1_q=scalar("h1", 3),
        h2_q=scalar("h2", 3),
        l2_dp_v=v("dp"),
        h1_dp_v=v("dp_h1"),
        l2_dp_theta=scalar("dp", 2),
        h1_dp_theta=scalar("dp_h1", 2),
        l2_dp_q=scalar("dp", 3),
        h1_dp_q=scalar("dp_h1", 3),
        w_dp_v=math.sqrt(W[0, 0] + W[1, 0]),
        w_dp2_v=math.sqrt(W[3, 0] + W[4, 0]),
        w_grad_dp_v=math.sqrt(W[0, 1] + W[1, 1]),
        div_residual=divergence_residual(v1, v2),
        hydro_residual=_hydrostatic_residual(g, ctx.hats[0], ctx.it),
        l2_T=float(np.sqrt(g.volume * parseval_sum(g, ctx.hats[1]))),
        omega_p1=omega_top_residual(v1, v2),
        parity_dev_v=float(max(parity[0], parity[1])),
        parity_dev_theta=float(parity[2]),
        parity_dev_q=float(parity[3]),
    )


# --- energy budgets -------------------------------------------------------


@dataclass(frozen=True)
class BudgetSample:
    t: float
    variable: str
    dEdt: float
    diss_h: float
    diss_v: float
    coupling: float
    coupling_heat_flux: float
    coriolis_work: float
    forcing_work: float
    residual: float
    max_term: float


def budget_terms(ctx: SampleContext, forcing=None) -> dict:
    """Instantaneous energy pairings for each prognostic variable of the
    state of ctx.

    Every entry is a contribution to d/dt (1/2)||u||_L2^2 with its sign, except
    diss_h / diss_v which are reported positive (they enter with minus signs).
    With that convention the pressure coupling equals minus the heat-flux
    integral of (R T / p) omega over the domain; coupling evaluates it through
    the discrete pairing the dynamics conserves, coupling_heat_flux through
    direct quadrature of the integral, and the two agree up to quadrature
    error of the vertical integration (a deliberate cross-check, not a
    redundancy).  The advective transfer is deliberately not a term: for the
    faithful dealiased dynamics it vanishes to roundoff, and any violation
    belongs in the residual.

    diss_v is the pairing nu <dps, dealias(c dps)> of the faithful vertical
    viscosity, s = f for v and q and s = (p0/p)^kappa theta (dealiased) for
    theta; inside the 2/3 ball it is nu ||ds/dp||_w^2.
    """
    state, k = ctx.state, ctx.constants
    g, params = state.grid, k.params
    V1, V2, TH, Q = U = ctx.spec
    sq = ctx.sq
    nu = {which: _viscosities(params, which)[1] for which in ("v", "theta", "q")}

    # dp v1, dp v2, dp q paired with their truncation: the weighted norms of
    # ctx.vertical when the state lies inside the ball
    if ctx.in_ball:
        pairs = ctx.vertical[:3, 0]
    else:
        def dp(i, out):
            np.multiply(k.iKP, U[(0, 1, 3)[i]], out=out)

        def dp_masked(i, out):
            dp(i, out)
            np.multiply(out, k.mask, out=out)

        pairs = _w_sums(k, 3, dp, dp_masked)[:, 0]
    # Each whole-grid temporary below is dropped once its number exists,
    # and built in place where that keeps the order of the operations.
    # dealias(rfft((p0/p)^kappa theta))
    s_hat = rfftn_norm(g, k.co.pk * ctx.phys[2])
    s_hat *= k.mask
    pair_theta = _w_sums(k, 1, lambda i, out: np.multiply(k.iKP, s_hat, out=out))[0, 0]
    del s_hat

    # -<v, grad Phi> = <div v, Phi>.  The spectrum of Phi is that of Phi
    # minus its ramp (phi_s included) plus that of the ramp gbar (p1 - p),
    # a product of a horizontal and a vertical spectrum.
    D = _divergence_hat(g, V1, V2)
    Phat = np.multiply(fft2_norm(ctx.it.gbar)[:, :, None], k.ramp_hat)
    np.add(ctx.hats[0], Phat, out=Phat)
    coupling = _pair(g, D, Phat)
    del Phat

    # the heat flux: omega, the integral from p to p1 of D, times R T / p
    om = _integral_to_p1(g, D)
    del D
    om *= ctx.it.gfield
    heat_flux = -float(g.volume * np.mean(om))
    del om

    if forcing is not None:
        # each field's forcing, zero off its box, in one buffer in turn
        f = np.zeros(g.spectral_shape, dtype=np.complex128)
        work = []
        for u, values in zip(U, forcing.on_box(state.t)):
            f[forcing.box[1:]] = values
            work.append(_pair(g, u, f))
        del f
        w_f_v = work[0] + work[1]
        w_f_th, w_f_q = work[2:]
    else:
        w_f_v = w_f_th = w_f_q = 0.0

    E, kh2 = 0.5 * sq["l2"], sq["kh2"]
    return {
        "v": {
            "E": float(E[0] + E[1]),
            "diss_h": params.mu_v * float(kh2[0] + kh2[1]),
            "diss_v": nu["v"] * float(pairs[0] + pairs[1]),
            "coupling": coupling,
            "coupling_heat_flux": heat_flux,
            "coriolis_work": _coriolis_work(g, ctx.phys, params, FAITHFUL),
            "forcing_work": w_f_v,
        },
        "theta": {
            "E": float(E[2]),
            "diss_h": params.mu_theta * float(kh2[2]),
            "diss_v": nu["theta"] * float(pair_theta),
            "coupling": 0.0,
            "coupling_heat_flux": 0.0,
            "coriolis_work": 0.0,
            "forcing_work": w_f_th,
        },
        "q": {
            "E": float(E[3]),
            "diss_h": params.mu_q * float(kh2[3]),
            "diss_v": nu["q"] * float(pairs[2]),
            "coupling": 0.0,
            "coupling_heat_flux": 0.0,
            "coriolis_work": 0.0,
            "forcing_work": w_f_q,
        },
    }


def uniform_prefix(times) -> int:
    """The number of leading times spaced like the first two: each spacing
    within max(1e-9 dt, 16 eps max|t|) of the first, dt, which must be
    positive.  The first bound is relative to the step, so a step below
    1e-9 is judged like any other; the second allows for the rounding of
    t0 + k dt at large times, a few units in the last place of t.  The
    centered differences of energy_budget and gronwall_series take only
    times that are all in it."""
    dts = np.diff(times)
    if len(dts) == 0 or not dts[0] > 0.0:
        return min(len(times), 1)
    tol = max(1e-9 * dts[0], 16 * np.finfo(np.float64).eps * np.abs(times).max())
    off = np.abs(dts - dts[0]) > tol
    return 1 + (int(np.argmax(off)) if off.any() else len(dts))


def _check_uniform(times: np.ndarray, need: int = 3) -> float:
    if len(times) < need:
        raise SamplingError(f"need at least {need} uniformly spaced samples, got {len(times)}")
    if uniform_prefix(times) < len(times):
        raise SamplingError("need uniformly spaced samples")
    return float(np.mean(np.diff(times)))


def energy_budget(samples, skip_startup: int = 2) -> list[BudgetSample]:
    """Centered-difference budget check over a trajectory's samples.

    Each interior sample yields one BudgetSample per variable; residual is
    dE/dt minus all modeled work and dissipation terms.

    The first skip_startup interior samples are omitted by default: the
    multistep integrator changes character over its first two steps (Euler
    bootstrap, then a first step with flat history), and a centered
    difference across those junctions measures the startup transient rather
    than the budget.  Pass skip_startup=0 to see them anyway.  Fewer than
    skip_startup + 3 samples with a budget, which leave no interior sample
    past the startup, are a SamplingError.
    """
    recs = [s for s in samples if s.budget is not None]
    times = np.array([s.t for s in recs])
    skip = max(0, skip_startup)
    dt = _check_uniform(times, skip + 3)
    out = []
    for k in range(1 + skip, len(recs) - 1):
        for var in ("v", "theta", "q"):
            b_prev = recs[k - 1].budget[var]
            b = recs[k].budget[var]
            b_next = recs[k + 1].budget[var]
            dEdt = (b_next["E"] - b_prev["E"]) / (2.0 * dt)
            modeled = (b["forcing_work"] + b["coriolis_work"] + b["coupling"]
                       - b["diss_h"] - b["diss_v"])
            residual = dEdt - modeled
            max_term = max(abs(dEdt), abs(b["forcing_work"]), abs(b["coriolis_work"]),
                           abs(b["coupling"]), b["diss_h"], b["diss_v"])
            out.append(BudgetSample(
                t=float(times[k]), variable=var, dEdt=dEdt,
                diss_h=b["diss_h"], diss_v=b["diss_v"],
                coupling=b["coupling"], coupling_heat_flux=b["coupling_heat_flux"],
                coriolis_work=b["coriolis_work"], forcing_work=b["forcing_work"],
                residual=residual, max_term=max_term,
            ))
    return out


# --- trilinear estimate ---------------------------------------------------


def trilinear_form(f: Field3D, g: Field3D, h: Field3D) -> float:
    """| integral over the horizontal torus of (int f dp)(int g h dp) dx dy |."""
    fp = f.as_physical().data
    gp = g.as_physical().data
    hp = h.as_physical().data
    Lp = f.grid.Lp
    F2 = fp.mean(axis=2) * Lp
    GH = (gp * hp).mean(axis=2) * Lp
    return abs(float(np.mean(F2 * GH)))


def trilinear_bound(f: Field3D, g: Field3D, h: Field3D) -> float:
    """Anisotropic majorant with constant one:

    ||f||^(1/2) (||f||^(1/2) + ||grad f||^(1/2)) ||g|| ||h||^(1/2)
    (||h||^(1/2) + ||grad h||^(1/2)),  gradients horizontal.
    """
    def l2(u):
        return sobolev_norm(u.as_spectral(), 0)

    def gradn(u):
        return float(np.sqrt(spectral_weighted_sum(u.as_spectral(), u.grid.kh2)))

    nf, ng, nh = l2(f), l2(g), l2(h)
    gf, gh = gradn(f), gradn(h)
    return (np.sqrt(nf) * (np.sqrt(nf) + np.sqrt(gf)) * ng
            * np.sqrt(nh) * (np.sqrt(nh) + np.sqrt(gh)))


# --- Minkowski-type inequality for omega ----------------------------------


def minkowski_probe(v1: Field3D, v2: Field3D) -> tuple[float, float]:
    """Return (||omega||_L2, integral over p of the horizontal L2 norm of div v).

    For a projected field, ||omega||_L2 <= sqrt(Lp) times the second value.
    """
    g = v1.grid
    D = _divergence_hat(g, v1.as_spectral().data, v2.as_spectral().data)
    div = irfftn_norm(g, D)
    lhs = sobolev_norm(Field3D.physical(g, _integral_to_p1(g, D)).as_spectral(), 0)
    level = np.sqrt(np.mean(div**2, axis=(0, 1)))
    rhs = float(np.mean(level) * g.Lp)
    return lhs, rhs


# --- differential-inequality collectors -----------------------------------


@dataclass(frozen=True)
class GronwallRecord:
    t: float
    scalars: dict


def gronwall_record(ctx: SampleContext, forcing=None) -> GronwallRecord:
    """The squared norms the a-priori forms are made of, of the state of ctx."""
    t, sq, W = ctx.state.t, ctx.sq, ctx.vertical

    def v(form):
        return float(sq[form][0] + sq[form][1])

    def th(form):
        return float(sq[form][2])

    scal = {
        "v_h1s": v("h1"),
        "v_h2s": v("h2"),
        "v_h3s": v("h3"),
        "th_h1s": th("h1"),
        "th_h2s": th("h2"),
        "th_h3s": th("h3"),
        "vp_h1s": v("dp_h1"),
        "vp_h2s": v("dp_h2"),
        "thp_h1s": th("dp_h1"),
        "thp_h2s": th("dp_h2"),
        "lapv_s": v("kh4"),
        "grad_lapv_s": v("kh6"),
        "lap_dpv_w_s": float(W[0, 2] + W[1, 2]),
        "lapth_s": th("kh4"),
        "grad_lapth_s": th("kh6"),
        "lap_dpth_s": th("kh4_kp2"),
        "gradth_s": th("kh2"),
        "grad_dpth_s": th("kh2_kp2"),
    }

    if forcing is not None:
        fq = _quadratic_forms(ctx.constants, np.asarray(forcing(t))[:3])
        scal["fv_h1s"] = float(fq["h1"][0] + fq["h1"][1])
        scal["dpfv_s"] = float(fq["dp"][0] + fq["dp"][1])
        scal["fth_h1s"] = float(fq["h1"][2])
        scal["dpfth_s"] = float(fq["dp"][2])
    else:
        scal["fv_h1s"] = scal["dpfv_s"] = scal["fth_h1s"] = scal["dpfth_s"] = 0.0

    return GronwallRecord(t=t, scalars=scal)


GRONWALL_FORMS = ("vp", "thetap", "lapv", "laptheta")


def gronwall_series(records, params: PhysParams) -> dict:
    """Left/right sides of the four a-priori differential inequalities.

    All constants are taken as one; the output is a plotting and inspection
    aid, not an assertion.  Time derivatives are centered differences, so the
    records must be uniformly spaced and at least three.
    """
    times = np.array([r.t for r in records])
    dt = _check_uniform(times)
    mu1 = min(params.mu_v, params.nu_v)
    kappa = params.kappa
    mu2 = (params.p0 / params.p1) ** (2.0 * kappa) * min(params.mu_theta, params.nu_theta)

    def ddt(key, k):
        return (records[k + 1].scalars[key] - records[k - 1].scalars[key]) / (2.0 * dt)

    out = {name: {"t": [], "lhs": [], "rhs": []} for name in GRONWALL_FORMS}
    for k in range(1, len(records) - 1):
        s = records[k].scalars
        t = float(times[k])

        lhs = ddt("vp_h1s", k) + mu1 * s["vp_h2s"]
        rhs = ((1.0 + s["v_h2s"] + s["v_h1s"] * s["v_h2s"]) * s["vp_h1s"]
               + (s["v_h1s"] + s["v_h1s"]**2 + s["th_h1s"] + s["dpfv_s"]))
        out["vp"]["t"].append(t)
        out["vp"]["lhs"].append(lhs)
        out["vp"]["rhs"].append(rhs)

        lhs = ddt("thp_h1s", k) + mu2 * s["thp_h2s"]
        rhs = ((1.0 + s["v_h2s"] + s["v_h1s"] * s["v_h2s"]) * s["thp_h1s"]
               + (s["th_h1s"] + s["vp_h1s"] * s["th_h2s"] + s["dpfth_s"]))
        out["thetap"]["t"].append(t)
        out["thetap"]["lhs"].append(lhs)
        out["thetap"]["rhs"].append(rhs)

        lhs = ddt("lapv_s", k) + mu1 * (s["grad_lapv_s"] + s["lap_dpv_w_s"])
        rhs = ((s["th_h2s"] + s["fv_h1s"]) + 0.5 * mu1 * s["v_h3s"]
               + (1.0 + s["v_h2s"] + s["v_h1s"] * s["vp_h1s"] + s["vp_h2s"]) * s["v_h2s"])
        out["lapv"]["t"].append(t)
        out["lapv"]["lhs"].append(lhs)
        out["lapv"]["rhs"].append(rhs)

        lhs = 0.5 * ddt("lapth_s", k) + 0.75 * mu2 * (s["grad_lapth_s"] + s["lap_dpth_s"])
        rhs = ((s["v_h2s"] + s["v_h3s"]) * s["th_h2s"]
               + (s["gradth_s"] + s["grad_dpth_s"] + s["lapth_s"] + s["fth_h1s"])
               + 0.25 * mu2 * s["th_h3s"])
        out["laptheta"]["t"].append(t)
        out["laptheta"]["lhs"].append(lhs)
        out["laptheta"]["rhs"].append(rhs)

    return out


def coriolis_work(state: State, params: PhysParams,
                  variant: ModelVariant = FAITHFUL) -> float:
    """Energy input of the rotation term exactly as the tendency applies it.

    The faithful term is f(-v2, v1) entering the velocity equation with a
    minus sign, whose pointwise product with v vanishes identically; any
    implementation whose sign or component pairing differs does measurable
    work, which is what this check is for.
    """
    return _coriolis_work(state.grid, state.as_physical().data, params, variant)


def _coriolis_work(g: Grid, phys: np.ndarray, params: PhysParams,
                   variant: ModelVariant) -> float:
    """coriolis_work of the physical stack phys."""
    v1, v2 = phys[:2]
    cor1, cor2 = coriolis_term(v1, v2, params, variant)
    return float(g.volume * np.mean(v1 * -cor1 + v2 * -cor2))
