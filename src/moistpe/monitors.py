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
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .errors import SamplingError
from .fields import (SPECTRAL, Field3D, ParityClass, derivative, irfftn_norm,
                     parity_violation, rfftn_norm)
from .model import (
    FAITHFUL,
    Coefficients,
    ModelVariant,
    _divergence_hat,
    _hydrostatic_residual,
    _integrand,
    _pair,
    _phi,
    coriolis_term,
    diagnose_omega,
    divergence_residual,
    omega_top_residual,
    vertical_dissipation,
)
from .norms import (
    parseval_sum,
    sobolev_norm,
    spectral_weighted_sum,
    vector_sobolev_norm,
    weighted_norm_w,
)
from .params import PhysParams
from .state import State


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
    budget_residual: float | None = None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    @classmethod
    def field_names(cls) -> list[str]:
        return [f.name for f in dc_fields(cls)]


def _w_vec_norm(components, params: PhysParams) -> float:
    """sqrt of the summed ||f||_w^2 over the components."""
    return float(np.sqrt(sum(weighted_norm_w(f.as_physical(), params) ** 2
                             for f in components)))


def norm_report(state: State, params: PhysParams) -> NormReport:
    g = state.grid
    v1, v2, th, q = state.as_spectral().fields
    dpv1, dpv2, dpth, dpq = (derivative(f, "p") for f in (v1, v2, th, q))

    w_dp_v = _w_vec_norm((dpv1, dpv2), params)
    w_dp2_v = _w_vec_norm((derivative(f, "p") for f in (dpv1, dpv2)), params)
    w_grad_dp_v = _w_vec_norm(
        (derivative(f, axis) for f in (dpv1, dpv2) for axis in ("x", "y")), params)

    D0 = divergence_residual(v1, v2)
    phys = state.as_physical()
    co = Coefficients(g, params)
    it = _integrand(g, params, co, phys.theta.data)
    hydro = _hydrostatic_residual(g, params, _phi(g, params, co, it), it)
    l2_T = sobolev_norm(Field3D.physical(g, it.T), 0)

    return NormReport(
        t=state.t,
        l2_v=vector_sobolev_norm((v1, v2), 0),
        h1_v=vector_sobolev_norm((v1, v2), 1),
        h2_v=vector_sobolev_norm((v1, v2), 2),
        l2_theta=sobolev_norm(th, 0),
        h1_theta=sobolev_norm(th, 1),
        h2_theta=sobolev_norm(th, 2),
        l2_q=sobolev_norm(q, 0),
        h1_q=sobolev_norm(q, 1),
        h2_q=sobolev_norm(q, 2),
        l2_dp_v=vector_sobolev_norm((dpv1, dpv2), 0),
        h1_dp_v=vector_sobolev_norm((dpv1, dpv2), 1),
        l2_dp_theta=sobolev_norm(dpth, 0),
        h1_dp_theta=sobolev_norm(dpth, 1),
        l2_dp_q=sobolev_norm(dpq, 0),
        h1_dp_q=sobolev_norm(dpq, 1),
        w_dp_v=w_dp_v,
        w_dp2_v=w_dp2_v,
        w_grad_dp_v=w_grad_dp_v,
        div_residual=D0,
        hydro_residual=hydro,
        l2_T=l2_T,
        omega_p1=omega_top_residual(v1, v2),
        parity_dev_v=max(parity_violation(phys.v1, ParityClass.EVEN),
                         parity_violation(phys.v2, ParityClass.EVEN)),
        parity_dev_theta=parity_violation(phys.theta, ParityClass.ODD),
        parity_dev_q=parity_violation(phys.q, ParityClass.EVEN),
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


def budget_terms(state: State, params: PhysParams, forcing=None) -> dict:
    """Instantaneous energy pairings for each prognostic variable.

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
    """
    g = state.grid
    co = Coefficients(g, params)
    st = state.as_spectral()
    V1, V2, TH, Q = st.data
    phys = state.as_physical()

    diss = {
        "v": {
            "h": params.mu_v * (spectral_weighted_sum(st.v1, g.kh2)
                                + spectral_weighted_sum(st.v2, g.kh2)),
            "p": vertical_dissipation(st.v1, params, "v")
                 + vertical_dissipation(st.v2, params, "v"),
        },
        "theta": {
            "h": params.mu_theta * spectral_weighted_sum(st.theta, g.kh2),
            "p": vertical_dissipation(st.theta, params, "theta"),
        },
        "q": {
            "h": params.mu_q * spectral_weighted_sum(st.q, g.kh2),
            "p": vertical_dissipation(st.q, params, "q"),
        },
    }

    it = _integrand(g, params, co, phys.theta.data)
    Phat = rfftn_norm(g, _phi(g, params, co, it))
    coupling = -(_pair(g, V1, 1j * g.KX * Phat) + _pair(g, V2, 1j * g.KY * Phat))

    om = diagnose_omega(st.v1, st.v2, check=False).data
    heat_flux = -float(g.volume * np.mean(it.gfield * om))

    if forcing is not None:
        fv1, fv2, fth, fq = forcing(state.t)
        w_f_v = _pair(g, V1, fv1) + _pair(g, V2, fv2)
        w_f_th = _pair(g, TH, fth)
        w_f_q = _pair(g, Q, fq)
    else:
        w_f_v = w_f_th = w_f_q = 0.0

    l2s = parseval_sum(g, st.data)  # the squared L2 norm of each field / volume
    return {
        "v": {
            "E": 0.5 * g.volume * float(l2s[0] + l2s[1]),
            "diss_h": diss["v"]["h"],
            "diss_v": diss["v"]["p"],
            "coupling": coupling,
            "coupling_heat_flux": heat_flux,
            "coriolis_work": coriolis_work(phys, params),
            "forcing_work": w_f_v,
        },
        "theta": {
            "E": 0.5 * g.volume * float(l2s[2]),
            "diss_h": diss["theta"]["h"],
            "diss_v": diss["theta"]["p"],
            "coupling": 0.0,
            "coupling_heat_flux": 0.0,
            "coriolis_work": 0.0,
            "forcing_work": w_f_th,
        },
        "q": {
            "E": 0.5 * g.volume * float(l2s[3]),
            "diss_h": diss["q"]["h"],
            "diss_v": diss["q"]["p"],
            "coupling": 0.0,
            "coupling_heat_flux": 0.0,
            "coriolis_work": 0.0,
            "forcing_work": w_f_q,
        },
    }


def _check_uniform(times: np.ndarray) -> float:
    if len(times) < 3:
        raise SamplingError("energy budget needs at least three uniformly spaced samples")
    dts = np.diff(times)
    dt = float(np.mean(dts))
    if dt <= 0 or np.max(np.abs(dts - dt)) > 1e-9 * max(1.0, abs(dt)):
        raise SamplingError("energy budget needs uniformly spaced samples")
    return dt


def energy_budget(samples, skip_startup: int = 2) -> list[BudgetSample]:
    """Centered-difference budget check over a trajectory's samples.

    Each interior sample yields one BudgetSample per variable; residual is
    dE/dt minus all modeled work and dissipation terms.

    The first skip_startup interior samples are omitted by default: the
    multistep integrator changes character over its first two steps (Euler
    bootstrap, then a first step with flat history), and a centered
    difference across those junctions measures the startup transient rather
    than the budget.  Pass skip_startup=0 to see them anyway.
    """
    recs = [s for s in samples if s.budget is not None]
    times = np.array([s.t for s in recs])
    dt = _check_uniform(times)
    out = []
    for k in range(1 + max(0, skip_startup), len(recs) - 1):
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
    om = diagnose_omega(v1, v2, check=False)
    lhs = sobolev_norm(om.as_spectral(), 0)
    V1 = v1.as_spectral().data
    V2 = v2.as_spectral().data
    div = irfftn_norm(g, _divergence_hat(g, V1, V2))
    level = np.sqrt(np.mean(div**2, axis=(0, 1)))
    rhs = float(np.mean(level) * g.Lp)
    return lhs, rhs


# --- differential-inequality collectors -----------------------------------


@dataclass(frozen=True)
class GronwallRecord:
    t: float
    scalars: dict


def _sq(x: float) -> float:
    return x * x


def gronwall_record(state: State, params: PhysParams, forcing=None) -> GronwallRecord:
    g = state.grid
    v1, v2, th, _ = state.as_spectral().fields
    dpv1, dpv2, dpth = (derivative(f, "p") for f in (v1, v2, th))

    def vecs(fields, order):
        return sum(_sq(sobolev_norm(f, order)) for f in fields)

    def wsum(field, mult):
        return spectral_weighted_sum(field, mult)

    kh2 = g.kh2
    kp2 = g.KP**2

    lap_dpv_w = 0.0
    for f in (dpv1, dpv2):
        lap = Field3D.spectral(g, -kh2 * f.data).as_physical()
        lap_dpv_w += _sq(weighted_norm_w(lap, params))

    scal = {
        "v_h1s": vecs((v1, v2), 1),
        "v_h2s": vecs((v1, v2), 2),
        "v_h3s": vecs((v1, v2), 3),
        "th_h1s": _sq(sobolev_norm(th, 1)),
        "th_h2s": _sq(sobolev_norm(th, 2)),
        "th_h3s": _sq(sobolev_norm(th, 3)),
        "vp_h1s": vecs((dpv1, dpv2), 1),
        "vp_h2s": vecs((dpv1, dpv2), 2),
        "thp_h1s": _sq(sobolev_norm(dpth, 1)),
        "thp_h2s": _sq(sobolev_norm(dpth, 2)),
        "lapv_s": wsum(v1, kh2**2) + wsum(v2, kh2**2),
        "grad_lapv_s": wsum(v1, kh2**3) + wsum(v2, kh2**3),
        "lap_dpv_w_s": lap_dpv_w,
        "lapth_s": wsum(th, kh2**2),
        "grad_lapth_s": wsum(th, kh2**3),
        "lap_dpth_s": wsum(th, kh2**2 * kp2),
        "gradth_s": wsum(th, kh2),
        "grad_dpth_s": wsum(dpth, kh2),
    }

    if forcing is not None:
        Fv1, Fv2, Fth, _ = State.of(g, np.asarray(forcing(state.t)), SPECTRAL).fields
        scal["fv_h1s"] = _sq(sobolev_norm(Fv1, 1)) + _sq(sobolev_norm(Fv2, 1))
        scal["dpfv_s"] = (_sq(sobolev_norm(derivative(Fv1, "p"), 0))
                          + _sq(sobolev_norm(derivative(Fv2, "p"), 0)))
        scal["fth_h1s"] = _sq(sobolev_norm(Fth, 1))
        scal["dpfth_s"] = _sq(sobolev_norm(derivative(Fth, "p"), 0))
    else:
        scal["fv_h1s"] = scal["dpfv_s"] = scal["fth_h1s"] = scal["dpfth_s"] = 0.0

    return GronwallRecord(t=state.t, scalars=scal)


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
    phys = state.as_physical()
    v1, v2 = phys.v1.data, phys.v2.data
    cor1, cor2 = coriolis_term(v1, v2, params, variant)
    return float(state.grid.volume * np.mean(v1 * -cor1 + v2 * -cor2))
