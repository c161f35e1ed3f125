"""Seeded randomized probes and the named-invariant suite.

The random fields here are synthesized from an explicit coefficient table on
a fixed low-mode set, drawn in a fixed order from a seeded generator.  The
same seed therefore produces the *same trigonometric polynomial* on every
grid that can hold it, which is what makes cross-resolution comparisons of
inequality ratios meaningful: any drift measures the numerics, not a change
of test data.

The invariant suite packages the runtime checks (constraint residuals,
monotone decay, energy-budget closure, the work done by the implemented
Coriolis term, the Minkowski and trilinear inequalities, discrete
skew-symmetry) as named pass/fail records.  The dynamics may be run under a
deliberately defective model variant; the checks themselves always use the
faithful definitions, so a defect surfaces as a failed check rather than a
silently redefined quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, ConfigError
from .fields import Field3D
from .grid import Grid
from .initial import random_smooth
from .model import (
    FAITHFUL,
    ModelVariant,
    advection_work,
    barotropic_project,
    diagnose_omega,
    hydrostatic_gradient_residual,
)
from .monitors import (
    coriolis_work,
    energy_budget,
    gronwall_series,
    minkowski_probe,
    trilinear_bound,
    trilinear_form,
)
from .norms import sobolev_norm, vector_sobolev_norm
from .params import PhysParams
from .stepper import StepConfig, run


# --- resolution-independent random fields ----------------------------------


def _seeded_table(seed: int, band: int, decay: float) -> tuple[np.ndarray, np.ndarray]:
    """The mode table as an array C[jx + band, jy + band, jp], with the
    number of times each entry occurs in the visiting order.

    The modes are visited with jx, then jy, then jp ascending, and each
    visit draws (re, im), so one (2b+1, 2b+1, b+1, 2) draw is the whole
    stream.  On the jp = 0 plane a mode of the upper half (jx > 0, or
    jx = 0 < jy) is followed at once by its conjugate mirror, the lower half
    is placed only by those mirrors, and the origin is real: the counts are
    2, 0 and 1 there, and 1 off the plane.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if band < 1:
        raise ConfigError(f"band must be >= 1, got {band}")
    shape = (2 * band + 1, 2 * band + 1, band + 1)
    draws = np.random.default_rng(seed).standard_normal((*shape, 2))
    j = np.arange(-band, band + 1)
    jp = np.arange(band + 1)
    # Python's float power is C pow; np.power can differ from it in the
    # last bit, so the scale of each distinct |j|^2 is taken the same way
    # the per-mode definition takes it
    scale = np.array([(1.0 + m) ** (-decay) for m in range(3 * band * band + 1)])
    scale = scale[j[:, None, None] ** 2 + j[None, :, None] ** 2 + jp ** 2]
    C = np.empty(shape, dtype=np.complex128)
    C.real = draws[..., 0] * scale
    C.imag = draws[..., 1] * scale

    upper = (j[:, None] > 0) | ((j[:, None] == 0) & (j > 0))
    plane = C[:, :, 0]
    plane[...] = np.where(upper, plane, np.conj(plane[::-1, ::-1]))
    plane.imag[band, band] = 0.0
    counts = np.ones(shape, dtype=np.intp)
    counts[:, :, 0] = np.where(upper, 2, 0)
    counts[band, band, 0] = 1
    return C, counts


# the band of the probes' random fields
BAND = 5


def _check_band(grid: Grid, band: int) -> None:
    if band > min(grid.ball):
        raise ConfigError(f"band {band} does not fit the dealiased ball of grid {grid.shape}")


def seeded_scalar(grid: Grid, seed: int, band: int = BAND, amplitude: float = 1.0) -> Field3D:
    """A random trigonometric polynomial with ||f||_L2 = amplitude, identical
    (as a function) on every grid whose 2/3 ball (grid.ball) holds band on
    each axis."""
    _check_band(grid, band)
    C, counts = _seeded_table(seed, band, 2.0)
    terms = C.real * C.real + C.imag * C.imag
    terms[:, :, 1:] *= 2.0
    # one term at a time in the visiting order: a pairwise sum would move
    # the norm, and with it every field, in the last bits
    total = np.add.accumulate(np.repeat(terms.ravel(), counts.ravel()))[-1]
    norm = float(np.sqrt(grid.Lp * total))
    j = np.arange(-band, band + 1)
    A = np.zeros(grid.spectral_shape, dtype=np.complex128)
    A[(j % grid.nx)[:, None, None], (j % grid.ny)[None, :, None], np.arange(band + 1)] = (
        C * (amplitude / norm))
    return Field3D.spectral(grid, A)


def seeded_velocity(grid: Grid, seed: int, band: int = BAND,
                    amplitude: float = 1.0) -> tuple[Field3D, Field3D]:
    """A projected random velocity pair (constraint-satisfying by construction)."""
    v1 = seeded_scalar(grid, 2 * seed + 1, band, amplitude)
    v2 = seeded_scalar(grid, 2 * seed + 2, band, amplitude)
    return barotropic_project(v1, v2)


# --- inequality suites ------------------------------------------------------


@dataclass(frozen=True)
class RatioSample:
    seed: int
    form: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.form / self.bound if self.bound > 0.0 else np.inf


def trilinear_suite(grid: Grid, n: int = 100, seed0: int = 0,
                    band: int = BAND) -> list[RatioSample]:
    out = []
    for k in range(n):
        s = seed0 + k
        f = seeded_scalar(grid, 3 * s + 101, band)
        g = seeded_scalar(grid, 3 * s + 102, band)
        h = seeded_scalar(grid, 3 * s + 103, band)
        out.append(RatioSample(s, trilinear_form(f, g, h), trilinear_bound(f, g, h)))
    return out


@dataclass(frozen=True)
class MinkowskiSample:
    seed: int
    lhs: float
    rhs: float
    slack: float        # sqrt(Lp)*rhs - lhs; negative means a violation

    @property
    def violated(self) -> bool:
        tol = 1e-12 * max(1.0, self.lhs)
        return self.slack < -tol


def minkowski_suite(grid: Grid, n: int = 100, seed0: int = 0,
                    band: int = BAND) -> list[MinkowskiSample]:
    out = []
    root_lp = float(np.sqrt(grid.Lp))
    for k in range(n):
        s = seed0 + k
        v1, v2 = seeded_velocity(grid, s + 500, band)
        lhs, rhs = minkowski_probe(v1, v2)
        out.append(MinkowskiSample(s, lhs, rhs, root_lp * rhs - lhs))
    return out


@dataclass(frozen=True)
class SkewSample:
    seed: int
    work: float         # |<v.grad s + omega dps, s>|
    scale: float        # ||v||_H1 * ||s||_H1^2


def skew_suite(grid: Grid, n: int = 50, seed0: int = 0,
               band: int = BAND) -> list[SkewSample]:
    out = []
    for k in range(n):
        s = seed0 + k
        v1, v2 = seeded_velocity(grid, s + 900, band)
        sc = seeded_scalar(grid, s + 1900, band)
        om = diagnose_omega(v1, v2, check=False)
        work = abs(advection_work(v1, v2, om, sc))
        scale = vector_sobolev_norm((v1, v2), 1) * sobolev_norm(sc, 1) ** 2
        out.append(SkewSample(s, work, scale))
    return out


# --- named invariant suite --------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    bound: float
    ok: bool
    detail: str = ""


def _check(name: str, value: float, bound: float, detail: str = "") -> Check:
    return Check(name, float(value), float(bound), bool(value <= bound), detail)


def invariants_run(
    variant: ModelVariant = FAITHFUL,
    n: int = 16,
    dt: float = 1e-4,
    t_end: float = 0.02,
    seed: int = 11,
    amplitude: float = 2.0,
    viscosity: float = 1e-3,
) -> list[Check]:
    """Run the nonlinear system and evaluate every runtime invariant.

    The variant controls the dynamics only; every check below is computed
    with the faithful definitions, so a defective variant fails checks
    instead of moving the goalposts.
    """
    params = PhysParams().with_(
        mu_v=viscosity, nu_v=viscosity, mu_theta=viscosity,
        nu_theta=viscosity, mu_q=viscosity, nu_q=viscosity)
    grid = Grid(n, n, n, params.p0, params.p1)
    _check_band(grid, BAND)  # the suites' fields, before the run
    state0 = random_smooth(grid, seed, amplitude=amplitude)
    cfg = StepConfig(dt=dt, t_end=t_end)
    try:
        traj = run(state0, params, cfg, variant=variant,
                   record_every=1, collect_budget=True)
    except BlowupError as exc:
        return [Check("completes", 1.0, 0.0, False, f"blowup at t = {exc.t_last}")]
    checks = [Check("completes", 0.0, 0.0, True)]

    reports = [s.report for s in traj.samples]
    div_ratio = max((r.div_residual / r.h1_v if r.h1_v > 0 else 0.0) for r in reports)
    checks.append(_check("constraint_divergence", div_ratio, 1e-11,
                         "max over samples of div residual / ||v||_H1"))
    top_ratio = max((r.omega_p1 / r.h1_v if r.h1_v > 0 else 0.0) for r in reports)
    checks.append(_check("omega_top", top_ratio, 1e-11,
                         "max over samples of |omega(p1)| / ||v||_H1"))
    hyd_ratio = max((r.hydro_residual / r.l2_T if r.l2_T > 0 else 0.0) for r in reports)
    checks.append(_check("hydrostatic", hyd_ratio, 1e-10,
                         "max over samples of hydrostatic residual / ||T||_L2"))

    worst_mono = 0.0
    for prev, cur in zip(reports, reports[1:]):
        for name in ("l2_theta", "l2_q"):
            before, after = getattr(prev, name), getattr(cur, name)
            if before > 0:
                worst_mono = max(worst_mono, (after - before) / before)
    checks.append(_check("scalar_monotonicity", worst_mono, 1e-10,
                         "max relative per-step growth of ||theta||, ||q||"))

    budget = energy_budget(traj.samples)
    worst_budget = max((abs(b.residual) / b.max_term if b.max_term > 0 else 0.0)
                       for b in budget)
    checks.append(_check("energy_budget", worst_budget, 1e-6,
                         "max |residual| / largest budget term, all variables"))

    worst_cor = 0.0
    for st in (state0, traj.final_state):
        w = abs(coriolis_work(st, params, variant))
        l2v2 = sobolev_norm(st.v1, 0) ** 2 + sobolev_norm(st.v2, 0) ** 2
        if l2v2 > 0:
            worst_cor = max(worst_cor, w / l2v2)
    checks.append(_check("coriolis_work", worst_cor, 1e-13,
                         "work of the implemented rotation term / ||v||^2"))

    grad_res = hydrostatic_gradient_residual(traj.final_state.as_physical().theta, params)
    checks.append(_check("pressure_gradient_consistency", grad_res, 1e-10,
                         "relative size of d/dp(grad Phi) + (R/p) grad T"))

    skew = skew_suite(grid, n=20, seed0=seed)
    worst_skew = max((s.work / s.scale if s.scale > 0 else 0.0) for s in skew)
    checks.append(_check("skew_symmetry", worst_skew, 1e-10,
                         "max |<v.grad s + omega dps, s>| / scale, 20 pairs"))

    mink = minkowski_suite(grid, n=100, seed0=seed)
    n_viol = sum(1 for m in mink if m.violated)
    checks.append(_check("minkowski", float(n_viol), 0.0,
                         "violations of the vertical-integral inequality, 100 fields"))

    tri = trilinear_suite(grid, n=100, seed0=seed)
    finite = all(np.isfinite(t.ratio) for t in tri)
    max_ratio = max(t.ratio for t in tri)
    checks.append(Check("trilinear_finite", max_ratio, np.inf, finite,
                        "max form/bound ratio over 100 triples"))
    return checks


# --- differential-inequality probe ------------------------------------------


def gronwall_probe(
    grid: Grid,
    params: PhysParams,
    dt: float = 1e-3,
    t_end: float = 0.05,
    seed: int = 11,
    amplitude: float = 1.0,
) -> dict:
    """Short faithful run on grid with params, returning the four inequality
    series plus the fitted worst constant per form (max lhs/rhs where rhs is
    positive).  A run that diverges raises BlowupError: no constant is
    fitted to a diverged trajectory."""
    state0 = random_smooth(grid, seed, amplitude=amplitude)
    cfg = StepConfig(dt=dt, t_end=t_end)
    traj = run(state0, params, cfg, record_every=1, collect_gronwall=True)
    series = gronwall_series(traj.gronwall, params)
    fitted = {}
    for name, data in series.items():
        ratios = [l / r for l, r in zip(data["lhs"], data["rhs"]) if r > 1e-300]
        fitted[name] = max(ratios) if ratios else 0.0
    return {"series": series, "fitted": fitted}
