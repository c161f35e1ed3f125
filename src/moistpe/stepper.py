"""Time integration: IMEX multistep and explicit Runge-Kutta drivers.

The default scheme treats a constant-coefficient piece of each viscosity
operator implicitly (Crank-Nicolson) and everything else with second-order
Adams-Bashforth.  Writing the semi-discrete system as du/dt = F(u) and
splitting F(u) = -L u + N(u) with L diagonal in spectral space,

    L = mu * |k_h|^2 + nu * cbar * k_p^2,

cbar the vertical mean of the coefficient profile c(p), the update reads

    (1 + dt/2 L) u^{n+1} = (1 - dt/2 L) u^n + dt (3/2 N^n - 1/2 N^{n-1}).

N is evaluated as the full tendency plus L u, so the splitting is exact: the
scheme integrates the true right-hand side regardless of how well cbar
approximates the profile.  The first step has no history and is taken as ten
IMEX Euler substeps of length dt/10.

Each step works on the whole stacked state array, keeps its stage states and
temporaries in the Workspace and projects in place; the state it returns,
and the IMEX history, each own their array.

The explicit alternative is the classical four-stage Runge-Kutta scheme with
an a-priori stability check on the stiffest diffusive eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import monitors
from .errors import BlowupError, ConfigError
from .fields import SPECTRAL
from .grid import Grid
from .model import (
    FAITHFUL,
    Forcing,
    ModelVariant,
    PhysParams,
    Workspace,
    _project_in_place,
    tendency,
)
from .norms import parseval_sum
from .state import State

SCHEMES = ("imex_cnab2", "erk4_fully_explicit")

ERK4_STABILITY_LIMIT = 2.785  # real-axis stability bound of classical RK4


@dataclass(frozen=True)
class StepConfig:
    dt: float
    t_end: float
    scheme: str = "imex_cnab2"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"time.scheme: unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ConfigError(f"time.dt: must be positive and finite, got {self.dt}")
        if not (self.t_end >= 0.0 and np.isfinite(self.t_end)):
            raise ConfigError(f"time.t_end: must be nonnegative and finite, got {self.t_end}")


def step_count(t0: float, t_end: float, dt: float) -> int:
    """The number of fixed steps of length dt from t0 to t_end.

    The span must be a whole number of steps to 1e-9 relative; any other end
    time would be missed, so it raises ConfigError instead of rounding.  A
    span below zero by less than that tolerance is zero steps: a run's last
    time t0 + n dt can land an ulp above the decimal t_end it was asked for,
    and its checkpoint records both.
    """
    span = t_end - t0
    if not (dt > 0.0 and np.isfinite(span / dt)):
        raise ConfigError(f"time.dt = {dt!r} must be positive and time.t_end = {t_end!r}, "
                          f"time.t0 = {t0!r} finite")
    if span <= -1e-9 * dt:
        raise ConfigError(f"time.t_end = {t_end!r} precedes time.t0 = {t0!r}")
    n = round(span / dt)
    if abs(span - n * dt) > 1e-9 * max(span, dt):
        raise ConfigError(
            f"time.t_end - time.t0 = {span!r} is not a whole number of steps of "
            f"time.dt = {dt!r} (time.t_end = {t_end!r}, time.t0 = {t0!r})")
    return n


def _tendency(state: State, ws: Workspace, forcing) -> np.ndarray:
    """The stacked tendency at state, in a fresh array the caller may overwrite."""
    return tendency(state, ws.params, forcing=forcing, variant=ws.variant, ws=ws).data


def _projected(grid: Grid, data: np.ndarray, t: float) -> State:
    """The spectral state of data, its velocity projected in place."""
    _project_in_place(grid, data[0], data[1])
    return State.of(grid, data, SPECTRAL, t)


def _explicit_part(F: np.ndarray, u: np.ndarray, ws: Workspace) -> np.ndarray:
    """N = F + lam u, written into F."""
    return np.add(F, np.multiply(ws.lam, u, out=ws.stage), out=F)


def imex_euler_step(state: State, dt: float, ws: Workspace,
                    forcing: Forcing | None = None) -> State:
    """One projected first-order IMEX Euler step: backward Euler on the
    constant-coefficient split, forward Euler on the remainder.  Keeps the
    implicit part unconditionally dissipative, which the bootstrap relies on."""
    u = state.as_spectral().data
    # (u + dt (F + lam u)) / (1 + dt lam), built in the array of F
    new = _explicit_part(_tendency(state, ws, forcing), u, ws)
    np.multiply(dt, new, out=new)
    np.add(u, new, out=new)
    np.divide(new, np.add(1.0, np.multiply(dt, ws.lam, out=ws.real), out=ws.real), out=new)
    return _projected(state.grid, new, state.t + dt)


def imex_step(state: State, n_prev, dt: float, ws: Workspace,
              forcing: Forcing | None = None):
    """One CNAB2 step.  n_prev is the previous explicit part (or None on the
    first call, which triggers the bootstrap).  Returns (state, n_cur).
    """
    if n_prev is None:
        # bootstrap: ten IMEX Euler substeps (explicit only on the explicit
        # part), then report N at the resulting state so the next step can
        # run AB2
        sub = state
        for _ in range(10):
            sub = imex_euler_step(sub, dt / 10.0, ws, forcing)
        return sub, _explicit_part(_tendency(sub, ws, forcing), sub.data, ws)
    u = state.as_spectral().data
    n_cur = _explicit_part(_tendency(state, ws, forcing), u, ws)
    # ((1 - dt/2 lam) u + dt (3/2 n_cur - 1/2 n_prev)) / (1 + dt/2 lam)
    half, tmp, fac = 0.5 * dt, ws.stage, ws.real
    new = np.multiply(1.5, n_cur)
    new -= np.multiply(0.5, n_prev, out=tmp)
    np.multiply(dt, new, out=new)
    np.subtract(1.0, np.multiply(half, ws.lam, out=fac), out=fac)
    np.add(np.multiply(fac, u, out=tmp), new, out=new)
    np.divide(new, np.add(1.0, np.multiply(half, ws.lam, out=fac), out=fac), out=new)
    # the projection commutes with the diagonal implicit solve, so n_cur is
    # consistent history for the next step
    return _projected(state.grid, new, state.t + dt), n_cur


def erk4_step(state: State, dt: float, ws: Workspace,
              forcing: Forcing | None = None) -> State:
    """Classical four-stage Runge-Kutta step of the model of ws.

    Stage states are projected as well as the result, so the scheme is
    exactly the classical one applied to the projected vector field; energy
    accounting then sees no spurious projection losses.  The workspace fixes
    the grid, params and variant integrated, as for imex_step.  The stage
    states live in the workspace; the result has its own array.
    The weighted sum of the stage tendencies is a running sum with the
    classical order of operations, ((k1 + 2 k2) + 2 k3) + k4, so at most two
    stage tendencies are alive at once, not four.
    """
    g = state.grid
    t = state.t
    u = state.as_spectral().data

    def stage(c: float, k: np.ndarray, t_stage: float) -> State:
        # u + c dt k, in the workspace
        np.multiply(c * dt, k, out=ws.stage)
        return _projected(g, np.add(u, ws.stage, out=ws.stage), t_stage)

    # the running sum ((k1 + 2 k2) + 2 k3) + k4, each stage tendency folded
    # in as soon as the next stage state is built from it, in the array of
    # that tendency
    k1 = _tendency(state, ws, forcing)
    k = _tendency(stage(0.5, k1, t + 0.5 * dt), ws, forcing)
    st = stage(0.5, k, t + 0.5 * dt)
    acc = np.add(k1, np.multiply(2.0, k, out=k), out=k)
    del k1
    k = _tendency(st, ws, forcing)
    st = stage(1.0, k, t + dt)
    acc = np.add(acc, np.multiply(2.0, k, out=k), out=k)
    k = _tendency(st, ws, forcing)
    np.add(acc, k, out=k)
    # u + (dt/6) (k1 + 2 k2 + 2 k3 + k4), in the array of k4
    np.multiply(dt / 6.0, k, out=k)
    return _projected(g, np.add(u, k, out=k), t + dt)


def check_erk4_stability(ws: Workspace, dt: float):
    """Reject a step size whose stiffest diffusive eigenvalue leaves the
    classical RK4 real-axis stability interval."""
    if ws.lam_max * dt > ERK4_STABILITY_LIMIT:
        raise ConfigError(
            f"erk4 unstable: lam_max * dt = {ws.lam_max * dt:.3f} exceeds "
            f"{ERK4_STABILITY_LIMIT} (reduce dt below "
            f"{ERK4_STABILITY_LIMIT / ws.lam_max:.3e})"
        )


# --- trajectory driver ----------------------------------------------------


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    checksum: str
    report: monitors.NormReport
    budget: dict | None = None


@dataclass
class Trajectory:
    """A run that reached t_end: its samples, its final state and, when
    collected, its Gronwall records.  A run that diverges returns none; it
    raises BlowupError."""
    samples: list = dc_field(default_factory=list)
    final_state: State | None = None
    gronwall: list | None = None


BLOWUP_FACTOR = 1e8

FIELD_NAMES = ("v1", "v2", "theta", "q")


def run(
    state: State,
    params: PhysParams,
    config: StepConfig,
    forcing: Forcing | None = None,
    variant: ModelVariant = FAITHFUL,
    record_every: int = 1,
    on_sample=None,
    collect_budget: bool = False,
    collect_gronwall: bool = False,
) -> Trajectory:
    """Integrate from state.t to t_end in fixed steps of config.dt.

    Samples are recorded at the start, every record_every steps and at the
    final step.  t_end - state.t must be a whole number of steps (see
    step_count); the state's own time counts, so a resumed run is checked
    against the time it resumes from.

    The initial state is truncated to the dealiased ball (when the variant
    dealiases) and projected, so the advertised invariants hold from the first
    sample.  Divergence of the solution (a non-finite value, or any field's L2
    norm exceeding 1e8 times its initial size) stops the run with a
    BlowupError that names the step, the field whose norm tripped, that norm
    and its limit; the samples recorded before it have already gone to
    on_sample, and no trajectory is returned.  The floating-point warnings
    of a diverging step are silenced; the norm check reports the divergence
    instead.

    Each record point converts the state once (monitors.sample_context), and
    every monitor and the checksum read that one conversion.
    """
    g = state.grid
    params.check_grid(g)
    n_steps = step_count(state.t, config.t_end, config.dt)
    ws = Workspace(g, params, variant)
    if config.scheme == "erk4_fully_explicit":
        check_erk4_stability(ws, config.dt)

    # one array of the run's own: the run never writes into the caller's
    # arrays, and holds none of them once it has its copy
    st = state.as_spectral()
    st = _projected(g, st.data * g.dealias_mask if variant.dealias else st.data.copy(), st.t)
    del state

    def l2_norms(s: State) -> np.ndarray:
        return np.sqrt(g.volume * parseval_sum(g, s.data))

    ref = l2_norms(st)
    limits = BLOWUP_FACTOR * np.where(ref > 0.0, ref, max(ref.max(), 1.0))

    traj = Trajectory(gronwall=[] if collect_gronwall else None)
    gron = traj.gronwall
    constants = monitors.MonitorConstants(g, params)

    def record(s: State):
        ctx = monitors.sample_context(s, constants)
        budget = monitors.budget_terms(ctx, forcing) if collect_budget else None
        rep = monitors.norm_report(ctx)
        sample = TrajectorySample(s.t, s.checksum(ctx), rep, budget)
        traj.samples.append(sample)
        if gron is not None:
            gron.append(monitors.gronwall_record(ctx, forcing))
        del ctx  # its arrays are not kept through the callback
        if on_sample is not None:
            on_sample(s, sample)

    record(st)

    t0 = st.t
    n_prev = None
    for k in range(1, n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            if config.scheme == "imex_cnab2":
                st, n_prev = imex_step(st, n_prev, config.dt, ws, forcing)
            else:
                st = erk4_step(st, config.dt, ws, forcing)
            norms = l2_norms(st)
        st = st.with_time(t0 + k * config.dt)
        # a non-finite value makes its norm NaN or infinite, which fails too
        if not np.all(norms <= limits):
            # name the field furthest past its limit, a non-finite one first
            i = int(np.argmax(np.where(np.isfinite(norms), norms / limits, np.inf)))
            detail = (f"(step {k}): ||{FIELD_NAMES[i]}||_L2 = {norms[i]:.6g}, "
                      f"limit {limits[i]:.6g}")
            raise BlowupError(f"solution diverged at t = {st.t:.6g} {detail}", st.t, detail)
        if k % record_every == 0 or k == n_steps:
            record(st)

    traj.final_state = st
    return traj
