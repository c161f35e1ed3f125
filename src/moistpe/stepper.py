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
explicit Euler substeps of length dt/10.

The explicit alternative is the classical four-stage Runge-Kutta scheme with
an a-priori stability check on the stiffest diffusive eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BlowupError, ConfigError
from .fields import Field3D
from .grid import Grid
from .model import (
    FAITHFUL,
    ForcingFn,
    ModelVariant,
    PhysParams,
    Workspace,
    project_state,
    tendency,
)
from .norms import sobolev_norm
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
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_end >= 0.0 and np.isfinite(self.t_end)):
            raise ConfigError(f"t_end must be nonnegative and finite, got {self.t_end}")


def step_count(t0: float, t_end: float, dt: float) -> int:
    """The number of fixed steps of length dt from t0 to t_end.

    The span must be a whole number of steps to 1e-9 relative; any other end
    time would be missed, so it raises ConfigError instead of rounding.
    """
    span = t_end - t0
    if not (dt > 0.0 and np.isfinite(span / dt)):
        raise ConfigError(f"time.dt = {dt!r} must be positive and time.t_end = {t_end!r}, "
                          f"time.t0 = {t0!r} finite")
    if span < 0:
        raise ConfigError(f"time.t_end = {t_end!r} precedes time.t0 = {t0!r}")
    n = round(span / dt)
    if abs(span - n * dt) > 1e-9 * max(span, dt):
        raise ConfigError(
            f"time.t_end - time.t0 = {span!r} is not a whole number of steps of "
            f"time.dt = {dt!r} (time.t_end = {t_end!r}, time.t0 = {t0!r})")
    return n


def _spectral_arrays(state: State):
    return tuple(f.as_spectral().data for f in state.fields)


def _make_state(grid: Grid, arrays, t: float) -> State:
    v1, v2, th, q = (Field3D.spectral(grid, a) for a in arrays)
    return State(v1, v2, th, q, t=t)


def _rhs(state: State, ws: Workspace, forcing):
    tend = tendency(state, ws.params, forcing=forcing, variant=ws.variant, ws=ws)
    return tuple(f.data for f in (tend.v1, tend.v2, tend.theta, tend.q))


def imex_euler_step(state: State, dt: float, ws: Workspace,
                    forcing: ForcingFn | None = None) -> State:
    """One projected first-order IMEX Euler step: backward Euler on the
    constant-coefficient split, forward Euler on the remainder.  Keeps the
    implicit part unconditionally dissipative, which the bootstrap relies on."""
    g = state.grid
    lam = ws.multipliers()
    u = _spectral_arrays(state)
    F = _rhs(state, ws, forcing)
    new = tuple(
        (ui + dt * (Fi + li * ui)) / (1.0 + dt * li)
        for ui, li, Fi in zip(u, lam, F)
    )
    return project_state(_make_state(g, new, state.t + dt))


def imex_step(state: State, n_prev, dt: float, ws: Workspace,
              forcing: ForcingFn | None = None):
    """One CNAB2 step.  n_prev is the previous explicit part (or None on the
    first call, which triggers the bootstrap).  Returns (state, n_cur).
    """
    g = state.grid
    lam = ws.multipliers()
    if n_prev is None:
        # bootstrap: ten IMEX Euler substeps (explicit only on the explicit
        # part), then report N at the resulting state so the next step can
        # run AB2
        sub = state
        for _ in range(10):
            sub = imex_euler_step(sub, dt / 10.0, ws, forcing)
        u_new = _spectral_arrays(sub)
        F = _rhs(sub, ws, forcing)
        n_cur = tuple(Fi + li * ui for Fi, li, ui in zip(F, lam, u_new))
        return sub, n_cur
    u = _spectral_arrays(state)
    F = _rhs(state, ws, forcing)
    n_cur = tuple(Fi + li * ui for Fi, li, ui in zip(F, lam, u))
    new = tuple(
        ((1.0 - 0.5 * dt * li) * ui + dt * (1.5 * ni - 0.5 * pi)) / (1.0 + 0.5 * dt * li)
        for ui, li, ni, pi in zip(u, lam, n_cur, n_prev)
    )
    out = project_state(_make_state(g, new, state.t + dt))
    # the projection commutes with the diagonal implicit solve, so n_cur is
    # consistent history for the next step
    return out, n_cur


def erk4_step(state: State, dt: float, params: PhysParams,
              forcing: ForcingFn | None = None,
              variant: ModelVariant = FAITHFUL,
              ws: Workspace | None = None) -> State:
    """Classical four-stage Runge-Kutta step.

    Stage states are projected as well as the result, so the scheme is
    exactly the classical one applied to the projected vector field; energy
    accounting then sees no spurious projection losses.  ws is the Workspace
    of (grid, params, variant); a temporary one is built when none is given.
    """
    g = state.grid
    if ws is None:
        ws = Workspace(g, params, variant)
    t = state.t
    u = _spectral_arrays(state)
    k1 = _rhs(state, ws, forcing)
    s2 = project_state(_make_state(
        g, tuple(ui + 0.5 * dt * ki for ui, ki in zip(u, k1)), t + 0.5 * dt))
    k2 = _rhs(s2, ws, forcing)
    s3 = project_state(_make_state(
        g, tuple(ui + 0.5 * dt * ki for ui, ki in zip(u, k2)), t + 0.5 * dt))
    k3 = _rhs(s3, ws, forcing)
    s4 = project_state(_make_state(
        g, tuple(ui + dt * ki for ui, ki in zip(u, k3)), t + dt))
    k4 = _rhs(s4, ws, forcing)
    new = tuple(
        ui + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for ui, a, b, c, d in zip(u, k1, k2, k3, k4)
    )
    return project_state(_make_state(g, new, t + dt))


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
    report: "object"            # NormReport; typed loosely to avoid a cycle
    budget: dict | None = None


@dataclass
class Trajectory:
    samples: list = dc_field(default_factory=list)
    final_state: State | None = None
    completed: bool = False
    blowup_time: float | None = None
    gronwall: list | None = None

    @property
    def times(self):
        return np.array([s.t for s in self.samples])

    def series(self, name: str):
        return np.array([getattr(s.report, name) for s in self.samples])


BLOWUP_FACTOR = 1e8


def run(
    state: State,
    params: PhysParams,
    config: StepConfig,
    forcing: ForcingFn | None = None,
    variant: ModelVariant = FAITHFUL,
    record_every: int = 1,
    on_sample=None,
    collect_budget: bool = False,
    collect_gronwall: bool = False,
    raise_on_blowup: bool = False,
) -> Trajectory:
    """Integrate from state.t to t_end in fixed steps of config.dt.

    Samples are recorded at the start, every record_every steps and at the
    final step.  t_end - state.t must be a whole number of steps (see
    step_count); the state's own time counts, so a resumed run is checked
    against the time it resumes from.

    The initial state is truncated to the dealiased ball (when the variant
    dealiases) and projected, so the advertised invariants hold from the first
    sample.  Divergence of the solution (a non-finite value, or any field's L2
    norm exceeding 1e8 times its initial size) stops the run; the partial
    trajectory is returned with completed=False unless raise_on_blowup is set.
    """
    from . import monitors  # local import: monitors imports model, not stepper

    g = state.grid
    params.check_grid(g)
    n_steps = step_count(state.t, config.t_end, config.dt)
    ws = Workspace(g, params, variant)
    if config.scheme == "erk4_fully_explicit":
        check_erk4_stability(ws, config.dt)

    st = state.as_spectral()
    if variant.dealias:
        arrays = tuple(f.data * g.dealias_mask for f in st.fields)
        st = _make_state(g, arrays, st.t)
    st = project_state(st)

    ref = [sobolev_norm(f, 0) for f in st.fields]
    ref_total = max(max(ref), 1.0)
    limits = [BLOWUP_FACTOR * (r if r > 0.0 else ref_total) for r in ref]

    traj = Trajectory()
    gron = [] if collect_gronwall else None
    traj.gronwall = gron

    def record(s: State):
        budget = monitors.budget_terms(s, params, forcing) if collect_budget else None
        rep = monitors.norm_report(s, params)
        sample = TrajectorySample(s.t, s.checksum(), rep, budget)
        traj.samples.append(sample)
        if gron is not None:
            gron.append(monitors.gronwall_record(s, params, forcing))
        if on_sample is not None:
            on_sample(s, sample)

    def blown(s: State) -> bool:
        if not all(np.all(np.isfinite(f.data)) for f in s.fields):
            return True
        return any(sobolev_norm(f, 0) > lim for f, lim in zip(s.fields, limits))

    record(st)

    t0 = st.t
    n_prev = None
    for k in range(1, n_steps + 1):
        if config.scheme == "imex_cnab2":
            st, n_prev = imex_step(st, n_prev, config.dt, ws, forcing)
        else:
            st = erk4_step(st, config.dt, params, forcing, variant, ws)
        st = _make_state(g, tuple(f.data for f in st.fields), t0 + k * config.dt)
        if blown(st):
            traj.completed = False
            traj.blowup_time = st.t
            traj.final_state = st
            if raise_on_blowup:
                raise BlowupError(f"solution diverged at t = {st.t:.6g}", st.t)
            return traj
        if k % record_every == 0 or k == n_steps:
            record(st)

    traj.final_state = st
    traj.completed = True
    return traj
