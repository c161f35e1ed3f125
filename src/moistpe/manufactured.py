"""Manufactured solutions for convergence measurement.

An exact trajectory is imposed as u*(x,t) = m(t) U(x) with a scalar
modulation m(t) = (1 + alpha t) cos(sigma t) and fixed band-limited spatial
profiles U.  The compensating forcing splits by homogeneity in m:

    f(t) = m'(t) U - m(t) L[U] - m(t)^2 Q[U] - S

where L collects the linear operator response (viscosity, Coriolis, pressure
gradient, with the static contribution S of theta_h and Phi_s removed), and
Q the quadratic advective response.  L and S are evaluated through the
production tendency with advection switched off, so every truncation the
solver applies to linear terms is reproduced exactly and contributes no
error.  Q is evaluated with truncation disabled: the profiles have per-axis
mode index at most four, their advective products at most seven, and a
16-point axis represents index seven cleanly (collocation alias images of a
band-7 product land outside the bin range), so the stored forcing is exact
on every grid used here.  The solver's own advection, by contrast, is cut at
the dealias radius K = (n - 1)//3 (grid.ball): at n = 16 that radius is
five, so the product content at indices six and seven becomes a genuine
spatial truncation residual, while any grid with K >= 7 (n >= 22, so 24 and
32) reproduces the trajectory to the time-discretization floor.

The stored arrays are band-exact, exactly rather than to roundoff: the
profiles are zero outside mode index four, and Q outside index seven, the
highest its products reach, except for the roundoff the transforms leave
at index eight.  The forcing lives on the box that holds them, per axis
|j| <= max(K, 7).  On an axis whose ball holds index eight (K >= 8, from
n = 26) that roundoff lies in the box and is kept, as the masked tendency
keeps its own; on the others the box ends at seven and it is dropped.  So
on every grid with K >= 7 (from n = 22, so 24, 32 and 64) the forcing, and
so the forced trajectory, stays exactly inside the dealiased ball, where
the tendency's transforms skip what lies outside it.

Each array is stored on its own support inside that box: L, dense with
the transforms' roundoff, on the whole box; U on |j| <= 4 (9 x 9 x 5 modes
a field); Q on |j| <= 8, where the box holds it (17 x 17 x 9 from n = 26);
and S, which is zero unless the surface geopotential phi_s is given, only
when it is not zero.  At 64^3 they take 2.8 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import Field3D, SPECTRAL
from .grid import Grid
from .model import FAITHFUL, Forcing, ModelVariant, tendency
from .params import PhysParams
from .state import State


@dataclass(frozen=True)
class ManufacturedCase:
    """Named modulation profile; the spatial structure is shared by all cases."""

    name: str
    sigma: float
    alpha: float
    amplitude: float = 0.1
    band: int = 4


CASES = {
    "steady": ManufacturedCase("steady", sigma=0.0, alpha=0.0),
    "gentle": ManufacturedCase("gentle", sigma=3.0, alpha=0.5),
    "brisk": ManufacturedCase("brisk", sigma=40.0, alpha=1.0),
}


def get_case(name: str) -> ManufacturedCase:
    try:
        return CASES[name]
    except KeyError:
        raise ConfigError(
            f"unknown manufactured case {name!r}; choose from {sorted(CASES)}"
        ) from None


def _profiles(case: ManufacturedCase, grid: Grid) -> State:
    """Spatial factors U = (v1, v2, theta, q) as one state, mode index <= 4.

    The horizontal velocity is a divergence-free barotropic part (from a
    streamfunction) plus baroclinic parts of zero vertical mean, so the
    vertically-averaged divergence vanishes and the exact trajectory is a
    fixed point of the projection.  The index-4 term sits in theta: paired
    with the index-2 and index-3 velocity content it pushes the advective
    products v.grad(theta) out to horizontal index seven, which is what the
    spatial convergence study truncates at coarse resolution.
    """
    a = case.amplitude
    tau = 2.0 * math.pi
    p0, Lp = grid.p0, grid.Lp

    def P(p):
        return tau * (p - p0) / Lp

    def v1(x, y, p):
        bt = -np.sin(tau * x) * np.cos(tau * y) + 0.3 * np.cos(2 * tau * x) * np.sin(tau * y)
        bc = 0.8 * np.sin(tau * x) * np.sin(P(p)) + 0.5 * np.cos(3 * tau * y) * np.cos(P(p))
        return a * (bt + bc)

    def v2(x, y, p):
        bt = np.cos(tau * x) * np.sin(tau * y) - 0.6 * np.sin(2 * tau * x) * np.cos(tau * y)
        bc = 0.7 * np.cos(tau * y) * np.cos(P(p)) + 0.4 * np.sin(3 * tau * x) * np.sin(P(p))
        return a * (bt + bc)

    def theta(x, y, p):
        return a * (0.9 * np.sin(tau * x) * np.cos(tau * y) * np.sin(P(p))
                    + 0.5 * np.cos(tau * x) * np.sin(3 * P(p))
                    + 0.3 * np.cos(2 * tau * y) * np.cos(2 * P(p))
                    + 0.35 * np.sin(4 * tau * x) * np.cos(tau * y) * np.sin(2 * P(p)))

    def q(x, y, p):
        return a * (0.8 * np.cos(tau * x) * np.sin(tau * y) * np.cos(P(p))
                    + 0.4 * np.sin(2 * tau * x) * np.sin(2 * P(p))
                    + 0.3 * np.sin(tau * y) * np.cos(3 * P(p)))

    return State(*(Field3D.from_function(grid, fn).as_spectral()
                   for fn in (v1, v2, theta, q)))


def _box(grid: Grid, reach, within=None) -> tuple:
    """The index of the box |j| <= reach (one reach per axis) in a state's
    spectral stack, or, given within (a reach per axis, none below
    reach's), in the layout of the box |j| <= within.  x and y are index
    arrays that broadcast to the box's rows, p a slice of leading planes."""
    index = []
    for j, r, w in zip(grid.mode_index, reach, within or (math.inf,) * 3):
        j = j.ravel()
        index.append(np.flatnonzero(j[j <= w] <= r))
    jx, jy, jp = index
    return (slice(None), jx[:, None], jy, slice(0, jp.size))


class ManufacturedSolution:
    """Precomputed forcing and exact states for one case on one grid.

    The forcing's box holds every coefficient of the stored arrays: per
    axis |j| <= max(K, 2 band - 1), K the axis's radius of the 2/3 ball
    (grid.ball; the whole axis where that reaches n/2).  The masked
    tendency keeps |j| <= K, and Q is band-exact at 2 band - 1, up to
    roundoff at 2 band that is kept only where the ball holds it (see the
    module docstring).  The linear response L is stored on that box, the
    profiles U on |j| <= band, the quadratic response Q on |j| <= 2 band
    within the box, and the static response S on the box when it is not
    zero (None otherwise).  forcing is a model.Forcing on the box: the
    tendency adds its values there, and forcing(t) gives the full stack,
    zero off the box, read-only, a new array for each call.
    exact_state returns full stacks.
    """

    def __init__(self, case: ManufacturedCase, grid: Grid, params: PhysParams):
        if min(grid.ball) < case.band:
            raise ConfigError(
                f"grid {grid.shape} cannot carry band-{case.band} profiles inside "
                "the dealiased ball")
        self.case = case
        self.grid = grid
        self.params = params
        ustate = _profiles(case, grid)
        band = case.band
        reach = tuple(max(k, 2 * band - 1) for k in grid.ball)
        u_reach = (band,) * 3
        q_reach = tuple(min(2 * band, r) for r in reach)
        self._box = box = _box(grid, reach)
        # where U and Q lie in the box's layout
        self._ubox, self._qbox = _box(grid, u_reach, reach), _box(grid, q_reach, reach)

        # stacked like a state: the static response S and the linear
        # response L on the box, the quadratic response Q and the profiles
        # U on their boxes
        S = tendency(State.zeros(grid, SPECTRAL), params, variant=FAITHFUL).data[box]
        self._L = tendency(ustate, params, variant=FAITHFUL.with_(advection=False)).data[box] - S
        # S is subtracted last, and subtracting +0 changes no bit
        self._S = S if S.view(np.uint64).any() else None
        # band-exact (see the module docstring): the transforms leave
        # roundoff outside the band; a product of the profiles has under
        # twice it, and the box cuts 2 band where the ball does not hold it
        self._Q = tendency(ustate, params, variant=ModelVariant(
            advection=True, coriolis=False, pressure=False,
            viscosity=False, dealias=False)).data[_box(grid, q_reach)]
        self._u_index = _box(grid, u_reach)  # U's box in a state's stack
        self._U = ustate.data[self._u_index]
        self.forcing = Forcing(grid, box, self._on_box)
        self._t = None  # the time of the values in _values
        self._values = None  # the forcing on the box

    def modulation(self, t: float) -> tuple[float, float]:
        c, s = math.cos(self.case.sigma * t), math.sin(self.case.sigma * t)
        env = 1.0 + self.case.alpha * t
        m = env * c
        mdot = self.case.alpha * c - self.case.sigma * env * s
        return m, mdot

    def _on_box(self, t: float) -> np.ndarray:
        """The forcing at time t on the box, mdot U - m L - m^2 Q - S with
        the operations in that order, in one array that the next new time
        overwrites.  Each term is taken on its own support, with the bits
        of the four terms on the whole box: off U's box, mdot U is mdot
        times a complex zero, and m^2 Q and S are +0 where they are not
        stored, which no subtraction of them changes.  The latest time's
        values are kept: a Runge-Kutta step asks twice for its midpoint,
        and the next step starts where this one ended."""
        if self._t == t:
            return self._values
        m, mdot = self.modulation(t)
        if self._values is None:
            self._values = np.empty_like(self._L)
        box = np.multiply(m, self._L, out=self._values)
        on_u = np.multiply(mdot, self._U)
        on_u -= box[self._ubox]
        np.subtract(np.multiply(mdot, np.zeros((), dtype=np.complex128)), box, out=box)
        box[self._ubox] = on_u
        box[self._qbox] -= np.multiply(m * m, self._Q)
        if self._S is not None:
            box -= self._S
        self._t = t
        return box

    def exact_state(self, t: float) -> State:
        m, _ = self.modulation(t)
        out = np.zeros((4,) + self.grid.spectral_shape, dtype=np.complex128)
        out[self._u_index] = m * self._U
        return State.of(self.grid, out, SPECTRAL, t)

    def initial_state(self) -> State:
        return self.exact_state(0.0)

    def error(self, state: State) -> float:
        """Largest per-field L2 distance to the exact state at state.t."""
        from .norms import parseval_sum
        diff = state.as_spectral().data - self.exact_state(state.t).data
        return float(np.sqrt(self.grid.volume * parseval_sum(self.grid, diff)).max())
