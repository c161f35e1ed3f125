"""Forced exact trajectories and the convergence harness built on them."""

import math

import numpy as np
import pytest

from moistpe.convergence import (
    ORDER_PAIRS,
    ORDER_WINDOWS,
    contrast_profile_decay,
    spatial_study,
    suite,
    temporal_study,
)
from moistpe.errors import ConfigError
from moistpe.fields import SPECTRAL, Field3D, in_ball
from moistpe.grid import Grid
from moistpe.manufactured import CASES, ManufacturedSolution, _profiles, get_case
from moistpe.model import FAITHFUL, ModelVariant, Workspace, divergence_residual, tendency
from moistpe.norms import sobolev_norm
from moistpe.params import PhysParams
from moistpe.state import State
from moistpe.stepper import StepConfig, erk4_step, run


@pytest.fixture()
def grid24(params):
    return Grid(24, 24, 24, params.p0, params.p1)


def _instantaneous_residual(ms):
    """Norm of tendency(U) + forcing(0); zero iff U is a discrete steady state."""
    rhs = tendency(ms.initial_state(), ms.params)
    worst = 0.0
    for f, fo in zip((rhs.v1, rhs.v2, rhs.theta, rhs.q), ms.forcing(0.0)):
        worst = max(worst, sobolev_norm(Field3D.spectral(ms.grid, f.data + fo), 0))
    return worst


def test_case_registry():
    assert set(CASES) == {"steady", "gentle", "brisk"}
    assert get_case("brisk").sigma == pytest.approx(40.0)
    with pytest.raises(ConfigError):
        get_case("frantic")


def test_modulation_values():
    ms_case = get_case("gentle")
    # modulation is independent of the grid, so evaluate through a small solution
    params = PhysParams()
    grid = Grid(16, 16, 16, params.p0, params.p1)
    sol = ManufacturedSolution(ms_case, grid, params)
    assert sol.modulation(0.0) == (1.0, ms_case.alpha)
    t = 0.3
    env = 1.0 + ms_case.alpha * t
    assert sol.modulation(t)[0] == pytest.approx(env * math.cos(ms_case.sigma * t), rel=1e-15)

    steady = ManufacturedSolution(get_case("steady"), grid, params)
    assert steady.modulation(7.7) == (1.0, 0.0)


def test_grid_must_carry_profile_band(params):
    small = Grid(8, 8, 8, params.p0, params.p1)
    with pytest.raises(ConfigError):
        ManufacturedSolution(get_case("gentle"), small, params)


def test_profiles_satisfy_projection_constraint(grid16, params):
    ms = ManufacturedSolution(get_case("gentle"), grid16, params)
    st = ms.initial_state()
    assert divergence_residual(st.v1, st.v2) <= 1e-14


def test_exact_state_is_its_own_reference(grid16, params):
    ms = ManufacturedSolution(get_case("brisk"), grid16, params)
    assert ms.error(ms.exact_state(0.37)) <= 1e-15


def test_steady_forcing_is_time_independent(grid16, params):
    ms = ManufacturedSolution(get_case("steady"), grid16, params)
    f0 = ms.forcing(0.0)
    f1 = ms.forcing(2.5)
    for a, b in zip(f0, f1):
        assert np.array_equal(a, b)


def test_steady_balance_is_exact_on_resolving_grid(grid24, params):
    ms = ManufacturedSolution(get_case("steady"), grid24, params)
    assert _instantaneous_residual(ms) <= 1e-13


def test_coarse_grid_shows_truncation_residual(grid16, params):
    # at n=16 the dealias radius is 5 while the advective products reach
    # index 7, so the steady balance must fail by a visible margin; this is
    # the signal the spatial convergence study measures
    ms = ManufacturedSolution(get_case("steady"), grid16, params)
    assert _instantaneous_residual(ms) >= 1e-4


def test_steady_case_is_discrete_fixed_point(grid24, params):
    ms = ManufacturedSolution(get_case("steady"), grid24, params)
    traj = run(ms.initial_state(), params, StepConfig(dt=1e-3, t_end=0.05),
               forcing=ms.forcing)
    assert traj.final_state.t == pytest.approx(0.05)  # a returned run is complete
    assert ms.error(traj.final_state) <= 1e-13


def test_gentle_case_is_tracked_accurately(grid24, params):
    ms = ManufacturedSolution(get_case("gentle"), grid24, params)
    traj = run(ms.initial_state(), params, StepConfig(dt=1e-3, t_end=0.1),
               forcing=ms.forcing)
    assert traj.final_state.t == pytest.approx(0.1)  # a returned run is complete
    assert ms.error(traj.final_state) <= 1e-6


def test_spatial_study_distinguishes_resolutions():
    study = spatial_study(resolutions=(16, 24), dt=5e-4, t_end=0.01)
    errs = study["errors"]
    assert errs[16] < 1e-4
    assert errs[24] < 1e-6
    assert errs[16] / errs[24] >= 100.0


def test_temporal_study_second_order_window():
    study = temporal_study(case_name="gentle", n=24, dts=(1e-3, 5e-4),
                           t_end=0.1, schemes=("imex_cnab2",))
    errs = study["errors"]["imex_cnab2"]
    ratio = errs[1e-3] / errs[5e-4]
    lo, hi = ORDER_WINDOWS["imex_cnab2"]
    assert lo <= ratio <= hi


def test_contrast_profile_tail_decays_slowly():
    tails = contrast_profile_decay()
    assert all(t > 0 for t in tails.values())
    assert tails[16] > tails[24] > tails[32]
    assert 4.0 <= tails[16] / tails[32] <= 20.0


def test_order_tables_are_consistent():
    assert set(ORDER_PAIRS) == set(ORDER_WINDOWS)
    for scheme, (coarse, fine) in ORDER_PAIRS.items():
        assert coarse > fine


def test_suite_grades_injected_studies():
    spatial = {"case": "gentle", "dt": 2e-5, "t_end": 0.02,
               "errors": {16: 2.9e-5, 32: 1.2e-10}}
    temporal = {"case": "brisk", "n": 32, "t_end": 0.05, "errors": {
        "imex_cnab2": {2e-4: 1.7e-7, 1e-4: 4.4e-8, 5e-5: 1.1e-8},
        "erk4_fully_explicit": {2e-4: 1.2e-13, 1e-4: 7.6e-15, 5e-5: 5.0e-16},
    }}
    report = suite(spatial=spatial, temporal=temporal)
    assert report.passed
    graded = {r.name: r for r in report.rows if r.passed is not None}
    assert set(graded) == {"error_drop_16_to_32", "imex_cnab2_halving_ratio",
                           "erk4_fully_explicit_halving_ratio"}
    assert graded["error_drop_16_to_32"].target == ">= 100"

    weak = dict(spatial, errors={16: 5e-9, 32: 1.2e-10})
    report2 = suite(spatial=weak, temporal=temporal)
    assert not report2.passed

    slow = {**temporal, "errors": {**temporal["errors"],
                                   "imex_cnab2": {2e-4: 2e-7, 1e-4: 1e-7, 5e-5: 5e-8}}}
    report3 = suite(spatial=spatial, temporal=slow)
    assert not report3.passed
    bad = {r.name for r in report3.rows if r.passed is False}
    assert bad == {"imex_cnab2_halving_ratio"}


def test_stored_arrays_are_band_exact(grid24, params):
    # exact states are zero outside the profiles' band, exactly.  Q reaches
    # 2 band - 1 = 7, which the 24^3 ball (radius 7) holds, so there the
    # forcing lies inside the ball, exactly
    ms = ManufacturedSolution(get_case("brisk"), grid24, params)
    assert min(grid24.ball) == 2 * ms.case.band - 1
    outside_band = ~grid24.band_mask(ms.case.band)
    for f in ms.exact_state(0.3).fields:
        assert not np.any(f.data[outside_band])
    assert in_ball(grid24, ms.forcing(0.3))
    # per axis the forcing reaches 2 band - 1, and beyond that only the
    # ball's radius K: nothing lies past max(K, 2 band - 1)
    reach = 2 * ms.case.band - 1
    for shape in [(16, 16, 16), (24, 24, 24), (32, 48, 48)]:
        grid = Grid(*shape, params.p0, params.p1)
        f = ManufacturedSolution(get_case("brisk"), grid, params).forcing(0.3)
        for j, k in zip(grid.mode_index, grid.ball):
            assert np.any(f[:, np.broadcast_to(j == reach, grid.spectral_shape)])
            assert not np.any(f[:, np.broadcast_to(j > max(k, reach), grid.spectral_shape)])
    # on the smallest cubic grid whose ball holds 2 band, the forcing lies
    # inside the ball, exactly, so forced steps stay in the ball
    grid = Grid(26, 26, 26, params.p0, params.p1)
    ms = ManufacturedSolution(get_case("brisk"), grid, params)
    assert min(grid.ball) == 2 * ms.case.band
    for f in ms.forcing(0.3):
        assert not np.any(f[~grid.dealias_mask])
    state = ms.initial_state()
    ws = Workspace(grid, params)
    for _ in range(2):
        state = erk4_step(state, 1e-3, ws, forcing=ms.forcing)
    for f in state.fields:
        assert not np.any(f.data[..., grid.planes(True):])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_the_forcing_of_the_full_stacks(grid, params):
    # the responses built on the whole grid have nothing off the box, and U
    # and Q nothing off their own boxes, so the stored arrays give the
    # forcing and the exact states bit for bit (on the box with the sign of
    # every zero)
    ms = ManufacturedSolution(get_case("brisk"), grid, params)
    band = ms.case.band
    u = _profiles(ms.case, grid)
    S = tendency(State.zeros(grid, SPECTRAL), params).data
    L = tendency(u, params, variant=FAITHFUL.with_(advection=False)).data - S
    quad = tendency(u, params, variant=ModelVariant(advection=True, coriolis=False,
                                                    pressure=False, viscosity=False,
                                                    dealias=False)).data
    Q = np.where(grid.band_mask(2 * band), quad, 0.0)
    U = np.where(grid.band_mask(band), u.data, 0.0)
    for t in (0.0, 0.3, 0.37):
        m, mdot = ms.modulation(t)
        want = mdot * U - m * L - (m * m) * Q - S
        assert np.array_equal(ms.forcing(t), want)
        assert np.array_equal(_bits(ms.forcing(t)[ms._box]), _bits(want[ms._box]))
        assert np.array_equal(ms.exact_state(t).data, m * U)
    return ms, S


def test_forcing_on_the_box_is_the_forcing_of_the_full_stacks(params):
    # without phi_s the static response S is zero and is not stored
    grid = Grid(32, 32, 32, params.p0, params.p1)
    ms, S = _assert_the_forcing_of_the_full_stacks(grid, params)
    assert ms._S is None and not np.any(S)
    assert ms._L.shape == (4, 21, 21, 11)  # the box, |j| <= K = 10
    assert ms._U.shape == (4, 9, 9, 5) and ms._Q.shape == (4, 17, 17, 9)


def test_forcing_with_phi_s_subtracts_its_static_response(params):
    grid = Grid(32, 32, 32, params.p0, params.p1)
    x, y = grid.x[:, None], grid.y[None, :]
    params = params.with_(phi_s=np.sin(2 * np.pi * x) + 0.5 * np.cos(2 * np.pi * (x + y)))
    ms, S = _assert_the_forcing_of_the_full_stacks(grid, params)
    assert ms._S is not None and np.any(S)


def test_forcing_is_read_only_and_unchanged_by_steps(grid16, params):
    ms = ManufacturedSolution(get_case("brisk"), grid16, params)
    first = ms.forcing(0.01)
    copies = [f.copy() for f in first]
    assert all(not f.flags.writeable for f in first)
    with pytest.raises(ValueError):
        first[0] += 1.0
    state = ms.exact_state(0.01)
    tendency(state, params, forcing=ms.forcing)
    erk4_step(state, 1e-3, Workspace(grid16, params), forcing=ms.forcing)
    again = ms.forcing(0.01)
    for f, c in zip(again, copies):
        assert np.array_equal(f, c)
    assert not np.array_equal(ms.forcing(0.02)[0], copies[0])


@pytest.mark.parametrize("n", [14, 16, 32])
def test_forcing_of_an_earlier_time_is_left_unchanged(n, params):
    # at 14^3 the box of the stored arrays, |j| <= 7 per axis, is the whole
    # grid; at 16^3 and 32^3 it is not
    grid = Grid(n, n, n, params.p0, params.p1)
    ms = ManufacturedSolution(get_case("gentle"), grid, params)
    t1, t2 = 0.125, 0.25
    first = ms.forcing(t1)
    kept = first.copy()
    second = ms.forcing(t2)
    assert second is not first
    assert np.array_equal(first, kept)
    assert not first.flags.writeable and not second.flags.writeable
    # the operations of mdot U - m L - m^2 Q - S, in that order, on the box
    # L is stored on, U and Q zero off theirs and S zero, bit for bit; and
    # zero off the box
    off_box = np.ones(first.shape, dtype=bool)
    off_box[ms._box] = False
    assert np.any(off_box) == (n != 14)
    assert ms._S is None
    U, Q = np.zeros_like(ms._L), np.zeros_like(ms._L)
    U[ms._ubox], Q[ms._qbox] = ms._U, ms._Q
    for t, f in ((t1, first), (t2, second)):
        m, mdot = ms.modulation(t)
        want = mdot * U - m * ms._L - (m * m) * Q - np.zeros_like(U)
        assert np.array_equal(_bits(f[ms._box]), _bits(want))
        assert not np.any(f[off_box])
