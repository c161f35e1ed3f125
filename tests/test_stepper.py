"""Time integration: amplification oracles, order, stability, and run control.

The one-step amplification tests pit the implementation against closed-form
factors derived independently: with a reference profile proportional to p the
vertical coefficient is exactly 1, the constant-coefficient split is the
whole operator, and every step of the scheme acts diagonally on a single
harmonic.
"""

import math

import numpy as np
import pytest

from moistpe.errors import BlowupError, ConfigError
from moistpe.fields import Field3D, in_ball
from moistpe.grid import Grid
from moistpe.initial import random_smooth
from moistpe.manufactured import ManufacturedSolution, get_case
from moistpe.model import FAITHFUL, project_state, tendency
from moistpe.norms import parseval_sum, sobolev_norm
from moistpe.params import PhysParams, Profile
from moistpe.state import State
from moistpe import stepper
from moistpe.stepper import (ERK4_STABILITY_LIMIT, StepConfig, Workspace,
                             check_erk4_stability, erk4_step, imex_step, run,
                             step_count)

P0, P1 = 0.2, 1.0
LP = P1 - P0


def _grid(n=16):
    return Grid(n, n, n, P0, P1)


def _single_harmonic_state(g):
    """q = sin of the lowest vertical harmonic, everything else zero."""
    q = Field3D.from_function(
        g, lambda x, y, p: np.sin(2 * np.pi * (p - P0) / LP))
    z = Field3D.zeros(g, "physical")
    return State(z, z, z, q)


def _assert_complete(traj, t_end):
    """A returned trajectory ends at t_end, in its final state and its last sample."""
    assert traj.final_state.t == pytest.approx(t_end, abs=1e-12)
    assert traj.samples[-1].t == traj.final_state.t


def _unit_c_params():
    # theta_bar = (g/R) p makes the vertical coefficient identically one
    return PhysParams(theta_bar=Profile("proportional", 1.0))


def _mode_amp(state):
    C = state.q.as_spectral().data
    return abs(C[0, 0, 1])


# --- closed-form amplification ----------------------------------------------

def test_first_step_amplification_matches_bootstrap_factor():
    g = _grid()
    pr = _unit_c_params()
    st = _single_harmonic_state(g)
    ws = Workspace(g, pr, FAITHFUL)
    lam = pr.nu_q * (2 * np.pi / LP) ** 2
    dt = 1e-3
    s1, _ = imex_step(st, None, dt, ws)
    want = (1 + lam * dt / 10) ** -10
    got = _mode_amp(s1) / _mode_amp(st)
    assert abs(got / want - 1) <= 1e-13


def test_later_steps_amplify_by_the_trapezoidal_factor():
    g = _grid()
    pr = _unit_c_params()
    st = _single_harmonic_state(g)
    ws = Workspace(g, pr, FAITHFUL)
    lam = pr.nu_q * (2 * np.pi / LP) ** 2
    dt = 1e-3
    s1, n1 = imex_step(st, None, dt, ws)
    s2, n2 = imex_step(s1, n1, dt, ws)
    s3, _ = imex_step(s2, n2, dt, ws)
    want = (1 - lam * dt / 2) / (1 + lam * dt / 2)
    assert abs(_mode_amp(s2) / _mode_amp(s1) / want - 1) <= 1e-13
    assert abs(_mode_amp(s3) / _mode_amp(s2) / want - 1) <= 1e-13


def test_erk4_amplification_matches_stability_polynomial():
    g = _grid()
    pr = _unit_c_params()
    st = _single_harmonic_state(g)
    lam = pr.nu_q * (2 * np.pi / LP) ** 2
    dt = 1e-3
    z = lam * dt
    want = 1 - z + z**2 / 2 - z**3 / 6 + z**4 / 24
    s1 = erk4_step(st, dt, Workspace(g, pr, FAITHFUL), forcing=None)
    assert abs(_mode_amp(s1) / _mode_amp(st) / want - 1) <= 1e-13


# --- stability --------------------------------------------------------------

def test_pure_diffusion_norm_never_increases_even_at_huge_steps():
    g = _grid()
    pr = _unit_c_params()
    st = _single_harmonic_state(g)
    cfg = StepConfig(dt=50.0, t_end=500.0)
    traj = run(st, pr, cfg)
    vals = [s.report.l2_q for s in traj.samples]
    _assert_complete(traj, 500.0)
    assert np.all(np.diff(vals) <= 1e-14)


def test_erk4_rejects_steps_beyond_the_stability_limit():
    g = _grid(8)
    pr = PhysParams()
    ws = Workspace(g, pr, FAITHFUL)
    dt_bad = 1.01 * ERK4_STABILITY_LIMIT / ws.lam_max
    with pytest.raises(ConfigError):
        check_erk4_stability(ws, dt_bad)
    # and through the run entry point
    st = State.zeros(g)
    with pytest.raises(ConfigError):
        run(st, pr, StepConfig(dt=dt_bad, t_end=10 * dt_bad,
                               scheme="erk4_fully_explicit"))
    # just under the limit is accepted
    check_erk4_stability(ws, 0.99 * ERK4_STABILITY_LIMIT / ws.lam_max)


_VISCOSITIES = (1e-7, 3e-4, 1e-2, 0.37, 5.0, 2e3)


def test_lam_max_is_the_largest_implicit_multiplier_bit_for_bit():
    # lam_max is taken at the corner of the spectrum without building lam;
    # it must be lam's maximum exactly, on uneven grids and pressure shells,
    # a profile that moves c_mean, every pairing of the six viscosities and
    # each variant (zero without viscosity)
    rng = np.random.default_rng(11)
    variants = (FAITHFUL, FAITHFUL.with_(viscosity=False), FAITHFUL.with_(dealias=False))
    for _ in range(4):
        nx, ny, n_p = (int(n) for n in 2 * rng.integers(4, 13, size=3))
        p0 = float(rng.uniform(0.05, 0.5))
        p1 = p0 + float(rng.uniform(0.3, 2.0))
        g = Grid(nx, ny, n_p, p0, p1)
        for i, mu in enumerate(_VISCOSITIES):
            nu = _VISCOSITIES[(i + 1 + int(rng.integers(5))) % 6]
            pr = PhysParams(p0=p0, p1=p1, mu_v=mu, nu_v=nu, mu_theta=nu, nu_theta=mu,
                            mu_q=_VISCOSITIES[5 - i], nu_q=_VISCOSITIES[i - 1],
                            theta_bar=Profile.linear(1.0, float(rng.uniform(-0.3, 0.5))))
            for variant in variants:
                ws = Workspace(g, pr, variant)
                assert "lam" not in vars(ws)
                assert ws.lam_max.hex() == float(ws.lam.max()).hex()
                assert (ws.lam_max > 0.0) == variant.viscosity


def test_an_erk4_step_leaves_the_imex_buffers_unbuilt():
    # lam and real belong to the IMEX split: an ERK4 run never builds them,
    # an IMEX run builds them at its first step
    g = _grid(16)
    pr = PhysParams()
    st = project_state(random_smooth(g, 2, amplitude=0.5, band=2))
    ws = Workspace(g, pr)
    check_erk4_stability(ws, 1e-3)
    erk4_step(st, 1e-3, ws)
    assert "lam" not in vars(ws) and "real" not in vars(ws)
    imex_step(st, None, 1e-3, ws)
    assert "lam" in vars(ws) and "real" in vars(ws)


# --- order ------------------------------------------------------------------

def _final(g, pr, scheme, dt, seed=6, t_end=0.02):
    st = random_smooth(g, seed, amplitude=1.0, band=2)
    cfg = StepConfig(dt=dt, t_end=t_end, scheme=scheme)
    traj = run(st, pr, cfg, record_every=10**9)
    _assert_complete(traj, t_end)
    return traj.final_state


def _state_dist(a, b):
    return max(np.abs(fa.as_physical().data - fb.as_physical().data).max()
               for fa, fb in zip(a.fields, b.fields))


def test_imex_cnab2_is_second_order_on_the_nonlinear_system():
    g = _grid(8)
    pr = PhysParams()
    sols = {dt: _final(g, pr, "imex_cnab2", dt) for dt in (2e-3, 1e-3, 5e-4)}
    d1 = _state_dist(sols[2e-3], sols[1e-3])
    d2 = _state_dist(sols[1e-3], sols[5e-4])
    assert 3.2 <= d1 / d2 <= 4.8


def test_erk4_is_fourth_order_on_the_nonlinear_system():
    g = _grid(8)
    pr = PhysParams()
    sols = {dt: _final(g, pr, "erk4_fully_explicit", dt, t_end=0.04)
            for dt in (8e-3, 4e-3, 2e-3)}
    d1 = _state_dist(sols[8e-3], sols[4e-3])
    d2 = _state_dist(sols[4e-3], sols[2e-3])
    assert 12.0 <= d1 / d2 <= 20.0


@pytest.mark.parametrize("forced", [True, False], ids=["forced-24", "free-16"])
def test_erk4_step_is_the_classical_combination_of_its_stage_tendencies(forced):
    # the step folds its stage tendencies into a running sum; the result is
    # bit for bit the combination of four retained tendencies, built with
    # the classical order of operations
    pr = PhysParams()
    if forced:
        g = Grid(24, 24, 24, pr.p0, pr.p1)
        ms = ManufacturedSolution(get_case("brisk"), g, pr)
        state, forcing = ms.exact_state(0.05), ms.forcing
    else:
        g = _grid(16)
        state, forcing = random_smooth(g, 5, amplitude=1.0, band=5).as_spectral(), None
    dt, t = 1e-3, state.t
    u = state.data
    ws = Workspace(g, pr)

    def k_at(s):
        return tendency(s, pr, forcing=forcing, ws=ws).data

    def stage(c, k, t_stage):
        return project_state(State.of(g, u + np.multiply(c * dt, k), "spectral", t_stage))

    k1 = k_at(state)
    k2 = k_at(stage(0.5, k1, t + 0.5 * dt))
    k3 = k_at(stage(0.5, k2, t + 0.5 * dt))
    k4 = k_at(stage(1.0, k3, t + dt))
    total = np.add(np.add(np.add(k1, 2.0 * k2), 2.0 * k3), k4)
    want = project_state(State.of(g, u + np.multiply(dt / 6.0, total), "spectral", t + dt))
    got = erk4_step(state, dt, ws, forcing)
    assert got.t == want.t
    assert np.array_equal(got.data, want.data)


# --- run control ------------------------------------------------------------

def test_zero_state_is_a_fixed_point():
    g = _grid(8)
    pr = PhysParams()
    for scheme in ("imex_cnab2", "erk4_fully_explicit"):
        traj = run(State.zeros(g), pr, StepConfig(dt=1e-3, t_end=0.01, scheme=scheme))
        _assert_complete(traj, 0.01)
        final = traj.final_state
        for f in final.fields:
            assert np.abs(f.as_physical().data).max() <= 1e-14


def test_zero_span_run_records_exactly_the_initial_sample():
    g = _grid(8)
    traj = run(State.zeros(g), PhysParams(), StepConfig(dt=1e-3, t_end=0.0))
    _assert_complete(traj, 0.0)
    assert len(traj.samples) == 1
    assert traj.samples[0].t == 0.0


def test_a_default_random_draw_fills_the_ball_on_every_axis():
    # on a grid whose sides differ the default band is each axis's radius,
    # so the truncation at the start of a run keeps the whole draw and its
    # prescribed H2 size (a band of nx//3 on every axis started this run at
    # H2 = 0.69)
    g = Grid(32, 32, 16, P0, P1)
    st = random_smooth(g, 7, amplitude=1.0)
    assert in_ball(g, st.data)
    assert all(np.any(st.data * (j == k)) for j, k in zip(g.mode_index, g.ball))
    traj = run(st, PhysParams(), StepConfig(dt=1e-3, t_end=0.0))
    h2 = math.sqrt(sum(sobolev_norm(f, 2) ** 2 for f in traj.final_state.fields))
    assert h2 == pytest.approx(1.0, rel=1e-12)


# random_smooth(grid, 5, amplitude=0.7, band=band, symmetry=symmetry)
# checksums for each grid: none and paper_parity, each without a band and at
# band 3 (numpy 2.4.6, scipy 1.17.1, x86-64).  They are those of four draws
# made, masked and mirrored one field at a time
_DRAW_CHECKSUMS = {
    (16, 16, 16): ("211b549f15268b53", "18f94bc70ef3a305", "b6e6108fee5ee4dc", "f00ba0fdc0081fbe"),
    (32, 32, 16): ("dc136b13ad040f17", "05508159dd40eb03", "9b848acb6660b939", "4ab2095f40854b78"),
    (24, 24, 24): ("3fc789380a8b1818", "8f6ffca75b87fb47", "2213a81173a640f8", "0ea44f17da4e9cd7"),
}


@pytest.mark.parametrize("shape", list(_DRAW_CHECKSUMS))
def test_random_draws_keep_their_checksums(shape):
    g = Grid(*shape, P0, P1)
    sums = tuple(random_smooth(g, 5, amplitude=0.7, band=band, symmetry=symmetry).checksum()
                 for symmetry in ("none", "paper_parity") for band in (None, 3))
    assert sums == _DRAW_CHECKSUMS[shape]


def test_random_smooth_takes_the_config_symmetry_tokens():
    with pytest.raises(ConfigError, match="symmetry"):
        random_smooth(_grid(8), 1, symmetry="mirror")


def _divergent_case():
    st = random_smooth(_grid(8), 8, amplitude=200.0, band=2)
    return st, PhysParams(), StepConfig(dt=0.2, t_end=50.0)


def test_divergent_run_hands_its_samples_to_on_sample_then_raises():
    st, pr, cfg = _divergent_case()
    seen = []
    with pytest.raises(BlowupError) as exc:
        run(st, pr, cfg, on_sample=lambda s, sample: seen.append(sample))
    # the history before the blowup went out through the callback: one
    # sample per step, the last one a step before the diverged state
    assert len(seen) >= 1
    assert [s.t for s in seen] == pytest.approx([0.2 * k for k in range(len(seen))])
    assert seen[-1].t == pytest.approx(exc.value.t_last - 0.2)


def test_divergent_run_raises():
    st, pr, cfg = _divergent_case()
    with pytest.raises(BlowupError) as exc:
        run(st, pr, cfg)
    assert exc.value.t_last > 0.0
    assert exc.value.detail
    assert str(exc.value) == (f"solution diverged at t = {exc.value.t_last:.6g} "
                              f"{exc.value.detail}")


def test_blowup_names_the_step_field_norm_and_limit():
    g = _grid(8)
    pr = PhysParams()
    st = random_smooth(g, 3, amplitude=1e5)
    with pytest.raises(BlowupError) as exc:
        run(st, pr, StepConfig(dt=0.05, t_end=1.0))
    step = round(exc.value.t_last / 0.05)
    start = run(st, pr, StepConfig(dt=0.05, t_end=0.0)).final_state
    ref = np.sqrt(g.volume * parseval_sum(g, start.data))
    # "(step k): ||name||_L2 = norm, limit L"
    head, norm_part = exc.value.detail.split(": ")
    assert head == f"(step {step})"
    name = norm_part.split("||")[1]
    assert name in stepper.FIELD_NAMES
    norm = float(norm_part.split(" = ")[1].split(",")[0])
    limit = float(norm_part.split("limit ")[1])
    i = stepper.FIELD_NAMES.index(name)
    assert limit == pytest.approx(stepper.BLOWUP_FACTOR * ref[i], rel=1e-5)
    assert not (norm <= limit)


def test_record_every_thins_samples_but_keeps_the_endpoint():
    g = _grid(8)
    pr = PhysParams()
    st = random_smooth(g, 4, amplitude=0.5, band=2)
    traj = run(st, pr, StepConfig(dt=1e-3, t_end=0.01), record_every=4)
    times = [s.t for s in traj.samples]
    assert times[0] == 0.0
    assert abs(times[-1] - 0.01) <= 1e-12
    assert len(times) == 4   # t = 0, 0.004, 0.008, 0.01


def test_every_recorded_sample_satisfies_the_divergence_constraint():
    g = _grid(8)
    pr = PhysParams()
    st = random_smooth(g, 4, amplitude=1.0, band=2)
    traj = run(st, pr, StepConfig(dt=1e-3, t_end=0.02))
    for s in traj.samples:
        r = s.report
        assert r.div_residual <= 1e-11 * max(1.0, r.h1_v)


def test_step_config_validation():
    with pytest.raises(ConfigError):
        StepConfig(dt=1e-3, t_end=1.0, scheme="leapfrog")
    with pytest.raises(ConfigError):
        StepConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ConfigError):
        StepConfig(dt=1e-3, t_end=-1.0)


def test_run_rejects_end_time_before_state_time():
    g = _grid(8)
    st = State.zeros(g, t=1.0)
    with pytest.raises(ConfigError):
        run(st, PhysParams(), StepConfig(dt=1e-3, t_end=0.5))


@pytest.mark.parametrize("t_end", [0.0104, 0.0006])
def test_run_rejects_end_time_off_the_step_grid(t_end):
    # rounding would stop at 0.010 or run on to 0.001 and still report completion
    st = random_smooth(_grid(8), 4, amplitude=0.5, band=2)
    with pytest.raises(ConfigError, match=r"time\.t_end.*time\.dt"):
        run(st, PhysParams(), StepConfig(dt=1e-3, t_end=t_end))


def test_step_count_takes_whole_spans_only():
    assert step_count(0.0, 0.02, 1e-3) == 20
    assert step_count(0.005, 0.01, 1e-3) == 5
    assert step_count(0.3, 0.3, 1e-3) == 0
    assert step_count(0.0, 200 * 1e-4, 1e-4) == 200
    for t0, t_end, dt in ((0.0, 0.0104, 1e-3), (0.0, 0.0006, 1e-3), (0.005, 0.01, 2e-3)):
        with pytest.raises(ConfigError, match=r"time\.t_end.*time\.dt.*time\.t0"):
            step_count(t0, t_end, dt)
    with pytest.raises(ConfigError, match="precedes"):
        step_count(1.0, 0.5, 1e-3)


def test_step_count_of_a_span_an_ulp_below_zero_is_zero():
    # a run's last time t0 + 6 dt lands an ulp above the decimal t_end
    assert 6 * 1e-4 > 6e-4
    assert step_count(6 * 1e-4, 6e-4, 1e-4) == 0
    with pytest.raises(ConfigError, match="precedes"):
        step_count(6e-4 + 1e-12, 6e-4, 1e-4)


# --- ownership of the stacked state ----------------------------------------

@pytest.mark.parametrize("scheme", ["imex_cnab2", "erk4_fully_explicit"])
def test_sampled_states_keep_their_values(scheme):
    # the steps work in place on workspace buffers; no state handed out may
    # change after the callback that received it
    seen = []
    st = random_smooth(_grid(8), 4, amplitude=1.0, band=2)
    traj = run(st, PhysParams(), StepConfig(dt=1e-3, t_end=0.01, scheme=scheme),
               on_sample=lambda s, sample: seen.append((s, s.checksum(), sample.checksum)))
    assert len(seen) == 11
    for s, at_callback, recorded in seen:
        assert s.checksum() == at_callback == recorded
    assert traj.final_state.checksum() == seen[-1][1]


def test_run_leaves_a_spectral_input_unchanged():
    # without dealiasing the run starts from the caller's spectral arrays
    g = _grid(8)
    st = random_smooth(g, 4, amplitude=1.0, band=2)
    v1 = st.v1.data.copy()
    v1[1, 0, 0] += 0.5   # a divergent barotropic part for the projection
    v1[-1, 0, 0] += 0.5
    st = State(Field3D.spectral(g, v1), st.v2, st.theta, st.q)
    before = [f.data.copy() for f in st.fields]
    run(st, PhysParams(), StepConfig(dt=1e-3, t_end=0.003),
        variant=FAITHFUL.with_(dealias=False))
    assert all(np.array_equal(f.data, b) for f, b in zip(st.fields, before))


def test_state_stacks_its_fields():
    g = _grid(8)
    st = random_smooth(g, 4, amplitude=1.0, band=2)
    assert st.data.shape == (4,) + g.spectral_shape
    assert all(np.shares_memory(f.data, st.data) for f in st.fields)
    phys = st.as_physical()
    assert phys.data.shape == (4,) + g.shape
    mixed = State(phys.v1, st.v2, phys.theta, st.q, t=0.5)
    assert mixed.rep == "spectral" and mixed.t == 0.5
    assert np.array_equal(mixed.data[1], st.data[1])
    assert np.allclose(mixed.data, st.data, rtol=0, atol=1e-15)


# the sample checksums of a 3-step IMEX run of random_smooth(grid, 5) on
# grids whose tendency inverts the whole stack at once, the first with a
# side divisible by 3 (numpy 2.4.6, scipy 1.17.1, x86-64), as a tendency
# working on whole kept planes gives them: the box's tail writes +0.0 off
# the box where that one wrote +-0.0, and no sample may see it
_IMEX_CHECKSUMS = {
    (24, 24, 24): ("7f2faafdcedf592c", "c4f5d106dd0b4d64", "da4f40e05fdc6168", "aae02e22bc998e4b"),
    (16, 24, 20): ("6dbbb3202f7ab06b", "e5c720b66783b6d9", "607ff0806be38705", "29eec2aa5b75f692"),
}


@pytest.mark.parametrize("shape", list(_IMEX_CHECKSUMS))
def test_an_unforced_imex_run_in_the_ball_keeps_its_checksums(shape):
    g = Grid(*shape, P0, P1)
    pr = PhysParams()
    assert not Workspace(g, pr).streamed
    traj = run(random_smooth(g, 5), pr, StepConfig(dt=1e-3, t_end=3e-3), record_every=1)
    assert in_ball(g, traj.final_state.data)
    assert tuple(s.checksum for s in traj.samples) == _IMEX_CHECKSUMS[shape]


def test_a_forced_erk4_run_on_a_streamed_grid_keeps_its_checksum():
    # the tendency's inverse streams its groups on this grid
    # (Workspace.streamed); the checksums are those the whole-stack inverse
    # gave (numpy 2.4.6, scipy 1.17.1, x86-64), so both take the same bits.
    # The ball's radius on the 48-point axes is 15 = (48 - 1)//3
    g = Grid(32, 48, 48, P0, P1)
    pr = PhysParams()
    assert Workspace(g, pr).streamed
    ms = ManufacturedSolution(get_case("brisk"), g, pr)
    config = StepConfig(dt=1e-4, t_end=2e-4, scheme="erk4_fully_explicit")
    traj = run(ms.initial_state(), pr, config, forcing=ms.forcing, record_every=2)
    assert [s.checksum for s in traj.samples] == ["cf0c06d8b3eee451", "b9dd7ce96d1e33d8"]
