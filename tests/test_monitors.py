"""Norm panel, energy budgets, and inequality probes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from moistpe.fields import SPECTRAL, Field3D, derivative, rfftn_norm
from moistpe.errors import DataError, SamplingError
from moistpe.grid import Grid
from moistpe.initial import random_smooth
from moistpe.manufactured import ManufacturedSolution, get_case
from moistpe.model import (Coefficients, ModelVariant, _pair, diagnose_phi,
                           hydrostatic_residual, temperature_from_theta)
from moistpe.monitors import (
    MonitorConstants,
    NormReport,
    budget_terms,
    coriolis_work,
    energy_budget,
    gronwall_record,
    gronwall_series,
    minkowski_probe,
    norm_report,
    sample_context,
    trilinear_bound,
    trilinear_form,
    uniform_prefix,
)
from moistpe.norms import sobolev_norm, spectral_weighted_sum, weighted_norm_w
from moistpe.params import PhysParams, Profile
from moistpe.probes import seeded_scalar, seeded_velocity
from moistpe.state import State
from moistpe.stepper import StepConfig, TrajectorySample, run
from tendency_oracle import dp_viscous, viscous_flux_hat

TAU = 2.0 * math.pi


def _harmonic(grid, fn):
    return Field3D.from_function(grid, fn).as_spectral()


def _zero(grid):
    return Field3D.spectral(grid, np.zeros(grid.spectral_shape, complex))


def _ctx(st, params):
    """The SampleContext of st, with constants of its own."""
    return sample_context(st, MonitorConstants(st.grid, params))


# --- norm panel -----------------------------------------------------------


def test_report_of_rest_state_is_all_zero(grid16, params):
    rep = norm_report(_ctx(State.zeros(grid16, SPECTRAL), params))
    for name, value in rep.to_dict().items():
        if name == "t":
            continue
        assert value == 0.0, name


def test_report_single_harmonics_match_hand_values(grid16, params):
    g = grid16
    Lp = g.Lp
    v1 = _harmonic(g, lambda x, y, p: np.sin(TAU * x) * np.cos(TAU * (p - params.p0) / Lp))
    th = _harmonic(g, lambda x, y, p: np.sin(TAU * y) + 0.0 * p)
    q = _harmonic(g, lambda x, y, p: np.cos(TAU * (p - params.p0) / Lp) + 0.0 * x)
    st = State(v1, _zero(g), th, q)
    rep = norm_report(_ctx(st, params))

    kp = TAU / Lp
    assert rep.l2_v == pytest.approx(math.sqrt(Lp / 4.0), rel=1e-12)
    assert rep.h1_v == pytest.approx(
        math.sqrt((1.0 + TAU**2 + kp**2) * Lp / 4.0), rel=1e-12)
    assert rep.l2_theta == pytest.approx(math.sqrt(Lp / 2.0), rel=1e-12)
    assert rep.h1_theta == pytest.approx(
        math.sqrt((1.0 + TAU**2) * Lp / 2.0), rel=1e-12)
    assert rep.l2_q == pytest.approx(math.sqrt(Lp / 2.0), rel=1e-12)
    assert rep.l2_dp_q == pytest.approx(kp * math.sqrt(Lp / 2.0), rel=1e-12)
    assert rep.l2_dp_theta == 0.0
    assert rep.l2_T > 0.0

    # the vertical mean of cos over a full period vanishes, so the barotropic
    # divergence and the top-boundary omega residual are exactly zero
    assert rep.div_residual <= 1e-15
    assert rep.omega_p1 <= 1e-15
    assert rep.hydro_residual <= 1e-12


def test_report_matches_public_primitives(grid16, params):
    st = random_smooth(grid16, 42, amplitude=1.5)
    rep = norm_report(_ctx(st, params))
    sp = st.as_spectral()
    dp = {name: derivative(f, "p") for name, f in
          zip(("v1", "v2", "theta", "q"), sp.fields)}

    l2_dp_v = math.sqrt(sobolev_norm(dp["v1"], 0) ** 2 + sobolev_norm(dp["v2"], 0) ** 2)
    h1_dp_v = math.sqrt(sobolev_norm(dp["v1"], 1) ** 2 + sobolev_norm(dp["v2"], 1) ** 2)
    assert rep.l2_dp_v == pytest.approx(l2_dp_v, rel=1e-13)
    assert rep.h1_dp_v == pytest.approx(h1_dp_v, rel=1e-13)
    assert rep.h1_dp_theta == pytest.approx(sobolev_norm(dp["theta"], 1), rel=1e-13)
    assert rep.h2_q == pytest.approx(sobolev_norm(sp.q, 2), rel=1e-13)

    w_dp_v = math.sqrt(
        weighted_norm_w(dp["v1"].as_physical(), params) ** 2
        + weighted_norm_w(dp["v2"].as_physical(), params) ** 2)
    assert rep.w_dp_v == pytest.approx(w_dp_v, rel=1e-13)

    dp2 = {k: derivative(f, "p") for k, f in dp.items()}
    w_dp2_v = math.sqrt(
        weighted_norm_w(dp2["v1"].as_physical(), params) ** 2
        + weighted_norm_w(dp2["v2"].as_physical(), params) ** 2)
    assert rep.w_dp2_v == pytest.approx(w_dp2_v, rel=1e-13)

    acc = 0.0
    for f in (dp["v1"], dp["v2"]):
        for axis in ("x", "y"):
            acc += weighted_norm_w(derivative(f, axis).as_physical(), params) ** 2
    assert rep.w_grad_dp_v == pytest.approx(math.sqrt(acc), rel=1e-13)


def test_report_norm_orderings(grid16, params):
    st = random_smooth(grid16, 3, amplitude=1.0)
    rep = norm_report(_ctx(st, params))
    assert rep.l2_v <= rep.h1_v <= rep.h2_v
    assert rep.l2_theta <= rep.h1_theta <= rep.h2_theta
    assert rep.l2_q <= rep.h1_q <= rep.h2_q
    # the p-derivative seminorm is part of the full H1 norm
    assert rep.l2_dp_v <= rep.h1_v
    assert rep.l2_dp_theta <= rep.h1_theta
    assert rep.l2_dp_q <= rep.h1_q


def test_report_field_names_cover_dict(grid16, params):
    names = NormReport.field_names()
    rep = norm_report(_ctx(State.zeros(grid16, SPECTRAL), params))
    assert list(rep.to_dict().keys()) == names
    assert names[0] == "t"
    # the NDJSON column is output's, filled from the trajectory's budget
    assert "budget_residual" not in names


def test_norm_report_builds_the_integrand_once(grid16, params, fft_fields):
    st = random_smooth(grid16, 5, amplitude=1.0).as_spectral()
    theta = st.as_physical().theta
    moved = fft_fields(grid16)
    rep = norm_report(_ctx(st, params))
    assert moved[0] == 10
    # the shared integrand gives what the public functions give, bit for bit
    assert rep.hydro_residual == hydrostatic_residual(diagnose_phi(theta, params), theta, params)
    assert rep.l2_T == sobolev_norm(temperature_from_theta(theta, params), 0)


# --- one sample context ---------------------------------------------------


def test_one_record_from_one_context_is_cheap(grid16, params, fft_calls, monkeypatch):
    # a record point: the context, the norm panel, the checksum and the budget
    st = random_smooth(grid16, 5, amplitude=1.0)
    constants = MonitorConstants(grid16, params)
    builds = [0]
    init = Coefficients.__init__

    def counting_init(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Coefficients, "__init__", counting_init)
    fft_calls[:] = [0, 0]
    ctx = sample_context(st, constants)
    norm_report(ctx)
    st.checksum(ctx)
    budget_terms(ctx)
    # [calls, fields]: [35, 44] when every monitor converted the state itself
    # (one more 2-D call in omega_top_residual went through numpy.fft then).
    # The vertical integrals take the inverse's passes apart (one irfftn
    # call each in [11, 20]).  The state lies in the ball, so the budget's
    # omega takes the pruned inverse: two x-pass calls on the ball's y rows,
    # the y pass and the pass along p ([14, 23]).  Phi's integrand does not,
    # so its integral takes the x, y and p passes whole, each moving one field.
    assert ctx.in_ball
    assert fft_calls == [16, 25]
    assert builds[0] == 0


def _assert_close(got: dict, want: dict, rel: float, scale: float = 0.0):
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=rel, abs=rel * scale), key


def _sample_states(params):
    g16 = Grid(16, 16, 16, params.p0, params.p1)
    g24 = Grid(24, 24, 24, params.p0, params.p1)
    ms = ManufacturedSolution(get_case("gentle"), g16, params)
    return {
        "smooth16": (random_smooth(g16, 21, amplitude=1.5), None),
        "smooth24": (random_smooth(g24, 22, amplitude=1.5), None),
        "physical": (random_smooth(g16, 23, amplitude=1.5).as_physical(), None),
        "forced": (ms.exact_state(0.3), ms.forcing),
    }


@pytest.mark.parametrize("case", ["smooth16", "smooth24", "physical", "forced"])
def test_context_gives_what_the_standalone_calls_give(params, case):
    # the checksum and the rotation work keep their stand-alone forms
    st, forcing = _sample_states(params)[case]
    ctx = _ctx(st, params)
    assert budget_terms(ctx, forcing)["v"]["coriolis_work"] == coriolis_work(st, params)
    assert st.checksum(ctx) == st.checksum()


def test_context_belongs_to_its_state(grid16, params):
    st = random_smooth(grid16, 5, amplitude=1.0)
    other = random_smooth(grid16, 6, amplitude=1.0)
    ctx = _ctx(st, params)
    with pytest.raises(DataError):
        other.checksum(ctx)
    with pytest.raises(DataError):
        sample_context(st, MonitorConstants(Grid(8, 8, 8, params.p0, params.p1), params))


def test_context_leaves_the_state_as_it_was(grid16, params):
    st = random_smooth(grid16, 5, amplitude=1.0)
    before = st.data.copy()
    ctx = _ctx(st, params)
    norm_report(ctx)
    budget_terms(ctx)
    gronwall_record(ctx)
    st.checksum(ctx)
    assert np.array_equal(st.data, before)


def _vertical_dissipation_3d(field, params, which):
    """nu <dps, dealias(c dps)> through full 3-D transforms."""
    g = field.grid
    co = Coefficients(g, params)
    nu = getattr(params, f"nu_{which}")
    dpf = dp_viscous(g, co, g.dealias_mask, field.as_spectral().data, which)
    return nu * _pair(g, rfftn_norm(g, dpf), viscous_flux_hat(g, co, g.dealias_mask, dpf))


def _unprojected_with_surface_geopotential(st, params):
    """st plus a vertical mean in v1 that has a divergence, and params with
    a nonzero surface geopotential: the pressure coupling then pairs the
    kp = 0 plane of div v with phi_s."""
    g = st.grid
    data = st.as_spectral().data.copy()
    data[0, 1, 0, 0] += 0.1
    data[0, -1, 0, 0] += 0.1
    x, y = g.x[:, None], g.y[None, :]
    phi_s = 3.0 * np.sin(TAU * x / g.Lx) + np.cos(TAU * (x / g.Lx + 2 * y / g.Ly))
    return State.of(g, data, SPECTRAL, st.t), replace(params, phi_s=phi_s)


@pytest.mark.parametrize("band, projected", [(5, True), (8, True), (5, False)])
def test_budget_terms_match_their_3d_definitions(grid16, params, band, projected):
    # band 8 leaves the 2/3 ball, down to the Nyquist rows
    st = random_smooth(grid16, 31, amplitude=1.0, band=band)
    if not projected:
        st, params = _unprojected_with_surface_geopotential(st, params)
    bt = budget_terms(_ctx(st, params))
    for var, rows in (("v", (st.v1, st.v2)), ("theta", (st.theta,)), ("q", (st.q,))):
        which = "v" if var == "v" else var
        diss_v = sum(_vertical_dissipation_3d(f, params, which) for f in rows)
        diss_h = getattr(params, f"mu_{which}") * sum(
            spectral_weighted_sum(f, grid16.kh2) for f in rows)
        energy = 0.5 * sum(sobolev_norm(f, 0) ** 2 for f in rows)
        assert bt[var]["diss_v"] == pytest.approx(diss_v, rel=1e-12), var
        assert bt[var]["diss_h"] == pytest.approx(diss_h, rel=1e-12), var
        assert bt[var]["E"] == pytest.approx(energy, rel=1e-12), var
    # -<v, grad Phi>, Phi transformed as a whole
    phys = st.as_physical()
    Phat = rfftn_norm(grid16, diagnose_phi(phys.theta, params).data)
    V = st.as_spectral().data
    coupling = -(_pair(grid16, V[0], 1j * grid16.KX * Phat)
                 + _pair(grid16, V[1], 1j * grid16.KY * Phat))
    scale = sobolev_norm(st.v1, 0) * sobolev_norm(Field3D.spectral(grid16, Phat), 1)
    assert bt["v"]["coupling"] == pytest.approx(coupling, rel=1e-12, abs=1e-13 * scale)


def _gronwall_3d(st, params, forcing=None):
    """The Gronwall scalars through Sobolev norms of derivative fields and
    weighted norms of physical samples."""
    g = st.grid
    v1, v2, th, _ = st.as_spectral().fields
    dpv1, dpv2, dpth = (derivative(f, "p") for f in (v1, v2, th))
    kh2, kp2 = g.kh2, g.KP**2

    def sq(fields, order):
        return sum(sobolev_norm(f, order) ** 2 for f in fields)

    def wsum(fields, mult):
        return sum(spectral_weighted_sum(f, mult) for f in fields)

    lap_dpv_w = sum(
        weighted_norm_w(Field3D.spectral(g, -kh2 * f.data).as_physical(), params) ** 2
        for f in (dpv1, dpv2))
    out = {
        "v_h1s": sq((v1, v2), 1), "v_h2s": sq((v1, v2), 2), "v_h3s": sq((v1, v2), 3),
        "th_h1s": sq((th,), 1), "th_h2s": sq((th,), 2), "th_h3s": sq((th,), 3),
        "vp_h1s": sq((dpv1, dpv2), 1), "vp_h2s": sq((dpv1, dpv2), 2),
        "thp_h1s": sq((dpth,), 1), "thp_h2s": sq((dpth,), 2),
        "lapv_s": wsum((v1, v2), kh2**2), "grad_lapv_s": wsum((v1, v2), kh2**3),
        "lap_dpv_w_s": lap_dpv_w,
        "lapth_s": wsum((th,), kh2**2), "grad_lapth_s": wsum((th,), kh2**3),
        "lap_dpth_s": wsum((th,), kh2**2 * kp2), "gradth_s": wsum((th,), kh2),
        "grad_dpth_s": wsum((dpth,), kh2),
        "fv_h1s": 0.0, "dpfv_s": 0.0, "fth_h1s": 0.0, "dpfth_s": 0.0,
    }
    if forcing is not None:
        f1, f2, fth, _ = State.of(g, forcing(st.t), SPECTRAL).fields
        out["fv_h1s"] = sq((f1, f2), 1)
        out["dpfv_s"] = sq((derivative(f1, "p"), derivative(f2, "p")), 0)
        out["fth_h1s"] = sq((fth,), 1)
        out["dpfth_s"] = sq((derivative(fth, "p"),), 0)
    return out


@pytest.mark.parametrize("case", ["smooth16", "smooth24", "forced"])
def test_gronwall_scalars_match_their_3d_definitions(params, case):
    st, forcing = _sample_states(params)[case]
    _assert_close(gronwall_record(_ctx(st, params), forcing).scalars,
                  _gronwall_3d(st, params, forcing), rel=1e-12)


@pytest.mark.parametrize("variant", [ModelVariant(dealias=False),
                                     ModelVariant(coriolis_bug=True)])
def test_defective_runs_record_the_faithful_monitors(grid16, params, variant):
    st = random_smooth(grid16, 5, amplitude=0.5)
    seen = []
    traj = run(st, params, StepConfig(dt=1e-3, t_end=3e-3), variant=variant,
               collect_budget=True, collect_gronwall=True,
               on_sample=lambda s, sample: seen.append((s, sample)))
    assert len(seen) == len(traj.gronwall) == 4
    for (s, sample), gron in zip(seen, traj.gronwall):
        ctx = _ctx(s, params)
        assert sample.report == norm_report(ctx)
        assert sample.budget == budget_terms(ctx)
        assert gron.scalars == gronwall_record(ctx).scalars
        assert sample.checksum == s.checksum()


# --- energy budgets -------------------------------------------------------


def test_budget_terms_zero_state(grid16, params):
    bt = budget_terms(_ctx(State.zeros(grid16, SPECTRAL), params))
    for var in ("v", "theta", "q"):
        for key, value in bt[var].items():
            assert value == 0.0, (var, key)


def test_budget_energy_of_harmonic(grid16, params):
    g = grid16
    v1 = _harmonic(g, lambda x, y, p: np.sin(TAU * x) + 0.0 * p)
    st = State(v1, _zero(g), _zero(g), _zero(g))
    bt = budget_terms(_ctx(st, params))
    assert bt["v"]["E"] == pytest.approx(0.5 * g.Lp / 2.0, rel=1e-12)
    assert bt["theta"]["E"] == 0.0


def test_budget_closes_for_pure_diffusion(grid16, params):
    g = grid16
    q = _harmonic(g, lambda x, y, p: np.sin(TAU * x) * np.cos(TAU * (p - params.p0) / g.Lp))
    st = State(_zero(g), _zero(g), _zero(g), q)
    traj = run(st, params, StepConfig(dt=1e-4, t_end=1.2e-3), collect_budget=True)
    rows = [b for b in energy_budget(traj.samples) if b.variable == "q"]
    assert len(rows) >= 6
    for b in rows:
        assert abs(b.residual) <= 1e-8 * b.max_term
        assert b.diss_h > 0.0
        assert b.diss_v > 0.0
        assert b.coupling == 0.0
        assert b.forcing_work == 0.0


def test_budget_closes_for_nonlinear_run(grid16, params):
    st = random_smooth(grid16, 5, amplitude=0.5, band=2)
    traj = run(st, params, StepConfig(dt=1e-4, t_end=1.5e-3), collect_budget=True)
    rows = energy_budget(traj.samples)
    assert rows
    for b in rows:
        assert abs(b.residual) <= 1e-6 * b.max_term


def test_budget_closes_with_forcing(grid16, params):
    ms = ManufacturedSolution(get_case("gentle"), grid16, params)
    traj = run(ms.initial_state(), params, StepConfig(dt=1e-4, t_end=1.5e-3),
               forcing=ms.forcing, collect_budget=True)
    rows = energy_budget(traj.samples)
    assert any(abs(b.forcing_work) > 1e-12 for b in rows)
    for b in rows:
        assert abs(b.residual) <= 5e-6 * b.max_term


def test_budget_coupling_routes_agree(grid16, params):
    # the pairing route and the direct heat-flux quadrature nearly cancel on
    # random data, so they are compared against the natural pairing scale
    # |v| |grad Phi| rather than against each other
    from moistpe.model import diagnose_phi

    for seed in (9, 11, 13):
        st = random_smooth(grid16, seed, amplitude=1.0)
        bt = budget_terms(_ctx(st, params))
        cp, hf = bt["v"]["coupling"], bt["v"]["coupling_heat_flux"]
        phys = st.as_physical()
        phi = diagnose_phi(phys.theta, params).as_spectral()
        scale = sum(
            sobolev_norm(comp.as_spectral(), 0) * sobolev_norm(derivative(phi, ax), 0)
            for comp, ax in ((phys.v1, "x"), (phys.v2, "y")))
        assert abs(cp - hf) <= 1e-2 * scale


def test_budget_skip_startup_controls_row_count(grid16, params):
    st = random_smooth(grid16, 5, amplitude=0.2, band=2)
    traj = run(st, params, StepConfig(dt=1e-4, t_end=1e-3), collect_budget=True)
    default = energy_budget(traj.samples)
    everything = energy_budget(traj.samples, skip_startup=0)
    assert len(everything) == len(default) + 2 * 3


def test_budget_needs_three_samples():
    samples = [TrajectorySample(0.0, "", None, {}), TrajectorySample(0.1, "", None, {})]
    with pytest.raises(SamplingError):
        energy_budget(samples)


def test_budget_needs_uniform_samples():
    samples = [TrajectorySample(t, "", None, {}) for t in (0.0, 0.1, 0.35, 0.5)]
    with pytest.raises(SamplingError):
        energy_budget(samples)


@pytest.mark.parametrize("steps", [2, 3])
def test_budget_needs_samples_past_the_startup(params, steps):
    # the default skip_startup=2 needs 5 samples: 3 or 4 leave it no
    # interior sample, an error rather than an empty list
    g = Grid(8, 8, 8, params.p0, params.p1)
    traj = run(random_smooth(g, 2, amplitude=0.5, band=2), params,
               StepConfig(dt=1e-3, t_end=steps * 1e-3), collect_budget=True)
    assert len(traj.samples) == steps + 1
    with pytest.raises(SamplingError, match="at least 5"):
        energy_budget(traj.samples)
    assert len(energy_budget(traj.samples, skip_startup=steps - 2)) == 3


def test_budget_needs_uniform_samples_even_when_there_are_enough():
    samples = [TrajectorySample(t, "", None, {}) for t in (0.0, 0.1, 0.2, 0.35, 0.5, 0.6)]
    with pytest.raises(SamplingError, match="need uniformly spaced"):
        energy_budget(samples)


@pytest.mark.parametrize("times, want", [
    ([0.0, 1e-10, 2e-10, 3e-10, 4e-10, 4.5e-10], 5),
    ([1e4 + k * 1e-4 for k in range(9)], 9),
    ([k * 1e-4 for k in range(9)] + [9.5e-4], 9),
], ids=["step-below-1e-9", "t0-1e4", "off-grid-last"])
def test_uniform_prefix_is_relative_to_the_step_and_to_the_times(times, want):
    # a step below 1e-9 is judged on its own scale (an absolute floor of
    # 1e-9 took the off-grid 4.5e-10 in), the spacings of t0 + k dt at
    # t0 = 1e4 differ only in the last bits of t, and an off-grid final
    # sample ends the prefix
    assert uniform_prefix(times) == want


# --- trilinear probe ------------------------------------------------------


def test_trilinear_form_of_constants(grid16):
    one = Field3D.physical(grid16, np.ones(grid16.shape))
    Lp = grid16.Lp
    assert trilinear_form(one, one, one) == pytest.approx(Lp**2, rel=1e-13)
    assert trilinear_bound(one, one, one) == pytest.approx(Lp**1.5, rel=1e-13)


def test_trilinear_form_kills_zero_vertical_mean(grid16, params):
    g = grid16
    f = _harmonic(g, lambda x, y, p: np.sin(TAU * (p - params.p0) / g.Lp) * np.cos(TAU * x))
    h = _harmonic(g, lambda x, y, p: np.cos(TAU * y) + 0.0 * p)
    assert trilinear_form(f, h, h) <= 1e-15


def test_trilinear_seeded_triples_are_controlled(grid16):
    for seed in range(10):
        f = seeded_scalar(grid16, 3 * seed + 0, band=4)
        g_ = seeded_scalar(grid16, 3 * seed + 1, band=4)
        h = seeded_scalar(grid16, 3 * seed + 2, band=4)
        form = trilinear_form(f, g_, h)
        bound = trilinear_bound(f, g_, h)
        assert math.isfinite(form) and math.isfinite(bound)
        assert bound > 0.0
        assert form <= bound


# --- vertical-velocity inequality probe -----------------------------------


def test_minkowski_zero_field(grid16):
    z = _zero(grid16)
    lhs, rhs = minkowski_probe(z, z)
    assert lhs == 0.0 and rhs == 0.0


def test_minkowski_separable_example_matches_analytic(grid16, params):
    g = grid16
    Lp = g.Lp
    v1 = _harmonic(g, lambda x, y, p: np.sin(TAU * x) * np.cos(TAU * (p - params.p0) / Lp))
    lhs, rhs = minkowski_probe(v1, _zero(g))
    p_nodes = params.p0 + Lp * np.arange(g.np) / g.np
    mean_abs_cos = float(np.mean(np.abs(np.cos(TAU * (p_nodes - params.p0) / Lp))))
    assert lhs == pytest.approx(Lp**1.5 / 2.0, rel=1e-12)
    assert rhs == pytest.approx(TAU / math.sqrt(2.0) * mean_abs_cos * Lp, rel=1e-12)
    assert lhs <= math.sqrt(Lp) * rhs


def test_minkowski_holds_for_seeded_velocities(grid16):
    root = math.sqrt(grid16.Lp)
    for seed in range(10):
        v1, v2 = seeded_velocity(grid16, seed)
        lhs, rhs = minkowski_probe(v1, v2)
        assert lhs <= root * rhs


# --- differential-inequality collectors -----------------------------------


def test_gronwall_series_zero_state(grid16, params):
    records = [gronwall_record(_ctx(State.zeros(grid16, SPECTRAL, t=0.01 * k), params))
               for k in range(4)]
    series = gronwall_series(records, params)
    for form, data in series.items():
        assert all(v == 0.0 for v in data["lhs"]), form
        assert all(v == 0.0 for v in data["rhs"]), form


def test_gronwall_series_needs_uniform_records(grid16, params):
    records = [gronwall_record(_ctx(State.zeros(grid16, SPECTRAL, t=t), params))
               for t in (0.0, 0.01, 0.05)]
    with pytest.raises(SamplingError):
        gronwall_series(records, params)


def test_gronwall_diffusion_only_signs():
    # with a constant vertical coefficient and no transport terms every
    # inequality is provable mode by mode: the damped left side stays
    # negative while the right side keeps a positive norm floor
    pr = PhysParams(theta_bar=Profile("proportional", 1.0))
    g = Grid(16, 16, 16, pr.p0, pr.p1)
    st = random_smooth(g, 3, amplitude=1.0)
    var = ModelVariant(advection=False, coriolis=False, pressure=False)
    traj = run(st, pr, StepConfig(dt=1e-3, t_end=0.02), variant=var,
               collect_gronwall=True)
    series = gronwall_series(traj.gronwall, pr)
    assert set(series) == {"vp", "thetap", "lapv", "laptheta"}
    for form, data in series.items():
        lhs = np.asarray(data["lhs"])
        rhs = np.asarray(data["rhs"])
        assert lhs.size >= 10
        assert lhs.max() < 0.0, form
        assert rhs.min() > 0.0, form


def test_gronwall_records_carry_forcing_terms(grid16, params):
    ms = ManufacturedSolution(get_case("gentle"), grid16, params)
    rec = gronwall_record(_ctx(ms.initial_state(), params), forcing=ms.forcing)
    assert rec.scalars["fv_h1s"] > 0.0
    assert rec.scalars["fth_h1s"] > 0.0
    rec0 = gronwall_record(_ctx(ms.initial_state(), params))
    assert rec0.scalars["fv_h1s"] == 0.0


# --- rotation work --------------------------------------------------------


def test_coriolis_work_vanishes(grid16, params):
    st = random_smooth(grid16, 7, amplitude=2.0)
    assert abs(coriolis_work(st, params)) <= 1e-13
