"""Diagnostic operators, viscosity, projection, and the tendency assembly.

Operator-level checks come in two independent flavors: closed-form examples
(single harmonics with hand-integrable right-hand sides) and the
finite-difference reference in fd_oracle, which evaluates the same operator
on a refined grid with fourth-order stencils.  Doubling the refinement
factor must shrink the disagreement by about 2^4.  The viscous operators
are those runs integrate: minus the tendency of a viscosity-only variant.
The whole tendency is checked against tendency_oracle's assembly through
3-D transforms.
"""

import math

import numpy as np
import pytest

from moistpe.errors import ConstraintError, DataError, ParameterError
from moistpe.fields import PHYSICAL, SPECTRAL, Field3D, derivative, in_ball, irfftn_norm, rfftn_norm
from moistpe import model
from moistpe.grid import Grid
from moistpe.initial import random_smooth
from moistpe.model import (FAITHFUL, Forcing, ModelVariant, Workspace, _pair, barotropic_project, diagnose,
                           diagnose_omega, diagnose_phi, divergence_residual,
                           hydrostatic_gradient_residual,
                           hydrostatic_residual, omega_top_residual,
                           project_state, temperature_from_theta, tendency,
                           theta_from_temperature)
from moistpe.norms import sobolev_norm
from moistpe.params import PhysParams, Profile
from moistpe.probes import seeded_scalar, seeded_velocity
from moistpe.state import State
from fd_oracle import OP_NAMES, FdOracle, reference_apply
from tendency_oracle import tendency_3d

P0, P1 = 0.2, 1.0
LP = P1 - P0


def _grid(n):
    return Grid(n, n, n, P0, P1)


# --- temperature <-> potential temperature ----------------------------------

def test_temperature_round_trip(grid16, params):
    rngf = np.random.default_rng(2)
    th = Field3D.physical(grid16, rngf.standard_normal(grid16.shape))
    back = theta_from_temperature(temperature_from_theta(th, params), params)
    assert np.abs(back.data - th.data).max() <= 1e-12


def test_reference_state_temperature(grid16):
    # theta = 0 over a constant offset Theta gives T = Theta * (p/p0)^kappa
    pr = PhysParams(theta_h=Profile("constant", 0.7))
    z = Field3D.zeros(grid16, "physical")
    T = temperature_from_theta(z, pr)
    exact = 0.7 * (grid16.p / P0) ** pr.kappa
    assert np.abs(T.data - exact[None, None, :]).max() <= 1e-13


def test_infinite_heat_capacity_freezes_the_exponent(grid16):
    pr = PhysParams(cp=math.inf)
    assert pr.kappa == 0.0
    rngf = np.random.default_rng(3)
    th = Field3D.physical(grid16, rngf.standard_normal(grid16.shape))
    T = temperature_from_theta(th, pr)
    assert np.abs(T.data - th.data).max() <= 1e-13


# --- vertical velocity ------------------------------------------------------

def test_omega_analytic_example(grid16):
    v1 = Field3D.from_function(
        grid16, lambda x, y, p: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * (p - P0) / LP))
    v2 = Field3D.zeros(grid16, "physical")
    om = diagnose_omega(v1, v2)
    X, _, P = grid16.mesh()
    exact = -LP * np.cos(2 * np.pi * X) * np.sin(2 * np.pi * (P - P0) / LP)
    assert np.abs(om.data - exact).max() <= 1e-12


def test_omega_of_constant_velocity_is_zero(grid16):
    v1 = Field3D.physical(grid16, np.full(grid16.shape, 3.0))
    v2 = Field3D.physical(grid16, np.full(grid16.shape, -1.0))
    om = diagnose_omega(v1, v2)
    assert np.abs(om.data).max() <= 1e-13


def test_omega_rejects_divergent_barotropic_flow(grid16):
    # p-independent sin(2 pi x) has a divergent vertical mean
    v1 = Field3D.from_function(grid16, lambda x, y, p: np.sin(2 * np.pi * x))
    v2 = Field3D.zeros(grid16, "physical")
    with pytest.raises(ConstraintError) as exc:
        diagnose_omega(v1, v2)
    assert exc.value.residual > 0.0
    # and check=False still returns a field
    om = diagnose_omega(v1, v2, check=False)
    assert np.all(np.isfinite(om.data))


def test_omega_vanishes_at_both_pressure_boundaries(grid16):
    v1, v2 = seeded_velocity(grid16, 77, band=5)
    pv1, pv2 = barotropic_project(v1.as_physical(), v2.as_physical())
    om = diagnose_omega(pv1, pv2)
    h1 = np.sqrt(sobolev_norm(pv1, 1) ** 2 + sobolev_norm(pv2, 1) ** 2)
    assert np.abs(om.data[:, :, 0]).max() <= 1e-12 * h1
    assert omega_top_residual(pv1, pv2) <= 1e-12 * h1


def test_vertical_derivative_of_omega_recovers_divergence(grid16):
    v1, v2 = seeded_velocity(grid16, 5, band=5)
    pv1, pv2 = barotropic_project(v1.as_physical(), v2.as_physical())
    om = diagnose_omega(pv1, pv2)
    dp_om = derivative(om, "p").data
    div = (derivative(pv1, "x").data + derivative(pv2, "y").data)
    scale = max(1.0, np.abs(div).max())
    assert np.abs(dp_om + div).max() <= 1e-11 * scale


@pytest.mark.parametrize("shape", [(16, 16, 16), (24, 24, 24), (16, 24, 20), (32, 48, 48),
                                   (64, 64, 64)])
def test_integral_to_p1_is_the_formula_through_one_inverse(shape, params):
    # every plane divided by i kp, the p-mean one zero, then irfftn_norm:
    # the samples the passes taken apart must give, bit for bit, with F
    # left as it was
    g = Grid(*shape, P0, P1)
    co = model.Coefficients(g, params)
    inside, outside = random_smooth(g, 3), random_smooth(g, 4, band=min(g.ball) + 2)
    D_in, D_out = (model._divergence_hat(g, *st.data[:2]) for st in (inside, outside))
    assert in_ball(g, D_in) and not in_ball(g, D_out)
    it = model._integrand(g, params, co, inside.as_physical().theta.data)
    base = co.phi_s[:, :, None] + model._ramp(g, params, it.gbar)
    for F in (D_in, D_out, it.fluct_hat):
        kept = F.copy()
        G = np.zeros_like(F)
        G[..., 1:] = F[..., 1:] / (1j * g.kp[1:])
        G = irfftn_norm(g, G)
        for b in (None, base):
            want = (G[..., :1] if b is None else b + G[..., :1]) - G
            assert model._integral_to_p1(g, F, b).tobytes() == want.tobytes()
        assert F.tobytes() == kept.tobytes()


# --- geopotential -----------------------------------------------------------

def test_phi_analytic_profile_converges_first_order():
    """Constant reference offset: Phi = cp*Theta*[(p1/p0)^k - (p/p0)^k].

    The integrand's pressure profile is not periodic, so the trigonometric
    antiderivative carries an O(1/np) truncation; the error must sit at the
    documented size and halve when np doubles.
    """
    Theta = 0.7
    errs = {}
    for n in (32, 64):
        g = Grid(8, 8, n, P0, P1)
        pr = PhysParams(theta_h=Profile("constant", Theta))
        phi = diagnose_phi(Field3D.zeros(g, "physical"), pr)
        kap = pr.kappa
        exact = pr.cp * Theta * ((P1 / P0) ** kap - (g.p / P0) ** kap)
        errs[n] = np.abs(phi.data - exact[None, None, :]).max()
    assert errs[32] <= 5e-2
    assert 0.40 <= errs[64] / errs[32] <= 0.60


def test_phi_of_zero_temperature_is_surface_value(grid16, params):
    phi = diagnose_phi(Field3D.zeros(grid16, "physical"), params)
    assert np.abs(phi.data).max() <= 1e-13


def test_hydrostatic_residual_roundoff_on_random_data(grid16, params):
    th = seeded_scalar(grid16, 9, band=5).as_physical()
    phi = diagnose_phi(th, params)
    T = temperature_from_theta(th, params)
    l2T = sobolev_norm(T, 0)
    assert hydrostatic_residual(phi, th, params) <= 1e-10 * l2T
    assert hydrostatic_gradient_residual(th, params) <= 1e-10


def test_hydrostatic_residual_detects_wrong_phi(grid16, params):
    th = seeded_scalar(grid16, 9, band=5).as_physical()
    phi = diagnose_phi(th, params)
    wrong = Field3D.physical(grid16, phi.data * 1.01)
    T = temperature_from_theta(th, params)
    assert hydrostatic_residual(wrong, th, params) > 1e-4 * sobolev_norm(T, 0)


# --- viscosity --------------------------------------------------------------

VISCOUS = ModelVariant(advection=False, coriolis=False, pressure=False)


def _viscosity(f, params):
    """The samples of A_v f, A_v f, A_th f and A_q f, stacked: minus the
    viscosity-only tendency of the state with f in every slot."""
    g = f.grid
    state = State.of(g, np.stack([f.as_spectral().data] * 4), SPECTRAL, 0.0)
    return irfftn_norm(g, -tendency(state, params, variant=VISCOUS).data)


def test_viscosity_of_constant_vanishes(grid16, params):
    const = Field3D.physical(grid16, np.full(grid16.shape, 2.0))
    Av, _, _, Aq = _viscosity(const, params)
    for out in (Av, Aq):
        assert np.abs(out).max() <= 1e-12
    # the conjugated operator annihilates constants only in the zero-exponent
    # limit; its general null direction is (p/p0)^kappa instead
    pr0 = PhysParams(cp=math.inf)
    assert np.abs(_viscosity(const, pr0)[2]).max() <= 1e-12
    prof = Field3D.physical(
        grid16, np.broadcast_to((grid16.p / P0) ** params.kappa,
                                grid16.shape).copy())
    assert np.abs(_viscosity(prof, params)[2]).max() <= 1e-12


def test_viscosity_eigenfunction_with_linear_reference():
    # theta_bar proportional to p makes the vertical coefficient exactly 1
    pr = PhysParams(theta_bar=Profile("proportional", 1.0))
    g = _grid(16)
    f = Field3D.from_function(
        g, lambda x, y, p: np.sin(2 * np.pi * (p - P0) / LP))
    out = _viscosity(f, pr)[0]
    lam = pr.nu_v * (2 * np.pi / LP) ** 2
    assert np.abs(out - lam * f.data).max() <= 1e-10


def test_theta_viscosity_reduces_to_plain_form_without_exponent():
    pr = PhysParams(cp=math.inf)   # kappa = 0 removes the conjugation
    g = _grid(16)
    f = seeded_scalar(g, 13, band=5).as_physical()
    Av, _, a, _ = _viscosity(f, pr)  # same mu, nu defaults
    scale = max(1.0, np.abs(Av).max())
    assert np.abs(a - Av).max() <= 1e-12 * scale


def test_viscosity_positive_pairing(grid16, params):
    # <A f, f> >= 0: the operator only ever drains energy
    for seed in range(5):
        f = seeded_scalar(grid16, 100 + seed, band=5).as_physical()
        Av, _, Ath, Aq = _viscosity(f, params)
        for out in (Av, Ath, Aq):
            pairing = grid16.volume * np.mean(out * f.data)
            assert pairing >= -1e-10 * max(1.0, abs(pairing))


@pytest.mark.parametrize("shape", [(18, 18, 18), (24, 24, 24), (32, 32, 24)])
def test_advection_does_no_work_on_a_state_that_fills_the_ball(shape, params):
    # <u, A(u)> = 0 for the dealiased advection A of a projected state with
    # content up to the ball's edge on every axis: on sides divisible by 3
    # a radius of n//3 let aliased products through (7.0e-3 at 18^3)
    g = Grid(*shape, P0, P1)
    state = random_smooth(g, 3, amplitude=1.0)
    U = state.data
    assert in_ball(g, U)
    assert all(np.any(U * (j == k)) for j, k in zip(g.mode_index, g.ball))
    advection = ModelVariant(coriolis=False, pressure=False, viscosity=False)
    A = tendency(state, params, variant=advection).data
    pairing = _pair(g, U, A) / math.sqrt(_pair(g, U, U) * _pair(g, A, A))
    assert abs(pairing) <= 1e-14


@pytest.mark.parametrize("distinct", [False, True])
def test_viscous_tendency_matches_standalone_operators(grid16, params, distinct):
    # with transport, rotation and pressure switched off the tendency is
    # -dealias(A u) for each variable, and must agree with the operators
    # assembled through 3-D transforms (default params, then a linear
    # theta_bar with six distinct viscosities)
    if distinct:
        params = params.with_(theta_bar=Profile.linear(0.5, 1.5),
                              mu_v=2e-2, nu_v=3e-2, mu_theta=4e-3,
                              nu_theta=5e-3, mu_q=6e-3, nu_q=7e-3)
    state = project_state(random_smooth(grid16, 5, amplitude=1.0)).as_spectral()
    got = tendency(state, params, variant=VISCOUS).data
    want = tendency_3d(state, params, variant=VISCOUS)
    for a, b in zip(got, want):
        diff = sobolev_norm(Field3D.spectral(grid16, a - b), 0)
        assert diff <= 1e-13 * sobolev_norm(Field3D.spectral(grid16, b), 0)


# --- the operators along p against the 3-D assembly -------------------------

def _surface_params(grid, params):
    """params with a nonzero surface geopotential, a linear theta_bar and
    six distinct viscosities, so that a mix-up of the v, theta and q
    coefficients shows."""
    x, y = grid.x[:, None], grid.y[None, :]
    phi_s = 3.0 * np.sin(2 * np.pi * x) + np.cos(2 * np.pi * (x + 2 * y))
    return params.with_(phi_s=phi_s, theta_bar=Profile.linear(0.5, 1.5),
                        mu_v=2e-2, nu_v=3e-2, mu_theta=4e-3, nu_theta=5e-3,
                        mu_q=6e-3, nu_q=7e-3)


def _oracle_state(grid, kind):
    """A projected state inside the 2/3 ball, one with every mode up to the
    Nyquist rows and planes, or raw coefficients whose kp = 0 and Nyquist
    planes are not Hermitian."""
    if kind == "raw":
        rng = np.random.default_rng(17)
        shape = (4,) + grid.spectral_shape
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        data *= np.exp(-grid.k2 / (2 * np.pi) ** 2 / 10)
        return State.of(grid, data, "spectral", 0.0)
    band = None if kind == "ball" else max(grid.shape)
    return project_state(random_smooth(grid, 8, amplitude=1.0, band=band)).as_spectral()


def _relative_misfits(got, want):
    return [np.linalg.norm(a - b) / np.linalg.norm(b) if np.any(b) else np.linalg.norm(a)
            for a, b in zip(got, want)]


# a grid whose 14-field stack (8.6 MB) is past Workspace.STREAM_BYTES, so its
# inverse streams one group at a time through a 3-field scratch
_STREAMED = (32, 48, 48)
_SHAPES = [(16, 16, 16), (16, 24, 20), _STREAMED]
_ORACLE_VARIANTS = {
    "faithful": FAITHFUL,
    "no-dealias": FAITHFUL.with_(dealias=False),
    "coriolis-bug": FAITHFUL.with_(coriolis_bug=True),
    "no-advection": FAITHFUL.with_(advection=False),
    "no-coriolis": FAITHFUL.with_(coriolis=False),
    "no-pressure": FAITHFUL.with_(pressure=False),
    "no-viscosity": FAITHFUL.with_(viscosity=False),
    "viscous": VISCOUS,
    "viscous-no-dealias": VISCOUS.with_(dealias=False),
}


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("kind", ["ball", "off-ball"])
@pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "no-dealias"])
def test_pressure_term_is_minus_the_dealiased_gradient_of_phi(shape, kind, dealias, params):
    # only pressure on: the tendency of v is -dealias(grad Phi), Phi from
    # diagnose_phi and its gradient through 3-D transforms
    g = Grid(*shape, P0, P1)
    params = _surface_params(g, params)
    state = _oracle_state(g, kind)
    variant = ModelVariant(advection=False, coriolis=False, viscosity=False, dealias=dealias)
    tend = tendency(state, params, variant=variant).data
    phi = diagnose_phi(state.theta.as_physical(), params)
    mask = g.dealias_mask if dealias else 1.0
    want = [-derivative(phi, axis).as_spectral().data * mask for axis in "xy"]
    assert max(_relative_misfits(tend[:2], want)) <= 1e-13
    assert not np.any(tend[2:])


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("kind", ["ball", "off-ball", "raw"])
@pytest.mark.parametrize("name", list(_ORACLE_VARIANTS))
def test_tendency_matches_the_3d_assembly(shape, kind, name, params):
    g = Grid(*shape, P0, P1)
    params = _surface_params(g, params)
    state = _oracle_state(g, kind)
    variant = _ORACLE_VARIANTS[name]
    got = tendency(state, params, variant=variant).data
    assert max(_relative_misfits(got, tendency_3d(state, params, variant=variant))) <= 1e-13


def _quarter_turn(data):
    # the plane turned by 90 degrees, (x, y) -> (-y, x): s'[i, j] = s[j, -i]
    # on each field of a state's samples, and v' = (-v2, v1)
    turned = np.roll(np.swapaxes(data, -3, -2)[..., ::-1, :, :], 1, axis=-3)
    return np.stack([-turned[1], turned[0], turned[2], turned[3]])


_MOVES = {"shift": lambda data: np.roll(data, 3, axis=-2), "turn": _quarter_turn}


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("name", ["faithful", "no-dealias", "coriolis-bug"])
def test_tendency_commutes_with_a_shift_and_a_quarter_turn(n, name, params):
    # oracle-free: the tendency of a moved state is the moved tendency, a
    # shift of 3 grid points in y and a quarter turn of the plane.  The
    # transcription slip of coriolis_bug, (v2, v1) for (-v2, v1), is a
    # reflection and shows under the turn
    g = Grid(n, n, n, params.p0, params.p1)
    variant = _ORACLE_VARIANTS[name]
    samples = _ball_state(g).as_physical().data

    def rate(data):
        return irfftn_norm(g, tendency(State.of(g, data, PHYSICAL), params, variant=variant).data)

    want = rate(samples)
    deviation = {move: np.abs(rate(fn(samples)) - fn(want)).max() / np.abs(want).max()
                 for move, fn in _MOVES.items()}
    assert deviation["shift"] <= 1e-13
    if variant.coriolis_bug:
        assert deviation["turn"] >= 1e-2
    else:
        assert deviation["turn"] <= 1e-13


def test_one_tendency_moves_19_fields_and_prunes_to_the_band(grid16, params, fft_log):
    # 3-D passes: v1, v2, omega's antiderivative and the 12 derivatives in,
    # the products out; the transforms along p alone act on the rows of the
    # 2/3 band, the x pass of the inverse on the y rows of the band, and the
    # y pass of the forward one on its x rows
    g = grid16
    state = _ball_state(g)
    ws = Workspace(g, params)
    fft_log.clear()
    tendency(state, params, ws=ws)
    three_d = _fields_moved(g, fft_log)
    along_p = [shape for name, shape, axis in fft_log if name in ("fft", "ifft") and axis == -1]
    x_pass = [shape for name, shape, axis in fft_log if name == "ifft" and axis == -3]
    assert three_d == 19
    assert along_p and all(shape[-3:] == (11, 6, 16) for shape in along_p)
    assert not any(name in ("ifftn", "irfftn") for name, _, _ in fft_log)
    assert all(shape[-3] == g.nx and shape[-1] == g.planes(True) for shape in x_pass)
    # the y rows of the x pass of the inverse: the 15-field stack
    assert len(x_pass) == 2 and all(shape[:-3] == (15,) for shape in x_pass)
    assert sum(shape[-2] for shape in x_pass) == 2 * g.ball[1] + 1
    _assert_the_forward_p_pass_runs_per_slab(ws, fft_log)
    _assert_the_forward_y_pass_takes_the_band_x_rows(g, fft_log)


def _fields_moved(g, fft_log):
    # the 3-D fields the passes along p of the 3-D transforms move, a stack
    # counting each of its fields and an x slab its share of a field
    return sum(int(np.prod(shape[:-3])) * shape[-3] / g.nx for name, shape, _ in fft_log
               if name in ("rfft", "irfft", "rfftn", "irfftn"))


def _assert_the_forward_p_pass_runs_per_slab(ws, fft_log):
    # the products' forward transform splits: its pass along p runs one x
    # slab at a time (on the whole grid, the four products in one call;
    # streamed, each product alone), and then one x-y pass takes the stack
    g = ws.grid
    names = [name for name, _, _ in fft_log]
    p_pass = [shape for name, shape, _ in fft_log if name == "rfft"]
    widths = [xs.stop - xs.start for xs in ws.slabs]
    if ws.streamed:
        assert p_pass == [(w, g.ny, g.np) for _ in range(4) for w in widths]
    else:
        assert widths == [g.nx] and p_pass == [(4,) + g.shape]
    assert "rfftn" not in names
    x_pass = [i for i, (name, _, axis) in enumerate(fft_log) if name == "fft" and axis == -3]
    assert len(x_pass) == 1 and x_pass[0] > max(i for i, name in enumerate(names)
                                                 if name in ("rfft", "irfft"))


def _assert_the_forward_y_pass_takes_the_band_x_rows(g, fft_log):
    # the products' forward transform: its x pass on the planes of the
    # ball, its y pass on the 2 Kx + 1 x rows of the band (two slices)
    forward = [(shape, axis) for name, shape, axis in fft_log if name == "fft" and axis != -1]
    assert [axis for _, axis in forward] == [-3, -2, -2]
    assert forward[0][0] == (4, g.nx, g.ny, g.planes(True))
    y_pass = [shape for shape, _ in forward[1:]]
    assert all(shape[:1] + shape[2:] == (4, g.ny, g.planes(True)) for shape in y_pass)
    assert sum(shape[1] for shape in y_pass) == 2 * g.ball[0] + 1


def test_a_streamed_tendency_moves_19_fields_one_group_per_x_pass(params, fft_log):
    # the 19 fields and band rows of the 16^3 pin above, but each x and y
    # pass takes one group: v1, v2 and omega's antiderivative, then each
    # field's three derivatives
    g = Grid(*_STREAMED, P0, P1)
    state = _ball_state(g)
    assert in_ball(g, state.data)
    ws = Workspace(g, params)
    assert ws.streamed and ws.spec.shape[0] == 3 and len(ws.slabs) == 2
    fft_log.clear()
    tendency(state, params, ws=ws)
    three_d = _fields_moved(g, fft_log)
    along_p = [shape for name, shape, axis in fft_log if name in ("fft", "ifft") and axis == -1]
    x_pass = [shape for name, shape, axis in fft_log if name == "ifft" and axis == -3]
    assert three_d == 19
    band_rows = (2 * g.ball[0] + 1, g.ball[1] + 1, g.np)
    assert along_p and all(shape[-3:] == band_rows for shape in along_p)
    assert not any(name in ("ifftn", "irfftn") for name, _, _ in fft_log)
    assert all(shape[-3] == g.nx and shape[-1] == g.planes(True) for shape in x_pass)
    # the y rows of the x passes: five groups of three
    assert len(x_pass) == 10 and all(shape[:-3] == (3,) for shape in x_pass)
    assert sum(shape[-2] for shape in x_pass) == 5 * (2 * g.ball[1] + 1)
    _assert_the_forward_p_pass_runs_per_slab(ws, fft_log)
    _assert_the_forward_y_pass_takes_the_band_x_rows(g, fft_log)


@pytest.mark.parametrize("shape", [(16, 16, 16), _STREAMED])
@pytest.mark.parametrize("kind", ["ball", "off-ball"])
@pytest.mark.parametrize("name", ["faithful", "no-advection", "viscous-no-dealias"])
def test_the_streamed_and_whole_stack_inverses_agree_bit_for_bit(shape, kind, name, params,
                                                                 monkeypatch):
    # the grid's own path, then the other one, forced by moving the threshold
    g = Grid(*shape, P0, P1)
    params = _surface_params(g, params)
    state = _oracle_state(g, kind)
    variant = _ORACLE_VARIANTS[name]
    own = Workspace(g, params, variant)
    want = tendency(state, params, variant=variant, ws=own).data
    monkeypatch.setattr(Workspace, "STREAM_BYTES", 1 << 62 if own.streamed else 0)
    other = Workspace(g, params, variant)
    assert other.streamed != own.streamed
    assert np.array_equal(tendency(state, params, variant=variant, ws=other).data, want)


# --- finite-difference reference agreement ----------------------------------

def _order_ratio(apply_spec, op_name, grid, pr, *arrays, axis=None):
    kw = {} if axis is None else {"axis": axis}
    exact = apply_spec()
    e2 = np.abs(reference_apply(op_name, grid, pr, *arrays, factor=2, **kw) - exact).max()
    e4 = np.abs(reference_apply(op_name, grid, pr, *arrays, factor=4, **kw) - exact).max()
    return e2 / e4


def test_reference_derivative_fourth_order(params):
    g = _grid(16)
    for seed in range(10):
        f = seeded_scalar(g, 40 + seed, band=5).as_physical()
        axis = ("x", "y", "p")[seed % 3]
        ratio = _order_ratio(lambda: derivative(f, axis).data,
                             "derivative", g, params, f.data, axis=axis)
        assert 11.0 <= ratio <= 21.0


class _FnProfile:
    """A reference profile given by a function of p: PhysParams reads a
    profile only through evaluate(p)."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, p):
        return np.asarray(self.fn(np.asarray(p, dtype=np.float64)), dtype=np.float64)


def test_reference_viscosity_fourth_order():
    # reference profile chosen so the vertical coefficient is a band-1
    # trigonometric polynomial: both routes then converge to the same limit
    def tb(p):
        return p / np.sqrt(2.0 + np.cos(2 * np.pi * (p - P0) / LP))

    pr = PhysParams(theta_bar=_FnProfile(tb))
    prt = PhysParams(cp=math.inf, theta_bar=_FnProfile(tb))
    g = _grid(16)
    for seed in range(10):
        f = seeded_scalar(g, 60 + seed, band=4).as_physical()
        Av, _, _, Aq = _viscosity(f, pr)
        Ath = _viscosity(f, prt)[2]
        r = _order_ratio(lambda: Av, "viscosity_v", g, pr, f.data)
        assert 11.0 <= r <= 21.0
        r = _order_ratio(lambda: Aq, "viscosity_q", g, pr, f.data)
        assert 11.0 <= r <= 21.0
        r = _order_ratio(lambda: Ath, "viscosity_theta", g, prt, f.data)
        assert 11.0 <= r <= 21.0


def test_reference_omega_fourth_order(params):
    g = _grid(16)
    for seed in range(10):
        v1, v2 = seeded_velocity(g, 80 + seed, band=5)
        pv1, pv2 = barotropic_project(v1.as_physical(), v2.as_physical())
        om = diagnose_omega(pv1, pv2).data
        r = _order_ratio(lambda: om, "omega", g, params, pv1.data, pv2.data)
        assert 11.0 <= r <= 21.0


def test_reference_phi_fourth_order():
    """Reference-profile channel: theta_h chosen so the hydrostatic integrand
    is a band-limited trigonometric polynomial of p; the two routes then share
    a limit and the disagreement is the reference quadrature error."""
    base = PhysParams()
    kap = base.kappa
    for seed in range(10):
        r = np.random.default_rng(900 + seed)
        coef = r.normal(size=3)

        def psi(p):
            s = 3.0 + 0.0 * p
            for k in range(1, 4):
                s = s + coef[k - 1] * np.cos(2 * np.pi * k * (p - P0) / LP) / k**2
            return s

        def th_h(p):
            return psi(p) * p * (P0 / p) ** kap / base.R

        pr = PhysParams(theta_h=_FnProfile(th_h))
        g = _grid(16)
        z = Field3D.zeros(g, "physical")
        phi = diagnose_phi(z, pr).data
        ratio = _order_ratio(lambda: phi, "phi", g, pr, z.data)
        assert 11.0 <= ratio <= 23.0


def test_reference_phi_generic_theta_documents_profile_truncation(params):
    # for generic theta the integrand is not periodic in p; the spectral
    # antiderivative then differs from the continuum integral at O(1/np),
    # which no oracle refinement removes -- the gap must halve as np doubles
    gaps = {}
    for n in (16, 32):
        g = Grid(8, 8, n, P0, P1)
        th = seeded_scalar(g, 21, band=2).as_physical()
        phi = diagnose_phi(th, params).data
        gaps[n] = np.abs(reference_apply("phi", g, params, th.data, factor=4) - phi).max()
    assert 0.40 <= gaps[32] / gaps[16] <= 0.62


def test_reference_unknown_operator_rejected(grid8, params):
    with pytest.raises(ParameterError):
        reference_apply("curl", grid8, params, np.zeros(grid8.shape))
    assert "omega" in OP_NAMES


def test_reference_factor_must_be_positive(grid8, params):
    with pytest.raises(ParameterError):
        FdOracle(grid8, params, factor=0)


# --- tendency ---------------------------------------------------------------

def test_rest_state_is_steady(grid16, params):
    rest = State.zeros(grid16)
    t = tendency(rest, params)
    for f in (t.v1, t.v2, t.theta, t.q):
        assert np.abs(f.data).max() <= 1e-14


def test_pure_rotation_tendency(grid16, params):
    var = ModelVariant(advection=False, pressure=False, viscosity=False)
    v1, v2 = seeded_velocity(grid16, 19, band=5)
    st = State(v1, v2, Field3D.zeros(grid16), Field3D.zeros(grid16))
    t = tendency(st, params, variant=var)
    f = params.f_cor
    got1 = t.v1.as_physical().data
    got2 = t.v2.as_physical().data
    want1 = f * st.v2.as_physical().data
    want2 = -f * st.v1.as_physical().data
    scale = max(np.abs(want1).max(), np.abs(want2).max())
    assert np.abs(got1 - want1).max() <= 1e-12 * scale
    assert np.abs(got2 - want2).max() <= 1e-12 * scale


def _off_ball_state(grid):
    """A projected state with content on the p-planes beyond the ball."""
    state = project_state(random_smooth(grid, 6, amplitude=1.0, band=7)).as_spectral()
    assert all(np.any(f.data[..., grid.planes(True):]) for f in state.fields)
    return state


def _ball_state(grid, seed=2):
    state = project_state(random_smooth(grid, seed, amplitude=1.0)).as_spectral()
    assert not any(np.any(f.data[..., grid.planes(True):]) for f in state.fields)
    return state


@pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "no-dealias"])
def test_tendency_off_the_ball_transforms_every_plane(grid16, params, dealias):
    # a state and a file-style forcing with content beyond the ball in p, on a
    # workspace that has just served an in-ball call: the viscous tendency
    # plus forcing must equal the 3-D assembly's, which never skips a plane
    g = grid16
    state = _off_ball_state(g)
    rng = np.random.default_rng(9)
    forced = np.stack([rfftn_norm(g, rng.standard_normal(g.shape)) for _ in range(4)])
    viscous = VISCOUS.with_(dealias=dealias)
    ws = Workspace(g, params, viscous)
    tendency(_ball_state(g), params, variant=viscous, ws=ws)
    tend = tendency(state, params, forcing=Forcing.static(g, forced), variant=viscous, ws=ws)
    want = tendency_3d(state, params, forcing=lambda t: forced, variant=viscous)
    for got, w in zip(tend.data, want):
        diff = sobolev_norm(Field3D.spectral(g, got - w), 0)
        assert diff <= 1e-13 * sobolev_norm(Field3D.spectral(g, w), 0)


def test_workspace_after_an_off_ball_call_gives_the_fresh_result(grid16, params):
    # the off-ball call fills every plane of the shared buffers; a pruned call
    # after it must not read what that call left beyond the kept planes
    ws = Workspace(grid16, params)
    ball = _ball_state(grid16)
    tendency(_off_ball_state(grid16), params, ws=ws)
    reused = tendency(ball, params, ws=ws)
    fresh = tendency(ball, params)
    for a, b in zip((reused.v1, reused.v2, reused.theta, reused.q),
                    (fresh.v1, fresh.v2, fresh.theta, fresh.q)):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("axis", ["x", "y"])
def test_tendency_with_rows_beyond_the_ball_transforms_every_row(shape, axis, params):
    # a state inside the ball along p with content on the x or y rows beyond
    # the ball, on a workspace that has just served an in-ball call
    g = Grid(*shape, P0, P1)
    params = _surface_params(g, params)
    (jx, jy, jp), (bx, by, bp) = g.mode_index, g.ball
    band = (jp <= bp) & ((jy <= by) if axis == "x" else (jx <= bx))
    state = project_state(State.of(g, _oracle_state(g, "off-ball").data * band, "spectral", 0.0))
    beyond = jx > bx if axis == "x" else jy > by
    assert np.any(state.data * beyond) and not in_ball(g, state.data)
    ws = Workspace(g, params)
    tendency(_oracle_state(g, "ball"), params, ws=ws)
    got = tendency(state, params, ws=ws).data
    assert np.array_equal(got, tendency(state, params).data)
    assert max(_relative_misfits(got, tendency_3d(state, params))) <= 1e-13


def test_tendency_results_do_not_alias_the_workspace(grid16, params):
    # a Runge-Kutta step holds four tendencies of one workspace at once
    ws = Workspace(grid16, params)
    first = tendency(_ball_state(grid16), params, ws=ws)
    kept = first.data.copy()
    tendency(_ball_state(grid16, seed=3), params, ws=ws)
    tendency(_off_ball_state(grid16), params, ws=ws)
    assert np.array_equal(first.data, kept)
    for scratch in (ws.spec, ws.prod, ws.rows_work, ws.rows_plane, ws.box_tmp):
        assert not np.shares_memory(first.data, scratch)


# every scratch buffer of a workspace: scratch holds spec, rows_work and
# box_tmp, which the tendency's phases take in turn
_SCRATCH = ("scratch", "prod", "rows_plane", "stage", "real")


@pytest.mark.parametrize("n", [16, 24, 40])
@pytest.mark.parametrize("name", ["faithful", "no-dealias", "viscosity-only", "advection-only"])
def test_no_phase_reads_scratch_it_did_not_write(n, name, params, monkeypatch):
    # NaN in every scratch buffer before each call, and in the shared one
    # again on either side of the operators on the rows: a phase that read
    # what an earlier call or phase left there would carry NaN into the
    # result.  24^3 takes the whole stack and 40^3 streams; in-ball and
    # off-ball states alternate on one workspace
    g = _grid(n)
    variant = {"faithful": FAITHFUL, "no-dealias": FAITHFUL.with_(dealias=False),
               "viscosity-only": ModelVariant(advection=False, coriolis=False, pressure=False),
               "advection-only": ModelVariant(coriolis=False, pressure=False, viscosity=False),
               }[name]
    states = [_oracle_state(g, kind) for kind in ("ball", "off-ball", "ball")]
    want = [tendency(state, params, variant=variant).data for state in states]
    row_terms = model._row_terms

    def poisoned_row_terms(ws, U):
        ws.scratch.fill(np.nan)
        terms = row_terms(ws, U)
        ws.scratch.fill(np.nan)
        return terms

    monkeypatch.setattr(model, "_row_terms", poisoned_row_terms)
    ws = Workspace(g, params, variant)
    assert ws.streamed == (n == 40)
    for shared in ("spec", "rows_work", "box_tmp"):
        view = getattr(ws, shared, None)
        assert view is None or view.base is ws.scratch
    for state, w in zip(states, want):
        for buffer in _SCRATCH:
            if getattr(ws, buffer, None) is not None:
                getattr(ws, buffer).fill(np.nan)
        got = tendency(state, params, variant=variant, ws=ws).data
        assert np.array_equal(got.view(np.uint64), w.view(np.uint64))
    assert in_ball(g, states[0].data) and not in_ball(g, states[1].data)


def test_tendency_rejects_a_workspace_of_other_params(grid16, params):
    ws = Workspace(grid16, params)
    with pytest.raises(DataError):
        tendency(_ball_state(grid16), params.with_(mu_v=0.5), ws=ws)
    with pytest.raises(DataError):
        tendency(_ball_state(grid16), params, variant=FAITHFUL.with_(dealias=False), ws=ws)


# --- projection -------------------------------------------------------------

def test_projection_is_idempotent(grid16):
    v1, v2 = seeded_velocity(grid16, 23, band=5)
    p1, p2 = barotropic_project(v1.as_physical(), v2.as_physical())
    q1, q2 = barotropic_project(p1, p2)
    assert np.abs(q1.data - p1.data).max() <= 1e-13
    assert np.abs(q2.data - p2.data).max() <= 1e-13


def test_projection_is_an_l2_contraction(grid16):
    for seed in range(10):
        v1, v2 = seeded_velocity(grid16, 300 + seed, band=5)
        p1, p2 = barotropic_project(v1.as_physical(), v2.as_physical())
        before = sobolev_norm(v1, 0) ** 2 + sobolev_norm(v2, 0) ** 2
        after = sobolev_norm(p1, 0) ** 2 + sobolev_norm(p2, 0) ** 2
        assert after <= before * (1 + 1e-12)


def test_projection_annihilates_pure_gradients(grid16):
    chi = Field3D.from_function(
        grid16, lambda x, y, p: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    v1 = derivative(chi, "x")
    v2 = derivative(chi, "y")
    p1, p2 = barotropic_project(v1, v2)
    assert np.abs(p1.as_physical().data).max() <= 1e-12
    assert np.abs(p2.as_physical().data).max() <= 1e-12


def test_projection_enforces_the_divergence_constraint(grid16):
    for seed in range(5):
        v1, v2 = seeded_velocity(grid16, 400 + seed, band=5)
        p1, p2 = barotropic_project(v1.as_physical(), v2.as_physical())
        h1 = np.sqrt(sobolev_norm(p1, 1) ** 2 + sobolev_norm(p2, 1) ** 2)
        assert divergence_residual(p1, p2) <= 1e-12 * max(1.0, h1)


def test_rotational_barotropic_flow_is_projection_invariant(grid16):
    psi = Field3D.from_function(
        grid16, lambda x, y, p: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    v1 = Field3D.physical(grid16, -derivative(psi, "y").data)
    v2 = Field3D.physical(grid16, derivative(psi, "x").data)
    p1, p2 = barotropic_project(v1, v2)
    assert np.abs(p1.data - v1.data).max() <= 1e-12
    assert np.abs(p2.data - v2.data).max() <= 1e-12


def test_project_state_leaves_its_input_unchanged(grid16):
    v1, v2 = seeded_velocity(grid16, 23, band=5)
    v1 = Field3D.spectral(grid16, v1.data + 0.5 * grid16.band_mask(1))  # divergent part
    st = State(v1, v2, seeded_scalar(grid16, 5), seeded_scalar(grid16, 6), t=0.25)
    before = st.data.copy()
    out = project_state(st)
    assert np.array_equal(st.data, before)
    assert not np.shares_memory(out.data, st.data)
    assert out.t == 0.25 and divergence_residual(out.v1, out.v2) <= 1e-14
    assert divergence_residual(st.v1, st.v2) > 1e-3
    assert np.array_equal(out.data[2:], st.data[2:])


def test_diagnose_is_the_three_diagnostics_from_one_set_of_profiles(params, monkeypatch):
    g = Grid(16, 24, 20, P0, P1)
    rngf = np.random.default_rng(8)
    pr = params.with_(phi_s=0.1 * rngf.standard_normal((g.nx, g.ny)),
                      theta_bar=Profile.linear(1.0, 0.5))
    phys = random_smooth(g, 5).as_physical()
    want = (diagnose_omega(phys.v1, phys.v2), diagnose_phi(phys.theta, pr),
            temperature_from_theta(phys.theta, pr))
    builds = [0]
    init = model.Coefficients.__init__

    def counting_init(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.Coefficients, "__init__", counting_init)
    got = diagnose(phys, pr)
    assert builds[0] == 1
    for field, expected in zip((got.omega, got.phi, got.temperature), want):
        assert field.data.tobytes() == expected.data.tobytes()


def test_diagnose_transforms_each_velocity_forward_once(grid16, params, fft_fields):
    # v1 and v2 forward once (divergence and H1 scale), omega back, the
    # integrand forward, Phi back
    phys = random_smooth(grid16, 5, amplitude=1.0).as_physical()
    moved = fft_fields(grid16)
    diagnose(phys, params)
    assert moved[0] == 5
