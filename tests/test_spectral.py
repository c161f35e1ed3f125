"""Transform, derivative, dealiasing, norm, and parity layer.

The dealiasing test checks the 2/3-rule truncation of a product against an
explicit mode-by-mode convolution built from the input coefficient tables,
so the production FFT path never grades itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moistpe.errors import DataError, ParameterError
from moistpe.fields import (Field3D, dealias, derivative, fft_p, fft_xy, HorizontalRows,
                            horizontal_spectra, ifft_xy, in_ball, irfft_p, irfftn_norm,
                            parity_deviation, parity_part, rfft_p, rfftn_norm)
from moistpe.grid import Grid
from moistpe.norms import (l2_inner, sobolev_norm, spectral_weighted_sum,
                           weight_profile, weighted_norm_w)
from moistpe.params import PhysParams, Profile

P0, P1 = 0.2, 1.0
LP = P1 - P0


def _grid(n):
    return Grid(n, n, n, P0, P1)


def _random_physical(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Field3D.physical(grid, scale * rng.standard_normal(grid.shape))


# --- transforms -------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_round_trip_identity(n):
    g = _grid(n)
    f = _random_physical(g, n)
    back = f.as_spectral().as_physical()
    err = np.abs(back.data - f.data).max() / np.abs(f.data).max()
    assert err <= 1e-13


def test_constant_field_concentrates_on_mean_mode(grid16):
    f = Field3D.physical(grid16, np.full(grid16.shape, 2.5))
    C = f.as_spectral().data
    assert abs(C[0, 0, 0] - 2.5) <= 1e-14
    off = C.copy()
    off[0, 0, 0] = 0.0
    assert np.abs(off).max() <= 1e-14


def test_single_harmonic_coefficients(grid16):
    f = Field3D.from_function(grid16, lambda x, y, p: np.sin(2 * np.pi * x))
    C = f.as_spectral().data
    # sin(2 pi x) = (e^{i2pix} - e^{-i2pix}) / (2i)
    assert abs(C[1, 0, 0] - (-0.5j)) <= 1e-14
    assert abs(C[-1, 0, 0] - 0.5j) <= 1e-14
    mask = np.ones_like(C, dtype=bool)
    mask[1, 0, 0] = mask[-1, 0, 0] = False
    assert np.abs(C[mask]).max() <= 1e-14


def test_backward_transform_of_single_mode_is_cosine(grid16):
    A = np.zeros(grid16.spectral_shape, dtype=np.complex128)
    A[2, 0, 0] = 0.5
    A[-2, 0, 0] = 0.5
    f = Field3D.spectral(grid16, A).as_physical()
    X = grid16.mesh()[0]
    assert np.abs(f.data - np.cos(4 * np.pi * X)).max() <= 1e-13


def test_parseval(grid16):
    f = _random_physical(grid16, 7)
    direct = grid16.volume * np.mean(f.data**2)
    spectral = sobolev_norm(f, 0) ** 2
    assert abs(direct - spectral) <= 1e-12 * direct


@pytest.mark.parametrize("shape", [(16, 16, 16), (24, 24, 24), (32, 32, 32), (16, 24, 20),
                                   (18, 18, 18), (32, 48, 48), (64, 64, 64)],
                         ids=["16", "24", "32", "16x24x20", "18", "32x48x48", "64"])
def test_pruned_transforms_are_the_full_ones_in_the_ball(shape):
    # the passes the tendency runs: the forward transform restricted to the
    # box of the 2/3 ball (its y pass to the box's x rows) must give bit for
    # bit the full one, masked; the inverse of a stack of spectra inside
    # the ball, restricted to its p-planes and, in its x pass, to its y
    # rows, the full inverse; and off the ball, the inverse's passes run
    # apart the full one-call inverse
    g = Grid(*shape, P0, P1)
    keep = g.planes(True)
    data = np.random.default_rng(sum(shape)).standard_normal((3,) + g.shape)
    full = rfftn_norm(g, data)
    pruned = fft_xy(g, rfft_p(data), True)
    assert np.any(full[..., :keep][:, ~g.dealias_mask[..., :keep]])
    assert np.array_equal(pruned, full * g.dealias_mask)

    coeff = full * g.dealias_mask
    assert in_ball(g, coeff)
    samples = irfftn_norm(g, coeff)
    assert not in_ball(g, full)
    off_ball = irfftn_norm(g, full)
    for stack in (slice(None), 0):
        work = coeff[stack].copy()
        work[..., keep:] = 7.0  # whatever the work array holds beyond the planes
        assert np.array_equal(irfft_p(g, ifft_xy(g, work, True)), samples[stack])
        assert np.array_equal(irfft_p(g, ifft_xy(g, full[stack].copy())), off_ball[stack])


# the scipy.fft calls (entry point, operand shape, axis) fft_xy and then
# ifft_xy make on one field, without and with the ball
_XY_CALLS = {
    ((16, 16, 16), False): [("fft", (16, 16, 9), -3), ("fft", (16, 16, 9), -2),
                            ("ifft", (16, 16, 9), -3), ("ifft", (16, 16, 9), -2)],
    ((16, 16, 16), True): [("fft", (16, 16, 6), -3), ("fft", (6, 16, 6), -2),
                           ("fft", (5, 16, 6), -2), ("ifft", (16, 6, 6), -3),
                           ("ifft", (16, 5, 6), -3), ("ifft", (16, 16, 6), -2)],
    ((32, 48, 48), False): [("fft", (32, 48, 25), -3), ("fft", (32, 48, 25), -2),
                            ("ifft", (32, 48, 25), -3), ("ifft", (32, 48, 25), -2)],
    ((32, 48, 48), True): [("fft", (32, 48, 16), -3), ("fft", (11, 48, 16), -2),
                           ("fft", (10, 48, 16), -2), ("ifft", (32, 16, 16), -3),
                           ("ifft", (32, 15, 16), -3), ("ifft", (32, 48, 16), -2)],
}


@pytest.mark.parametrize("shape, ball", list(_XY_CALLS))
def test_xy_passes_make_the_recorded_calls(shape, ball, fft_log):
    # with the ball or without, one field or a stack: the same calls on the
    # same operands as when each flag had a code path of its own
    g = Grid(*shape, P0, P1)
    for lead in ((), (2,)):
        fft_log.clear()
        ifft_xy(g, fft_xy(g, np.zeros(lead + g.spectral_shape, dtype=complex), ball), ball)
        assert fft_log == [(name, lead + operand, axis) for name, operand, axis in
                           _XY_CALLS[shape, ball]]


@pytest.mark.parametrize("kind", ["ball", "off-ball"])
@pytest.mark.parametrize("n", [16, 24, 32])
def test_inverse_finished_in_groups_along_p_is_the_full_one(n, kind):
    # the tendency's inverse (model._products): the x and y passes in place
    # on a 15-field stack, then the pass along p on v1, v2 and omega's
    # antiderivative and on each field's three derivatives; bit for bit
    # what irfftn_norm gives for the whole stack
    g = _grid(n)
    coeff = rfftn_norm(g, np.random.default_rng(n).standard_normal((15,) + g.shape))
    if kind == "ball":
        coeff *= g.dealias_mask
    ball = in_ball(g, coeff)
    assert ball == (kind == "ball")
    want = irfftn_norm(g, coeff)
    work = coeff.copy()
    if ball:
        work[..., g.planes(True):] = 7.0  # whatever the work array holds beyond the planes
    ifft_xy(g, work, ball)
    groups = [slice(3 * i, 3 * i + 3) for i in range(5)]
    got = np.concatenate([irfft_p(g, work[group]) for group in groups])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(16, 16, 16), (16, 24, 20), (24, 20, 16)])
@pytest.mark.parametrize("where", ["p", "+x", "-x", "+y", "-y"])
def test_in_ball_sees_one_coefficient_just_outside(shape, where):
    # every mode of the 2/3 ball set, then one coefficient just outside it:
    # on the p-plane K + 1, or on the x or y row +-(K + 1), K the radius
    g = Grid(*shape, P0, P1)
    bx, by, bp = g.ball
    outside = {"p": (1, 1, bp + 1), "+x": (bx + 1, 1, 1), "-x": (g.nx - bx - 1, 1, 1),
               "+y": (1, by + 1, 1), "-y": (1, g.ny - by - 1, 1)}[where]
    A = g.dealias_mask.astype(complex)
    assert in_ball(g, A) and in_ball(g, np.stack([A, A]))
    A[outside] = 1e-300
    assert not in_ball(g, A)
    assert not in_ball(g, np.stack([g.dealias_mask.astype(complex), A]))


# --- derivatives ------------------------------------------------------------

def test_derivative_x_of_sine(grid16):
    f = Field3D.from_function(grid16, lambda x, y, p: np.sin(2 * np.pi * x))
    d = derivative(f, "x")
    X = grid16.mesh()[0]
    assert np.abs(d.data - 2 * np.pi * np.cos(2 * np.pi * X)).max() <= 1e-12


def test_derivative_p_of_vertical_harmonic(grid16):
    f = Field3D.from_function(
        grid16, lambda x, y, p: np.sin(2 * np.pi * (p - P0) / LP))
    d = derivative(f, "p")
    P = grid16.mesh()[2]
    exact = (2 * np.pi / LP) * np.cos(2 * np.pi * (P - P0) / LP)
    assert np.abs(d.data - exact).max() <= 1e-12


def test_derivative_of_product_obeys_leibniz_within_band(grid16):
    # both factors band 2, so the product (band 4) is exactly representable
    f = Field3D.from_function(grid16, lambda x, y, p: np.sin(4 * np.pi * x))
    g = Field3D.from_function(grid16, lambda x, y, p: np.cos(4 * np.pi * y))
    prod = Field3D.physical(grid16, f.data * g.data)
    lhs = derivative(prod, "x").data
    rhs = derivative(f, "x").data * g.data
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_unknown_axis_rejected(grid8):
    with pytest.raises(DataError):
        derivative(_random_physical(grid8, 0), "z")


# --- dealiasing -------------------------------------------------------------

def test_dealias_is_idempotent(grid16):
    f = _random_physical(grid16, 11).as_spectral()
    once = dealias(f)
    twice = dealias(once)
    assert np.abs(once.data - twice.data).max() == 0.0


def test_dealias_fixes_band_limited_field(grid16):
    A = np.zeros(grid16.spectral_shape, dtype=np.complex128)
    A[3, -2, 1] = 1.0 + 0.5j   # |j| <= 5, the radius at n = 16, in every direction
    f = Field3D.spectral(grid16, A)
    assert np.abs(dealias(f).data - A).max() == 0.0


def test_dealias_removes_modes_beyond_two_thirds(grid16):
    A = np.zeros(grid16.spectral_shape, dtype=np.complex128)
    A[6, 0, 0] = 1.0           # 6 > 5, the radius at n = 16
    A[0, 0, 6] = 1.0
    f = Field3D.spectral(grid16, A)
    assert np.abs(dealias(f).data).max() == 0.0


def test_the_ball_is_the_largest_radius_orszag_allows():
    # the reference for the 2/3 rule, written out here rather than read
    # from Grid: a kept radius K needs n >= 3K + 1 (Orszag 1971), so that
    # the alias image of a product of two kept modes lies beyond K, and the
    # ball keeps the largest such K on each axis
    for n in range(8, 97, 2):
        g = Grid(n, n + 2, n + 4, P0, P1)
        for size, K in zip(g.shape, g.ball):
            assert 3 * K + 1 <= size < 3 * (K + 1) + 1


def _hermitian_table(seed, band, n_modes=6):
    """Random Hermitian-complete coefficient table {(jx,jy,jp): c}."""
    r = np.random.default_rng(seed)
    out = {}
    for _ in range(n_modes):
        jx, jy, jp = (int(r.integers(-band, band + 1)) for _ in range(3))
        c = complex(r.normal(), r.normal())
        out[(jx, jy, jp)] = out.get((jx, jy, jp), 0.0) + c
        out[(-jx, -jy, -jp)] = out.get((-jx, -jy, -jp), 0.0) + np.conj(c)
    return out


def _field_from_table(grid, table):
    A = np.zeros((grid.nx, grid.ny, grid.np), dtype=np.complex128)
    for (jx, jy, jp), c in table.items():
        A[jx % grid.nx, jy % grid.ny, jp % grid.np] = c
    n_total = grid.nx * grid.ny * grid.np
    data = np.fft.ifftn(A * n_total)
    assert np.abs(data.imag).max() <= 1e-12 * max(1.0, np.abs(data.real).max())
    return Field3D.physical(grid, np.ascontiguousarray(data.real))


def test_dealiased_product_matches_explicit_convolution():
    """Pointwise product + 2/3 truncation == exact truncated convolution.

    The reference result is assembled mode pair by mode pair from the two
    coefficient tables, independent of any FFT.
    """
    g = _grid(16)
    tf = _hermitian_table(21, band=5)
    tg = _hermitian_table(22, band=5)
    ff = _field_from_table(g, tf)
    fg = _field_from_table(g, tg)
    prod = Field3D.physical(g, ff.data * fg.data)
    got = dealias(prod.as_spectral()).data

    conv = {}
    for k1, c1 in tf.items():
        for k2, c2 in tg.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            conv[k] = conv.get(k, 0.0) + c1 * c2
    want = np.zeros(g.spectral_shape, dtype=np.complex128)
    cut = g.ball[0]
    for (jx, jy, jp), c in conv.items():
        if max(abs(jx), abs(jy), abs(jp)) > cut:
            continue
        if jp < 0:
            continue  # half-spectrum layout keeps jp >= 0 only
        want[jx % g.nx, jy % g.ny, jp] += c
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-12 * scale


# --- norms ------------------------------------------------------------------

def test_l2_norm_of_constant_is_volume(grid16):
    one = Field3D.physical(grid16, np.ones(grid16.shape))
    assert abs(sobolev_norm(one, 0) ** 2 - LP) <= 1e-13


def test_l2_and_h1_of_horizontal_sine(grid16):
    f = Field3D.from_function(grid16, lambda x, y, p: np.sin(2 * np.pi * x))
    assert abs(sobolev_norm(f, 0) ** 2 - LP / 2) <= 1e-13
    h1 = sobolev_norm(f, 1) ** 2
    assert abs(h1 - (1 + 4 * np.pi**2) * LP / 2) <= 1e-11


def test_zero_field_has_zero_norms(grid8):
    z = Field3D.zeros(grid8)
    for order in (0, 1, 2, 3):
        assert sobolev_norm(z, order) == 0.0


def test_norm_order_outside_range_rejected(grid8):
    with pytest.raises(DataError):
        sobolev_norm(Field3D.zeros(grid8), 4)


def test_norm_orders_are_monotone(grid16):
    f = _random_physical(grid16, 3)
    norms = [sobolev_norm(f, k) for k in (0, 1, 2, 3)]
    assert norms[0] < norms[1] < norms[2] < norms[3]


def test_gradient_seminorm_multiplier(grid16):
    f = Field3D.from_function(grid16, lambda x, y, p: np.sin(2 * np.pi * x))
    grad2 = spectral_weighted_sum(f, grid16.kh2)
    assert abs(grad2 - 4 * np.pi**2 * LP / 2) <= 1e-11


def test_weighted_norm_constant_field():
    # theta_bar == 1 and g == R == 1 make the weight equal p itself;
    # the collocation value is the left-endpoint rectangle sum of p^2
    pr = PhysParams()
    for n in (64, 128):
        g = Grid(8, 8, n, P0, P1)
        one = Field3D.physical(g, np.ones(g.shape))
        got = weighted_norm_w(one, pr) ** 2
        exact_discrete = g.volume * np.mean(g.p**2)
        assert abs(got - exact_discrete) <= 1e-13
    # and it converges to the p^2 integral at first order in the spacing
    errs = []
    for n in (64, 128):
        g = Grid(8, 8, n, P0, P1)
        one = Field3D.physical(g, np.ones(g.shape))
        got = weighted_norm_w(one, pr) ** 2
        errs.append(abs(got - (P1**3 - P0**3) / 3))
    assert 0.35 <= errs[1] / errs[0] <= 0.65


def test_weighted_norm_equivalent_to_l2(params):
    g = _grid(16)
    w = weight_profile(g, params)
    c1, c2 = w.min(), w.max()
    for seed in range(100):
        f = _random_physical(g, seed)
        l2 = sobolev_norm(f, 0)
        wn = weighted_norm_w(f, params)
        assert c1 * l2 * (1 - 1e-12) <= wn <= c2 * l2 * (1 + 1e-12)


def test_weight_profile_rejects_nonpositive_reference():
    pr = PhysParams(theta_bar=Profile("linear", 1.0, -2.0))  # crosses zero
    g = _grid(8)
    with pytest.raises(ParameterError):
        weight_profile(g, pr)


def test_l2_inner_matches_norm(grid16):
    f = _random_physical(grid16, 17)
    assert abs(l2_inner(f, f) - sobolev_norm(f, 0) ** 2) <= 1e-12


def test_l2_inner_requires_physical(grid8):
    f = _random_physical(grid8, 1)
    with pytest.raises(DataError):
        l2_inner(f.as_spectral(), f)


# --- parity -----------------------------------------------------------------

def test_parity_projection_is_idempotent(grid16):
    f = _random_physical(grid16, 31).data
    even = parity_part(f, 1.0)
    again = parity_part(even, 1.0)
    assert np.abs(even - again).max() <= 1e-13


def test_parity_violation_vanishes_after_projection(grid16):
    f = _random_physical(grid16, 32).data
    assert parity_deviation(f, 1.0) > 0.1   # generic data
    assert parity_deviation(parity_part(f, 1.0), 1.0) <= 1e-13
    assert parity_deviation(parity_part(f, -1.0), -1.0) <= 1e-13


def test_even_and_odd_parts_sum_to_input(grid16):
    f = _random_physical(grid16, 34).data
    assert np.abs(parity_part(f, 1.0) + parity_part(f, -1.0) - f).max() <= 1e-13


def test_vertical_derivative_flips_parity(grid16):
    f = Field3D.physical(grid16, parity_part(_random_physical(grid16, 33).data, 1.0))
    d = derivative(f, "p").data
    scale = np.abs(d).max()
    assert parity_deviation(d, -1.0) <= 1e-12 * scale


def test_non_finite_input_rejected(grid8):
    bad = np.ones(grid8.shape)
    bad[0, 0, 0] = np.nan
    with pytest.raises(DataError):
        Field3D.physical(grid8, bad).as_spectral()


# --- property-based coverage ------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_round_trip_property(seed):
    g = _grid(8)
    f = _random_physical(g, seed)
    back = f.as_spectral().as_physical()
    assert np.abs(back.data - f.data).max() <= 1e-12 * max(1.0, np.abs(f.data).max())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000),
       a=st.floats(-3, 3, allow_nan=False),
       b=st.floats(-3, 3, allow_nan=False))
def test_derivative_linearity_property(seed, a, b):
    g = _grid(8)
    f1 = _random_physical(g, seed)
    f2 = _random_physical(g, seed + 1)
    combo = Field3D.physical(g, a * f1.data + b * f2.data)
    lhs = derivative(combo, "x").data
    rhs = a * derivative(f1, "x").data + b * derivative(f2, "x").data
    scale = max(1.0, np.abs(rhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-11 * scale


@pytest.mark.parametrize("shape", [(8, 8, 8), (16, 12, 10), (10, 16, 12)])
def test_horizontal_spectra_synthesise_the_samples(shape, params):
    # arbitrary coefficients, the kp = 0 and Nyquist planes not Hermitian
    g = Grid(*shape, params.p0, params.p1)
    rng = np.random.default_rng(sum(shape))
    C = (rng.standard_normal((3,) + g.spectral_shape)
         + 1j * rng.standard_normal((3,) + g.spectral_shape))
    F = horizontal_spectra(g, C)
    assert F.shape == (3, g.nx, g.ny // 2 + 1, g.np)
    # the rows left out are the conjugates of the mirrored ones
    full = np.empty((3, g.nx, g.ny, g.np), dtype=complex)
    full[:, :, :g.ny // 2 + 1] = F
    ky = np.arange(g.ny // 2 + 1, g.ny)
    full[:, :, ky] = np.conj(F[:, (-np.arange(g.nx)) % g.nx][:, :, g.ny - ky])
    samples = np.fft.ifft2(full, axes=(1, 2), norm="forward")
    f = irfftn_norm(g, C)
    assert np.max(np.abs(samples.imag)) <= 1e-13 * np.max(np.abs(f))
    assert np.max(np.abs(samples.real - f)) <= 1e-13 * np.max(np.abs(f))


@pytest.mark.parametrize("shape", [(16, 16, 16), (16, 24, 20)])
@pytest.mark.parametrize("band", [True, False], ids=["band", "half-rows"])
def test_from_horizontal_spectra_inverts_them_on_the_rows(shape, band, params):
    # the spectra of real fields: on the band rows they are those of every
    # half row, and their spectra along p on the box (rows.targets),
    # scattered block by block, are the kept planes of the rows and their
    # mirrors, nothing else
    g = Grid(*shape, params.p0, params.p1)
    rng = np.random.default_rng(sum(shape))
    C = rfftn_norm(g, rng.standard_normal((2,) + g.shape))
    rows = HorizontalRows(g, band)
    F = horizontal_spectra(g, C, rows)
    assert F.shape == (2,) + rows.shape + (g.np,)
    if band:
        bx, by = g.ball[:2]
        every = horizontal_spectra(g, C)[:, np.r_[0:bx + 1, g.nx - bx:g.nx], :by + 1]
        np.testing.assert_allclose(F, every, rtol=0, atol=1e-15 * np.abs(every).max())
    out = np.zeros_like(C)
    box = rows.targets(fft_p(F))
    assert box.shape == (2,) + tuple(map(len, g.box(band))) + (g.planes(band),)
    for (xs, ys), (xb, yb) in g.blocks(band):
        out[:, xs, ys, :rows.planes] = box[:, xb, yb]
    want = C * (g.dealias_mask if band else 1.0)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-15 * np.abs(C).max())
