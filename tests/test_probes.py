"""Seeded inequality suites and the named invariant battery."""

import math

import numpy as np
import pytest

from moistpe.errors import BlowupError, ConfigError, SamplingError
from moistpe.fields import Field3D
from moistpe.grid import Grid
from moistpe.initial import random_smooth
from moistpe.model import ModelVariant, barotropic_project, divergence_residual
from moistpe.norms import sobolev_norm
from moistpe.monitors import coriolis_work as coriolis_work_applied
from moistpe.params import PhysParams
from moistpe import probes
from moistpe.probes import (
    _seeded_table,
    gronwall_probe,
    invariants_run,
    minkowski_suite,
    seeded_scalar,
    seeded_velocity,
    skew_suite,
    trilinear_suite,
)

EXPECTED_CHECKS = {
    "completes",
    "constraint_divergence",
    "omega_top",
    "hydrostatic",
    "scalar_monotonicity",
    "energy_budget",
    "coriolis_work",
    "pressure_gradient_consistency",
    "skew_symmetry",
    "minkowski",
    "trilinear_finite",
}


# --- seeded fields --------------------------------------------------------


def _loop_coefficients(seed, band, decay=2.0):
    """The reference table: one rng.standard_normal(2) per visited mode."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for jx in range(-band, band + 1):
        for jy in range(-band, band + 1):
            for jp in range(band + 1):
                re, im = rng.standard_normal(2)
                scale = (1.0 + jx * jx + jy * jy + jp * jp) ** (-decay)
                if jp == 0:
                    if (jx, jy) == (0, 0):
                        coeffs[(0, 0, 0)] = complex(re * scale, 0.0)
                    elif jx > 0 or (jx == 0 and jy > 0):
                        c = complex(re * scale, im * scale)
                        coeffs[(jx, jy, 0)] = c
                        coeffs[(-jx, -jy, 0)] = c.conjugate()
                else:
                    coeffs[(jx, jy, jp)] = complex(re * scale, im * scale)
    return coeffs


def _loop_scalar(grid, seed, band=5, amplitude=1.0):
    """The reference field: the L2 norm summed in dict order, one store per mode."""
    coeffs = _loop_coefficients(seed, band)
    total = 0.0
    for (jx, jy, jp), c in coeffs.items():
        weight = 1.0 if jp == 0 else 2.0
        total += weight * (c.real * c.real + c.imag * c.imag)
    norm = float(np.sqrt(grid.Lp * total))
    A = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for (jx, jy, jp), c in coeffs.items():
        A[jx % grid.nx, jy % grid.ny, jp] = c * (amplitude / norm)
    return A


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


def _moduli(c):
    return c.real * c.real + c.imag * c.imag


@pytest.mark.parametrize("decay", [2.0, 1.5])
@pytest.mark.parametrize("band", range(1, 8))
def test_seeded_coefficients_match_the_loop_bit_for_bit(band, decay):
    # the table holds the loop's value of every mode, and repeating each
    # entry by its count gives the loop's modes in the loop's order
    for seed in range(50):
        ref = _loop_coefficients(seed, band, decay)
        want = np.zeros((2 * band + 1, 2 * band + 1, band + 1), dtype=np.complex128)
        for (jx, jy, jp), c in ref.items():
            want[jx + band, jy + band, jp] = c
        C, counts = _seeded_table(seed, band, decay)
        assert np.array_equal(_bits(C), _bits(want))
        in_order = np.repeat(_moduli(C).ravel(), counts.ravel())
        assert np.array_equal(in_order, [_moduli(c) for c in ref.values()])


@pytest.mark.parametrize("shape", [(16, 16, 16), (24, 24, 24), (32, 32, 32), (16, 24, 16)])
def test_seeded_scalar_matches_the_loop_bit_for_bit(shape, params):
    g = Grid(*shape, params.p0, params.p1)
    for seed in range(10):
        for amplitude in (1.0, 3.0):
            got = seeded_scalar(g, seed, amplitude=amplitude).data
            assert np.array_equal(_bits(got), _bits(_loop_scalar(g, seed, amplitude=amplitude)))


def test_seeded_velocity_matches_the_loop_bit_for_bit(grid16):
    for seed in (0, 4, 500):
        v1, v2 = seeded_velocity(grid16, seed)
        r1, r2 = barotropic_project(
            Field3D.spectral(grid16, _loop_scalar(grid16, 2 * seed + 1)),
            Field3D.spectral(grid16, _loop_scalar(grid16, 2 * seed + 2)))
        assert np.array_equal(_bits(v1.data), _bits(r1.data))
        assert np.array_equal(_bits(v2.data), _bits(r2.data))


def test_seeded_coefficients_are_deterministic_and_hermitian():
    C, counts = _seeded_table(3, 4, 2.0)
    again, _ = _seeded_table(3, 4, 2.0)
    assert C.shape == counts.shape == (9, 9, 5)
    assert np.array_equal(C, again)
    assert np.array_equal(C[::-1, ::-1, 0], np.conj(C[:, :, 0]))
    assert C[4, 4, 0].imag == 0.0
    with pytest.raises(ConfigError):
        _seeded_table(3, 0, 2.0)


def test_seeded_fields_reject_a_negative_seed(grid16):
    # numpy's generator used to raise a bare ValueError; minkowski_suite
    # draws seed0 + 500, so seed0 = -700 reached it
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        _seeded_table(-1, 4, 2.0)
    with pytest.raises(ConfigError, match="seed"):
        probes.minkowski_suite(grid16, n=1, seed0=-700)


def test_seeded_scalar_is_resolution_independent(grid16, params):
    f16 = seeded_scalar(grid16, 7).as_physical().data
    g32 = Grid(32, 32, 32, params.p0, params.p1)
    f32 = seeded_scalar(g32, 7).as_physical().data
    assert np.max(np.abs(f32[::2, ::2, ::2] - f16)) <= 1e-13


def test_seeded_scalar_normalization(grid16):
    f = seeded_scalar(grid16, 5)
    assert sobolev_norm(f.as_spectral(), 0) == pytest.approx(1.0, rel=1e-12)
    f3 = seeded_scalar(grid16, 5, amplitude=3.0)
    assert sobolev_norm(f3.as_spectral(), 0) == pytest.approx(3.0, rel=1e-12)


def test_seeded_scalar_band_guard(grid16):
    with pytest.raises(ConfigError):
        seeded_scalar(grid16, 1, band=6)
    with pytest.raises(ConfigError):
        seeded_scalar(grid16, 1, band=0)


def test_seeded_velocity_satisfies_constraint(grid16):
    v1, v2 = seeded_velocity(grid16, 4)
    assert divergence_residual(v1.as_spectral(), v2.as_spectral()) <= 1e-14


# --- inequality suites ----------------------------------------------------


def test_trilinear_suite_ratios_controlled(grid16):
    samples = trilinear_suite(grid16, n=10)
    assert len(samples) == 10
    for s in samples:
        assert math.isfinite(s.ratio)
        assert s.bound > 0.0
        assert s.ratio <= 1.0


def test_trilinear_suite_deterministic(grid16):
    a = trilinear_suite(grid16, n=5)
    b = trilinear_suite(grid16, n=5)
    assert [(s.form, s.bound) for s in a] == [(s.form, s.bound) for s in b]


def test_minkowski_suite_holds(grid16):
    samples = minkowski_suite(grid16, n=20)
    assert len(samples) == 20
    assert all(not m.violated for m in samples)
    assert min(m.slack for m in samples) > 0.0
    root = math.sqrt(grid16.Lp)
    for m in samples:
        assert m.lhs <= root * m.rhs


def test_skew_suite_is_machine_small(grid16):
    samples = skew_suite(grid16, n=10)
    assert len(samples) == 10
    for s in samples:
        assert s.scale > 0.0
        assert s.work <= 1e-12 * s.scale


# --- rotation work as applied ---------------------------------------------


def test_coriolis_work_faithful_vs_buggy(grid16, params):
    st = random_smooth(grid16, 11, amplitude=2.0)
    l2v2 = sobolev_norm(st.v1, 0) ** 2 + sobolev_norm(st.v2, 0) ** 2
    assert abs(coriolis_work_applied(st, params)) <= 1e-13 * l2v2
    bugged = abs(coriolis_work_applied(st, params, ModelVariant(coriolis_bug=True)))
    assert bugged >= 1e-3 * l2v2
    assert coriolis_work_applied(st, params, ModelVariant(coriolis=False)) == 0.0


# --- invariant battery ----------------------------------------------------


def test_invariants_run_faithful_passes():
    checks = invariants_run()
    assert {c.name for c in checks} == EXPECTED_CHECKS
    for c in checks:
        assert c.ok, (c.name, c.value, c.bound)


def test_invariants_run_faithful_passes_on_a_side_divisible_by_3():
    # a radius of n//3 kept aliased products at 24^3: energy_budget read 2.0e-5
    for c in invariants_run(n=24):
        assert c.ok, (c.name, c.value, c.bound)


def test_invariants_run_reports_a_blowup_as_its_one_failed_check():
    check, = invariants_run(amplitude=1e5)
    assert check.name == "completes" and not check.ok
    assert check.detail.startswith("blowup at t = ")


def test_invariants_run_too_short_for_the_budget_is_a_sampling_error():
    # 3 steps give 4 samples, one short of a budget past the startup
    with pytest.raises(SamplingError, match="at least 5"):
        invariants_run(n=16, dt=1e-4, t_end=3e-4)


def test_invariants_run_checks_its_grid_before_the_run(monkeypatch):
    # the probes' band 5 needs a ball of radius 5: at 8^3 the run used to
    # finish before skew_suite raised
    def must_not_run(*args, **kwargs):
        raise AssertionError("the run started before the grid was checked")

    monkeypatch.setattr(probes, "run", must_not_run)
    with pytest.raises(ConfigError, match="band 5 does not fit"):
        invariants_run(n=8, dt=1e-4, t_end=5e-4)


# --- differential-inequality probe ----------------------------------------


def test_gronwall_probe_fitted_constants_are_stable(grid16, params):
    coarse = gronwall_probe(grid16, params, dt=1e-3)
    fine = gronwall_probe(grid16, params, dt=5e-4)
    assert set(coarse["fitted"]) == {"vp", "thetap", "lapv", "laptheta"}
    for name, value in coarse["fitted"].items():
        refined = fine["fitted"][name]
        assert math.isfinite(value) and value != 0.0
        # dissipation dominates this quiet run, so the fitted constants sit
        # below zero; what matters is that refining dt barely moves them
        assert abs(refined - value) <= 0.10 * abs(value), name
    series = coarse["series"]
    n_rows = {len(data["lhs"]) for data in series.values()}
    assert len(n_rows) == 1


def test_gronwall_probe_fits_no_constant_to_a_diverged_run(grid16, params):
    # this run diverges at step 5; its first records must not become
    # fitted constants
    with pytest.raises(BlowupError) as exc:
        gronwall_probe(grid16, params, amplitude=1e5)
    assert "(step 5)" in exc.value.detail
