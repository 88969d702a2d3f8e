import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigas.errors import CapExceededError, MomentumCoverageError, ValidationError
from fermigas.model import (
    SpatialGrid,
    TFConstants,
    box_profile,
    bump_profile,
    hat_profile,
    plateau_profile,
    scaled_interaction,
)
from fermigas.tf_solver import DensityField, RelaxedLocalEnergy, minimize_1d_relaxed, minimize_2d, tf_energy
from fermigas.vlasov import (
    LIFT_TABLE_CAP,
    PhaseSpaceDensity,
    bathtub_lift,
    tf_vlasov_equality_check,
    vlasov_energy,
)


def interaction_quadrature(rho, w_n):
    """The offset loops that ``density_pair_sum`` replaced, one per dimension, kept as its reference."""
    grid = rho.grid
    h = grid.spacing
    reach = int(math.floor(w_n.support_radius / h)) + 1
    if grid.d == 1:
        vals = rho.values
        total = 0.0
        for m in range(-reach, reach + 1):
            off = m * h
            if abs(off) > w_n.support_radius:
                continue
            w = float(w_n.evaluate(np.array([[off]]))[0])
            if w == 0.0:
                continue
            if m >= 0:
                overlap = vals[: grid.size - m] @ vals[m:]
            else:
                overlap = vals[-m:] @ vals[: grid.size + m]
            total += w * overlap
        return total * h * h
    vals = rho.values.reshape(grid.shape)
    total = 0.0
    for mx in range(-reach, reach + 1):
        for my in range(-reach, reach + 1):
            off = np.array([[mx * h, my * h]])
            if np.linalg.norm(off) > w_n.support_radius:
                continue
            w = float(w_n.evaluate(off)[0])
            if w == 0.0:
                continue
            sx = slice(max(0, mx), grid.shape[0] + min(0, mx))
            sx0 = slice(max(0, -mx), grid.shape[0] + min(0, -mx))
            sy = slice(max(0, my), grid.shape[1] + min(0, my))
            sy0 = slice(max(0, -my), grid.shape[1] + min(0, -my))
            total += w * float(np.sum(vals[sx0, sy0] * vals[sx, sy]))
    return total * grid.cell_volume**2


PAIR_SUM_KERNELS = {
    (1, "box"): lambda r, c: box_profile(1, beta=0.2, radius=r, height=c),
    (1, "bump"): lambda r, c: bump_profile(1, beta=0.2, radius=r, height=c),
    (1, "hat"): lambda r, c: hat_profile(beta=0.2, radius=r, height=c),
    (1, "plateau"): lambda r, c: plateau_profile(beta=0.2, radius=r, edge_width=1e-2, height=c),
    (2, "box"): lambda r, c: box_profile(2, beta=0.2, radius=r, height=c),
    (2, "bump"): lambda r, c: bump_profile(2, beta=0.2, radius=r, height=c),
}


class TestDensityPairSum:
    # kernel radii below the box half-width 1.5, where the offset loops are defined
    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from(sorted(PAIR_SUM_KERNELS)),
        points=st.integers(2, 256),
        n=st.sampled_from([1, 8, 64]),
        radius=st.floats(0.05, 1.4),
        height=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_offset_loops(self, kernel, points, n, radius, height, seed):
        d = kernel[0]
        grid = SpatialGrid(d, 1.5, points if d == 1 else 2 + points % 63)
        w_n = scaled_interaction(PAIR_SUM_KERNELS[kernel](radius, height), n)
        rho = DensityField(grid, np.random.default_rng(seed).random(grid.size))
        ref = interaction_quadrature(rho, w_n)
        got = w_n.density_pair_sum(grid, rho.values) * grid.cell_volume**2
        assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("d", [1, 2])
    def test_kernel_wider_than_the_box(self, d, rng):
        # w_N = 1 on every pair of sites, so the sum is (sum a)^2; the offset
        # loops indexed past the grid here
        grid = SpatialGrid(d, 1.0, 64 if d == 1 else 16)
        w_n = scaled_interaction(box_profile(d, beta=0.2, radius=5.0), 1)
        a = rng.random(grid.size)
        assert w_n.density_pair_sum(grid, a) == pytest.approx(a.sum() ** 2, rel=1e-12)


def lag_table(w_n, grid):
    """w_N(d h) for the lags d = 0..M-1: the 1D lag table that the stencil's lags replaced, kept as their reference."""
    lags = np.arange(grid.points_per_axis) * grid.spacing
    return np.asarray(w_n.evaluate(lags[:, None]), dtype=float)


def dense_kernel(w_n, grid):
    """W[x, y] = w_N(x - y) over every pair of sites, from the integer offsets of the pair."""
    idx = np.stack(np.meshgrid(*[np.arange(grid.points_per_axis)] * grid.d, indexing="ij"), axis=-1).reshape(-1, grid.d)
    offsets = (idx[:, None, :] - idx[None, :, :]).reshape(-1, grid.d) * grid.spacing
    return np.asarray(w_n.evaluate(offsets), dtype=float).reshape(grid.size, grid.size)


class TestStencil:
    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from(sorted(k for k in PAIR_SUM_KERNELS if k[0] == 1)),
        points=st.integers(2, 256),
        n=st.sampled_from([1, 8, 64]),
        radius=st.floats(0.05, 4.0),
        height=st.floats(0.1, 10.0),
    )
    def test_lags_match_the_lag_table(self, kernel, points, n, radius, height):
        grid = SpatialGrid(1, 1.5, points)
        w_n = scaled_interaction(PAIR_SUM_KERNELS[kernel](radius, height), n)
        stencil = w_n.stencil(grid)
        reach = stencil.size // 2
        assert reach == min(math.floor(w_n.support_radius / grid.spacing) + 1, points - 1)
        table = lag_table(w_n, grid)
        assert np.array_equal(stencil[reach:], table[: reach + 1])
        assert np.array_equal(stencil[:reach], stencil[reach + 1 :][::-1])
        assert not np.any(table[reach + 1 :])

    def test_box_whose_last_lag_in_reach_is_nonzero(self):
        # R_N / h rounds to just below 3, so reach = 3, and 3h > R_N in floats while the
        # box, testing |3h| N^beta <= 1, still covers lag 3: a lag past the reach must read 0
        w_n = scaled_interaction(box_profile(1, beta=0.2, radius=1.0), 3)
        grid = SpatialGrid(1, 2.1406441646939487, 16)  # h a few ulps above R_N / 3
        assert 3 * grid.spacing > w_n.support_radius
        stencil = w_n.stencil(grid)
        assert stencil.size == 7 and stencil[-1] == w_n.amplitude
        table = lag_table(w_n, grid)
        assert np.array_equal(stencil[3:], table[:4])
        assert not np.any(table[4:])

    @pytest.mark.parametrize("d", [1, 2])
    def test_shape_and_support(self, d):
        grid = SpatialGrid(d, 1.5, 40 if d == 1 else 24)
        w_n = scaled_interaction(box_profile(d, beta=0.2, radius=0.4), 2)
        stencil = w_n.stencil(grid)
        reach = math.floor(w_n.support_radius / grid.spacing) + 1
        assert stencil.shape == (2 * reach + 1,) * d
        axis = np.arange(-reach, reach + 1) * grid.spacing
        radii = np.sqrt(sum(np.meshgrid(*[axis**2] * d, indexing="ij")))
        assert np.array_equal(stencil > 0, radii <= w_n.support_radius)


class TestConvolve:
    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from(sorted(PAIR_SUM_KERNELS)),
        points=st.integers(2, 64),
        n=st.sampled_from([1, 8, 64]),
        radius=st.floats(0.05, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_kernel(self, kernel, points, n, radius, seed):
        # radii up to 4 exceed the box half-width 1.5, where the reach is capped at M - 1
        d = kernel[0]
        grid = SpatialGrid(d, 1.5, points if d == 1 else 2 + points % 19)
        w_n = scaled_interaction(PAIR_SUM_KERNELS[kernel](radius, 1.0), n)
        a = np.random.default_rng(seed).standard_normal(grid.size)
        want = dense_kernel(w_n, grid) @ a
        got = w_n.convolve(grid, a)
        assert got.shape == (grid.size,)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), np.finfo(float).tiny)

    @pytest.mark.parametrize("d", [1, 2])
    def test_two_points_and_a_kernel_wider_than_the_box(self, d, rng):
        grid = SpatialGrid(d, 1.0, 2)
        w_n = scaled_interaction(box_profile(d, beta=0.2, radius=5.0), 1)
        assert w_n.stencil(grid).shape == (3,) * d
        a = rng.random(grid.size)
        assert np.allclose(w_n.convolve(grid, a), a.sum(), rtol=1e-12, atol=0.0)


class TestBathtubLift:
    def test_zero_density(self, harmonic_1d):
        grid = SpatialGrid(1, 2.0, 64)
        lift = bathtub_lift(
            DensityField(grid, np.zeros(grid.size)),
            TFConstants.bathtub_consistent(1),
            SpatialGrid(1, 1.0, 32),
        )
        assert not np.any(lift.values)
        assert lift.normalization() == 0.0

    def test_constant_density_1d(self):
        # rho = rho0 on a unit box: m = 1 on |p| <= pi rho0, mass transported exactly
        rho0 = 0.8
        grid = SpatialGrid(1, 0.5, 128)
        constants = TFConstants.bathtub_consistent(1)
        momentum = SpatialGrid(1, 4.0, 256)
        lift = bathtub_lift(DensityField(grid, np.full(grid.size, rho0)), constants, momentum)
        p = momentum.points()[:, 0]
        expected = (np.abs(p) <= math.pi * rho0).astype(float)
        assert np.array_equal(lift.values[0], expected)
        assert lift.spatial_density() == pytest.approx(np.full(grid.size, rho0), rel=1e-14)
        assert lift.normalization() == pytest.approx(rho0 * 1.0, rel=1e-12)

    def test_values_are_binary(self, harmonic_1d):
        constants = TFConstants.bathtub_consistent(1)
        grid = SpatialGrid(1, 3.0, 512)
        sol = minimize_1d_relaxed(harmonic_1d, RelaxedLocalEnergy(constants.c_tf, 0.0), grid, tol=1e-6)
        lift = bathtub_lift(sol.rho, constants, SpatialGrid(1, 3.0, 128))
        assert set(np.unique(lift.values)) <= {0.0, 1.0}

    def test_2d_cap_normalization(self, harmonic_2d):
        constants = TFConstants.paper_literal(2)
        i_w = constants.c_tf - 4.0 * math.pi
        sol = minimize_2d(harmonic_2d, constants, i_w, SpatialGrid(2, 2.5, 96), tol=1e-7)
        momentum = SpatialGrid(2, 6.0, 64)
        lift = bathtub_lift(sol.rho, constants, momentum)
        # closed-form ball integrals transport the mass exactly
        assert lift.normalization() == pytest.approx(1.0, abs=1e-6)
        # the staircase count over the gridded indicator is the coarser route
        staircase = lift.values.sum(axis=1) * momentum.cell_volume / (2.0 * math.pi) ** 2
        assert lift.grid.integrate(staircase) == pytest.approx(1.0, abs=1e-3)

    def test_momentum_coverage_error(self, harmonic_1d):
        grid = SpatialGrid(1, 1.0, 64)
        rho = DensityField(grid, np.full(grid.size, 1.0))
        with pytest.raises(MomentumCoverageError) as err:
            bathtub_lift(rho, TFConstants.bathtub_consistent(1), SpatialGrid(1, 2.0, 32))
        assert err.value.required_half_width == pytest.approx(1.1 * math.pi, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_normalization_transport_random(self, d, rng):
        grid = SpatialGrid(d, 2.0, 256 if d == 1 else 48)
        pts = grid.points()
        raw = np.exp(-np.sum(pts**2, axis=1)) * (1.0 + 0.3 * rng.random(grid.size))
        rho = DensityField(grid, raw / grid.integrate(raw))
        constants = TFConstants.bathtub_consistent(d)
        momentum = SpatialGrid(d, 4.0, 32)
        lift = bathtub_lift(rho, constants, momentum)
        assert lift.normalization() == pytest.approx(rho.mass, rel=1e-10)


def _eager_table(momentum, radius):
    # the lift table as bathtub_lift built it before it became lazy
    p_norm = np.linalg.norm(momentum.points(), axis=1)
    return (p_norm[None, :] <= radius[:, None]).astype(float)


def _traced(fn):
    """fn() and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def lift_above_cap():
    # 512^2 x 64^2 cells: an 8 GiB table, far above the cap
    grid = SpatialGrid(2, 2.0, 512)
    raw = np.exp(-np.sum(grid.points() ** 2, axis=1))
    lift = bathtub_lift(
        DensityField(grid, raw / grid.integrate(raw)), TFConstants.bathtub_consistent(2), SpatialGrid(2, 4.0, 64)
    )
    assert grid.size * lift.momentum.size > LIFT_TABLE_CAP
    return lift


class TestLazyLiftTable:
    @pytest.mark.parametrize("d", [1, 2])
    def test_values_equal_eager_formula(self, d, rng):
        grid = SpatialGrid(d, 2.0, 256 if d == 1 else 24)
        momentum = SpatialGrid(d, 4.0, 32 if d == 1 else 16)
        raw = np.exp(-np.sum(grid.points() ** 2, axis=1)) * (1.0 + 0.3 * rng.random(grid.size))
        rho = DensityField(grid, raw / grid.integrate(raw))
        lift = bathtub_lift(rho, TFConstants.bathtub_consistent(d), momentum)
        assert np.array_equal(lift.values, _eager_table(momentum, lift.fermi_radius))
        assert lift.values is lift.values  # built once, then cached
        assert not lift.values.flags.writeable

    @pytest.mark.parametrize("d", [1, 2])
    def test_tied_fermi_radius(self, d, rng):
        # radii equal to grid momentum norms: the points on the sphere are occupied
        grid = SpatialGrid(d, 1.0, 32 if d == 1 else 6)
        momentum = SpatialGrid(d, 3.0, 16 if d == 1 else 8)
        p_norm = np.linalg.norm(momentum.points(), axis=1)
        radius = rng.choice(p_norm, grid.size)
        lift = PhaseSpaceDensity(grid, momentum, fermi_radius=radius)
        table = lift.values
        assert np.array_equal(table, _eager_table(momentum, radius))
        assert np.all(table[p_norm[None, :] == radius[:, None]] == 1.0)

    def test_equality_check_2d_160_memory(self, harmonic_2d):
        constants = TFConstants.bathtub_consistent(2)
        report, peak = _traced(
            lambda: tf_vlasov_equality_check(harmonic_2d, constants, math.pi, SpatialGrid(2, 3.0, 160), tol=1e-3)
        )
        assert report.passed
        assert peak < 16 << 20  # the 160^2 x 64^2 table alone is 800 MiB

    def test_equality_check_2d_512(self, harmonic_2d):
        constants = TFConstants.bathtub_consistent(2)
        report = tf_vlasov_equality_check(harmonic_2d, constants, math.pi, SpatialGrid(2, 3.0, 512), tol=1e-3)
        assert report.passed

    def test_table_cap_raises_before_allocating(self, lift_above_cap):
        def read():
            with pytest.raises(CapExceededError, match="cap"):
                lift_above_cap.values

        assert _traced(read)[1] < 1 << 20

    def test_closed_forms_leave_table_unbuilt(self, lift_above_cap):
        # building the table would raise CapExceededError
        assert lift_above_cap.normalization() == pytest.approx(1.0, rel=1e-12)
        assert np.all(lift_above_cap.kinetic_density() >= 0.0)
        assert lift_above_cap._values is None

    def test_rejects_invalid_radius(self):
        grid = SpatialGrid(1, 1.0, 8)
        for radius in (np.ones(7), np.full(8, -1e-12), np.full(8, np.nan), np.full(8, np.inf)):
            with pytest.raises(ValidationError, match="Fermi radius"):
                PhaseSpaceDensity(grid, grid, radius)
        with pytest.raises(ValidationError, match="dimension"):
            PhaseSpaceDensity(grid, SpatialGrid(2, 1.0, 4), np.ones(8))


class TestVlasovEnergy:
    def test_zero_measure(self, harmonic_1d):
        grid = SpatialGrid(1, 2.0, 64)
        momentum = SpatialGrid(1, 2.0, 32)
        m = PhaseSpaceDensity(grid, momentum, np.zeros(grid.size))
        report = vlasov_energy(m, harmonic_1d, i_w=1.0)
        assert report.kinetic_term == report.potential_term == report.interaction_term == 0.0

    def test_lift_kinetic_matches_density_functional(self, harmonic_1d):
        # the identity behind E^TF = inf E^V: lift kinetic = c_tf * int rho^(1+2/d)
        constants = TFConstants.bathtub_consistent(1)
        grid = SpatialGrid(1, 3.0, 1024)
        sol = minimize_1d_relaxed(harmonic_1d, RelaxedLocalEnergy(constants.c_tf, 0.0), grid, tol=1e-7)
        lift = bathtub_lift(sol.rho, constants, SpatialGrid(1, 4.0, 64))
        report = vlasov_energy(lift, harmonic_1d, i_w=0.0)
        tf = tf_energy(sol.rho, harmonic_1d, constants, 0.0)
        assert report.kinetic_term == pytest.approx(tf.kinetic_term, rel=1e-10)
        assert report.potential_term == pytest.approx(tf.potential_term, rel=1e-12)

    def test_scaled_interaction_converges_to_singular(self, harmonic_1d):
        # w_N versus the delta limit on a fixed smooth density: the gap is
        # positive, decreasing, and beats the N^-beta envelope
        beta = 0.25
        profile = bump_profile(1, beta=beta, radius=1.0, height=1.0)
        grid = SpatialGrid(1, 3.0, 2048)
        pts = grid.points()
        sigma = 0.6
        raw = np.exp(-np.sum(pts**2, axis=1) / (2 * sigma**2))
        rho = DensityField(grid, raw / grid.integrate(raw))
        # Gaussian oracle: int rho^2 = 1 / (2 sigma sqrt(pi)) up to box truncation
        assert rho.power_integral(2.0) == pytest.approx(1.0 / (2 * sigma * math.sqrt(math.pi)), rel=1e-5)
        singular = profile.i_w * rho.power_integral(2.0)
        gaps = []
        for n in (8, 32, 128):
            w_n = scaled_interaction(profile, n)
            gaps.append(singular - w_n.density_pair_sum(grid, rho.values) * grid.cell_volume**2)
        assert all(g > 0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]
        rate = np.polyfit(np.log([8, 32, 128]), np.log(gaps), 1)[0]
        assert rate <= -beta  # actual decay is ~N^(-2 beta)

    def test_young_dominance(self, harmonic_1d, rng):
        profile = bump_profile(1, beta=0.2, radius=1.0, height=1.0)
        grid = SpatialGrid(1, 3.0, 1024)
        constants = TFConstants.bathtub_consistent(1)
        momentum = SpatialGrid(1, 5.0, 48)
        for n in (4, 16, 64):
            raw = np.exp(-np.sum(grid.points() ** 2, axis=1)) * (1 + 0.5 * rng.random(grid.size))
            rho = DensityField(grid, raw / grid.integrate(raw))
            lift = bathtub_lift(rho, constants, momentum)
            scaled = vlasov_energy(lift, harmonic_1d, profile.i_w, w_n=scaled_interaction(profile, n))
            singular = vlasov_energy(lift, harmonic_1d, profile.i_w)
            # interaction terms are signed; dominance means |scaled| <= |singular|
            assert -scaled.interaction_term <= -singular.interaction_term + 1e-8


class TestEqualityCheck:
    def test_2d_harmonic(self, harmonic_2d):
        constants = TFConstants.bathtub_consistent(2)
        report = tf_vlasov_equality_check(
            harmonic_2d, constants, math.pi, SpatialGrid(2, 3.0, 96), tol=1e-3
        )
        assert report.passed

    def test_1d_harmonic_free(self, harmonic_1d):
        constants = TFConstants.bathtub_consistent(1)
        report = tf_vlasov_equality_check(harmonic_1d, constants, 0.0, SpatialGrid(1, 3.0, 2048), tol=1e-3)
        assert report.passed

    def test_paper_literal_reports_mismatch(self, harmonic_1d):
        constants = TFConstants.paper_literal(1)
        report = tf_vlasov_equality_check(harmonic_1d, constants, 0.0, SpatialGrid(1, 3.5, 2048), tol=1e-3)
        sol = report.tf_solution
        lift = bathtub_lift(sol.rho, constants, SpatialGrid(1, 8.0, 64))
        kinetic_lift = vlasov_energy(lift, harmonic_1d, 0.0).kinetic_term
        ratio = sol.energy.kinetic_term / kinetic_lift
        assert ratio == pytest.approx(3.0, rel=1e-6)  # reported, not asserted as equality


class TestMassDeficitBound:
    def test_scaled_density_lower_bound(self, harmonic_1d):
        # E[(1-a) rho] >= (1-4a) E - (i_w^2/c_tf) a for the computed minimizer
        constants = TFConstants.bathtub_consistent(1)
        i_w = 2.0
        rel = RelaxedLocalEnergy(constants.c_tf, i_w)
        grid = SpatialGrid(1, 3.0, 4096)
        sol = minimize_1d_relaxed(harmonic_1d, rel, grid, tol=1e-6)
        e_min = sol.energy.total
        c_fit = i_w**2 / constants.c_tf
        for alpha in (0.0, 0.1, 0.25):
            scaled = DensityField(grid, (1.0 - alpha) * sol.rho.values)
            e_scaled = tf_energy(scaled, harmonic_1d, constants, i_w).total
            assert e_scaled >= (1.0 - 4.0 * alpha) * e_min - c_fit * alpha - 1e-9
