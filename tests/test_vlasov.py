import math

import numpy as np
import pytest

from fermigas.errors import MomentumCoverageError
from fermigas.model import SpatialGrid, TFConstants, bump_profile, scaled_interaction
from fermigas.tf_solver import DensityField, RelaxedLocalEnergy, minimize_1d_relaxed, minimize_2d, tf_energy
from fermigas.vlasov import (
    PhaseSpaceDensity,
    bathtub_lift,
    interaction_quadrature,
    tf_vlasov_equality_check,
    vlasov_energy,
)


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
        assert lift.pauli_bound_ok

    def test_2d_cap_normalization(self, harmonic_2d):
        constants = TFConstants.paper_literal(2)
        i_w = constants.c_tf - 4.0 * math.pi
        sol = minimize_2d(harmonic_2d, constants, i_w, SpatialGrid(2, 2.5, 96), tol=1e-7)
        momentum = SpatialGrid(2, 6.0, 64)
        lift = bathtub_lift(sol.rho, constants, momentum)
        # closed-form ball integrals transport the mass exactly
        assert lift.normalization() == pytest.approx(1.0, abs=1e-6)
        # the staircase count over the gridded indicator is the coarser route
        assert lift.gridded_normalization() == pytest.approx(1.0, abs=1e-3)

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


class TestVlasovEnergy:
    def test_zero_measure(self, harmonic_1d):
        grid = SpatialGrid(1, 2.0, 64)
        momentum = SpatialGrid(1, 2.0, 32)
        m = PhaseSpaceDensity(grid, momentum, np.zeros((grid.size, momentum.size)))
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
            gaps.append(singular - interaction_quadrature(rho, w_n))
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
        assert report.warning is None

    def test_1d_harmonic_free(self, harmonic_1d):
        constants = TFConstants.bathtub_consistent(1)
        report = tf_vlasov_equality_check(harmonic_1d, constants, 0.0, SpatialGrid(1, 3.0, 2048), tol=1e-3)
        assert report.passed

    def test_paper_literal_reports_mismatch(self, harmonic_1d):
        constants = TFConstants.paper_literal(1)
        report = tf_vlasov_equality_check(harmonic_1d, constants, 0.0, SpatialGrid(1, 3.5, 2048), tol=1e-3)
        assert report.warning is not None
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
