import math
from unittest.mock import patch

import numpy as np
import pytest
from scipy.integrate import quad

from fermigas import model

from fermigas.errors import ConfigError, ValidationError
from fermigas.model import (
    ConstantsSource,
    Dimension,
    SpatialGrid,
    TFConstants,
    TrapPotential,
    audit_constants,
    box_profile,
    bump_profile,
    config_from_dict,
    double_well_potential,
    harmonic_potential,
    hat_profile,
    quartic_potential,
    scaled_interaction,
)


class TestDimension:
    @pytest.mark.parametrize("d", [1, 2])
    def test_accepts_supported(self, d):
        assert Dimension(d).d == d

    @pytest.mark.parametrize("d", [0, 3, 4, -1])
    def test_rejects_unsupported(self, d):
        with pytest.raises(ValidationError):
            Dimension(d)


class TestConstants:
    def test_paper_literal_values(self):
        assert TFConstants.paper_literal(1).c_tf == pytest.approx(math.pi**2, abs=0)
        assert TFConstants.paper_literal(2).c_tf == pytest.approx(8 * math.pi, abs=0)
        assert TFConstants.paper_literal(1).c_d == math.pi
        assert TFConstants.paper_literal(2).c_d == pytest.approx(math.sqrt(4 * math.pi), abs=0)

    def test_bathtub_identity_exact(self):
        # c_tf = d c_d^2 / (d + 2), symbolically tied to the Fermi radius
        for d in (1, 2):
            c = TFConstants.bathtub_consistent(d)
            assert c.c_tf == c.d * c.c_d**2 / (c.d + 2)
        assert TFConstants.bathtub_consistent(1).c_tf == pytest.approx(math.pi**2 / 3, rel=1e-15)
        assert TFConstants.bathtub_consistent(2).c_tf == pytest.approx(2 * math.pi, rel=1e-15)

    def test_from_source(self):
        assert TFConstants.from_source(1, "paper_literal").source is ConstantsSource.PAPER_LITERAL
        assert (
            TFConstants.from_source(2, ConstantsSource.BATHTUB_CONSISTENT).source
            is ConstantsSource.BATHTUB_CONSISTENT
        )


class TestAuditConstants:
    # Oracle: per-point momentum-ball integrals. In 1D the lift's kinetic
    # energy density is (2 pi)^-1 * (2/3)(pi rho)^3 = (pi^2/3) rho^3, in 2D
    # (2 pi)^-2 * (pi/2)(4 pi rho)^2 = 2 pi rho^2. The nominal coefficients
    # pi^2 and 8 pi therefore overshoot the lift by 3 and 4.
    def test_d1_ratios(self):
        report = audit_constants(1)
        conv = report["conventions"]
        assert conv["paper_literal"]["ratio_to_lift"] == pytest.approx(3.0, rel=1e-10)
        assert conv["bathtub_consistent"]["ratio_to_lift"] == pytest.approx(1.0, rel=1e-10)
        assert conv["bathtub_consistent"]["c_tf"] == pytest.approx(math.pi**2 / 3, rel=1e-14)

    def test_d2_ratios(self):
        report = audit_constants(2)
        conv = report["conventions"]
        assert conv["paper_literal"]["ratio_to_lift"] == pytest.approx(4.0, rel=1e-10)
        assert conv["bathtub_consistent"]["c_tf"] == pytest.approx(2 * math.pi, rel=1e-14)


class TestSpatialGrid:
    def test_spacing_and_count(self):
        grid = SpatialGrid(2, 2.0, 64)
        assert grid.spacing == pytest.approx(2 * 2.0 / 64, abs=0)
        assert grid.points().shape == (64 * 64, 2)
        assert grid.size == 64**2

    def test_integrate_constant(self):
        grid = SpatialGrid(1, 1.5, 300)
        assert grid.integrate(np.ones(grid.size)) == pytest.approx(3.0, rel=1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            SpatialGrid(1, 1.0, 1)
        with pytest.raises(ValidationError):
            SpatialGrid(1, -1.0, 16)


def meshgrid_points(grid):
    """The (M^d, d) point table as two meshgrid copies and a column_stack."""
    ax = grid.axis()
    if grid.d == 1:
        return ax[:, None]
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


class TestSample:
    EVALUATORS = {
        "harmonic": lambda d: harmonic_potential(d, 1.7).evaluate,
        "double_well": lambda d: double_well_potential(d, 0.8).evaluate,
        "bump": lambda d: bump_profile(d, 0.2, radius=1.3).evaluate,
        "box": lambda d: box_profile(d, 0.2, radius=0.9).evaluate,
    }

    # several blocks with a short last one (100_003 and 300 rows are not
    # multiples of SAMPLE_BLOCK_POINTS // M^(d-1)), and a single block
    @pytest.mark.parametrize("d, m", [(1, 100_003), (1, 64), (2, 300), (2, 17)])
    @pytest.mark.parametrize("family", sorted(EVALUATORS))
    def test_bit_equal_to_evaluating_all_points(self, d, m, family):
        grid = SpatialGrid(d, 2.5, m)
        fn = self.EVALUATORS[family](d)
        assert np.array_equal(grid.sample(fn), np.asarray(fn(grid.points()), dtype=float))

    @pytest.mark.parametrize("block", [1, 5, 34, 40])
    def test_small_blocks_split_rows(self, block):
        for grid in (SpatialGrid(1, 2.0, 23), SpatialGrid(2, 2.0, 11)):
            fn = harmonic_potential(grid.d).evaluate
            with patch.object(model, "SAMPLE_BLOCK_POINTS", block):
                sampled = grid.sample(fn)
            assert np.array_equal(sampled, fn(grid.points()))

    @pytest.mark.parametrize("d, m", [(1, 50), (2, 33), (2, 256)])
    def test_points_unchanged(self, d, m):
        grid = SpatialGrid(d, 2.5, m)
        pts, ref = grid.points(), meshgrid_points(grid)
        assert pts.shape == ref.shape == (grid.size, d)
        assert np.array_equal(pts, ref)

    def test_non_pointwise_evaluator_rejected(self):
        with pytest.raises(ValidationError, match="pointwise"):
            SpatialGrid(2, 2.0, 8).sample(lambda pts: np.zeros(3))

    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    def test_blocks_tile_the_grid_in_whole_rows(self, block):
        for grid in (SpatialGrid(1, 2.0, 23), SpatialGrid(2, 2.0, 11)):
            fn = harmonic_potential(grid.d).evaluate
            row_size = grid.size // grid.points_per_axis
            with patch.object(model, "SAMPLE_BLOCK_POINTS", block):
                blocks = list(grid.blocks(fn))
            assert [b.start for b, _ in blocks] == [0] + [b.stop for b, _ in blocks[:-1]]
            assert blocks[-1][0].stop == grid.size
            assert all(b.start % row_size == 0 for b, _ in blocks)
            assert np.array_equal(np.concatenate([v for _, v in blocks]), fn(grid.points()))


class TestTrapPotential:
    @pytest.mark.parametrize("d", [1, 2])
    def test_families_bit_equal_to_summed_squares(self, d, rng):
        # the evaluators square and add the columns in the order np.sum(pts**2, axis=1) does
        pts = 3.0 * rng.standard_normal((5000, d))
        r2 = np.sum(pts**2, axis=1)
        a, b2 = 1.7, 0.8**2
        assert np.array_equal(harmonic_potential(d, a).evaluate(pts), a * r2)
        assert np.array_equal(quartic_potential(d, a).evaluate(pts), a * r2**2)
        assert np.array_equal(quartic_potential(d, a).gradient(pts), 4.0 * a * r2[:, None] * pts)
        assert np.array_equal(double_well_potential(d, 0.8, a).evaluate(pts), a * (r2 - b2) ** 2)
        assert np.array_equal(double_well_potential(d, 0.8, a).gradient(pts), 4.0 * a * (r2 - b2)[:, None] * pts)

    def test_families_construct(self):
        for factory in (harmonic_potential, quartic_potential, double_well_potential):
            for d in (1, 2):
                pot = factory(d)
                pts = SpatialGrid(d, 2.0, 8).points()
                assert np.all(pot.evaluate(pts) >= 0)

    def test_rejects_negative_potential(self):
        with pytest.raises(ValidationError, match="negative"):
            TrapPotential(
                1,
                lambda pts: pts[:, 0],  # negative for x < 0
                lambda pts: np.ones_like(pts),
                1.0,
                0.0,
                0.0,
                1.0,
            )

    def test_rejects_gradient_bound_violation(self):
        # claims s = 2 but grows like x^4; |grad V| = 4|x|^3 beats C(|x| + 1)
        with pytest.raises(ValidationError, match="gradient"):
            TrapPotential(
                1,
                lambda pts: pts[:, 0] ** 4,
                lambda pts: 4.0 * pts[:, 0][:, None] ** 3,
                2.0,
                0.0,
                0.0,
                4.0,
            )

    def test_rejects_growth_bound_violation(self):
        # bounded potential cannot dominate C|x|^2 - c
        with pytest.raises(ValidationError, match="growth"):
            TrapPotential(
                1,
                lambda pts: np.minimum(pts[:, 0] ** 2, 1.0),
                lambda pts: np.where(np.abs(pts[:, 0:1]) < 1.0, 2.0 * pts[:, 0:1], 0.0),
                2.0,
                1.0,
                0.0,
                2.0,
            )


class TestInteractionProfile:
    def test_beta_domain(self):
        with pytest.raises(ValidationError, match="beta"):
            box_profile(1, beta=0.0)
        with pytest.raises(ValidationError, match="beta"):
            box_profile(1, beta=1.0)
        with pytest.raises(ValidationError, match="beta"):
            box_profile(2, beta=0.5)  # 1/d = 0.5 excluded

    # the floats of the meshgrid midpoint rule (8192 points in 1D, 1024^2 in 2D) that
    # SpatialGrid.sample and integrate replaced: the 1D value is still that rule's, bit for
    # bit, and the 2D radial Gauss-Legendre rule agrees with it to 1e-13
    @pytest.mark.parametrize(
        "d, radius, i_w",
        [(1, 1.0, 1.206900322437876), (1, 0.7, 0.8448302257065133),
         (2, 1.0, 1.2681121611275958), (2, 0.7, 0.621374958952522),
         (2, 0.1, 0.01268112161127596), (2, 2.0, 5.072448644510383)],
    )
    def test_bump_integral_pinned(self, d, radius, i_w):
        assert bump_profile(d, beta=0.1, radius=radius).i_w == (i_w if d == 1 else pytest.approx(i_w, rel=1e-13))

    def test_2d_subcriticality(self):
        constants = TFConstants.paper_literal(2)  # c_tf = 8 pi ~ 25.13
        profile = box_profile(2, beta=0.2, radius=3.0, height=1.0)  # I_w = 9 pi
        with pytest.raises(ValidationError, match="c_tf"):
            profile.check_subcritical(constants)
        box_profile(2, beta=0.2, radius=1.0).check_subcritical(constants)  # I_w = pi, fine

    def test_box_norms_analytic(self):
        profile = box_profile(1, beta=0.25, radius=1.0, height=1.0)
        assert profile.i_w == pytest.approx(2.0, abs=0)

    def test_bump_norms_vs_quadrature(self):
        profile = bump_profile(1, beta=0.2, radius=1.0, height=1.0)
        exact, _ = quad(lambda x: math.exp(1.0 - 1.0 / (1.0 - x * x)) if abs(x) < 1 else 0.0, -1, 1)
        assert profile.i_w == pytest.approx(exact, rel=1e-9)


def midpoint_integral(w_n) -> float:
    """Midpoint rule for the integral of w_N over the box [-R_N, R_N]^d.

    4096 cells per axis in 1D and 1024 in 2D, where the 2D kernel is
    evaluated at 1024^2 points.
    """
    d, radius = w_n.profile.d, w_n.support_radius
    m = 4096 if d == 1 else 1024
    h = 2.0 * radius / m
    axis = -radius + h * (np.arange(m) + 0.5)
    pts = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    return float(np.sum(w_n.evaluate(pts)) * h**d)


class TestScaledInteraction:
    def test_box_scaling_pointwise(self):
        # N^(d beta) = 16^0.25 = 2, support shrinks to 1/2
        profile = box_profile(1, beta=0.25, radius=1.0, height=1.0)
        w_n = scaled_interaction(profile, 16)
        assert w_n.amplitude == pytest.approx(2.0, abs=0)
        assert w_n.support_radius == pytest.approx(0.5, abs=0)
        xs = np.array([[-0.49], [0.0], [0.49]])
        assert np.allclose(w_n.evaluate(xs), 2.0)
        assert np.allclose(w_n.evaluate(np.array([[0.51], [-2.0]])), 0.0)
        assert midpoint_integral(w_n) == pytest.approx(2.0, rel=1e-12)

    def test_identity_at_n1(self):
        profile = bump_profile(1, beta=0.3)
        w_n = scaled_interaction(profile, 1)
        xs = np.linspace(-1.2, 1.2, 33)[:, None]
        assert np.allclose(w_n.evaluate(xs), profile.evaluate(xs))

    def test_2d_bump_mass_preserved(self):
        profile = bump_profile(2, beta=0.2, radius=1.0, height=1.0)
        w_n = scaled_interaction(profile, 32)
        assert midpoint_integral(w_n) == pytest.approx(profile.i_w, rel=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 16, 81])
    @pytest.mark.parametrize(
        "profile",
        [
            box_profile(1, beta=0.25),
            hat_profile(beta=0.4),
            bump_profile(1, beta=0.15),
        ],
        ids=["box", "hat", "bump"],
    )
    def test_mass_preservation_invariant(self, profile, n):
        w_n = scaled_interaction(profile, n)
        assert midpoint_integral(w_n) == pytest.approx(profile.i_w, rel=1e-8)
        assert w_n.i_w == profile.i_w

    def test_rejects_zero_particles(self):
        with pytest.raises(ValidationError):
            scaled_interaction(bump_profile(1, beta=0.2), 0)

    def test_gradient_norm_scaling(self):
        # |w_N'|_L1 = N^beta |w'|_L1 in 1D, as total variations on a grid through 0 and every kink
        profile = hat_profile(beta=0.5, radius=1.0, height=1.0)
        w_n = scaled_interaction(profile, 16)
        xs = np.arange(-(2**15), 2**15 + 1)[:, None] * 2.0**-14  # [-2, 2] in exact binary steps

        def total_variation(evaluate):
            return float(np.sum(np.abs(np.diff(evaluate(xs)))))

        tv = total_variation(profile.evaluate)
        assert tv == 2.0  # twice the height
        assert total_variation(w_n.evaluate) == pytest.approx(16**0.5 * tv, rel=1e-12)


class TestConfig:
    def test_round_trip(self):
        cfg = config_from_dict(
            {
                "d": 1,
                "potential": {"family": "harmonic"},
                "beta": 0.2,
                "interaction": {"family": "bump"},
                "grid": {"half_width": 3.0, "points_per_axis": 128},
                "constants": "bathtub_consistent",
                "n_particles": 4,
            }
        )
        assert cfg.d == 1
        assert cfg.grid.points_per_axis == 128
        assert cfg.interaction is not None
        assert cfg.n_particles == 4

    def test_d3_rejected_with_dimension_message(self):
        with pytest.raises(ValidationError, match="d=3"):
            config_from_dict({"d": 3, "potential": {"family": "harmonic"}})

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="family"):
            config_from_dict({"d": 1, "potential": {"family": "sombrero"}})

    def test_interaction_requires_beta(self):
        with pytest.raises(ConfigError, match="beta"):
            config_from_dict(
                {"d": 1, "potential": {"family": "harmonic"}, "interaction": {"family": "box"}}
            )
