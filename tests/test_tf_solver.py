import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fermigas import model, tf_solver
from fermigas.errors import ConvergenceError, MassJumpError, ValidationError
from fermigas.model import (
    SpatialGrid,
    TFConstants,
    TrapPotential,
    double_well_potential,
    harmonic_potential,
    quartic_potential,
)
from fermigas.tf_solver import (
    DensityField,
    RelaxedLocalEnergy,
    _mass,
    _minimize,
    _newton_segment_root,
    _ramp,
    minimize_1d_relaxed,
    minimize_2d,
    relaxation_equivalence_check,
    relaxed_energy,
    tf_energy,
)
from tf_reference import (
    activation_rule,
    el_residual,
    ref_el_defects,
    ref_energy_terms,
    ref_mass,
    ref_newton_segment_root,
    ref_solve_unit_mass,
)

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Independent oracles (kept apart from the solver path).
# ---------------------------------------------------------------------------


def free_1d_profile(lam):
    """Stationarity 3 c_tf rho^2 = lam - V for c_tf = pi^2, V = x^2."""
    return lambda x: np.sqrt(np.clip(lam - x**2, 0.0, None)) / (SQRT3 * math.pi)


def free_1d_energy_by_quadrature(lam):
    c_tf = math.pi**2
    rho = free_1d_profile(lam)
    kin, _ = quad(lambda x: c_tf * rho(np.array([x]))[0] ** 3, -math.sqrt(lam), math.sqrt(lam))
    pot, _ = quad(lambda x: x * x * rho(np.array([x]))[0], -math.sqrt(lam), math.sqrt(lam))
    return kin + pot


def cap_2d_closed_form(kappa):
    """Radial integrals of rho = (lam - r^2)_+/(2 kappa) with unit mass.

    mass = pi lam^2 / (4 kappa) = 1 gives lam = sqrt(4 kappa / pi);
    kappa * int rho^2 = int |x|^2 rho = pi lam^3 / (12 kappa).
    """
    lam = math.sqrt(4.0 * kappa / math.pi)
    piece = math.pi * lam**3 / (12.0 * kappa)
    return lam, 2.0 * piece


def bisect_unit_mass(s, profile, volume, tol, max_iter=400):
    """Bracket-and-bisect for unit mass on the library's own mass map.

    This is the solve the exact multiplier search replaced, kept as its
    oracle. Returns ``lam``; raises ``MassJumpError`` when the bracket
    collapses to floating-point width with the mass still jumping across 1.
    """
    s = np.sort(s)

    def mass_of(lam):
        return _mass(s, lam, profile, volume)

    lo = float(s[0])
    hi, step = lo + 1.0, 1.0
    while mass_of(hi) < 1.0:
        step *= 2.0
        hi += step
    m_lo, m_hi = mass_of(lo), mass_of(hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        m_mid = mass_of(mid)
        if abs(m_mid - 1.0) <= tol:
            return mid
        if m_mid < 1.0:
            lo, m_lo = mid, m_mid
        else:
            hi, m_hi = mid, m_mid
        if hi - lo <= 64.0 * np.finfo(float).eps * max(1.0, abs(hi)):
            raise MassJumpError("bracket collapsed", lam_low=lo, lam_high=hi, mass_low=m_lo, mass_high=m_hi)
    raise AssertionError(f"bisection did not converge in {max_iter} steps")


def dyadic_grid(d, m):
    """Grid with m points per axis and a power-of-two spacing, half-width in [4, 8).

    The axis and the polynomial potentials are then exact in floating point,
    so mirror-image points give exactly tied thresholds and distinct
    thresholds lie far apart compared with the bisection's collapse width.
    """
    spacing = 2.0 ** -math.floor(math.log2(m / 8))
    return SpatialGrid(d, 0.5 * m * spacing, m)


class TestLocalEnergy:
    def test_double_minimum_structure(self):
        # e(0) = e(rho_jump) = e'(rho_jump) = 0 to machine precision
        rel = RelaxedLocalEnergy(c_tf=math.pi**2 / 3, i_w=2.0)
        assert rel.alpha == pytest.approx(rel.i_w**2 / (4 * rel.c_tf), rel=1e-15)
        assert rel.rho_jump == pytest.approx(rel.i_w / (2 * rel.c_tf), rel=1e-15)
        assert rel.local_energy(0.0) == 0.0
        assert abs(rel.local_energy(rel.rho_jump)) < 1e-15
        assert abs(rel.local_energy_derivative(rel.rho_jump)) < 1e-15

    def test_nonnegative_and_relaxation_below(self):
        rel = RelaxedLocalEnergy(c_tf=2.0, i_w=1.5)
        ts = np.linspace(0.0, 5.0, 20001)
        e = rel.local_energy(ts)
        j = rel.relaxed_local_energy(ts)
        assert e.min() >= -1e-14
        assert np.all(j <= e + 1e-14)

    def test_relaxation_midpoint_convex(self):
        rel = RelaxedLocalEnergy(c_tf=2.0, i_w=1.5)
        ts = np.linspace(0.0, 4.0, 4001)
        j = rel.relaxed_local_energy(ts)
        mid = rel.relaxed_local_energy(0.5 * (ts[:-2] + ts[2:]))
        assert np.all(mid <= 0.5 * (j[:-2] + j[2:]) + 1e-12)

    def test_eta_variant_structure(self):
        # the two-minimizer structure holds for a partial cubic coefficient (1 - eta) c_tf
        rel = RelaxedLocalEnergy((1.0 - 0.5) * math.pi**2 / 3, 2.0)
        assert abs(rel.local_energy(rel.rho_jump)) < 1e-14
        assert abs(rel.local_energy_derivative(rel.rho_jump)) < 1e-14

    def test_active_density_never_below_jump(self):
        # as u -> 0 the root formula rounds to either side of rho_jump (here below)
        rel = RelaxedLocalEnergy((1.0 - 0.3) * 3.0, 0.7)
        u = np.array([0.0, 5e-324, 1e-300, 1e-16])
        assert np.all(rel.active_density(u) >= rel.rho_jump)
        assert rel.active_density(np.array([1.0]))[0] > rel.rho_jump


class TestTFEnergy:
    def test_zero_density(self, harmonic_1d):
        grid = SpatialGrid(1, 2.0, 128)
        breakdown = tf_energy(
            DensityField(grid, np.zeros(grid.size)),
            harmonic_1d,
            TFConstants.paper_literal(1),
            i_w=0.5,
        )
        assert breakdown.kinetic_term == 0.0
        assert breakdown.potential_term == 0.0
        assert breakdown.interaction_term == 0.0

    def test_1d_analytic_profile(self, harmonic_1d):
        lam = 2.0 * SQRT3
        grid = SpatialGrid(1, 3.0, 8192)
        rho = DensityField(grid, grid.sample(lambda pts: free_1d_profile(lam)(pts[:, 0])))
        assert rho.mass == pytest.approx(1.0, abs=2e-6)  # normalization lam/(2 sqrt 3) = 1
        breakdown = tf_energy(rho, harmonic_1d, TFConstants.paper_literal(1), i_w=0.0)
        assert breakdown.total == pytest.approx(SQRT3, abs=1e-4)
        assert breakdown.total == pytest.approx(free_1d_energy_by_quadrature(lam), abs=1e-4)

    def test_2d_closed_form_cap(self, harmonic_2d):
        kappa = 4.0 * math.pi
        constants = TFConstants.paper_literal(2)  # c_tf = 8 pi, so i_w = 4 pi
        i_w = constants.c_tf - kappa
        lam, total = cap_2d_closed_form(kappa)
        assert lam == pytest.approx(4.0, abs=0)
        assert total == pytest.approx(8.0 / 3.0, rel=1e-14)
        grid = SpatialGrid(2, 2.5, 256)
        cap = grid.sample(lambda pts: np.clip(lam - np.sum(pts**2, axis=1), 0.0, None) / (2 * kappa))
        rho = DensityField(grid, cap)
        breakdown = tf_energy(rho, harmonic_2d, constants, i_w)
        assert breakdown.total == pytest.approx(total, abs=1e-4)

    def test_grid_mismatch_raises(self, harmonic_2d):
        grid = SpatialGrid(1, 2.0, 64)
        rho = DensityField(grid, np.ones(grid.size))
        with pytest.raises(ValidationError):
            tf_energy(rho, harmonic_2d, TFConstants.paper_literal(1), 0.0)


class TestMinimize2D:
    def test_harmonic_kappa_4pi(self, harmonic_2d):
        constants = TFConstants.paper_literal(2)
        i_w = constants.c_tf - 4.0 * math.pi
        sol = minimize_2d(harmonic_2d, constants, i_w, SpatialGrid(2, 2.5, 128), tol=1e-6)
        assert sol.lam == pytest.approx(4.0, abs=1e-4)
        assert sol.energy.total == pytest.approx(8.0 / 3.0, abs=1e-5)
        assert sol.el_residual < 1e-12
        assert sol.el_complement_min > -1e-12

    def test_free_case_lambda(self, harmonic_2d):
        constants = TFConstants.paper_literal(2)
        sol = minimize_2d(harmonic_2d, constants, 0.0, SpatialGrid(2, 3.2, 160), tol=1e-7)
        assert sol.lam == pytest.approx(math.sqrt(4.0 * constants.c_tf / math.pi), abs=1e-3)
        # paraboloid cap shape: rho = (lam - V)_+ / (2 c_tf)
        pts = sol.rho.grid.points()
        expected = np.clip(sol.lam - np.sum(pts**2, axis=1), 0.0, None) / (2 * constants.c_tf)
        assert np.allclose(sol.rho.values, expected)

    def test_barrier_excluded_from_support(self):
        # harmonic trap plus a tall smooth annular wall: no mass where V > lam
        def bump_ring(r):
            t = np.clip((r - 1.2) * (1.8 - r), 0.0, None)
            return np.exp(-1.0 / np.where(t > 0, t, 1.0)) * (t > 0)

        def ev(pts):
            r = np.linalg.norm(pts, axis=1)
            return r**2 + 500.0 * bump_ring(r)

        def gr(pts):
            eps = 1e-6
            base = 2.0 * pts
            r = np.linalg.norm(pts, axis=1)
            rp = np.clip(r, eps, None)
            db = (500.0 * (bump_ring(rp + eps) - bump_ring(rp - eps)) / (2 * eps))[:, None]
            return base + db * pts / rp[:, None]

        barrier = TrapPotential(2, ev, gr, 2.0, 1.0, 0.0, 5000.0, name="ring_barrier")
        constants = TFConstants.paper_literal(2)
        sol = minimize_2d(barrier, constants, 0.0, SpatialGrid(2, 3.4, 120), tol=1e-6)
        v = ev(sol.rho.grid.points())
        assert np.all(sol.rho.values[v > sol.lam + 1e-9] == 0.0)

    def test_supercritical_rejected(self, harmonic_2d):
        constants = TFConstants.bathtub_consistent(2)
        with pytest.raises(ValidationError, match="i_w < c_tf"):
            minimize_2d(harmonic_2d, constants, constants.c_tf + 1.0, SpatialGrid(2, 2.0, 32))

    def test_box_too_small_detected(self, harmonic_2d):
        constants = TFConstants.paper_literal(2)
        with pytest.raises(ValidationError, match="boundary"):
            minimize_2d(harmonic_2d, constants, constants.c_tf - 4 * math.pi, SpatialGrid(2, 1.0, 64))


class TestMinimize1D:
    def test_free_case(self, harmonic_1d):
        rel = RelaxedLocalEnergy(math.pi**2, 0.0)
        sol = minimize_1d_relaxed(harmonic_1d, rel, SpatialGrid(1, 3.0, 4096), tol=1e-8)
        assert sol.lam == pytest.approx(2.0 * SQRT3, abs=1e-3)
        assert sol.energy.total == pytest.approx(SQRT3, abs=1e-3)

    def test_jump_condition(self, harmonic_1d):
        # minimizers stay above i_w / (2 c_tf) on the support interior
        rel = RelaxedLocalEnergy(math.pi**2 / 3, 2.0)
        sol = minimize_1d_relaxed(harmonic_1d, rel, SpatialGrid(1, 3.0, 4096), tol=1e-6)
        assert sol.support_interior_min >= rel.rho_jump - 1e-6
        assert sol.mass_gap <= 1e-6

    def test_solution_energy_recomputed_matches(self, harmonic_1d):
        rel = RelaxedLocalEnergy(math.pi**2 / 3, 1.0)
        constants = TFConstants.bathtub_consistent(1)
        sol = minimize_1d_relaxed(harmonic_1d, rel, SpatialGrid(1, 3.0, 2048), tol=1e-6)
        again = tf_energy(sol.rho, harmonic_1d, constants, rel.i_w)
        assert sol.energy.total == pytest.approx(again.total, rel=1e-10)

    def test_double_well_restricted_solves_degenerate(self):
        # the two single-well restrictions are exactly degenerate by symmetry,
        # and the unrestricted solver returns a (no worse) minimizer
        rel = RelaxedLocalEnergy(math.pi**2 / 3, 1.0)
        wells = double_well_potential(1, well_radius=1.5, stiffness=4.0)
        grid = SpatialGrid(1, 3.0, 4096)
        sol_full = minimize_1d_relaxed(wells, rel, grid, tol=1e-7)

        def walled_potential(side):
            def wall(x):
                return np.where(side * x < 0.0, 80.0 * x**2, 0.0)

            def ev(pts):
                return wells.evaluate(pts) + wall(pts[:, 0])

            def gr(pts):
                extra = np.where(side * pts[:, 0] < 0.0, 160.0 * pts[:, 0], 0.0)
                return wells.gradient(pts) + extra[:, None]

            return TrapPotential(1, ev, gr, 4.0, 2.0, 2 * 4.0 * 1.5**4, 400.0, name="walled")

        sol_right = minimize_1d_relaxed(walled_potential(+1), rel, grid, tol=1e-7)
        sol_left = minimize_1d_relaxed(walled_potential(-1), rel, grid, tol=1e-7)
        assert sol_right.energy.total == pytest.approx(sol_left.energy.total, abs=5e-6)
        assert sol_full.energy.total <= sol_right.energy.total + 1e-9

    def test_mass_jump_reported(self, harmonic_1d):
        # huge jump density: a single point activation overshoots unit mass
        rel = RelaxedLocalEnergy(c_tf=0.05, i_w=10.0)  # rho_jump = 100
        with pytest.raises(MassJumpError) as err:
            minimize_1d_relaxed(harmonic_1d, rel, SpatialGrid(1, 3.0, 64), tol=1e-8)
        assert err.value.lam_high == np.nextafter(err.value.lam_low, np.inf)
        assert err.value.mass_high > 1.0 > err.value.mass_low

    @pytest.mark.parametrize("m, end", [(48, "low"), (56, "high")])
    def test_jump_end_within_tol_returned(self, harmonic_1d, m, end):
        # unit mass inside an activation jump: the nearer end is returned once tol admits it
        rel = RelaxedLocalEnergy(math.pi**2 / 3, 2.0)
        grid = SpatialGrid(1, 3.0, m)
        with pytest.raises(MassJumpError) as err:
            minimize_1d_relaxed(harmonic_1d, rel, grid, tol=1e-9)
        jump = err.value
        lam, mass = (jump.lam_low, jump.mass_low) if end == "low" else (jump.lam_high, jump.mass_high)
        tol = 1.5 * abs(mass - 1.0)
        sol = minimize_1d_relaxed(harmonic_1d, rel, grid, tol=tol)
        assert sol.lam == lam
        assert sol.mass_gap == pytest.approx(abs(mass - 1.0), abs=1e-12)
        assert sol.mass_gap <= tol

    def test_tol_bounds_returned_mass_gap(self, harmonic_1d, harmonic_2d):
        # tol = 0 is below float resolution: a solve either lands exactly or says so
        raised = 0
        for m in (32, 48, 64, 96):
            for solve in (
                lambda: minimize_2d(harmonic_2d, TFConstants.paper_literal(2), 0.0, SpatialGrid(2, 3.2, m), tol=0.0),
                lambda: minimize_1d_relaxed(harmonic_1d, RelaxedLocalEnergy(math.pi**2, 0.0), SpatialGrid(1, 3.0, 10 * m), tol=0.0),
            ):
                try:
                    assert solve().mass_gap == 0.0
                except ConvergenceError:
                    raised += 1
        assert raised > 0

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_potential_rejected(self, harmonic_1d, harmonic_2d, bad):
        def spoiled(potential):
            def ev(pts):
                v = potential.evaluate(pts)
                return np.where(np.abs(pts[:, 0]) > 2.5, bad, v)

            return TrapPotential(potential.d, ev, potential.gradient, 2.0, 1.0, 0.0, 2.0)

        with pytest.raises(ValidationError, match="finite"):
            minimize_1d_relaxed(spoiled(harmonic_1d), RelaxedLocalEnergy(1.0, 0.0), SpatialGrid(1, 3.0, 64))
        with pytest.raises(ValidationError, match="finite"):
            minimize_2d(spoiled(harmonic_2d), TFConstants.paper_literal(2), 0.0, SpatialGrid(2, 3.0, 32))


class TestExactMassSolve:
    """The exact multiplier search against bracket-and-bisect on the same mass map."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        d=st.sampled_from([1, 2]),
        shape=st.sampled_from(["harmonic", "quartic", "double_well"]),
        source=st.sampled_from(["paper_literal", "bathtub_consistent"]),
        i_w=st.floats(0.0, 5.0),
        eta=st.floats(0.0, 0.9),
        m=st.integers(16, 512),
        log_tol=st.floats(-10.0, -3.0),
    )
    def test_agrees_with_bisection(self, d, shape, source, i_w, eta, m, log_tol):
        potential = {
            "harmonic": harmonic_potential,
            "quartic": quartic_potential,
            "double_well": double_well_potential,
        }[shape](d)
        constants = TFConstants.from_source(d, source)
        grid = dyadic_grid(d, m)
        tol = 10.0**log_tol
        v = potential.evaluate(grid.points())
        if d == 1:
            rel = RelaxedLocalEnergy((1.0 - eta) * constants.c_tf, i_w)
            s, profile = v - rel.alpha, rel.active_density
        else:
            s, profile = v, _ramp(constants.c_tf - i_w)

        try:
            bisect_unit_mass(s, profile, grid.cell_volume, tol)
            oracle_jump = None
        except MassJumpError as exc:
            oracle_jump = exc
        try:
            if d == 1:
                sol = minimize_1d_relaxed(potential, rel, grid, tol=tol)
            else:
                sol = minimize_2d(potential, constants, i_w, grid, tol=tol)
            exact_jump = None
        except MassJumpError as exc:
            exact_jump = exc

        if oracle_jump is None:
            assert exact_jump is None
            assert sol.mass_gap <= tol
        if exact_jump is not None:
            assert oracle_jump is not None
            assert exact_jump.lam_high == np.nextafter(exact_jump.lam_low, np.inf)
            assert oracle_jump.lam_low <= exact_jump.lam_low < oracle_jump.lam_high
            assert abs(exact_jump.mass_low - oracle_jump.mass_low) <= 1e-12
            assert abs(exact_jump.mass_high - oracle_jump.mass_high) <= 1e-12
        else:
            values = sol.rho.values
            if d == 2:
                assert sol.mass_gap <= 1e-12
            else:
                assert values[values > 0].min() >= rel.rho_jump


def level_grid(d, levels, volume, wall):
    """A grid and a lookup evaluator carrying ``levels`` on its first interior points and ``wall`` elsewhere.

    The wall lies above every level and covers the box boundary, so it never
    activates while unit mass is reached with the levels alone.
    """
    n = len(levels)
    m = n + 2 if d == 1 else math.isqrt(n - 1) + 3
    table = np.full((m,) * d, wall)
    table[(slice(1, -1),) * d].flat[:n] = levels
    spacing = volume ** (1.0 / d)
    grid = SpatialGrid(d, 0.5 * m * spacing, m)

    def evaluate(pts):
        idx = np.rint(pts / spacing + 0.5 * m - 0.5).astype(np.intp)
        return table[tuple(idx.T)]

    return grid, evaluate


class TestBlockedMassSolve:
    """The one-array fused solve against the two-array path it replaced, and that against the allocating solve."""

    @staticmethod
    def outcome(solve):
        try:
            return solve()
        except (MassJumpError, ConvergenceError, ValidationError) as exc:
            return exc

    def compare(self, grid, evaluate, c_tf, i_w, tol):
        alpha, profile, derivative = activation_rule(grid.d, c_tf, i_w)
        s = grid.sample(evaluate)
        s -= alpha
        volume = grid.cell_volume
        if grid.d == 1:
            rel = RelaxedLocalEnergy(c_tf, i_w)
            root = lambda active, lo, hi: _newton_segment_root(active, lo, hi, rel, volume)  # noqa: E731
            ref_root = lambda active, lo, hi: ref_newton_segment_root(active, lo, hi, rel, volume)  # noqa: E731
        else:
            kappa = c_tf - i_w
            root = ref_root = lambda active, lo, hi: (2.0 * kappa / volume + float(np.sum(active))) / active.size  # noqa: E731
        got = self.outcome(lambda: _minimize(grid, evaluate, c_tf, i_w, tol))
        want = self.outcome(lambda: ref_solve_unit_mass(s, profile, volume, tol, root, mass=_mass))
        allocating = self.outcome(lambda: ref_solve_unit_mass(s, profile, volume, tol, ref_root))

        # the two-array path against the allocating one, which sums each mass probe at once
        assert type(allocating) is type(want)
        if isinstance(want, MassJumpError):
            assert (allocating.lam_low, allocating.lam_high) == (want.lam_low, want.lam_high)
            assert allocating.mass_low == pytest.approx(want.mass_low, rel=1e-14)
            assert allocating.mass_high == pytest.approx(want.mass_high, rel=1e-14)
        elif isinstance(want, tuple):
            (lam, values), (ref_lam, ref_values) = want, allocating
            assert lam == pytest.approx(ref_lam, rel=1e-14)
            assert np.max(np.abs(values - ref_values)) <= 1e-14 * np.max(ref_values)
            assert np.array_equal(values > 0, ref_values > 0)

        # the fused path against the two-array one: the same bits
        if isinstance(want, MassJumpError):
            assert type(got) is MassJumpError
            assert (got.lam_low, got.lam_high, got.mass_low, got.mass_high) == (
                want.lam_low, want.lam_high, want.mass_low, want.mass_high
            )
            return
        if not isinstance(want, tuple):
            assert type(got) is type(want)
            return
        lam, values = want
        assert got.lam == lam
        assert np.array_equal(got.rho.values, values)
        assert got.mass_gap == abs(grid.integrate(values) - 1.0)
        assert (got.el_residual, got.el_complement_min) == ref_el_defects(values, s, lam, derivative)
        assert got.support_interior_min == values[values > 0].min()
        energy = ref_energy_terms(grid, values, s, c_tf, i_w, alpha)
        terms = lambda e: np.array([e.kinetic_term, e.potential_term, e.interaction_term])  # noqa: E731
        # row blocks and the energy slices hold the same points when a whole number of rows fills a slice
        row_size = grid.size // grid.points_per_axis
        block = tf_solver.SAMPLE_BLOCK_POINTS
        if grid.size <= block or block % row_size == 0:
            assert np.array_equal(terms(got.energy), terms(energy))
        else:
            assert np.all(np.abs(terms(got.energy) - terms(energy)) <= 1e-15 * np.abs(terms(energy)))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        d=st.sampled_from([1, 2]),
        levels=st.lists(st.integers(0, 40), min_size=1, max_size=60),
        mirrored=st.booleans(),
        scale=st.floats(0.01, 2.0),
        i_w=st.floats(0.0, 3.0),
        top_mass=st.floats(1.05, 40.0),
        log_tol=st.floats(-13.0, -1.0),
        block=st.sampled_from([1, 3, 8, 1 << 14]),
    )
    def test_matches_allocating_solve(self, d, levels, mirrored, scale, i_w, top_mass, log_tol, block):
        # integer levels give ties; a mirrored copy gives symmetric pairs
        v = scale * np.array(levels, dtype=float)
        if mirrored:
            v = np.concatenate([v, v[::-1]])
        c_tf = math.pi**2 / 3.0 if d == 1 else 1.0 + 2.0 * i_w
        alpha, profile, _ = activation_rule(d, c_tf, i_w)
        # the cell volume puts the mass with every level active at top_mass > 1,
        # so unit mass falls on a segment or inside a jump below the top
        s = np.sort(v - alpha)
        everything = ref_mass(s, float(np.nextafter(s[-1], np.inf)), profile, 1.0)
        assume(everything > 0.0)
        grid, evaluate = level_grid(d, v, top_mass / everything, wall=2.0 * v.max() + 1.0)
        with patch.object(tf_solver, "SAMPLE_BLOCK_POINTS", block), patch.object(model, "SAMPLE_BLOCK_POINTS", block):
            self.compare(grid, evaluate, c_tf, i_w, 10.0**log_tol)

    @pytest.mark.parametrize("d, m", [(1, 4096), (2, 128), (2, 160)])
    @pytest.mark.parametrize("shape", ["harmonic", "quartic", "asymmetric_double_well"])
    @pytest.mark.parametrize("log_tol", [-9, -4])
    def test_matches_two_array_solve_on_traps(self, d, m, shape, log_tol):
        if shape == "asymmetric_double_well":
            wells = double_well_potential(d, well_radius=1.2, stiffness=2.0).evaluate
            evaluate = lambda pts: wells(pts) + 0.25 * (pts[:, 0] + 3.0)  # noqa: E731
        else:
            evaluate = {"harmonic": harmonic_potential, "quartic": quartic_potential}[shape](d).evaluate
        if d == 1:
            c_tf, i_w = math.pi**2 / 3.0, 2.0
        else:
            constants = TFConstants.paper_literal(2)
            c_tf, i_w = constants.c_tf, constants.c_tf - 4.0 * math.pi
        self.compare(SpatialGrid(d, 3.0, m), evaluate, c_tf, i_w, 10.0**log_tol)


class TestFootprint:
    """A solve holds one grid array, the thresholds overwritten by the density, plus O(block) scratch."""

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_minimize_2d(self, harmonic_2d):
        grid = SpatialGrid(2, 2.5, 1024)
        constants = TFConstants.paper_literal(2)
        peak = self.traced_peak(
            lambda: minimize_2d(harmonic_2d, constants, constants.c_tf - 4.0 * math.pi, grid, tol=1e-9)
        )
        assert peak <= 1.25 * 8 * grid.size

    @pytest.mark.parametrize(
        "rel, tol",
        [
            (RelaxedLocalEnergy(math.pi**2, 0.0), 1e-9),
            (RelaxedLocalEnergy(math.pi**2 / 3.0, 2.0), 2e-3),
        ],
        ids=["free", "coupled"],
    )
    def test_minimize_1d_relaxed(self, harmonic_1d, rel, tol):
        grid = SpatialGrid(1, 3.0, 1 << 20)
        peak = self.traced_peak(lambda: minimize_1d_relaxed(harmonic_1d, rel, grid, tol=tol))
        assert peak <= 1.25 * 8 * grid.size

    def test_relaxation_equivalence_check(self, harmonic_1d):
        grid = SpatialGrid(1, 3.0, 1 << 20)
        rel = RelaxedLocalEnergy(math.pi**2 / 3.0, 2.0)
        reports = []
        peak = self.traced_peak(lambda: reports.append(relaxation_equivalence_check(harmonic_1d, rel, grid)))
        assert peak <= 1.25 * 8 * grid.size
        # the grid-sized evaluation that the sliced sums replaced
        sol = minimize_1d_relaxed(harmonic_1d, rel, grid, tol=1e-6)
        rho = sol.rho
        v = grid.sample(harmonic_1d.evaluate)
        ref = grid.integrate(rel.relaxed_local_energy(rho.values)) + grid.integrate(v * rho.values) - rel.alpha * rho.mass
        relaxed = relaxed_energy(rho, harmonic_1d, rel)
        assert relaxed == pytest.approx(ref, rel=1e-12)
        assert reports[0].passed
        assert reports[0].difference == abs(sol.energy.total - relaxed)


def _solution_shell(grid, values, lam, rel):
    from fermigas.tf_solver import EnergyBreakdown, TFSolution

    return TFSolution(
        rho=DensityField(grid, values),
        lam=lam,
        energy=EnergyBreakdown(0.0, 0.0, 0.0),
        el_residual=math.nan,
        el_complement_min=math.nan,
        mass_gap=math.nan,
        c_tf=rel.c_tf,
        i_w=rel.i_w,
    )


class TestELResidual:
    def test_solver_output_certified(self, harmonic_1d):
        rel = RelaxedLocalEnergy(math.pi**2 / 3, 2.0)
        sol = minimize_1d_relaxed(harmonic_1d, rel, SpatialGrid(1, 3.0, 4096), tol=1e-6)
        supp, comp = el_residual(sol, harmonic_1d)
        assert supp <= 1e-6
        assert comp >= -1e-6

    def test_uniform_box_density_flagged(self, harmonic_1d):
        # defect detector must report a violation, never raise
        rel = RelaxedLocalEnergy(math.pi**2 / 3, 2.0)
        grid = SpatialGrid(1, 3.0, 512)
        values = np.where(np.abs(grid.axis()) <= 1.0, 0.5, 0.0)
        sol = _solution_shell(grid, values, 1.0, rel)
        supp, _ = el_residual(sol, harmonic_1d)
        assert supp > 0.1

    def test_zero_density(self, harmonic_1d):
        rel = RelaxedLocalEnergy(math.pi**2 / 3, 2.0)
        grid = SpatialGrid(1, 3.0, 256)
        sol = _solution_shell(grid, np.zeros(grid.size), -10.0, rel)
        supp, comp = el_residual(sol, harmonic_1d)
        assert supp == 0.0
        assert math.isfinite(comp)


class TestRelaxationEquivalence:
    def test_moderate_coupling_passes(self, harmonic_1d):
        rel = RelaxedLocalEnergy(math.pi**2 / 3, 2.0)
        report = relaxation_equivalence_check(harmonic_1d, rel, SpatialGrid(1, 3.0, 4096))
        assert report.passed
        assert report.difference <= 1e-6

    def test_free_case_trivial(self, harmonic_1d):
        rel = RelaxedLocalEnergy(math.pi**2, 0.0)
        report = relaxation_equivalence_check(harmonic_1d, rel, SpatialGrid(1, 3.0, 2048))
        assert report.passed
        assert report.rho_jump == 0.0

    def test_mass_below_jump_costs_energy(self, harmonic_1d):
        rel = RelaxedLocalEnergy(math.pi**2 / 3, 2.0)
        grid = SpatialGrid(1, 3.0, 4096)
        sol = minimize_1d_relaxed(harmonic_1d, rel, grid, tol=1e-7)
        relaxed_min = relaxed_energy(sol.rho, harmonic_1d, rel)
        # push a slab of mass into the tails below the jump density
        values = sol.rho.values.copy()
        tail = np.abs(grid.axis()) > 2.0
        moved = 0.05
        values *= 1.0 - moved
        values[tail] += moved / (tail.sum() * grid.spacing)
        assert values[tail].max() < rel.rho_jump  # genuinely below the jump
        perturbed = DensityField(grid, values)
        constants = TFConstants.bathtub_consistent(1)
        e_tf = tf_energy(perturbed, harmonic_1d, constants, rel.i_w).total
        assert e_tf > relaxed_min + 1e-3


class TestVariationalStructure:
    def test_mass_map_monotone_1d(self, harmonic_1d):
        rel = RelaxedLocalEnergy(math.pi**2 / 3, 2.0)
        grid = SpatialGrid(1, 3.0, 1024)
        s = np.sort(grid.sample(harmonic_1d.evaluate) - rel.alpha)
        masses = [_mass(s, lam, rel.active_density, grid.cell_volume) for lam in np.linspace(-1.0, 6.0, 60)]
        assert np.all(np.diff(masses) >= -1e-12)

    def test_mass_map_monotone_2d(self, harmonic_2d):
        constants = TFConstants.paper_literal(2)
        grid = SpatialGrid(2, 2.5, 64)
        s = np.sort(grid.sample(harmonic_2d.evaluate))
        ramp = _ramp(constants.c_tf - 4.0)
        masses = [_mass(s, lam, ramp, grid.cell_volume) for lam in np.linspace(0.0, 6.0, 40)]
        assert np.all(np.diff(masses) >= -1e-12)

    @staticmethod
    def _random_admissible(grid, rng):
        noise = rng.standard_normal(grid.size)
        kernel = np.exp(-0.5 * (np.arange(-15, 16) / 4.0) ** 2)
        smooth = np.convolve(noise, kernel / kernel.sum(), mode="same")
        envelope = np.exp(-np.sum(grid.points() ** 2, axis=1))
        values = np.clip(smooth + 1.2, 0.0, None) * envelope
        return DensityField(grid, values / grid.integrate(values))

    def test_variational_dominance_1d(self, harmonic_1d, rng):
        rel = RelaxedLocalEnergy(math.pi**2 / 3, 2.0)
        grid = SpatialGrid(1, 3.0, 1024)
        sol = minimize_1d_relaxed(harmonic_1d, rel, grid, tol=1e-7)
        constants = TFConstants.bathtub_consistent(1)
        best = sol.energy.total
        for _ in range(50):
            trial = self._random_admissible(grid, rng)
            assert tf_energy(trial, harmonic_1d, constants, rel.i_w).total >= best - 1e-6

    def test_variational_dominance_2d(self, harmonic_2d, rng):
        constants = TFConstants.paper_literal(2)
        i_w = constants.c_tf - 4.0 * math.pi
        grid = SpatialGrid(2, 2.5, 48)
        sol = minimize_2d(harmonic_2d, constants, i_w, grid, tol=1e-7)
        for _ in range(20):
            trial = self._random_admissible(grid, rng)
            assert tf_energy(trial, harmonic_2d, constants, i_w).total >= sol.energy.total - 1e-6

    def test_supercritical_2d_scaling_collapse(self, harmonic_2d):
        # forced evaluation with i_w > c_tf: n^2 rho(n x) drives E down
        constants = TFConstants.bathtub_consistent(2)
        i_w = constants.c_tf + 3.0
        grid = SpatialGrid(2, 2.0, 96)

        def scaled_density(n):
            pts = grid.points()
            raw = np.clip(1.0 - np.sum((n * pts) ** 2, axis=1), 0.0, None) * n**2
            field = DensityField(grid, raw)
            return DensityField(grid, field.values / field.mass)

        energies = [
            tf_energy(scaled_density(n), harmonic_2d, constants, i_w).total for n in (1, 2, 4)
        ]
        assert energies[0] > energies[1] > energies[2]


class TestEtaVariantConstructor:
    def test_minimization_with_partial_relaxation(self, harmonic_1d):
        rel = RelaxedLocalEnergy((1.0 - 0.5) * math.pi**2 / 3, 1.0)
        sol = minimize_1d_relaxed(harmonic_1d, rel, SpatialGrid(1, 3.0, 4096), tol=1e-4)
        assert sol.support_interior_min >= rel.rho_jump - 1e-6
        supp, comp = el_residual(sol, harmonic_1d)
        assert supp <= 1e-8
        assert comp >= -1e-8
