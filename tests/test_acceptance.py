"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not computed; runtime caps are asserted with
wall-clock measurements. Oracles: closed-form radial integrals (2D cap),
the analytic stationarity profile (1D), exact rational arithmetic (the
exchangeable-measure identities), filled one-body spectra and exact
binomial tails.
"""

import math
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from fermigas.model import (
    SpatialGrid,
    TFConstants,
    bump_profile,
    harmonic_potential,
    plateau_profile,
    scaled_interaction,
)

SQRT3 = math.sqrt(3.0)


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


class TestAcceptance:
    def test_01_closed_form_2d(self):
        # harmonic trap, kappa = c_tf - i_w = 4 pi: lam = 4, E = 8/3
        from fermigas.tf_solver import minimize_2d

        start = time.monotonic()
        constants = TFConstants.paper_literal(2)
        i_w = constants.c_tf - 4.0 * math.pi
        sol = minimize_2d(harmonic_potential(2), constants, i_w, SpatialGrid(2, 2.5, 128), tol=1e-7)
        elapsed = time.monotonic() - start
        assert sol.lam == pytest.approx(4.0, abs=1e-4)
        assert sol.energy.total == pytest.approx(8.0 / 3.0, abs=1e-3)
        assert elapsed < 5.0
        report(1, f"lam={sol.lam:.6f}, E={sol.energy.total:.6f}, {elapsed:.2f}s")

    def test_02_free_tf_1d(self):
        # V = x^2, i_w = 0, c_tf = pi^2: lam = 2 sqrt(3), E = sqrt(3)
        from fermigas.tf_solver import RelaxedLocalEnergy, minimize_1d_relaxed

        start = time.monotonic()
        rel = RelaxedLocalEnergy(math.pi**2, 0.0)
        sol = minimize_1d_relaxed(harmonic_potential(1), rel, SpatialGrid(1, 3.0, 4096), tol=1e-8)
        elapsed = time.monotonic() - start
        assert sol.lam == pytest.approx(2.0 * SQRT3, abs=1e-3)
        assert sol.energy.total == pytest.approx(SQRT3, abs=1e-3)
        assert elapsed < 1.0
        report(2, f"lam={sol.lam:.6f}, E={sol.energy.total:.6f}, {elapsed:.2f}s")

    def test_03_jump_condition_and_relaxation(self):
        from fermigas.tf_solver import (
            RelaxedLocalEnergy,
            minimize_1d_relaxed,
            relaxation_equivalence_check,
        )

        constants = TFConstants.bathtub_consistent(1)
        rel = RelaxedLocalEnergy(constants.c_tf, 2.0)
        grid = SpatialGrid(1, 3.0, 4096)
        sol = minimize_1d_relaxed(harmonic_potential(1), rel, grid, tol=1e-6)
        assert sol.support_interior_min >= rel.rho_jump - 1e-6
        equivalence = relaxation_equivalence_check(harmonic_potential(1), rel, grid, tol=1e-6)
        assert equivalence.passed
        assert equivalence.difference <= 1e-6
        report(
            3,
            f"min rho on interior = {sol.support_interior_min:.6f} >= "
            f"{rel.rho_jump:.6f}, |E - E_J| = {equivalence.difference:.2e}",
        )

    def test_04_tf_vlasov_equality(self):
        from fermigas.vlasov import tf_vlasov_equality_check

        results = []
        for d, grid, i_w in (
            (1, SpatialGrid(1, 3.0, 4096), 1.0),
            (2, SpatialGrid(2, 3.0, 128), math.pi),
        ):
            constants = TFConstants.bathtub_consistent(d)
            out = tf_vlasov_equality_check(harmonic_potential(d), constants, i_w, grid, tol=1e-3)
            assert out.passed, f"d={d}: relative gap {out.relative_difference:.3e}"
            results.append(out.relative_difference)
        report(4, f"relative gaps: d=1 {results[0]:.2e}, d=2 {results[1]:.2e}")

    def test_05_husimi_identities(self, rng):
        from fermigas.husimi import (
            CoherentFamily,
            frame_apply,
            lowest_orbitals,
            marginal_identity_report,
            semiclassical_error_decomposition,
            slater_operator,
        )

        start = time.monotonic()
        n = 8
        grid = SpatialGrid(1, 2.2, 256)
        potential = harmonic_potential(1)
        family = CoherentFamily(n, 0.12, (1.0 / n) ** 2 / 0.12)
        target = 2.0 * math.pi * family.hbar
        y = grid.axis()
        for _ in range(20):
            psi = (rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)) * np.exp(
                -2.0 * y**2
            )
            out = frame_apply(psi, family, grid)
            assert np.linalg.norm(out - target * psi) <= 1e-3 * target * np.linalg.norm(psi)

        gamma = slater_operator(lowest_orbitals(grid, potential, n, family.hbar), grid)
        marginals = marginal_identity_report(gamma, family)
        assert marginals["space_l1_gap"] <= 1e-4
        assert marginals["momentum_l1_gap"] <= 1e-4

        decomposition = semiclassical_error_decomposition(gamma, family, potential)
        kinetic_gap = abs(decomposition.measured_correction - decomposition.expected_correction)
        assert kinetic_gap <= 1e-4
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        report(
            5,
            f"marginal L1 gaps ({marginals['space_l1_gap']:.1e}, "
            f"{marginals['momentum_l1_gap']:.1e}), kinetic gap {kinetic_gap:.1e}, {elapsed:.1f}s",
        )

    def test_06_diaconis_freedman_exactness(self):
        from fermigas.df_measures import FiniteExchangeableLaw, tv_bound_check

        start = time.monotonic()
        laws = []
        for s, n in ((2, 2), (3, 3), (4, 4), (6, 5), (5, 3)):
            laws.append(FiniteExchangeableLaw.uniform(s, n))
        laws.append(
            FiniteExchangeableLaw.from_product([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], 5)
        )
        seed = np.random.default_rng(11)
        for s, n in ((4, 5), (6, 4)):
            keys = list(combinations_with_replacement(range(s), n))
            raw = seed.integers(0, 9, len(keys))
            raw[0] = max(raw[0], 1)
            total = int(raw.sum())
            weights = {k: Fraction(int(w), total) for k, w in zip(keys, raw) if w}
            laws.append(FiniteExchangeableLaw(s, n, weights))

        for law in laws:
            assert law.exact
            m1 = law.marginal(1)
            mt1 = law.mixture_marginal(1)
            assert all(a == b for a, b in zip(m1, mt1))  # exact rational equality
            check = tv_bound_check(law, 2)
            assert check.passed
            assert check.tv <= Fraction(4, law.n_particles)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        report(6, f"{len(laws)} laws, all identities exact, {elapsed:.1f}s")

    def test_07_oracle_invariants(self):
        from fermigas.oracle import (
            DiscreteHamiltonian,
            free_fermion_energy,
            ground_state,
            reduced_densities,
        )

        start = time.monotonic()
        grid = SpatialGrid(1, 2.5, 40)
        potential = harmonic_potential(1)
        profile = bump_profile(1, beta=0.2, radius=1.0, height=2.0)
        for n in (2, 3, 4):
            free = DiscreteHamiltonian(grid, potential, n)
            e_free, _ = ground_state(free)
            assert e_free == pytest.approx(free_fermion_energy(free), abs=1e-8)
            interacting = DiscreteHamiltonian(grid, potential, n, w_n=scaled_interaction(profile, n))
            e_int, state = ground_state(interacting)
            assert e_int <= e_free + 1e-12
            red = reduced_densities(state)
            assert red.occupations().max() <= 1.0 + 1e-8
            assert np.all(np.diag(red.rho2) == 0.0)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        report(7, f"N in (2,3,4) at C(40,4) basis, {elapsed:.1f}s")

    def test_08_variational_chain(self):
        from fermigas.husimi import CoherentFamily, gamma_from_measure
        from fermigas.oracle import DiscreteHamiltonian, ground_state, slater_upper_bound
        from fermigas.tf_solver import RelaxedLocalEnergy, minimize_1d_relaxed, sample_minimizer
        from fermigas.vlasov import bathtub_lift, brillouin_momentum_grid

        grid = SpatialGrid(1, 2.5, 48)
        potential = harmonic_potential(1)
        profile = bump_profile(1, beta=0.2, radius=1.0, height=2.0)
        constants = TFConstants.bathtub_consistent(1)
        rel = RelaxedLocalEnergy(constants.c_tf, profile.i_w)
        fine = minimize_1d_relaxed(potential, rel, grid.refine(16), tol=1e-3)
        rho = sample_minimizer(potential, rel, grid, fine.lam)
        e_tf = fine.energy.total

        rows = []
        for n in (2, 3, 4):
            family = CoherentFamily.default(n, 0.1)
            momentum = brillouin_momentum_grid(grid, family.hbar)
            lift = bathtub_lift(rho, constants, momentum)
            gamma = gamma_from_measure(lift, family)
            ham = DiscreteHamiltonian(grid, potential, n, w_n=scaled_interaction(profile, n))
            energy, _ = ground_state(ham)
            bound = slater_upper_bound(ham, gamma.matrix, ground_energy=energy, tol=1e-10)
            assert bound.satisfied
            assert bound.trial_energy >= energy - 1e-10
            rows.append((n, energy / n, bound.trial_energy / n))

        # trend table next to the density-functional minimum (no closeness assert:
        # the agreement is asymptotic in N, far beyond desk scale)
        print(f"    E^TF = {e_tf:.6f}")
        for n, e_per, trial_per in rows:
            print(f"    N={n}: E(N)/N = {e_per:.6f}, trial/N = {trial_per:.6f}")
        report(8, "variational inequality holds for all tested configurations")

    def test_09_smearing_bound_shape(self):
        from fermigas.husimi import smearing_errors

        profile = plateau_profile(beta=0.25, radius=0.5, edge_width=1e-3, height=1.0)
        w_n = scaled_interaction(profile, 4)
        records = smearing_errors(w_n.evaluate, w_n.support_radius, [1e-2, 1e-3, 1e-4])
        ratios = [r["ratio_double"] for r in records]
        assert max(ratios) / min(ratios) <= 2.0
        report(9, "double-smearing ratios " + ", ".join(f"{r:.4f}" for r in ratios))

    def test_10_pauli_violation_decay(self):
        from fermigas.df_measures import Tiling, decay_fit, pauli_violation_stats, uniform_box_sampler

        start = time.monotonic()
        tiling = Tiling.square(1, 0.5 * math.sqrt(2.0 * math.pi), 2)
        sampler = uniform_box_sampler(tiling)
        q = tiling.cell_volume / tiling.box_volume
        stats = pauli_violation_stats(
            sampler,
            tiling,
            cell=0,
            epsilon=0.5,
            n_particles=64,
            n_trials=10_000,
            seed=42,
            exact_cell_prob=q,
        )
        assert stats.matches_exact

        freqs = []
        for n in (16, 64, 256):
            sweep_stats = pauli_violation_stats(
                sampler, tiling, 0, epsilon=0.25, n_particles=n, n_trials=10_000, seed=5
            )
            freqs.append(sweep_stats.frequency)
        fit = decay_fit([16, 64, 256], freqs, 0.25, 1.0 / 20.0)
        assert fit["slope_vs_logn"] < 0
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        report(
            10,
            f"MC {stats.frequency:.4f} vs exact {stats.exact_tail:.4f} in CI, "
            f"decay slope {fit['slope_vs_logn']:.2f}, {elapsed:.1f}s",
        )
