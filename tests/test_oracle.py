import math

import numpy as np
import pytest

from fermigas.errors import CapExceededError, ConvergenceError, ValidationError
from fermigas.model import SpatialGrid, bump_profile, harmonic_potential, scaled_interaction
from fermigas.oracle import (
    DiscreteHamiltonian,
    FermionState,
    apriori_diagnostics,
    expectation,
    fitted_exponent,
    free_fermion_energy,
    ground_state,
    one_body_matrix,
    reduced_densities,
    slater_energy,
    slater_upper_bound,
)

GRID = SpatialGrid(1, 2.5, 40)
POTENTIAL = harmonic_potential(1)
PROFILE = bump_profile(1, beta=0.2, radius=1.0, height=2.0)


def make_ham(n, interacting=False, grid=GRID):
    w_n = scaled_interaction(PROFILE, n) if interacting else None
    return DiscreteHamiltonian(grid, POTENTIAL, n, w_n=w_n)


class TestGroundState:
    def test_single_particle_matches_dense_one_body(self):
        # the pair coupling is inert at N = 1, interacting or not
        for interacting in (False, True):
            ham = make_ham(1, interacting=interacting)
            energy, _ = ground_state(ham)
            dense = np.linalg.eigvalsh(one_body_matrix(GRID, POTENTIAL, ham.hbar))
            assert energy == pytest.approx(dense[0], abs=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_free_fermions_fill_orbitals(self, n):
        ham = make_ham(n)
        energy, _ = ground_state(ham)
        assert energy == pytest.approx(free_fermion_energy(ham), abs=1e-8)

    def test_attraction_lowers_energy(self):
        e_free, _ = ground_state(make_ham(2))
        e_int, _ = ground_state(make_ham(2, interacting=True))
        assert e_int <= e_free + 1e-12

    def test_eigsh_path_agrees_with_dense_eigh(self):
        # dim 2300 forces the iterative path; dense eigh of the same matrix is the cross-check
        grid = SpatialGrid(1, 2.5, 25)
        ham = DiscreteHamiltonian(grid, POTENTIAL, 3, w_n=scaled_interaction(PROFILE, 3))
        assert ham.dim == math.comb(25, 3) == 2300
        energy, state = ground_state(ham, tol=1e-10)
        ref = np.linalg.eigvalsh(ham.matrix.toarray())[0]
        assert energy == pytest.approx(ref, abs=1e-9)
        residual = np.linalg.norm(ham.matrix @ state.coefficients - energy * state.coefficients)
        assert residual <= 1e-9

    @pytest.mark.parametrize("m", [25, 12])  # iterative (dim 2300) and dense (dim 220) paths
    def test_unreachable_tol_raises(self, m):
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), POTENTIAL, 3, w_n=scaled_interaction(PROFILE, 3))
        with pytest.raises(ConvergenceError):
            ground_state(ham, tol=1e-300)

    def test_basis_cap(self):
        with pytest.raises(CapExceededError):
            DiscreteHamiltonian(GRID, POTENTIAL, 4, basis_cap=1000)

    def test_masks_strictly_increasing(self):
        ham = make_ham(3)
        assert np.all(ham.masks[1:] > ham.masks[:-1])
        assert np.all(np.diff(ham.occupations, axis=1) > 0)

    def test_rayleigh_ritz_dominance(self, rng):
        ham = make_ham(3, interacting=True)
        energy, _ = ground_state(ham)
        for _ in range(20):
            trial = rng.standard_normal(ham.dim)
            assert expectation(ham, trial) >= energy - 1e-10

    def test_exact_state_reaches_equality(self):
        ham = make_ham(2, interacting=True)
        energy, state = ground_state(ham)
        assert expectation(ham, state.coefficients) == pytest.approx(energy, abs=1e-12)


class TestReducedDensities:
    def test_free_slater_density_is_orbital_sum(self):
        ham = make_ham(2)
        _, state = ground_state(ham)
        red = reduced_densities(state)
        t_mat = one_body_matrix(GRID, POTENTIAL, ham.hbar)
        _, vecs = np.linalg.eigh(t_mat)
        orbital_density = (vecs[:, 0] ** 2 + vecs[:, 1] ** 2) / GRID.spacing
        assert red.rho1 == pytest.approx(orbital_density, abs=1e-10)

    def test_trace_counts_particles(self):
        ham = make_ham(3, interacting=True)
        _, state = ground_state(ham)
        red = reduced_densities(state)
        assert np.trace(red.gamma1) == pytest.approx(3.0, abs=1e-10)
        assert GRID.integrate(red.rho1) == pytest.approx(3.0, abs=1e-10)

    def test_pair_density_normalization_and_diagonal(self):
        ham = make_ham(3, interacting=True)
        _, state = ground_state(ham)
        red = reduced_densities(state)
        assert np.all(np.diag(red.rho2) == 0.0)
        total = red.rho2.sum() * GRID.spacing**2
        assert total == pytest.approx(math.comb(3, 2), abs=1e-10)

    def test_occupations_pauli_bound(self):
        ham = make_ham(3, interacting=True)
        _, state = ground_state(ham)
        occ = reduced_densities(state).occupations()
        assert occ.max() <= 1.0 + 1e-8
        assert occ.min() >= -1e-8

    def test_k_exceeding_n(self):
        ham = make_ham(2)
        _, state = ground_state(ham)
        with pytest.raises(ValidationError):
            reduced_densities(state, k=3)

    def test_gamma_offdiagonal_matches_slater(self):
        # free-fermion gamma must equal the orbital projector, strings included
        ham = make_ham(3)
        _, state = ground_state(ham)
        red = reduced_densities(state)
        t_mat = one_body_matrix(GRID, POTENTIAL, ham.hbar)
        _, vecs = np.linalg.eigh(t_mat)
        projector = vecs[:, :3] @ vecs[:, :3].T
        assert np.max(np.abs(np.abs(red.gamma1) - np.abs(projector))) < 1e-8

    def test_interacting_gamma_matches_enumeration(self, rng):
        # <c_i^dag c_j> applied to each occupation tuple, signs from the sites between i and j
        grid = SpatialGrid(1, 2.5, 20)
        ham = DiscreteHamiltonian(grid, POTENTIAL, 3, w_n=scaled_interaction(PROFILE, 3))
        _, ground = ground_state(ham)
        random = rng.standard_normal(ham.dim)
        for state in (ground, FermionState(ham, random / np.linalg.norm(random))):
            coeffs = state.coefficients
            rows = ham.occupations.tolist()
            row_of = {tuple(sites): r for r, sites in enumerate(rows)}
            ref = np.zeros((grid.size, grid.size))
            for r, sites in enumerate(rows):
                for j in sites:
                    for i in range(grid.size):
                        if i != j and i in sites:
                            continue
                        hopped = tuple(sorted(set(sites) - {j} | {i}))
                        between = sum(min(i, j) < s < max(i, j) for s in sites)
                        ref[i, j] += (-1) ** between * coeffs[row_of[hopped]] * coeffs[r]
            assert np.max(np.abs(reduced_densities(state).gamma1 - ref)) <= 1e-12


class TestSlaterUpperBound:
    def test_variational_inequality_from_lift(self):
        # one-body matrix from the phase-space route, evaluated on the oracle
        from fermigas.husimi import CoherentFamily, gamma_from_measure
        from fermigas.model import TFConstants
        from fermigas.tf_solver import RelaxedLocalEnergy, minimize_1d_relaxed, sample_minimizer
        from fermigas.vlasov import bathtub_lift, brillouin_momentum_grid

        grid = SpatialGrid(1, 2.5, 48)
        n = 3
        constants = TFConstants.bathtub_consistent(1)
        rel = RelaxedLocalEnergy(constants.c_tf, PROFILE.i_w)
        fine = minimize_1d_relaxed(POTENTIAL, rel, grid.refine(16), tol=1e-3)
        rho = sample_minimizer(POTENTIAL, rel, grid, fine.lam)
        family = CoherentFamily.default(n, 0.1)
        momentum = brillouin_momentum_grid(grid, family.hbar)
        lift = bathtub_lift(rho, constants, momentum)
        gamma = gamma_from_measure(lift, family)

        ham = DiscreteHamiltonian(grid, POTENTIAL, n, w_n=scaled_interaction(PROFILE, n))
        energy, _ = ground_state(ham)
        report = slater_upper_bound(ham, gamma.matrix, ground_energy=energy)
        assert report.satisfied
        assert report.trial_energy >= energy - 1e-10

    def test_exact_orbitals_tight_for_free_case(self):
        ham = make_ham(3)
        energy, _ = ground_state(ham)
        t_mat = one_body_matrix(GRID, POTENTIAL, ham.hbar)
        _, vecs = np.linalg.eigh(t_mat)
        trial = slater_energy(ham, vecs[:, :3])
        assert trial == pytest.approx(energy, abs=1e-10)

    def test_rank_deficiency_rejected(self):
        ham = make_ham(3)
        rank1 = np.zeros((GRID.size, GRID.size))
        rank1[0, 0] = 1.0
        with pytest.raises(ValidationError, match="rank"):
            slater_upper_bound(ham, rank1, ground_energy=0.0)

    def test_slater_energy_matches_full_expectation(self):
        # Wick-rule evaluation against the explicit determinant vector
        ham = make_ham(2, interacting=True)
        t_mat = one_body_matrix(GRID, POTENTIAL, ham.hbar)
        _, vecs = np.linalg.eigh(t_mat)
        orbitals = vecs[:, :2]
        coeffs = np.zeros(ham.dim)
        for row in range(ham.dim):
            i, j = ham.occupations[row]
            coeffs[row] = orbitals[i, 0] * orbitals[j, 1] - orbitals[j, 0] * orbitals[i, 1]
        coeffs /= np.linalg.norm(coeffs)
        assert slater_energy(ham, orbitals) == pytest.approx(expectation(ham, coeffs), abs=1e-9)


class TestAprioriDiagnostics:
    def test_free_case_zero_interaction(self):
        ham = make_ham(2)
        _, state = ground_state(ham)
        report = apriori_diagnostics(state)
        assert report.interaction_integral == 0.0

    def test_free_kinetic_potential_is_orbital_sum(self):
        ham = make_ham(3)
        _, state = ground_state(ham)
        report = apriori_diagnostics(state)
        assert report.kinetic_potential == pytest.approx(free_fermion_energy(ham), abs=1e-8)

    def test_interacting_kinetic_potential_is_one_body_trace(self):
        ham = make_ham(3, interacting=True)
        _, state = ground_state(ham)
        report = apriori_diagnostics(state)
        t_mat = one_body_matrix(GRID, POTENTIAL, ham.hbar)
        trace = float(np.sum(t_mat * reduced_densities(state).gamma1.T))
        assert report.interaction_integral > 0.0
        assert report.kinetic_potential == pytest.approx(trace, abs=1e-10)

    def test_sweep_monotone_and_fitted_exponent(self):
        values, kinpots = [], []
        for n in (2, 3, 4):
            ham = make_ham(n, interacting=True)
            _, state = ground_state(ham)
            rep = apriori_diagnostics(state)
            values.append(rep.interaction_integral)
            kinpots.append(rep.kinetic_potential)
        assert kinpots == sorted(kinpots)
        assert values == sorted(values)
        assert fitted_exponent([2, 3, 4], kinpots) > 0


class TestHusimiCrossCheck:
    def test_oracle_gamma_obeys_frame_identities(self):
        from fermigas.husimi import CoherentFamily, OneBodyOperator, marginal_identity_report

        grid = SpatialGrid(1, 2.3, 56)
        ham = DiscreteHamiltonian(grid, POTENTIAL, 3, w_n=scaled_interaction(PROFILE, 3))
        _, state = ground_state(ham)
        red = reduced_densities(state)
        gamma = OneBodyOperator(grid, red.gamma1)
        family = CoherentFamily(3, 0.5, (1.0 / 3.0) ** 2 / 0.5)
        report = marginal_identity_report(gamma, family)
        assert report["trace_normalized"] == pytest.approx(1.0, abs=1e-3)
        assert report["space_l1_gap"] <= 1e-3
        assert report["momentum_l1_gap"] <= 1e-3
