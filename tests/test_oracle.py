import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigas.errors import CapExceededError, ConvergenceError, ValidationError
from fermigas.model import (
    SpatialGrid,
    _one_body_diagonals,
    box_profile,
    bump_profile,
    double_well_potential,
    harmonic_potential,
    quartic_potential,
    scaled_interaction,
)
from fermigas.oracle import (
    DENSE_FALLBACK_DIM,
    ORACLE_MEMORY_CAP,
    DiscreteHamiltonian,
    _slater_start,
    FermionState,
    apriori_diagnostics,
    expectation,
    fitted_exponent,
    free_fermion_energy,
    ground_state,
    one_body_matrix,
    oracle_memory_bytes,
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


# ---------------------------------------------------------------------------
# Mask oracles: the uint64 bit-mask basis (M <= 63), its searchsorted
# Hamiltonian build and its mask-scan reduced densities, which the colex-rank
# paths replace.
# ---------------------------------------------------------------------------


def mask_basis(m, n):
    """Occupations and uint64 masks in ascending mask order."""
    descending = np.array(list(combinations(range(m - 1, -1, -1), n)), dtype=np.int64)
    occ = np.ascontiguousarray(descending[::-1, ::-1])
    masks = np.zeros(occ.shape[0], dtype=np.uint64)
    for col in range(n):
        masks |= np.uint64(1) << occ[:, col].astype(np.uint64)
    return occ, masks


def searchsorted_matrix(ham):
    """The Hamiltonian, every hop target found by searchsorted on the masks."""
    m, n = ham.grid.points_per_axis, ham.n_particles
    occ, masks = mask_basis(m, n)
    hop = ham.hbar**2 / ham.grid.spacing**2
    v = np.asarray(ham.potential.evaluate(ham.grid.points()), dtype=float)
    diag = v[occ].sum(axis=1) + 2.0 * hop * n
    if ham.w_n is not None:
        coupling = ham.w_n.pair_matrix(ham.grid)
        for a in range(n):
            for b in range(a + 1, n):
                diag -= coupling[occ[:, a], occ[:, b]] / n
    rows, cols = [], []
    one = np.uint64(1)
    for col in range(n):
        sites = occ[:, col]
        for step in (-1, 1):
            target = sites + step
            ok = (target >= 0) & (target < m)
            ok &= ((masks >> target.clip(0, m - 1).astype(np.uint64)) & one) == 0
            src = np.nonzero(ok)[0]
            new_masks = masks[src] ^ (one << sites[src].astype(np.uint64)) | (one << target[src].astype(np.uint64))
            rows.append(src)
            cols.append(np.searchsorted(masks, new_masks))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    mat = sp.coo_matrix((np.full(rows.shape, -hop), (rows, cols)), shape=(ham.dim, ham.dim))
    return (mat + sp.diags(diag)).tocsr()


def mask_scan_densities(ham, coeffs):
    """rho1, rho2 by np.add.at and gamma1 by one mask pass per site pair."""
    m, n, h = ham.grid.points_per_axis, ham.n_particles, ham.grid.spacing
    occ, masks = mask_basis(m, n)
    w2 = coeffs**2
    site_occ = np.zeros(m)
    np.add.at(site_occ, occ.ravel(), np.repeat(w2, n))
    pair = np.zeros((m, m))
    for a in range(n):
        for b in range(a + 1, n):
            np.add.at(pair, (occ[:, a], occ[:, b]), w2)
    gamma = np.diag(site_occ)
    one = np.uint64(1)
    for i in range(m):
        bit_i = one << np.uint64(i)
        has_i = (masks & bit_i) != 0
        for j in range(i + 1, m):
            bit_j = one << np.uint64(j)
            sel = np.nonzero(has_i & ((masks & bit_j) == 0))[0]
            dst = np.searchsorted(masks, (masks[sel] ^ bit_i) | bit_j)
            # Jordan-Wigner string: parity of occupation strictly between i and j
            between = ((one << np.uint64(j)) - one) ^ ((one << np.uint64(i + 1)) - one)
            signs = 1.0 - 2.0 * (np.bitwise_count(masks[sel] & between) & 1)
            gamma[i, j] = gamma[j, i] = float(np.sum(signs * coeffs[sel] * coeffs[dst]))
    return site_occ / h, (pair + pair.T) / (2.0 * h * h), gamma


# the largest M per N that keeps a property example under about 20k states
LARGEST_M = {1: 40, 2: 40, 3: 40, 4: 28, 5: 22}
lattices = st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(max(n, 2), LARGEST_M[n]), st.booleans())
)


# Lanczos cases just above DENSE_FALLBACK_DIM (dims 153 to 780): traps whose
# even V splits the basis into two reflection sectors, attractive kernels
# strong enough to move the ground state from one sector to the other.
TRAPS = {
    "harmonic": harmonic_potential(1),
    "quartic": quartic_potential(1),
    "double_well": double_well_potential(1),
    # wells deep enough that the lowest orbitals pair up and the ground
    # energies of the two sectors meet to 1e-13
    "deep_double_well": double_well_potential(1, well_radius=2.0, stiffness=10.0),
}
KERNELS = {"bump": bump_profile, "box": box_profile}
hard_lanczos_cases = st.tuples(
    st.sampled_from([(18, 2), (20, 2), (40, 2), (11, 3), (12, 3), (10, 4), (10, 5)]),
    st.sampled_from(sorted(TRAPS)),
    st.sampled_from(sorted(KERNELS)),
    st.floats(0.0, 2000.0),
    st.floats(0.2, 1.5),
)


def determinant_start(ham):
    """The batched-determinant start vector that the Laplace levels replaced, kept as their oracle."""
    m, n = ham.grid.points_per_axis, ham.n_particles
    diag, off = _one_body_diagonals(ham.grid, ham.potential, ham.hbar)
    _, u = eigh_tridiagonal(diag, off, select="i", select_range=(0, min(n, m - 1)))
    picks = [np.arange(n)] + ([np.r_[: n - 1, n]] if n < m else [])
    rows = ham.occupations[:, :, None]
    return sum(np.linalg.det(u[rows, cols]) for cols in picks)


def mirrored_rows(ham):
    """Row of each basis state under the reflection c -> M - 1 - c."""
    m, n = ham.grid.points_per_axis, ham.n_particles
    mirrored = (m - 1 - ham.occupations)[:, ::-1]
    return ham.binomials[mirrored, np.arange(1, n + 1)].sum(axis=1)


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

    # iterative (dim 2300) and dense (dim 66) paths
    @pytest.mark.parametrize("m, n", [(25, 3), (12, 2)], ids=["25", "12"])
    def test_unreachable_tol_raises(self, m, n):
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), POTENTIAL, n, w_n=scaled_interaction(PROFILE, n))
        assert (ham.dim <= DENSE_FALLBACK_DIM) == (m == 12)
        with pytest.raises(ConvergenceError):
            ground_state(ham, tol=1e-300)

    @settings(max_examples=40, deadline=None)
    @given(case=hard_lanczos_cases)
    def test_lanczos_path_matches_dense_eigh(self, case):
        (m, n), trap, kernel, height, radius = case
        w_n = scaled_interaction(KERNELS[kernel](1, beta=0.2, radius=radius, height=height), n)
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), TRAPS[trap], n, w_n=w_n)
        assert ham.dim > DENSE_FALLBACK_DIM
        energy, _ = ground_state(ham)
        ref = np.linalg.eigvalsh(ham.matrix.toarray())[0]
        assert abs(energy - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("trap", sorted(TRAPS))
    @pytest.mark.parametrize("m, n", [(40, 2), (24, 3), (16, 4), (14, 5)])
    def test_start_vector_spans_both_reflection_sectors(self, trap, m, n):
        # P maps row r to mirrored_rows[r] up to the global sign (-1)^(N(N-1)/2)
        # of reversing the slot order, which only swaps the two sectors
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), TRAPS[trap], n)
        v0 = _slater_start(ham)
        reflected = np.empty_like(v0)
        reflected[mirrored_rows(ham)] = v0
        for sign in (1.0, -1.0):
            assert np.linalg.norm(v0 + sign * reflected) >= 0.1 * np.linalg.norm(v0)

    # N = 1, N = M, N > M/2 (the middle level outgrows the basis), and N < M/2
    @pytest.mark.parametrize("m, n", [(9, 1), (200, 1), (7, 7), (12, 12), (12, 9), (16, 12), (14, 7), (24, 3), (40, 2)])
    @pytest.mark.parametrize("trap", ["harmonic", "double_well"])
    def test_laplace_start_matches_determinants(self, trap, m, n):
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), TRAPS[trap], n)
        v0, ref = _slater_start(ham), determinant_start(ham)
        assert v0.shape == ref.shape == (ham.dim,)
        assert np.max(np.abs(v0 - ref)) <= 1e-12

    def test_free_fermions_on_a_fine_grid(self):
        ham = make_ham(2, grid=SpatialGrid(1, 2.5, 200))
        assert ham.dim > DENSE_FALLBACK_DIM
        assert ground_state(ham)[0] == pytest.approx(free_fermion_energy(ham), abs=1e-9)

    @pytest.mark.parametrize("m, n", [(40, 3), (2000, 1)])
    def test_free_fermion_energy_matches_dense_eigvalsh(self, m, n):
        ham = make_ham(n, grid=SpatialGrid(1, 2.5, m))
        dense = np.linalg.eigvalsh(one_body_matrix(ham.grid, POTENTIAL, ham.hbar))[:n].sum()
        assert free_fermion_energy(ham) == pytest.approx(dense, abs=1e-10)

    def test_basis_cap(self):
        with pytest.raises(CapExceededError):
            DiscreteHamiltonian(GRID, POTENTIAL, 4, memory_cap=oracle_memory_bytes(40, 4) - 1)

    def test_colex_rank_of_row_is_row(self):
        ham = make_ham(3)
        occ = ham.occupations
        ranks = sum(np.array([math.comb(c, a + 1) for c in range(40)])[occ[:, a]] for a in range(3))
        assert np.array_equal(ranks, np.arange(ham.dim))
        assert np.all(np.diff(occ, axis=1) > 0)
        # ascending masks are colex order: the rows are the mask basis's rows
        assert np.array_equal(occ, mask_basis(40, 3)[0])

    @settings(max_examples=25, deadline=None)
    @given(lattice=lattices)
    def test_matrix_matches_searchsorted_build(self, lattice):
        n, m, interacting = lattice
        ham = make_ham(n, interacting, SpatialGrid(1, 2.5, m))
        ref = searchsorted_matrix(ham)
        assert ham.matrix.has_sorted_indices
        assert ham.matrix.nnz == ref.nnz
        assert np.array_equal(ham.matrix.indptr, ref.indptr)
        assert np.array_equal(ham.matrix.indices, ref.indices)
        assert np.array_equal(ham.matrix.data, ref.data)

    def test_sixty_four_sites_against_dense_eigh(self):
        grid = SpatialGrid(1, 2.5, 64)
        ham = make_ham(2, interacting=True, grid=grid)
        assert ham.dim == math.comb(64, 2) > DENSE_FALLBACK_DIM
        energy, state = ground_state(ham, tol=1e-10)
        assert energy == pytest.approx(np.linalg.eigvalsh(ham.matrix.toarray())[0], abs=1e-9)
        assert np.trace(reduced_densities(state).gamma1) == pytest.approx(2.0, abs=1e-12)
        free = make_ham(2, grid=grid)
        assert ground_state(free)[0] == pytest.approx(free_fermion_energy(free), abs=1e-9)

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


class TestMemoryCap:
    @pytest.mark.parametrize("m, n", [(64, 5), (5000, 1)])  # basis-bound and M x M-bound
    def test_raises_before_allocating(self, m, n):
        grid = SpatialGrid(1, 2.5, m)
        assert oracle_memory_bytes(m, n) > ORACLE_MEMORY_CAP
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="MiB"):
                DiscreteHamiltonian(grid, POTENTIAL, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("m, n", [(400, 1), (48, 3), (24, 5), (16, 12)])
    def test_estimate_bounds_traced_peak(self, m, n):
        grid = SpatialGrid(1, 2.5, m)
        tracemalloc.start()
        try:
            ham = DiscreteHamiltonian(grid, POTENTIAL, n, w_n=scaled_interaction(PROFILE, n))
            _, state = ground_state(ham)
            red = reduced_densities(state)
            apriori_diagnostics(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert red.gamma1.shape == (m, m)
        assert peak <= oracle_memory_bytes(m, n)


    # dense-path bases (dims 3 to 136): the matrix, eigenvectors and LAPACK workspace
    @pytest.mark.parametrize("m, n", [(3, 2), (9, 4), (17, 2), (150, 1)])
    def test_estimate_bounds_dense_path_peak(self, m, n):
        grid = SpatialGrid(1, 2.5, m)
        tracemalloc.start()
        try:
            ham = DiscreteHamiltonian(grid, POTENTIAL, n, w_n=scaled_interaction(PROFILE, n))
            assert ham.dim <= DENSE_FALLBACK_DIM
            _, state = ground_state(ham)
            reduced_densities(state)
            apriori_diagnostics(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= oracle_memory_bytes(m, n)


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

    def test_single_particle(self, rng):
        ham = make_ham(1, interacting=True)
        _, ground = ground_state(ham)
        random = rng.standard_normal(ham.dim)
        for state in (ground, FermionState(ham, random / np.linalg.norm(random))):
            red = reduced_densities(state)
            psi = state.coefficients
            assert not np.any(red.rho2)
            assert np.max(np.abs(red.gamma1 - np.outer(psi, psi))) <= 1e-15
            assert red.rho1 == pytest.approx(psi**2 / GRID.spacing, abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(lattice=lattices, seed=st.integers(0, 2**32 - 1))
    def test_densities_match_mask_scan(self, lattice, seed):
        n, m, interacting = lattice
        ham = make_ham(n, interacting, SpatialGrid(1, 2.5, m))
        _, ground = ground_state(ham)
        random = np.random.default_rng(seed).standard_normal(ham.dim)
        for state in (ground, FermionState(ham, random / np.linalg.norm(random))):
            red = reduced_densities(state)
            rho1, rho2, gamma1 = mask_scan_densities(ham, state.coefficients)
            assert np.max(np.abs(red.gamma1 - gamma1)) <= 1e-12
            assert np.max(np.abs(red.rho1 - rho1)) <= 1e-12
            assert np.max(np.abs(red.rho2 - rho2)) <= 1e-12

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
