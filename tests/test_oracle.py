import math
import tracemalloc
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from numpy.polynomial import legendre
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import LinearOperator, eigsh
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermigas import oracle
from fermigas.errors import CapExceededError, ConvergenceError, ValidationError
from fermigas.model import (
    LatticeModel,
    SpatialGrid,
    TrapPotential,
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
    RESIDUAL_FLOOR_EPS,
    DiscreteHamiltonian,
    _gershgorin_bounds,
    _gershgorin_radii,
    _mirror_fold,
    _mirror_rows,
    _product_start,
    _ritz_bound,
    _site_and_pair_occupations,
    FermionState,
    apriori_diagnostics,
    expectation,
    free_fermion_energy,
    ground_state,
    oracle_memory_bytes,
    reduced_densities,
    slater_upper_bound,
)

GRID = SpatialGrid(1, 2.5, 40)
POTENTIAL = harmonic_potential(1)
PROFILE = bump_profile(1, beta=0.2, radius=1.0, height=2.0)


def one_body_matrix(model):
    """Dense one-body matrix of a lattice model: 3-point -hbar^2*Laplacian plus diagonal V."""
    diag, off = model.one_body_diagonals()
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def pair_matrix(w_n, grid):
    """w_N(|x_i - x_j|) over the sites of a 1D grid, the dense coupling the lag-table sums replaced."""
    m = grid.points_per_axis
    table = np.asarray(w_n.evaluate((np.arange(m) * grid.spacing)[:, None]), dtype=float)
    return table[np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])]


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
        coupling = pair_matrix(ham.w_n, ham.grid)
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


# Lanczos cases just above DENSE_FALLBACK_DIM (dims 153 to 780): even traps,
# whose reflection splits the basis into two sectors, and attractive kernels
# from weak to strong; the positive ground state stays in the symmetric one.
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


def long_double_dets(a, chunk=2048):
    """Determinants of a stack of square matrices by partial-pivoting elimination in long double."""
    dets = np.empty(a.shape[0], dtype=np.longdouble)
    for lo in range(0, a.shape[0], chunk):
        b = a[lo : lo + chunk].astype(np.longdouble)
        det = np.ones(b.shape[0], dtype=np.longdouble)
        rows = np.arange(b.shape[0])
        for k in range(b.shape[1]):
            p = k + np.argmax(np.abs(b[:, k:, k]), axis=1)
            b[rows, k], b[rows, p] = b[rows, p], b[rows, k].copy()
            det *= np.where(p == k, 1, -1) * b[:, k, k]
            b[:, k + 1 :, k:] -= b[:, k + 1 :, k, None] / b[:, k, k, None, None] * b[:, None, k, k:]
        dets[lo : lo + chunk] = det
    return dets


def polynomial_determinants(ham, even):
    """det[u0(c_a) P_k(y_a)] per basis row at unit norm, P_k the Legendre polynomials, k < N.

    The Legendre matrix of N of M equispaced nodes is ill-conditioned at N ~ 15,
    so it is formed and eliminated in long double.
    """
    m, n = ham.grid.points_per_axis, ham.n_particles
    diag, off = ham.one_body_diagonals()
    u0 = np.abs(eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[1][:, 0])
    if even:
        u0 += u0[::-1]
    p = u0[:, None] * legendre.legvander(np.linspace(-1.0, 1.0, m, dtype=np.longdouble), n - 1)
    dets = long_double_dets(p[ham.occupations])
    return (dets / np.sqrt(np.sum(dets * dets))).astype(float)


def reference_start(ham):
    """A seeded random positive vector: it overlaps the positive ground state and both mirror sectors."""
    return np.random.default_rng(ham.dim).uniform(0.5, 1.5, ham.dim)


def parent_ground_state(ham, tol=1e-9):
    """The full-space solve that the mirror fold replaced, kept as its oracle: eigsh on H."""
    v0 = reference_start(ham)
    eps = np.finfo(float).eps
    low, _ = _gershgorin_bounds(ham, ham.matrix.diagonal())
    tol_arpack = max(0.1 * tol / max(_ritz_bound(ham, v0, low), eps ** (2.0 / 3.0)), eps)
    evals, evecs = eigsh(ham.matrix, k=1, which="SA", v0=v0, tol=tol_arpack)
    return float(evals[0]), evecs[:, 0] / np.linalg.norm(evecs[:, 0])


def table_matrix(ham):
    """The Hamiltonian from (dim, 2N+1) column, value and mask tables, the build the CSR fill replaced."""
    m, n, dim, occ = ham.grid.points_per_axis, ham.n_particles, ham.dim, ham.occupations
    hop = ham.hbar**2 / ham.grid.spacing**2
    v = ham.grid.sample(ham.potential.evaluate)
    diag = v[occ].sum(axis=1) + 2.0 * hop * n
    if ham.w_n is not None:
        coupling = pair_matrix(ham.w_n, ham.grid)
        for a in range(n):
            for b in range(a + 1, n):
                diag -= coupling[occ[:, a], occ[:, b]] / n
    slots = np.arange(n)
    rows = np.arange(dim)[:, None]
    below = np.column_stack([np.full(dim, -1), occ[:, :-1]])
    above = np.column_stack([occ[:, 1:], np.full(dim, m)])
    cols = np.empty((dim, 2 * n + 1), dtype=np.int64)
    valid = np.empty(cols.shape, dtype=bool)
    cols[:, n - 1 :: -1] = rows - ham.binomials[occ - 1, slots]
    valid[:, n - 1 :: -1] = occ - 1 > below
    cols[:, n] = rows[:, 0]
    valid[:, n] = True
    cols[:, n + 1 :] = rows + ham.binomials[occ, slots]
    valid[:, n + 1 :] = occ + 1 < above
    data = np.full(cols.shape, -hop)
    data[:, n] = diag
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(valid, axis=1))])
    return sp.csr_matrix((data[valid], cols[valid], indptr), shape=(dim, dim))


def abs_sum_ritz_bound(ham, v0):
    """The Ritz bound with Gershgorin radii from a copy |H| of the matrix."""
    diag = ham.matrix.diagonal()
    radii = np.asarray(abs(ham.matrix).sum(axis=1)).ravel() - np.abs(diag)
    return max(abs(expectation(ham, v0)), abs(float(np.min(diag - radii))))


def parent_estimate(m, n, levels_max):
    """The estimate before the direct CSR build: two per-state terms, Laplace levels up to k = N."""
    dim = math.comb(m, n)
    per_state = max(120 + 85 * n, 410 + 25 * n)
    if dim <= DENSE_FALLBACK_DIM:
        solve = dim * per_state + 32 * dim * dim
    else:
        solve = max(dim * per_state, (48 + 24 * n) * dim + levels_max)
    return solve + 8 * m * math.comb(m, n - 1) + 48 * m * m + (1 << 16)


# M <= 40, N <= 6 and N = M, at most about 40k states per example
BUILD_LARGEST_M = {1: 40, 2: 40, 3: 40, 4: 30, 5: 24, 6: 20}
build_cases = st.tuples(
    st.integers(1, 6).flatmap(lambda n: st.tuples(st.integers(max(n, 2), BUILD_LARGEST_M[n]), st.just(n))),
    st.sampled_from(["harmonic", "quartic", "double_well"]),
    st.sampled_from([None, "bump", "box"]),
    st.floats(0.0, 50.0),
    st.floats(0.2, 1.5),
)


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
            dense = np.linalg.eigvalsh(one_body_matrix(ham))
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

    # the gate after the iterative (dim 2300) and the dense (dim 66) solve: the solver's
    # vector is perturbed by 1e-6, far above the default tol and the residual floor
    @pytest.mark.parametrize("m, n", [(25, 3), (12, 2)], ids=["25", "12"])
    def test_unreachable_tol_raises(self, m, n):
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), POTENTIAL, n, w_n=scaled_interaction(PROFILE, n))
        dense = ham.dim <= DENSE_FALLBACK_DIM
        assert dense == (m == 12)
        ground_state(ham)
        target, solver = ("numpy.linalg.eigh", np.linalg.eigh) if dense else ("scipy.sparse.linalg.eigsh", eigsh)

        def perturbed(*args, **kwargs):
            evals, evecs = solver(*args, **kwargs)
            return evals, evecs + 1e-6 * np.random.default_rng(m).standard_normal(evecs.shape)

        with patch(target, side_effect=perturbed) as called:
            with pytest.raises(ConvergenceError, match="exceeds tol"):
                ground_state(ham)
        assert called.call_count == 1

    def test_tol_below_residual_floor_rejected_before_solving(self):
        # N = 1 on the default grid: the default tol falls below 6 eps ||H|| first at M = 2166
        eps = np.finfo(float).eps
        below, above = (DiscreteHamiltonian(SpatialGrid(1, 2.5, m), POTENTIAL, 1) for m in (2165, 2166))
        floor = [RESIDUAL_FLOOR_EPS * eps * float(abs(h.matrix).sum(axis=1).max()) for h in (below, above)]
        assert floor[0] <= 1e-9 < floor[1]
        with patch("scipy.sparse.linalg.eigsh", side_effect=AssertionError("the solve ran")):
            with pytest.raises(ValidationError, match="residual floor"):
                ground_state(above)
        energy, state = ground_state(below)
        assert np.linalg.norm(below.matrix @ state.coefficients - energy * state.coefficients) <= 1e-9

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
        # the full-space oracle's start, which must reach a ground state in either
        # sector; P maps row r to mirrored_rows[r] up to the global sign
        # (-1)^(N(N-1)/2) of reversing the slot order, which only swaps the two sectors
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), TRAPS[trap], n)
        v0 = reference_start(ham)
        reflected = np.empty_like(v0)
        reflected[mirrored_rows(ham)] = v0
        for sign in (1.0, -1.0):
            assert np.linalg.norm(v0 + sign * reflected) >= 0.1 * np.linalg.norm(v0)

    # N = 1, N = M, N > M/2 (N = M - 1 included, and (40, 37), where the plain
    # product overflows) and N < M/2; every trap is even
    @pytest.mark.parametrize("trap", sorted(TRAPS))
    @pytest.mark.parametrize(
        "m, n",
        [(40, 2), (24, 3), (16, 4), (14, 5), (14, 10), (24, 18), (40, 37), (9, 1), (200, 1), (7, 7),
         (12, 12), (12, 9), (16, 12), (14, 7), (13, 6), (13, 7), (14, 8), (10, 9), (20, 15)],
    )
    def test_start_vector_is_positive_and_mirror_symmetric(self, trap, m, n):
        # nonnegative and nonzero, so it overlaps the positive ground state; the
        # symmetrized orbital and the site lags are even, so it lies in that state's
        # sector, also where the lowest orbital pair is degenerate (deep double well)
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), TRAPS[trap], n)
        v0 = _product_start(ham, even=True)
        assert v0.shape == (ham.dim,)
        assert np.all(np.isfinite(v0)) and v0.min() >= 0.0
        assert np.linalg.norm(v0) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(v0 - v0[mirrored_rows(ham)])) <= 1e-12
        if n == 1:
            diag, off = ham.one_body_diagonals()
            u0 = np.abs(eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[1][:, 0])
            assert np.max(np.abs(_product_start(ham, even=False) - u0)) <= 1e-12
            u0 += u0[::-1]
            assert np.max(np.abs(v0 - u0 / np.linalg.norm(u0))) <= 1e-12

    # N = 1, N = M, N > M/2 (N = M - 1 included) and N < M/2; the quartic and deep
    # double-well spectra hold exactly degenerate pairs. The name is the Laplace
    # expansion's that the product form replaced; the determinants it is checked
    # against are those of u0 times polynomials of degree < N, whose minors factor
    # into prod_a u0(c_a) and a Vandermonde product
    @pytest.mark.parametrize(
        "m, n",
        [(9, 1), (200, 1), (7, 7), (12, 12), (12, 9), (16, 12), (14, 7), (24, 3), (40, 2),
         (13, 6), (13, 7), (14, 8), (10, 9), (20, 15)],
    )
    @pytest.mark.parametrize("trap", ["harmonic", "double_well", "quartic", "deep_double_well"])
    def test_laplace_start_matches_determinants(self, trap, m, n):
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), TRAPS[trap], n)
        for even in (False, True):
            v0, ref = _product_start(ham, even=even), polynomial_determinants(ham, even)
            assert v0.shape == ref.shape == (ham.dim,)
            assert np.max(np.abs(v0 - ref)) <= 1e-12

    def test_free_fermions_on_a_fine_grid(self):
        ham = make_ham(2, grid=SpatialGrid(1, 2.5, 200))
        assert ham.dim > DENSE_FALLBACK_DIM
        assert ground_state(ham)[0] == pytest.approx(free_fermion_energy(ham), abs=1e-9)

    @pytest.mark.parametrize("m, n", [(40, 3), (2000, 1)])
    def test_free_fermion_energy_matches_dense_eigvalsh(self, m, n):
        ham = make_ham(n, grid=SpatialGrid(1, 2.5, m))
        dense = np.linalg.eigvalsh(one_body_matrix(ham))[:n].sum()
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


class TestDirectBuild:
    """The CSR arrays are written directly; the table build is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(case=build_cases)
    @example(case=((6, 6), "harmonic", "bump", 2.0, 1.0))
    @example(case=((2, 2), "quartic", None, 0.0, 1.0))
    @example(case=((40, 1), "double_well", "box", 2.0, 1.0))
    @example(case=((20, 6), "double_well", "bump", 50.0, 0.2))
    # a box whose support ends within rounding of lag 5, the stencil's last lag: lags past it read 0
    @example(case=((16, 4), "harmonic", "box", 1.0, 2.061731110582647))
    def test_matches_table_build(self, case):
        (m, n), trap, kernel, height, radius = case
        w_n = None
        if kernel is not None:
            w_n = scaled_interaction(KERNELS[kernel](1, beta=0.2, radius=radius, height=height), n)
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), TRAPS[trap], n, w_n=w_n)
        ref = table_matrix(ham)
        for key in ("indptr", "indices", "data"):
            got, want = getattr(ham.matrix, key), getattr(ref, key)
            assert got.dtype == want.dtype, key
            assert np.array_equal(got, want), key
        # the copy-free Gershgorin radii against those of |H|
        radii = np.asarray(abs(ref).sum(axis=1)).ravel() - np.abs(ref.diagonal())
        assert np.allclose(_gershgorin_radii(ham), radii, rtol=1e-12, atol=0.0)
        low, norm = _gershgorin_bounds(ham, ham.matrix.diagonal())
        assert norm == pytest.approx(float(abs(ref).sum(axis=1).max()), rel=1e-12)
        v0 = np.random.default_rng(m * 7 + n).standard_normal(ham.dim)
        assert _ritz_bound(ham, v0, low) == pytest.approx(abs_sum_ritz_bound(ham, v0), rel=1e-12)

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_constructor_peak_per_state(self):
        # the table build peaked at 444 B per state here, occupations included
        grid = SpatialGrid(1, 2.5, 48)
        peak = self.traced_peak(lambda: DiscreteHamiltonian(grid, POTENTIAL, 4, w_n=scaled_interaction(PROFILE, 4)))
        assert peak <= 222 * math.comb(48, 4)

    def test_ritz_bound_copies_no_matrix(self):
        # |H| alone is the 19 MiB of the matrix's data and indices
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, 48), POTENTIAL, 4, w_n=scaled_interaction(PROFILE, 4))
        v0 = _product_start(ham, even=True)
        peak = self.traced_peak(lambda: _ritz_bound(ham, v0, _gershgorin_bounds(ham, ham.matrix.diagonal())[0]))
        assert peak <= 8 << 20


# V = (x - 0.3)^2: no mirror symmetry, so ground_state must solve on H itself
SHIFTED = TrapPotential(1, lambda p: np.sum((p - 0.3) ** 2, axis=1), lambda p: 2.0 * (p - 0.3), 2.0, 0.5, 0.1, 2.0)


def lowest_two(ham):
    """The two lowest eigenvalues of the full H: dense up to 1200 states, else ARPACK."""
    if ham.dim <= 1200:
        return np.linalg.eigvalsh(ham.matrix.toarray())[:2]
    return np.sort(eigsh(ham.matrix, k=2, which="SA", tol=1e-14)[0])


def solve_counting_folds(ham, monkeypatch):
    """ground_state, and whether it solved on the folded sector."""
    folds = []
    monkeypatch.setattr(oracle, "_mirror_fold", lambda *args: folds.append(True) or _mirror_fold(*args))
    energy, state = ground_state(ham)
    return energy, state.coefficients, bool(folds)


def assert_positive_ground_state(ham, x, energy, gap, ref=None):
    """Residual gate; above a gap of 1e-8, one sign and (against ``ref``) the same vector up to sign.

    By Davis-Kahan each vector lies within angle (residual / gap) of the eigenvector.
    """
    residual = np.linalg.norm(ham.matrix @ x - energy * x)
    assert residual <= 1e-9
    if gap < 1e-8:
        return
    x = x * np.sign(x.sum())
    assert x.min() >= -1e-8 * x.max()
    if ref is not None:
        ref_energy, y = ref
        y = y * np.sign(y.sum())
        ref_residual = np.linalg.norm(ham.matrix @ y - ref_energy * y)
        assert np.linalg.norm(x - y) <= 2.0 * (residual + ref_residual) / gap + 1e-12


class TestMirrorFold:
    """ground_state on the mirror-symmetric sector against the full-space solve it replaced."""

    # dense side (136 states) and ARPACK side (153) of the boundary, N <= 5, and
    # N > M/2; the 134 596 states of (24, 18) on two of the eight trap/kernel pairs
    @pytest.mark.parametrize(
        "m, n, trap, interacting",
        [
            (m, n, trap, interacting)
            for m, n in [(17, 2), (18, 2), (40, 2), (20, 3), (14, 4), (12, 5), (14, 10)]
            for trap in sorted(TRAPS)
            for interacting in (False, True)
        ]
        + [(24, 18, "harmonic", True), (24, 18, "deep_double_well", False)],
    )
    def test_matches_full_space_solve(self, m, n, trap, interacting, monkeypatch):
        w_n = scaled_interaction(PROFILE, n) if interacting else None
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), TRAPS[trap], n, w_n=w_n)
        energy, x, folded = solve_counting_folds(ham, monkeypatch)
        assert folded == (ham.dim > DENSE_FALLBACK_DIM)
        ref_energy, y = parent_ground_state(ham)
        assert abs(energy - ref_energy) <= 1e-10 * abs(ref_energy)
        e0, e1 = lowest_two(ham)
        assert_positive_ground_state(ham, x, energy, e1 - e0, ref=(ref_energy, y))
        if folded:  # the sector's Perron vector, at any gap: symmetric by construction, one sign
            assert np.array_equal(x, x[mirrored_rows(ham)])
            assert (x * np.sign(x.sum())).min() >= -1e-8 * np.abs(x).max()
        elif e1 - e0 >= 1e-8:
            assert np.max(np.abs(x - x[mirrored_rows(ham)])) <= 1e-8 * np.abs(x).max()

    @pytest.mark.parametrize("interacting", [False, True], ids=["free", "bump"])
    @pytest.mark.parametrize("m, n", [(20, 3), (14, 4)])
    def test_shifted_trap_solves_unfolded(self, m, n, interacting, monkeypatch):
        w_n = scaled_interaction(PROFILE, n) if interacting else None
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), SHIFTED, n, w_n=w_n)
        energy, x, folded = solve_counting_folds(ham, monkeypatch)
        assert not folded
        evals, evecs = np.linalg.eigh(ham.matrix.toarray())
        assert abs(energy - evals[0]) <= 1e-10 * abs(evals[0])
        assert_positive_ground_state(ham, x, energy, evals[1] - evals[0], ref=(evals[0], evecs[:, 0]))

    @pytest.mark.parametrize("trap", ["harmonic", "deep_double_well"])
    @pytest.mark.parametrize("m, n", [(18, 2), (19, 2), (11, 3), (12, 5), (9, 1), (10, 1)])
    def test_fold_matches_sparse_product(self, trap, m, n):
        # B^T H B by matrix products, which the row fold replaces; odd M has rows
        # that are their own mirror, even M at N = 1 a hop onto the mirror
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), TRAPS[trap], n, w_n=scaled_interaction(PROFILE, n))
        mirror = _mirror_rows(ham)
        assert np.array_equal(mirror, mirrored_rows(ham))
        fold, reps, weight = _mirror_fold(ham, mirror)
        cols = np.arange(reps.size)
        b = np.zeros((ham.dim, reps.size))
        b[reps, cols] = b[mirror[reps], cols] = weight  # a row that is its own mirror is set once
        assert np.allclose(b.T @ b, np.eye(reps.size), atol=1e-15)
        ref = b.T @ (ham.matrix @ b)
        assert np.max(np.abs(fold.toarray() - ref)) <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(fold.toarray(), fold.toarray().T)

    def test_ground_state_peak_below_full_space_solve(self):
        # the full-space solve peaked at 68.3 MiB here; the fold runs ARPACK on 97 428 rows
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, 48), POTENTIAL, 4, w_n=scaled_interaction(PROFILE, 4))
        tracemalloc.start()
        try:
            ground_state(ham)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 56 << 20


class TestMatvecBudget:
    """ARPACK's matvecs on the benchmark's model stay within the Slater determinant start's counts."""

    @pytest.mark.parametrize("m, n, budget", [(48, 2, 101), (48, 3, 91), (48, 4, 91), (40, 3, 81), (40, 4, 81)])
    def test_matvecs_within_determinant_start_counts(self, m, n, budget, monkeypatch):
        matvecs = []

        def counting_eigsh(op, *args, **kwargs):
            def matvec(x):
                matvecs.append(1)
                return op @ x

            return eigsh(LinearOperator(op.shape, matvec=matvec, dtype=float), *args, **kwargs)

        # ground_state imports eigsh when it is called, so the patch goes on scipy's module
        monkeypatch.setattr(sp.linalg, "eigsh", counting_eigsh)
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), POTENTIAL, n, w_n=scaled_interaction(PROFILE, n))
        ground_state(ham)
        assert 0 < len(matvecs) <= budget


class TestNearlyFullLattices:
    """N > M/2, where the start's plain product would overflow and the hole matrix dominates memory."""

    @pytest.mark.parametrize("m, n", [(24, 18), (40, 37)])
    def test_constructs_and_passes_residual_gate(self, m, n):
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), POTENTIAL, n, w_n=scaled_interaction(PROFILE, n))
        assert ham.dim > DENSE_FALLBACK_DIM
        energy, state = ground_state(ham)  # raises ConvergenceError above the residual gate
        x = state.coefficients
        assert np.linalg.norm(ham.matrix @ x - energy * x) <= 1e-9

    @pytest.mark.parametrize("trap", ["harmonic", "quartic", "double_well"])
    @pytest.mark.parametrize("m, n", [(12, 8), (14, 10)])
    def test_eigsh_path_matches_dense_eigh(self, trap, m, n):
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), TRAPS[trap], n, w_n=scaled_interaction(PROFILE, n))
        assert ham.dim > DENSE_FALLBACK_DIM and 2 * n > m
        energy, _ = ground_state(ham)
        assert energy == pytest.approx(np.linalg.eigvalsh(ham.matrix.toarray())[0], abs=1e-10)

    def test_admits_every_pair_the_parent_estimate_admits(self):
        for m in range(2, 200):
            levels_max = 0
            for n in range(1, m + 1):
                levels_max = max(levels_max, (8 * n + 64) * math.comb(m, n))
                if parent_estimate(m, n, levels_max) <= ORACLE_MEMORY_CAP:
                    assert oracle_memory_bytes(m, n) <= ORACLE_MEMORY_CAP, (m, n)
        for m, n in [(24, 18), (40, 37)]:
            levels_max = max((8 * k + 64) * math.comb(m, k) for k in range(1, n + 1))
            assert parent_estimate(m, n, levels_max) > ORACLE_MEMORY_CAP >= oracle_memory_bytes(m, n)


class TestMemoryCap:
    @pytest.mark.parametrize("m, n", [(64, 5), (6000, 1)])  # basis-bound and M x M-bound
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

    @pytest.mark.parametrize("m, n", [(400, 1), (48, 3), (24, 5), (16, 12), (20, 15), (40, 37)])
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
        t_mat = one_body_matrix(ham)
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

    def test_single_particle_chain_holds_two_square_arrays(self):
        # rho2 and gamma1 are the chain's only M x M arrays; three pair arrays
        # (sum, symmetrized, scaled) made it trace 24 M^2 B here
        m = 2000
        tracemalloc.start()
        try:
            ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), POTENTIAL, 1, w_n=scaled_interaction(PROFILE, 1))
            _, state = ground_state(ham)
            red = reduced_densities(state)
            apriori_diagnostics(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not red.rho2.any()
        assert peak <= 17 * m * m

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
        t_mat = one_body_matrix(ham)
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
        t_mat = one_body_matrix(ham)
        _, vecs = np.linalg.eigh(t_mat)
        trial = ham.energy(vecs[:, :3] @ vecs[:, :3].T)
        assert trial == pytest.approx(energy, abs=1e-10)

    def test_rank_deficiency_rejected(self):
        ham = make_ham(3)
        rank1 = np.zeros((GRID.size, GRID.size))
        rank1[0, 0] = 1.0
        with pytest.raises(ValidationError, match="rank"):
            slater_upper_bound(ham, rank1, ground_energy=0.0)

    def test_non_hermitian_matrix_rejected(self):
        # the bound diagonalizes the matrix it is given; a non-Hermitian one is refused, not symmetrized
        ham = make_ham(3)
        gamma = np.eye(GRID.size)
        gamma[0, 1] = 1e-3
        with pytest.raises(ValidationError, match="Hermitian"):
            slater_upper_bound(ham, gamma, ground_energy=0.0)

    def test_slater_energy_matches_full_expectation(self):
        # Wick-rule evaluation against the explicit determinant vector
        ham = make_ham(2, interacting=True)
        t_mat = one_body_matrix(ham)
        _, vecs = np.linalg.eigh(t_mat)
        orbitals = vecs[:, :2]
        coeffs = np.zeros(ham.dim)
        for row in range(ham.dim):
            i, j = ham.occupations[row]
            coeffs[row] = orbitals[i, 0] * orbitals[j, 1] - orbitals[j, 0] * orbitals[i, 1]
        coeffs /= np.linalg.norm(coeffs)
        assert ham.energy(orbitals @ orbitals.T) == pytest.approx(expectation(ham, coeffs), abs=1e-9)


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
        t_mat = one_body_matrix(ham)
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


def parent_slater_energy(ham, orbitals):
    """A Slater determinant's energy from the dense one-body einsum and the dense pair coupling."""
    n = ham.n_particles
    t_mat = one_body_matrix(ham)
    e_one = float(np.real(np.einsum("ia,ij,ja->", orbitals.conj(), t_mat, orbitals)))
    if ham.w_n is None:
        return e_one
    g = orbitals @ orbitals.T.conj()
    nu = np.real(np.diag(g))
    coupling = pair_matrix(ham.w_n, ham.grid)
    direct = 0.5 * float(nu @ coupling @ nu)
    exchange = 0.5 * float(np.sum(coupling * np.abs(g) ** 2))
    return e_one - (direct - exchange) / n


def parent_apriori_interaction(state):
    """apriori_diagnostics' interaction integral from the dense coupling and pair occupation."""
    ham = state.ham
    _, pair = _site_and_pair_occupations(state)
    return 0.5 * float(np.sum(pair_matrix(ham.w_n, ham.grid) * pair)) / ham.n_particles


# M <= 48, N <= 4
pair_sum_cases = st.tuples(
    st.integers(1, 4).flatmap(lambda n: st.tuples(st.integers(max(n, 2), 48), st.just(n))),
    st.sampled_from(["harmonic", "quartic", "double_well"]),
    st.sampled_from([None, "bump", "box"]),
    st.floats(0.1, 50.0),
    st.floats(0.2, 1.5),
)


class TestLagTableSums:
    """LatticeModel.energy and apriori_diagnostics against the dense M x M formulas they replaced."""

    @settings(max_examples=40, deadline=None)
    @given(case=pair_sum_cases, seed=st.integers(0, 2**32 - 1))
    @example(case=((48, 4), "harmonic", "bump", 2.0, 1.0), seed=0)
    @example(case=((40, 1), "double_well", "box", 2.0, 1.0), seed=1)
    def test_match_dense_coupling(self, case, seed):
        (m, n), trap, kernel, height, radius = case
        w_n = None
        if kernel is not None:
            w_n = scaled_interaction(KERNELS[kernel](1, beta=0.2, radius=radius, height=height), n)
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, m), TRAPS[trap], n, w_n=w_n)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        for orbitals in (np.linalg.qr(raw.real)[0], np.linalg.qr(raw)[0]):
            gamma = orbitals @ orbitals.T.conj()
            assert ham.energy(gamma) == pytest.approx(parent_slater_energy(ham, orbitals), rel=1e-12)
        coeffs = rng.standard_normal(ham.dim)
        state = FermionState(ham, coeffs / np.linalg.norm(coeffs))
        report = apriori_diagnostics(state)
        inter = 0.0 if w_n is None else parent_apriori_interaction(state)
        assert report.interaction_integral == pytest.approx(inter, rel=1e-12)
        assert report.kinetic_potential == pytest.approx(state.energy() + inter, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_hartree_interaction_is_twice_the_slater_direct_part(self, n):
        # acceptance 08's model: the mean-field -double integral w_N rho rho counts
        # every pair twice, the lattice -N^-1 sum_(j<k) w_N once
        from fermigas.husimi import hartree_energy, lowest_orbitals
        from fermigas.model import slater_operator

        grid = SpatialGrid(1, 2.5, 48)
        w_n = scaled_interaction(PROFILE, n)
        orbitals = lowest_orbitals(grid, POTENTIAL, n, 1.0 / n)
        gamma = slater_operator(orbitals, grid)
        nu = np.sum(orbitals**2, axis=1)
        direct = -0.5 * float(nu @ pair_matrix(w_n, grid) @ nu) / n
        # LatticeModel.energy's direct term is -1/2 direct_sum / N
        model = LatticeModel(grid, POTENTIAL, n, w_n)
        assert -0.5 * model.direct_sum(gamma.matrix) / n == pytest.approx(direct, rel=1e-12)
        inter = hartree_energy(gamma, POTENTIAL, w_n, n)["interaction_term"]
        assert inter == pytest.approx(2.0 * direct, rel=1e-12)

    def test_apriori_forms_no_pair_array(self):
        # the dense coupling and pair occupation were 92 MiB here
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, 2000), POTENTIAL, 1, w_n=scaled_interaction(PROFILE, 1))
        _, state = ground_state(ham)
        tracemalloc.start()
        try:
            reduced_densities(state)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            apriori_diagnostics(state)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


class TestBareLatticeModel:
    """Lattice energies of a model whose occupation basis no memory cap admits."""

    def test_energies_need_no_basis(self):
        # C(1024, 64) is about 4.8e110 states
        grid = SpatialGrid(1, 2.5, 1024)
        with pytest.raises(CapExceededError):
            DiscreteHamiltonian(grid, POTENTIAL, 64)
        model = LatticeModel(grid, POTENTIAL, 64)
        orbitals = model.orbitals(64)[1]
        assert model.energy(orbitals @ orbitals.T) == pytest.approx(free_fermion_energy(model), abs=1e-10)

    def test_energy_forms_no_m_by_m_array(self):
        # the outer(nu, nu) - |G|^2 pair array and its temporaries took 61 MiB beside G here
        m, n = 2000, 8
        model = LatticeModel(SpatialGrid(1, 2.5, m), POTENTIAL, n, w_n=scaled_interaction(PROFILE, n))
        orbitals = model.orbitals(n)[1]
        gamma = orbitals @ orbitals.T
        tracemalloc.start()
        try:
            energy = model.energy(gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(energy)
        assert peak <= 1 << 20

    def test_energy_is_quadratic_along_a_segment(self):
        # E((1 - t) gamma_0 + t gamma_1) is a quadratic in t: the one-body traces are linear and
        # the direct and exchange sums quadratic in gamma, so three values fix every other one
        m, n = 128, 8
        model = LatticeModel(SpatialGrid(1, 2.5, m), POTENTIAL, n, w_n=scaled_interaction(PROFILE, n))
        low = model.orbitals(n)[1]
        rotated = np.linalg.qr(np.random.default_rng(3).standard_normal((m, n)))[0]
        ends = [u @ u.T for u in (low, rotated)]

        def energy(t):
            return model.energy((1.0 - t) * ends[0] + t * ends[1])

        quadratic = np.polynomial.Polynomial.fit([0.0, 0.5, 1.0], [energy(t) for t in (0.0, 0.5, 1.0)], 2)
        for t in (0.3, 0.7):
            assert quadratic(t) == pytest.approx(energy(t), rel=1e-12)


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
