"""Exact small-N ground states of the discretized many-body Hamiltonian.

Spinless lattice fermions on a 1D grid, at most one particle per site; the
occupation basis enforces antisymmetry structurally. The Hamiltonian is

    H = sum_j (-hbar^2 Lap_j) + sum_j V(x_j) - N^-1 sum_{j<k} w_N(x_j - x_k)

with hbar = 1/N, a 3-point Laplacian stencil and Dirichlet walls. All
assertions downstream are made against this discrete model itself; the
continuum is approached only under grid refinement.

Row r of the occupation basis is the state c_0 < ... < c_(N-1) of colex rank
r = sum_a C(c_a, a + 1), so a hop or a removed particle lands on a row given
by a difference of binomials: no bit masks, no searches, and no limit on M
but the memory cap (``oracle_memory_bytes`` against ``ORACLE_MEMORY_CAP``,
checked before anything is allocated). The ground state comes from dense
``eigh`` up to ``DENSE_FALLBACK_DIM`` states and from ARPACK ``eigsh`` above,
started from the free-fermion Slater determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import CapExceededError, ConvergenceError, ValidationError
from .model import ScaledInteraction, SpatialGrid, TrapPotential, _one_body_diagonals

Array = np.ndarray

# Dense eigh beats ARPACK below this size (faster at 120 states, slower at
# 190, on 2 vCPUs).
DENSE_FALLBACK_DIM = 150
# Traced peak of the oracle chain (the Hamiltonian build, ground_state,
# reduced_densities, apriori_diagnostics), measured with tracemalloc for
# N = 1..18 and M up to 4000: per basis state 120 + 85 N bytes while the
# build holds its hop tables and 410 + 25 N while ARPACK holds its 20 Lanczos
# vectors and the start vector; 8 B per entry of the C(M, N-1) x M hole
# matrix; up to six M x M float arrays (pair coupling, gamma_1, rho_2 and
# their temporaries). The start vector's Laplace level k holds its k x C(M, k)
# subset table and a few C(M, k) vectors (at most 8 k + 64 B per subset)
# beside the basis and matrix (48 + 24 N B per state); this exceeds the
# ARPACK phase only for N > M/2, where the middle level outgrows the basis.
# The dense path holds
# the matrix, its eigenvectors and the LAPACK workspace (32 B per entry).
# 64 KiB covers the small arrays of tiny bases. The cap admits about a
# million states at N = 4.
ORACLE_MEMORY_CAP = 1 << 29


def oracle_memory_bytes(m: int, n: int) -> int:
    """Estimated peak bytes of the oracle chain at M sites and N particles."""
    dim = math.comb(m, n)
    per_state = max(120 + 85 * n, 410 + 25 * n)
    if dim <= DENSE_FALLBACK_DIM:
        solve = dim * per_state + 32 * dim * dim
    else:
        start = (48 + 24 * n) * dim + max((8 * k + 64) * math.comb(m, k) for k in range(1, n + 1))
        solve = max(dim * per_state, start)
    return solve + 8 * m * math.comb(m, n - 1) + 48 * m * m + (1 << 16)


def one_body_matrix(grid: SpatialGrid, potential: TrapPotential, hbar: float) -> Array:
    """Dense one-body matrix: 3-point -hbar^2*Laplacian plus diagonal V."""
    diag, off = _one_body_diagonals(grid, potential, hbar)
    mat = np.diag(diag)
    idx = np.arange(off.size)
    mat[idx, idx + 1] = off
    mat[idx + 1, idx] = off
    return mat


def _colex_binomials(m: int, n: int) -> Array:
    """``table[c, j] = C(c, j)`` for c = 0..M, j = 0..N, clipped to stay in int64.

    Every rank in use (of a k-subset, k <= N) is below max_k C(M, k), so no
    term of a valid rank is clipped.
    """
    clip = min(max(math.comb(m, k) for k in range(n + 1)), np.iinfo(np.int64).max)
    return np.array(
        [[min(math.comb(c, j), clip) for j in range(n + 1)] for c in range(m + 1)], dtype=np.int64
    )


def _colex_subsets(binomials: Array, m: int, k: int) -> Array:
    """The C(M, k) sorted k-subsets of range(M), row r of colex rank r, shape (C(M, k), k)."""
    # unrank: slot a holds the largest c with C(c, a + 1) <= what is left
    rest = np.arange(math.comb(m, k), dtype=np.int64)
    subsets = np.empty((rest.size, k), dtype=np.int64)
    for a in range(k - 1, -1, -1):
        col = binomials[:m, a + 1]
        subsets[:, a] = np.searchsorted(col, rest, side="right") - 1
        rest -= col[subsets[:, a]]
    return subsets


def _removal_ranks(binomials: Array, subsets: Array):
    """Yield ``(a, ranks)``: the colex ranks of the rows of ``subsets`` with slot a removed.

    Removing slot a of c_0 < ... < c_(k-1) leaves the (k-1)-subset of rank
    sum_(b<a) C(c_b, b + 1) + sum_(b>a) C(c_b, b): the slots above a move
    down by one. Both sums are kept as running row vectors, so a slot costs
    O(rows) memory.
    """
    below = np.zeros(subsets.shape[0], dtype=np.int64)
    above = sum(binomials[subsets[:, b], b] for b in range(subsets.shape[1]))
    for a in range(subsets.shape[1]):
        c = subsets[:, a]
        above -= binomials[c, a]
        yield a, below + above
        below += binomials[c, a + 1]


@dataclass
class DiscreteHamiltonian:
    """Sparse many-body Hamiltonian over the colex-ranked occupation basis.

    ``memory_cap`` bounds ``oracle_memory_bytes(M, N)``; above it the
    constructor raises ``CapExceededError`` before building anything.
    """

    grid: SpatialGrid
    potential: TrapPotential
    n_particles: int
    w_n: ScaledInteraction | None = None
    memory_cap: int = ORACLE_MEMORY_CAP

    occupations: Array = field(init=False)  # (dim, N) ascending sites, row = colex rank
    binomials: Array = field(init=False)  # _colex_binomials(M, N)
    matrix: sp.csr_matrix = field(init=False)
    hbar: float = field(init=False)

    def __post_init__(self):
        if self.grid.d != 1:
            raise ValidationError("the many-body oracle supports d=1 only")
        m = self.grid.points_per_axis
        n = self.n_particles
        if not (1 <= n <= m):
            raise ValidationError(f"need 1 <= N <= M, got N={n}, M={m}")
        need = oracle_memory_bytes(m, n)
        if need > self.memory_cap:
            raise CapExceededError(
                f"the oracle at M={m}, N={n} (basis C({m},{n}) = {math.comb(m, n)}) needs about "
                f"{need >> 20} MiB, above the cap of {self.memory_cap >> 20} MiB"
            )
        self.hbar = 1.0 / n
        self.binomials = _colex_binomials(m, n)
        self.occupations = _colex_subsets(self.binomials, m, n)
        self.matrix = self._build_matrix()

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def _build_matrix(self) -> sp.csr_matrix:
        m = self.grid.points_per_axis
        n = self.n_particles
        dim = self.dim
        occ = self.occupations
        hop = self.hbar**2 / self.grid.spacing**2
        v = self.grid.sample(self.potential.evaluate)

        diag = v[occ].sum(axis=1) + 2.0 * hop * n
        if self.w_n is not None:
            coupling = self.w_n.pair_matrix(self.grid)
            for a in range(n):
                for b in range(a + 1, n):
                    diag -= coupling[occ[:, a], occ[:, b]] / n

        # Slot a hops from c to c + 1 unless c + 1 is the next slot's site or
        # the wall, and to c - 1 unless that is the previous slot's site. The
        # slot order is kept, so the rank moves by +C(c, a) or -C(c - 1, a), a
        # shift that grows with a: a row's columns, in ascending order, are the
        # down hops from the top slot to slot 0, the diagonal, then the up hops
        # from slot 0. No site lies between c and c +- 1, so the Jordan-Wigner
        # sign is +1 and every hop is -hop.
        slots = np.arange(n)
        rows = np.arange(dim)[:, None]
        below = np.column_stack([np.full(dim, -1), occ[:, :-1]])
        above = np.column_stack([occ[:, 1:], np.full(dim, m)])
        # entries of blocked hops are garbage (a site -1 reads row M) and dropped
        cols = np.empty((dim, 2 * n + 1), dtype=np.int64)
        valid = np.empty(cols.shape, dtype=bool)
        cols[:, n - 1 :: -1] = rows - self.binomials[occ - 1, slots]
        valid[:, n - 1 :: -1] = occ - 1 > below
        cols[:, n] = rows[:, 0]
        valid[:, n] = True
        cols[:, n + 1 :] = rows + self.binomials[occ, slots]
        valid[:, n + 1 :] = occ + 1 < above
        data = np.full(cols.shape, -hop)
        data[:, n] = diag
        indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(valid, axis=1))])
        return sp.csr_matrix((data[valid], cols[valid], indptr), shape=(dim, dim))


@dataclass
class FermionState:
    """Normalized coefficient vector over the occupation basis."""

    ham: DiscreteHamiltonian
    coefficients: Array

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float).ravel()
        if self.coefficients.shape != (self.ham.dim,):
            raise ValidationError("coefficient vector does not match the basis size")
        norm = np.linalg.norm(self.coefficients)
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError(f"state norm {norm} deviates from 1 beyond 1e-10")

    @property
    def n_particles(self) -> int:
        return self.ham.n_particles

    def energy(self) -> float:
        return float(self.coefficients @ (self.ham.matrix @ self.coefficients))


def expectation(ham: DiscreteHamiltonian, coefficients: Array) -> float:
    """Rayleigh quotient of an arbitrary (not necessarily normalized) vector."""
    c = np.asarray(coefficients, dtype=float).ravel()
    nrm2 = float(c @ c)
    if nrm2 == 0.0:
        raise ValidationError("zero trial vector")
    return float(c @ (ham.matrix @ c)) / nrm2


def _laplace_level(minors: Array, binomials: Array, subsets: Array, column: Array) -> Array:
    """det [U_(k-1) | column] over the rows of each k-subset, by expansion along the last column.

    ``minors[rank]`` is det U_(k-1)[S', :] over the colex-ranked (k-1)-subsets
    S'; for S = c_0 < ... < c_(k-1) the expansion is
    sum_a (-1)^(a + k - 1) column[c_a] minors[rank of S minus c_a].
    """
    k = subsets.shape[1]
    level = np.zeros(subsets.shape[0])
    for a, ranks in _removal_ranks(binomials, subsets):
        term = column[subsets[:, a]]
        term *= minors[ranks]
        if (a + k - 1) % 2:
            level -= term
        else:
            level += term
    return level


def _slater_start(ham: DiscreteHamiltonian) -> Array:
    """Lanczos start vector: the free Slater determinant plus its lowest excitation.

    s0[r] = det U[c_r, :N] over the N lowest one-body orbitals U, and s1 the
    same with orbital N - 1 replaced by orbital N (none when N = M). For an
    even V the orbitals alternate in reflection parity, so s0 and s1 lie in
    opposite parity sectors and the sum overlaps a ground state in either.
    Both have unit norm (Cauchy-Binet with orthonormal U). The minors
    D_k[S] = det U[S, :k] are built level by level over the colex-ranked
    k-subsets, k = 1..N, each by Laplace expansion of the previous level.
    s1 reuses D_(N-1) with column N, and the expansion is linear in its
    column, so s0 + s1 is one expansion with column N - 1 plus column N.
    Level k holds O(k C(M, k)) entries.
    """
    m, n = ham.grid.points_per_axis, ham.n_particles
    diag, off = _one_body_diagonals(ham.grid, ham.potential, ham.hbar)
    _, u = eigh_tridiagonal(diag, off, select="i", select_range=(0, min(n, m - 1)))
    minors = np.ones(1)  # D_0: the empty determinant of the one empty subset
    for k in range(1, n):
        minors = _laplace_level(minors, ham.binomials, _colex_subsets(ham.binomials, m, k), u[:, k - 1])
    column = u[:, n - 1] + u[:, n] if n < m else u[:, n - 1]
    return _laplace_level(minors, ham.binomials, ham.occupations, column)


def _ritz_bound(ham: DiscreteHamiltonian, v0: Array) -> float:
    """max(|rho(v0)|, |g|): a bound on |theta| for the lowest Ritz value theta from a start v0.

    theta is at most the Rayleigh quotient rho(v0) and at least the lowest
    eigenvalue, which is at least the Gershgorin bound
    g = min_i (H_ii - sum_(j != i) |H_ij|).
    """
    diag = ham.matrix.diagonal()
    radii = np.asarray(abs(ham.matrix).sum(axis=1)).ravel() - np.abs(diag)
    return max(abs(expectation(ham, v0)), abs(float(np.min(diag - radii))))


def ground_state(ham: DiscreteHamiltonian, tol: float = 1e-9, seed: int = 7) -> tuple[float, FermionState]:
    """Lowest eigenpair; dense ``eigh`` up to DENSE_FALLBACK_DIM states, else ARPACK ``eigsh``.

    ``eigsh`` starts from the free-fermion Slater determinant plus its lowest
    excitation (``_slater_start``) and stops once its Ritz bound is below
    0.1 * ``tol``. ARPACK accepts a Ritz value theta when its bound is at most
    tol_arpack * max(eps^(2/3), |theta|), so tol_arpack = 0.1 * tol / B with
    B = max(``_ritz_bound``, eps^(2/3)) >= |theta|, clamped at machine
    epsilon. On either path a residual
    ||Hx - Ex|| above ``tol``, or ARPACK stopping unconverged, raises
    ``ConvergenceError``. The start vector is deterministic: ``seed`` is
    accepted for compatibility and no longer changes the result.
    """
    if ham.dim <= DENSE_FALLBACK_DIM:
        evals, evecs = np.linalg.eigh(ham.matrix.toarray())
    else:
        v0 = _slater_start(ham)
        eps = np.finfo(float).eps
        tol_arpack = max(0.1 * tol / max(_ritz_bound(ham, v0), eps ** (2.0 / 3.0)), eps)
        try:
            evals, evecs = eigsh(ham.matrix, k=1, which="SA", v0=v0, tol=tol_arpack)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(f"ARPACK did not converge: {exc}") from exc
    energy = float(evals[0])
    vec = evecs[:, 0] / np.linalg.norm(evecs[:, 0])
    residual = float(np.linalg.norm(ham.matrix @ vec - energy * vec))
    if residual > tol:
        raise ConvergenceError(f"ground-state residual {residual:.3e} exceeds tol {tol:.3e}")
    return energy, FermionState(ham, vec)


@dataclass
class ReducedDensities:
    """One- and two-point reduced objects of a lattice state.

    ``rho1`` integrates to N, ``rho2`` (ordered-pair density, zero on the
    diagonal) integrates to C(N, 2), and ``gamma1`` is the occupancy-form
    one-body matrix whose eigenvalues are the natural occupations in [0, 1].
    """

    rho1: Array
    rho2: Array
    gamma1: Array
    grid: SpatialGrid
    n_particles: int

    def occupations(self) -> Array:
        return np.linalg.eigvalsh(gamma_hermitize(self.gamma1))


def gamma_hermitize(g: Array) -> Array:
    return 0.5 * (g + g.T.conj())


def _site_and_pair_occupations(state: FermionState) -> tuple[Array, Array]:
    """<n_i> and the ordered-pair <n_i n_j> (i != j, zero diagonal) of a state."""
    ham = state.ham
    n = ham.n_particles
    m = ham.grid.points_per_axis
    w2 = state.coefficients**2
    occ = ham.occupations

    site_occ = np.bincount(occ.ravel(), weights=np.repeat(w2, n), minlength=m)
    pair = np.zeros(m * m)
    for a in range(n):
        for b in range(a + 1, n):
            pair += np.bincount(occ[:, a] * m + occ[:, b], weights=w2, minlength=m * m)
    pair = pair.reshape(m, m)
    return site_occ, pair + pair.T  # ordered pairs; diagonal stays exactly zero


def reduced_densities(state: FermionState) -> ReducedDensities:
    """Site occupations, pair density and the one-body matrix of a state.

    gamma1[i, j] = <c_i^dag c_j> = (A^T A)[i, j] for the hole matrix
    A[h, j] = <h| c_j |psi> over the C(M, N-1) states h with N - 1 particles:
    removing slot a of state s lands on the hole of colex rank
    ``_removal_ranks``, with the Jordan-Wigner sign (-1)^a, a being the
    number of occupied sites below c_a.
    """
    ham = state.ham
    n = ham.n_particles
    m = ham.grid.points_per_axis
    h = ham.grid.spacing
    occ = ham.occupations
    site_occ, pair = _site_and_pair_occupations(state)

    amplitudes = np.zeros((math.comb(m, n - 1), m))
    for a, holes in _removal_ranks(ham.binomials, occ):
        amplitudes[holes, occ[:, a]] = -state.coefficients if a % 2 else state.coefficients
    gamma = amplitudes.T @ amplitudes

    return ReducedDensities(
        rho1=site_occ / h,
        rho2=pair / (2.0 * h * h),
        gamma1=gamma,
        grid=ham.grid,
        n_particles=n,
    )


def slater_energy(ham: DiscreteHamiltonian, orbitals: Array) -> float:
    """Exact lattice energy of the Slater determinant of orthonormal orbitals.

    Wick's rule gives <n_i n_j> = nu_i nu_j - |G_ij|^2 for the
    density-density interaction; the one-body part is the orbital trace of
    the lattice kinetic-plus-potential matrix.
    """
    n = ham.n_particles
    if orbitals.shape != (ham.grid.points_per_axis, n):
        raise ValidationError(f"orbitals must have shape (M, N) = {(ham.grid.points_per_axis, n)}")
    overlap = orbitals.T.conj() @ orbitals
    if not np.allclose(overlap, np.eye(n), atol=1e-8):
        raise ValidationError("orbitals must be orthonormal in the plain lattice product")
    t_mat = one_body_matrix(ham.grid, ham.potential, ham.hbar)
    e_one = float(np.real(np.einsum("ia,ij,ja->", orbitals.conj(), t_mat, orbitals)))
    if ham.w_n is None:
        return e_one
    g = orbitals @ orbitals.T.conj()
    nu = np.real(np.diag(g))
    # the i = j terms of the two sums cancel (g_ii = nu_i), so no self-interaction
    coupling = ham.w_n.pair_matrix(ham.grid)
    direct = 0.5 * float(nu @ coupling @ nu)
    exchange = 0.5 * float(np.sum(coupling * np.abs(g) ** 2))
    return e_one - (direct - exchange) / n


@dataclass
class TrialEnergyReport:
    trial_energy: float
    ground_energy: float
    gap: float
    satisfied: bool
    occupations_used: Array


def slater_upper_bound(
    ham: DiscreteHamiltonian,
    gamma_matrix: Array,
    ground_energy: float | None = None,
    tol: float = 1e-10,
) -> TrialEnergyReport:
    """Variational bound from the N dominant natural orbitals of a one-body matrix.

    Diagonalizes ``gamma_matrix`` (occupancy form on the oracle grid), takes
    its top-N eigenvectors as Slater orbitals, evaluates the exact lattice
    energy of that determinant, and checks E(N) <= trial + tol.
    """
    n = ham.n_particles
    evals, evecs = np.linalg.eigh(gamma_hermitize(gamma_matrix))
    occupations_used = evals[::-1][:n]  # eigh sorts ascending
    if occupations_used[-1] <= 1e-12:
        raise ValidationError(
            f"one-body matrix has rank below N={n}; cannot form a Slater trial"
        )
    orbitals = evecs[:, ::-1][:, :n]
    trial = slater_energy(ham, orbitals)
    if ground_energy is None:
        ground_energy, _ = ground_state(ham)
    gap = trial - ground_energy
    return TrialEnergyReport(
        trial_energy=trial,
        ground_energy=ground_energy,
        gap=gap,
        satisfied=bool(ground_energy <= trial + tol),
        occupations_used=occupations_used,
    )


@dataclass
class AprioriReport:
    n_particles: int
    kinetic_potential: float
    interaction_integral: float
    kinetic_potential_scale: float
    interaction_scale: float


def apriori_diagnostics(state: FermionState) -> AprioriReport:
    """Kinetic+potential expectation and the two-body interaction integral.

    The interaction integral is N^-1 <sum_{j<k} w_N(x_j - x_k)>, from the
    pair density; the kinetic+potential part tr(T gamma_1) is <H> plus it.
    Reported next to the reference growth scales N^(1+beta*d/2) and
    N^(1+beta*d^2/(2(d+2))); purely diagnostic, nothing is asserted.
    """
    ham = state.ham
    n = ham.n_particles
    if ham.w_n is None:
        inter = 0.0
        beta = 0.0
    else:
        _, pair = _site_and_pair_occupations(state)
        # the pair occupation vanishes on the diagonal, so the self-coupling drops out
        inter = 0.5 * float(np.sum(ham.w_n.pair_matrix(ham.grid) * pair)) / n
        beta = ham.w_n.profile.beta
    return AprioriReport(
        n_particles=n,
        kinetic_potential=state.energy() + inter,
        interaction_integral=inter,
        kinetic_potential_scale=n ** (1.0 + beta / 2.0),
        interaction_scale=n ** (1.0 + beta / 6.0),
    )


def fitted_exponent(n_values, quantities) -> float:
    """Least-squares slope of log(quantity) against log(N)."""
    x = np.log(np.asarray(n_values, dtype=float))
    y = np.log(np.asarray(quantities, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def free_fermion_energy(ham: DiscreteHamiltonian) -> float:
    """Filling rule: sum of the N lowest one-body eigenvalues (w = 0).

    Bisection runs to LAPACK's most accurate setting (twice the underflow
    threshold) rather than its default width eps * ||T||, which reaches
    1e-10 on fine grids.
    """
    diag, off = _one_body_diagonals(ham.grid, ham.potential, ham.hbar)
    evals = eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(0, ham.n_particles - 1), tol=2 * np.finfo(float).tiny
    )
    return float(np.sum(evals))
