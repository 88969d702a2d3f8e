"""Exact small-N ground states of the discretized many-body Hamiltonian.

Spinless lattice fermions on a 1D grid, at most one particle per site; the
occupation basis enforces antisymmetry structurally. The Hamiltonian is

    H = sum_j (-hbar^2 Lap_j) + sum_j V(x_j) - N^-1 sum_{j<k} w_N(x_j - x_k)

over a ``model.LatticeModel`` (hbar = 1/N, a 3-point Laplacian stencil and
Dirichlet walls), whose Slater and free energies need no basis. All
assertions downstream are made against this discrete model itself; the
continuum is approached only under grid refinement.

Row r of the occupation basis is the state c_0 < ... < c_(N-1) of colex rank
r = sum_a C(c_a, a + 1), so a hop or a removed particle lands on a row given
by a difference of binomials: no bit masks, no searches, and no limit on M
but the memory cap (``oracle_memory_bytes`` against ``ORACLE_MEMORY_CAP``,
checked before anything is allocated). The Hamiltonian is written straight
into its CSR arrays, one pass per hop slot, so the build holds O(dim) scratch
beside the matrix and stays below the ARPACK phase, whose 410 + 25 N B per
state is the estimate's one per-state term. The ground state comes from dense
``eigh`` up to ``DENSE_FALLBACK_DIM`` states and from ARPACK ``eigsh`` above,
started from a closed-form positive vector: the lowest orbital at every
particle times the Vandermonde product of the sites.

Every hop of H is -hbar^2/h^2 with Jordan-Wigner sign +1 (H is stoquastic)
and the hops connect every pair of states, so by Perron-Frobenius the ground
state is unique and strictly positive. The reflection c -> M - 1 - c is an
unsigned permutation P of the rows; when it also maps the diagonal of H onto
itself to within 0.1 * tol, P commutes with H (to within 0.05 * tol in norm),
the positive ground state is P-symmetric, and ARPACK runs on the symmetric
sector, which has half the rows. A nonnegative, nonzero start overlaps that
ground state, which is all the start has to do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapExceededError, ConvergenceError, ValidationError
from .model import LatticeModel, OneBodyOperator

if TYPE_CHECKING:
    import scipy.sparse as sp

Array = np.ndarray

# Dense eigh beats ARPACK below this size (faster at 120 states, slower at
# 190, on 2 vCPUs).
DENSE_FALLBACK_DIM = 150
# The residual gate's floor in units of eps * ||H|| (Gershgorin). At N = 1,
# M = 2000..4600 (harmonic trap, half-width 2.5), the residual of the returned
# vector is 1.5 to 3.8 eps ||H|| up to M = 4300 and 4.5 to 5.8 above, so the
# floor sits above that range; the smallest tol / (eps ||H||) among the solves
# the tests and the benchmark run is 7.0 (N = 1, M = 2000).
RESIDUAL_FLOOR_EPS = 6.0
# Traced peak of the oracle chain (the Hamiltonian build, ground_state,
# reduced_densities, apriori_diagnostics), measured with tracemalloc for
# N = 1..18 and M up to 2000: per basis state 410 + 25 N bytes while ARPACK
# holds its Lanczos vectors, the start vector and the matrix (measured 280 to
# 530 B since ARPACK runs on the mirror-folded sector: 230 to 270 B traced in
# ground_state beside the matrix and basis, 370 B on the full space); the
# build, which writes the CSR arrays directly, stays below that
# (150 B per state at N = 3, 175 at N = 4, 320 at N = 18); 8 B per entry of
# the C(M, N-1) x M hole matrix; 16 B per M^2 for the M x M float arrays of
# reduced_densities, two at a time (gamma_1 and rho_2, or rho_2 and one
# bincount output; measured at N = 1, M = 2000). The dense path holds the
# matrix, its eigenvectors and the LAPACK workspace (32 B per entry). 64 KiB
# covers the small arrays of tiny bases. The cap admits about a million
# states at N = 4, and N = 1 grids up to M ~ 5700; it is the residual floor
# of ground_state, not the cap, that refuses the N = 1 grids where the
# residual gate would fail (at tol = 1e-9 on the half-width-2.5 lattice,
# every M above about 2170).
ORACLE_MEMORY_CAP = 1 << 29


def oracle_memory_bytes(m: int, n: int) -> int:
    """Estimated peak bytes of the oracle chain at M sites and N particles."""
    dim = math.comb(m, n)
    solve = dim * (410 + 25 * n)
    if dim <= DENSE_FALLBACK_DIM:
        solve += 32 * dim * dim
    return solve + 8 * m * math.comb(m, n - 1) + 16 * m * m + (1 << 16)


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


def _pair_terms(ham: DiscreteHamiltonian):
    """Yield w_N(x_b - x_a) / N per basis state, one array for each slot pair a < b.

    Their sum is the lattice side's pair energy N^-1 sum_(j<k) w_N(x_j - x_k),
    which the Hamiltonian subtracts on its diagonal; the mean-field side's
    ``density_pair_sum`` counts every pair twice. Slot b lies above slot a,
    so the lag is c_b - c_a, read from the stencil's lags d >= 0 padded with
    zeros to d = M - 1.
    """
    n, occ = ham.n_particles, ham.occupations
    stencil = ham.w_n.stencil(ham.grid)
    table = np.zeros(ham.grid.points_per_axis)
    table[: stencil.size // 2 + 1] = stencil[stencil.size // 2 :]
    for a in range(n):
        for b in range(a + 1, n):
            yield table[occ[:, b] - occ[:, a]] / n


@dataclass
class DiscreteHamiltonian(LatticeModel):
    """Sparse many-body Hamiltonian of a lattice model over the colex-ranked occupation basis.

    ``memory_cap`` bounds ``oracle_memory_bytes(M, N)``; above it the
    constructor raises ``CapExceededError`` before building anything.
    """

    memory_cap: int = ORACLE_MEMORY_CAP

    occupations: Array = field(init=False)  # (dim, N) ascending sites, row = colex rank
    binomials: Array = field(init=False)  # _colex_binomials(M, N)
    matrix: sp.csr_matrix = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        m, n = self.grid.points_per_axis, self.n_particles
        need = oracle_memory_bytes(m, n)
        if need > self.memory_cap:
            raise CapExceededError(
                f"the oracle at M={m}, N={n} (basis C({m},{n}) = {math.comb(m, n)}) needs about "
                f"{need >> 20} MiB, above the cap of {self.memory_cap >> 20} MiB"
            )
        self.binomials = _colex_binomials(m, n)
        self.occupations = _colex_subsets(self.binomials, m, n)
        self.matrix = self._build_matrix()

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def _build_matrix(self) -> sp.csr_matrix:
        from scipy.sparse import csr_matrix

        m = self.grid.points_per_axis
        n = self.n_particles
        dim = self.dim
        occ = self.occupations
        hop = self.hop
        v = self.grid.sample(self.potential.evaluate)

        diag = v[occ].sum(axis=1) + 2.0 * hop * n
        if self.w_n is not None:
            for term in _pair_terms(self):
                diag -= term
                del term  # freed before the next term is built

        # Slot a hops from c to c + 1 unless c + 1 is the next slot's site or
        # the wall, and to c - 1 unless that is the previous slot's site. The
        # slot order is kept, so the rank moves by +C(c, a) or -C(c - 1, a), a
        # shift that grows with a: a row's columns, in ascending order, are the
        # down hops from the top slot to slot 0, the diagonal, then the up hops
        # from slot 0. No site lies between c and c +- 1, so the Jordan-Wigner
        # sign is +1 and every hop is -hop.
        # Gap b lies between slot b - 1 and slot b (slot -1 at site -1, slot N
        # at site M); when it is wider than one site, slot b hops down into it
        # and slot b - 1 up.
        gaps = np.empty((n + 1, dim), dtype=bool)
        np.greater(occ[:, 0], 0, out=gaps[0])
        for b in range(1, n):
            np.greater(occ[:, b] - occ[:, b - 1], 1, out=gaps[b])
        np.less(occ[:, -1], m - 1, out=gaps[n])
        count = 1 + gaps[0] + gaps[n] + 2 * gaps[1:n].sum(axis=0, dtype=np.int64)
        nnz = int(count.sum())
        index = np.int32 if nnz < 2**31 else np.int64  # scipy's choice for this nnz
        indptr = np.zeros(dim + 1, dtype=index)
        np.cumsum(count, out=indptr[1:])
        del count
        # count, then fill: each row's cursor walks its slots in column order
        indices = np.empty(nnz, dtype=index)
        data = np.full(nnz, -hop)
        cursor = indptr[:-1].copy()
        rows = np.arange(dim, dtype=index)
        for a in range(n - 1, -1, -1):
            # a blocked hop's target is garbage (a site -1 reads row M) and is masked out
            indices[cursor[gaps[a]]] = (rows - self.binomials[occ[:, a] - 1, a])[gaps[a]]
            cursor += gaps[a]
        indices[cursor] = rows
        data[cursor] = diag
        cursor += 1
        for a in range(n):
            indices[cursor[gaps[a + 1]]] = (rows + self.binomials[occ[:, a], a])[gaps[a + 1]]
            cursor += gaps[a + 1]
        return csr_matrix((data, indices, indptr), shape=(dim, dim), copy=False)


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

    def energy(self) -> float:
        return float(self.coefficients @ (self.ham.matrix @ self.coefficients))


def expectation(ham: DiscreteHamiltonian, coefficients: Array) -> float:
    """Rayleigh quotient of an arbitrary (not necessarily normalized) vector."""
    c = np.asarray(coefficients, dtype=float).ravel()
    nrm2 = float(c @ c)
    if nrm2 == 0.0:
        raise ValidationError("zero trial vector")
    return float(c @ (ham.matrix @ c)) / nrm2


def _product_start(ham: DiscreteHamiltonian, even: bool) -> Array:
    """Lanczos start v[r] = prod_a u0(c_a) prod_(a<b) (c_b - c_a), unit norm.

    u0 is the lowest one-body orbital in absolute value, summed with its
    reflection on an ``even`` trap (which drops the rounding-level asymmetry
    of its tails and the mix of a degenerate lowest pair). For the continuum
    harmonic trap v is the free Slater determinant (Hermite functions give a
    Vandermonde product times Gaussians); on any trap it is nonnegative and
    nonzero, so it overlaps the strictly positive ground state, and on an
    even one it is mirror-symmetric. It is summed in logs: the plain product
    overflows on nearly full lattices. A tail of u0 below the smallest normal
    float gives an entry 0.
    """
    m, n, occ = ham.grid.points_per_axis, ham.n_particles, ham.occupations
    u0 = np.abs(ham.orbitals(1)[1][:, 0])
    if even:
        u0 += u0[::-1]
    log_u0 = np.log(np.maximum(u0, np.finfo(float).tiny))
    log_lag = np.log(np.arange(1, m))  # log_lag[k - 1] = log k
    log_v = log_u0[occ[:, 0]]
    for b in range(1, n):
        log_v += log_u0[occ[:, b]]
        for a in range(b):
            log_v += log_lag[occ[:, b] - occ[:, a] - 1]
    log_v -= log_v.max()
    v = np.exp(log_v, out=log_v)
    return v / np.linalg.norm(v)


def _mirror_rows(ham: DiscreteHamiltonian) -> Array:
    """Row of each basis state under the reflection c -> M - 1 - c.

    The reflected state's slot a holds M - 1 - c_(N-1-a), so its colex rank
    is summed one slot at a time.
    """
    m, n = ham.grid.points_per_axis, ham.n_particles
    mirror = np.zeros(ham.dim, dtype=np.int64)
    for a in range(n):
        mirror += ham.binomials[m - 1 - ham.occupations[:, n - 1 - a], a + 1]
    return mirror


def _mirror_fold(ham: DiscreteHamiltonian, mirror: Array) -> tuple[sp.csr_matrix, Array, Array]:
    """The symmetric-sector operator B^T H B, with its representative rows and their weights.

    Column j of B is the unit P-symmetric vector of the pair {r, mirror(r)}
    represented by r = min of the two: weight 1/sqrt(2) on both rows, or 1
    on a row that is its own mirror. As H commutes with P, row j of
    B^T H B is row r of H with each column moved to its pair k and scaled by
    w_k / w_j; the two columns of one pair add up. So the fold slices rows
    and sums duplicates, O(nnz), with no sparse product.
    """
    from scipy.sparse import csr_matrix

    reps = np.flatnonzero(np.arange(ham.dim) <= mirror)
    own = (mirror[reps] == reps).view(np.int8)  # 1 on a row that is its own mirror
    pair = np.empty(ham.dim, dtype=ham.matrix.indices.dtype)
    pair[reps] = np.arange(reps.size)
    pair[mirror[reps]] = pair[reps]
    weight = np.where(own, 1.0, math.sqrt(0.5))
    sub = ham.matrix[reps]
    cols = pair[sub.indices]
    del pair
    # w_k / w_j by (row own mirror, column own mirror): entries within one kind keep
    # their value exactly, and sqrt(0.5) + sqrt(0.5) rounds to sqrt(2), so the fold is symmetric
    ratio = np.array([[1.0, math.sqrt(2.0)], [math.sqrt(0.5), 1.0]])
    sub.data *= ratio[np.repeat(own, np.diff(sub.indptr)), own[cols]]
    fold = csr_matrix((sub.data, cols, sub.indptr), shape=(reps.size, reps.size), copy=False)
    fold.sum_duplicates()
    return fold, reps, weight


def _gershgorin_radii(ham: DiscreteHamiltonian) -> Array:
    """sum_(j != i) |H_ij| per row, without a copy of the matrix.

    Every row stores its diagonal and every off-diagonal entry is -hop, so
    the radius of row i is hop times its stored entries less one.
    """
    return ham.hop * (np.diff(ham.matrix.indptr) - 1)


def _gershgorin_bounds(ham: DiscreteHamiltonian, diag: Array) -> tuple[float, float]:
    """(min_i (d_i - r_i), max_i (|d_i| + r_i)): bounds on the lowest eigenvalue and on ||H||.

    d = ``diag`` is the diagonal of H and r its Gershgorin radii
    (``_gershgorin_radii``).
    """
    radii = _gershgorin_radii(ham)
    return float(np.min(diag - radii)), float(np.max(np.abs(diag) + radii))


def _ritz_bound(ham: DiscreteHamiltonian, v0: Array, low: float) -> float:
    """max(|rho(v0)|, |low|): a bound on |theta| for the lowest Ritz value theta from a start v0.

    theta is at most the Rayleigh quotient rho(v0) and at least the lowest
    eigenvalue, which is at least the Gershgorin bound ``low``
    (``_gershgorin_bounds``).
    """
    return max(abs(expectation(ham, v0)), abs(low))


def ground_state(ham: DiscreteHamiltonian, tol: float = 1e-9, seed: int = 7) -> tuple[float, FermionState]:
    """Lowest eigenpair; dense ``eigh`` up to DENSE_FALLBACK_DIM states, else ARPACK ``eigsh``.

    H is stoquastic with connected hops, so its ground state is unique and
    strictly positive (Perron-Frobenius), hence fixed by any unsigned
    permutation that commutes with H. ``eigsh`` therefore runs once, on the
    mirror-symmetric sector B^T H B (``_mirror_fold``, half the rows) when
    the diagonal d of H satisfies max |d - d o mirror| <= 0.1 * ``tol``: then
    H and the P-symmetric matrix that the fold reads differ by at most that
    on the diagonal, below the residual gate. Otherwise (an asymmetric
    potential) it runs on H itself. The sector vector y comes back as
    x = B y. ``eigsh`` starts from ``_product_start``, which is nonnegative
    and nonzero, so it overlaps the positive ground state, and mirror-symmetric
    when the fold runs; it stops once its Ritz bound is below 0.1 * ``tol``.
    ARPACK accepts a Ritz value theta when its bound is at most
    tol_arpack * max(eps^(2/3), |theta|), so tol_arpack = 0.1 * tol / B with
    B = max(``_ritz_bound``, eps^(2/3)) >= |theta|, clamped at machine
    epsilon. On either path a residual ||Hx - Ex|| on the full H above
    ``tol``, or ARPACK stopping unconverged, raises ``ConvergenceError``.
    Before any of this, a ``tol`` below the residual floor
    ``RESIDUAL_FLOOR_EPS * eps * ||H||`` (||H|| from ``_gershgorin_bounds``)
    raises ``ValidationError`` naming the floor: the residuals measured there
    are rounding noise, and the gate would pass or fail by chance.
    The start vector is deterministic: ``seed`` is accepted for
    compatibility and no longer changes the result.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    eps = np.finfo(float).eps
    diag = ham.matrix.diagonal()
    low, norm = _gershgorin_bounds(ham, diag)
    floor = RESIDUAL_FLOOR_EPS * eps * norm
    if tol < floor:
        raise ValidationError(
            f"tol {tol:.3e} is below the residual floor {RESIDUAL_FLOOR_EPS:g} eps ||H|| = {floor:.3e} "
            f"(Gershgorin ||H|| <= {norm:.4g}), where ||Hx - Ex|| is rounding noise; "
            "raise tol or use a coarser grid"
        )
    if ham.dim <= DENSE_FALLBACK_DIM:
        evals, evecs = np.linalg.eigh(ham.matrix.toarray())
        vec = evecs[:, 0]
    else:
        mirror = _mirror_rows(ham)
        fold = float(np.max(np.abs(diag - diag[mirror]))) <= 0.1 * tol
        del diag
        v0 = _product_start(ham, even=fold)
        tol_arpack = max(0.1 * tol / max(_ritz_bound(ham, v0, low), eps ** (2.0 / 3.0)), eps)
        if fold:
            op, reps, weight = _mirror_fold(ham, mirror)
            mirror = mirror[reps]
            v0 = v0[reps] / weight  # B^T v0 for the mirror-symmetric v0
        else:
            op = ham.matrix
        try:
            evals, evecs = eigsh(op, k=1, which="SA", v0=v0, tol=tol_arpack)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(f"ARPACK did not converge: {exc}") from exc
        if fold:
            vec = np.empty(ham.dim)
            vec[reps] = vec[mirror] = evecs[:, 0] * weight  # x = B y
        else:
            vec = evecs[:, 0]
    energy = float(evals[0])
    vec /= np.linalg.norm(vec)
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

    def occupations(self) -> Array:
        # gamma1 = A^T A is exactly symmetric (numpy computes the product as a symmetric rank-k update)
        return np.linalg.eigvalsh(self.gamma1)


def _site_and_pair_occupations(state: FermionState) -> tuple[Array, Array]:
    """<n_i> and the ordered-pair <n_i n_j> (i != j, zero diagonal) of a state.

    The pair array is the only M x M array held, beside one ``bincount``
    output at a time.
    """
    ham = state.ham
    n = ham.n_particles
    m = ham.grid.points_per_axis
    w2 = state.coefficients**2
    occ = ham.occupations

    site_occ = np.bincount(occ.ravel(), weights=np.repeat(w2, n), minlength=m)
    pair = np.zeros((m, m))
    if n == 1:
        return site_occ, pair
    flat = pair.reshape(-1)
    for a in range(n):
        for b in range(a + 1, n):
            flat += np.bincount(occ[:, a] * m + occ[:, b], weights=w2, minlength=m * m)
    # slot a lies below slot b, so the sums fill the upper triangle; mirror it row by
    # row (no transposed copy) into ordered pairs, the diagonal staying exactly zero
    for i in range(1, m):
        pair[i, :i] = pair[:i, i]
    return site_occ, pair


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
    pair /= 2.0 * h * h

    return ReducedDensities(rho1=site_occ / h, rho2=pair, gamma1=gamma)


@dataclass
class TrialEnergyReport:
    trial_energy: float
    satisfied: bool


def slater_upper_bound(
    model: LatticeModel,
    gamma_matrix: Array,
    ground_energy: float,
    tol: float = 1e-10,
) -> TrialEnergyReport:
    """Variational bound from the N dominant natural orbitals of a one-body matrix.

    Diagonalizes ``gamma_matrix`` (occupancy form on the oracle grid, Hermitian
    as ``OneBodyOperator`` checks, else ``ValidationError``), takes its top-N
    eigenvectors U as Slater orbitals, evaluates the exact lattice energy
    ``model.energy(U U^H)`` of that determinant, and checks
    ``ground_energy <= trial + tol`` for the caller's ground energy E(N).
    """
    n = model.n_particles
    evals, evecs = np.linalg.eigh(OneBodyOperator(model.grid, gamma_matrix).matrix)
    if evals[::-1][:n][-1] <= 1e-12:  # the N-th largest occupation; eigh sorts ascending
        raise ValidationError(
            f"one-body matrix has rank below N={n}; cannot form a Slater trial"
        )
    orbitals = evecs[:, ::-1][:, :n]
    trial = model.energy(orbitals @ orbitals.T.conj())
    return TrialEnergyReport(
        trial_energy=trial,
        satisfied=bool(ground_energy <= trial + tol),
    )


@dataclass
class AprioriReport:
    kinetic_potential: float
    interaction_integral: float


def apriori_diagnostics(state: FermionState) -> AprioriReport:
    """Kinetic+potential expectation and the two-body interaction integral.

    The interaction integral is N^-1 <sum_{j<k} w_N(x_j - x_k)>, summed
    state by state over ``_pair_terms``; the kinetic+potential part
    tr(T gamma_1) is <H> plus it. Purely diagnostic, nothing is asserted.
    """
    ham = state.ham
    inter = 0.0
    if ham.w_n is not None:
        w2 = state.coefficients**2
        inter = sum((float(w2 @ term) for term in _pair_terms(ham)), 0.0)
    return AprioriReport(
        kinetic_potential=state.energy() + inter,
        interaction_integral=inter,
    )


def free_fermion_energy(model: LatticeModel) -> float:
    """Filling rule: sum of the N lowest one-body eigenvalues (w = 0).

    Bisection runs to LAPACK's most accurate setting (twice the underflow
    threshold) rather than its default width eps * ||T||, which reaches
    1e-10 on fine grids.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    evals = eigvalsh_tridiagonal(
        *model.one_body_diagonals(), select="i", select_range=(0, model.n_particles - 1), tol=2 * np.finfo(float).tiny
    )
    return float(np.sum(evals))
