"""Exact small-N ground states of the discretized many-body Hamiltonian.

Spinless lattice fermions on a 1D grid, at most one particle per site; the
occupation basis enforces antisymmetry structurally. The Hamiltonian is

    H = sum_j (-hbar^2 Lap_j) + sum_j V(x_j) - N^-1 sum_{j<k} w_N(x_j - x_k)

with hbar = 1/N, a 3-point Laplacian stencil and Dirichlet walls. All
assertions downstream are made against this discrete model itself; the
continuum is approached only under grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import CapExceededError, ConvergenceError, ValidationError
from .model import ScaledInteraction, SpatialGrid, TrapPotential

Array = np.ndarray

BASIS_CAP = 2_000_000
DENSE_FALLBACK_DIM = 2000


def one_body_matrix(grid: SpatialGrid, potential: TrapPotential, hbar: float) -> Array:
    """Dense one-body matrix: 3-point -hbar^2*Laplacian plus diagonal V."""
    if grid.d != 1:
        raise ValidationError("the lattice oracle is 1D only")
    m = grid.points_per_axis
    h = grid.spacing
    t = hbar**2 / h**2
    mat = np.zeros((m, m))
    np.fill_diagonal(mat, 2.0 * t)
    idx = np.arange(m - 1)
    mat[idx, idx + 1] = -t
    mat[idx + 1, idx] = -t
    mat[np.diag_indices(m)] += np.asarray(potential.evaluate(grid.points()), dtype=float)
    return mat


@dataclass
class DiscreteHamiltonian:
    """Sparse many-body Hamiltonian over the occupation basis."""

    grid: SpatialGrid
    potential: TrapPotential
    n_particles: int
    w_n: ScaledInteraction | None = None
    basis_cap: int = BASIS_CAP

    occupations: Array = field(init=False)  # (dim, N) sorted site indices
    masks: Array = field(init=False)  # ascending, so a state's row is searchsorted(masks, mask)
    matrix: sp.csr_matrix = field(init=False)
    hbar: float = field(init=False)

    def __post_init__(self):
        if self.grid.d != 1:
            raise ValidationError("the many-body oracle supports d=1 only")
        m = self.grid.points_per_axis
        n = self.n_particles
        if not (1 <= n <= m):
            raise ValidationError(f"need 1 <= N <= M, got N={n}, M={m}")
        dim = math.comb(m, n)
        if dim > self.basis_cap:
            raise CapExceededError(
                f"occupation basis C({m},{n}) = {dim} exceeds the cap {self.basis_cap}"
            )
        if m > 63:
            raise ValidationError("lattice limited to 63 sites (uint64 masks)")
        self.hbar = 1.0 / n
        # Lexicographic order over descending site tuples is descending mask
        # order; reversing rows and columns gives ascending masks, ascending sites.
        descending = np.array(list(combinations(range(m - 1, -1, -1), n)), dtype=np.int64)
        self.occupations = np.ascontiguousarray(descending[::-1, ::-1])
        self.masks = np.zeros(dim, dtype=np.uint64)
        for col in range(n):
            self.masks |= np.uint64(1) << self.occupations[:, col].astype(np.uint64)
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
        v = np.asarray(self.potential.evaluate(self.grid.points()), dtype=float)

        diag = v[occ].sum(axis=1) + 2.0 * hop * n
        if self.w_n is not None:
            coupling = self.w_n.pair_matrix(self.grid)
            for a in range(n):
                for b in range(a + 1, n):
                    diag -= coupling[occ[:, a], occ[:, b]] / n

        # Nearest-neighbor hops; the Jordan-Wigner string between adjacent
        # sites is empty, so every hopping element is -hop.
        rows, cols = [], []
        one = np.uint64(1)
        for col in range(n):
            sites = occ[:, col]
            for step in (-1, 1):
                target = sites + step
                ok = (target >= 0) & (target < m)
                ok &= ((self.masks >> target.clip(0, m - 1).astype(np.uint64)) & one) == 0
                src = np.nonzero(ok)[0]
                if src.size == 0:
                    continue
                new_masks = (
                    self.masks[src]
                    ^ (one << sites[src].astype(np.uint64))
                    | (one << target[src].astype(np.uint64))
                )
                rows.append(src)
                cols.append(np.searchsorted(self.masks, new_masks))
        rows = np.concatenate(rows) if rows else np.array([], dtype=np.int64)
        cols = np.concatenate(cols) if cols else np.array([], dtype=np.int64)
        data = np.full(rows.shape, -hop)
        mat = sp.coo_matrix((data, (rows, cols)), shape=(dim, dim))
        mat = mat + sp.diags(diag)
        return mat.tocsr()


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


def ground_state(ham: DiscreteHamiltonian, tol: float = 1e-9, seed: int = 7) -> tuple[float, FermionState]:
    """Lowest eigenpair; dense below DENSE_FALLBACK_DIM, else ARPACK ``eigsh``.

    ``seed`` draws the ARPACK start vector. On either path a residual
    ||Hx - Ex|| above ``tol``, or ARPACK stopping unconverged, raises
    ``ConvergenceError``.
    """
    if ham.dim <= DENSE_FALLBACK_DIM:
        evals, evecs = np.linalg.eigh(ham.matrix.toarray())
    else:
        v0 = np.random.default_rng(seed).standard_normal(ham.dim)
        try:
            evals, evecs = eigsh(ham.matrix, k=1, which="SA", v0=v0)
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

    site_occ = np.zeros(m)
    np.add.at(site_occ, occ.ravel(), np.repeat(w2, n))

    pair = np.zeros((m, m))
    for a in range(n):
        for b in range(a + 1, n):
            np.add.at(pair, (occ[:, a], occ[:, b]), w2)
    return site_occ, pair + pair.T  # ordered pairs; diagonal stays exactly zero


def reduced_densities(state: FermionState, k: int = 2) -> ReducedDensities:
    """Site occupations, pair density and the one-body matrix of a state."""
    ham = state.ham
    n = ham.n_particles
    if k > n:
        raise ValidationError(f"k={k} exceeds the particle number N={n}")
    m = ham.grid.points_per_axis
    h = ham.grid.spacing
    site_occ, pair = _site_and_pair_occupations(state)

    gamma = np.diag(site_occ)
    masks = ham.masks
    coeffs = state.coefficients
    one = np.uint64(1)
    for i in range(m):
        bit_i = one << np.uint64(i)
        has_i = (masks & bit_i) != 0
        for j in range(i + 1, m):
            bit_j = one << np.uint64(j)
            sel = np.nonzero(has_i & ((masks & bit_j) == 0))[0]
            if sel.size == 0:
                continue
            dst = np.searchsorted(masks, (masks[sel] ^ bit_i) | bit_j)
            # Jordan-Wigner string: parity of occupation strictly between i and j
            between = ((one << np.uint64(j)) - one) ^ ((one << np.uint64(i + 1)) - one)
            signs = 1.0 - 2.0 * (np.bitwise_count(masks[sel] & between) & 1)
            val = float(np.sum(signs * coeffs[sel] * coeffs[dst]))
            gamma[i, j] += val
            gamma[j, i] += val

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
    """Filling rule: sum of the N lowest one-body eigenvalues (w = 0)."""
    t_mat = one_body_matrix(ham.grid, ham.potential, ham.hbar)
    evals = np.linalg.eigvalsh(t_mat)
    return float(np.sum(evals[: ham.n_particles]))
