"""Exchangeable-measure laboratory on finite state spaces.

Implements the Diaconis-Freedman construction exactly: a symmetric N-body
law on a finite state space is rewritten as a mixture of N-fold products of
empirical measures; the first marginal is reproduced exactly and the k-th
marginal within total variation 2k(k-1)/N. Small laws are carried in exact
rational arithmetic so these identities are tested with zero tolerance.
Both k-marginals depend only on the prefix type (the count vector of a
k-tuple), so they and the total variation are computed per type: integer
tables over #multisets x C(S+k-1, k) types, O(#multisets * C(S+k-1, k) * S)
operations in place of S^k ordered prefixes per multiset. The tables are
int64 while N^k < 2^63 and Python ints beyond, and exact sums are formed in
Python ints, so nothing wraps.

The module also provides the phase-space tiling, measure averaging,
Wasserstein-1 distances with a dual optimality certificate, Monte Carlo
statistics for local Pauli-bound violations, and the restriction/averaging
energy-defect experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
from scipy.special import bdtrc, betaincinv

from .errors import CapExceededError, ValidationError
from .model import ScaledInteraction, TrapPotential

Array = np.ndarray

TWO_PI = 2.0 * math.pi

ENUMERATION_CAP = 10_000_000
# Flat ranks per chunk of FiniteExchangeableLaw.from_tensor.
TENSOR_CHUNK = 1 << 16
# The transport LP has one variable per plan entry (n * m of them). Peak
# memory of the sparse HiGHS solve was measured at 1.0-1.3 KiB per variable
# for n * m from 1e4 to 3.6e5 (scipy 1.17); the estimate adds margin.
TRANSPORT_BYTES_PER_VARIABLE = 1536
TRANSPORT_MEMORY_BUDGET = 1 << 30
TRANSPORT_VARIABLE_CAP = TRANSPORT_MEMORY_BUDGET // TRANSPORT_BYTES_PER_VARIABLE
# Monte Carlo trials per spawned seed; the streams for a given seed depend on it.
PAULI_CHUNK = 2048


# ---------------------------------------------------------------------------
# Exchangeable laws and the Diaconis-Freedman mixture
# ---------------------------------------------------------------------------


def _multiset_counts(multiset: tuple[int, ...], n_states: int) -> tuple[int, ...]:
    counts = [0] * n_states
    for s in multiset:
        counts[s] += 1
    return tuple(counts)


def _multinomial(counts) -> int:
    total = sum(counts)
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


def _count_matrix(multisets: Array, n_states: int) -> Array:
    """Count vector of each row of sorted state tuples, shape (rows, S)."""
    counts = np.zeros((multisets.shape[0], n_states), dtype=np.int64)
    rows = np.arange(multisets.shape[0])
    for column in multisets.T:
        counts[rows, column] += 1
    return counts


def _scatter(types: Array, values: Array, n_states: int) -> Array:
    """Spread per-type values onto ordered prefixes, shape (S,)*k.

    ``types`` holds the sorted k-tuples in lexicographic order, so their
    base-S keys increase and each sorted prefix finds its type by bisection.
    """
    k = types.shape[1]
    if n_states**k > ENUMERATION_CAP:
        raise CapExceededError(f"S^k = {n_states**k} exceeds the enumeration cap")
    radix = n_states ** np.arange(k - 1, -1, -1)
    prefixes = np.sort(np.indices((n_states,) * k).reshape(k, -1), axis=0)
    ranks = np.searchsorted(types @ radix, radix @ prefixes)
    return values[ranks].reshape((n_states,) * k)


@dataclass
class FiniteExchangeableLaw:
    """Symmetric probability law on S^N stored by multiset weights.

    ``weights[multiset]`` is the total probability of all orderings of that
    multiset. Exact rational weights keep every identity in this module
    exact; float weights are accepted for laws derived from numerics.
    """

    n_states: int
    n_particles: int
    weights: dict[tuple[int, ...], Fraction | float]

    def __post_init__(self):
        if self.n_states < 1 or self.n_particles < 1:
            raise ValidationError("state space and particle number must be positive")
        total = sum(self.weights.values())
        exact = self.exact
        if exact:
            if total != 1:
                raise ValidationError(f"law weights sum to {total}, expected exactly 1")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ValidationError(f"law weights sum to {float(total)}, expected 1 within 1e-12")
        for multiset, w in self.weights.items():
            if len(multiset) != self.n_particles or tuple(sorted(multiset)) != multiset:
                raise ValidationError(f"multiset key {multiset} is not a sorted N-tuple")
            if w < 0:
                raise ValidationError("negative weight")
        keys = np.array(list(self.weights), dtype=np.int64).reshape(-1, self.n_particles)
        self._counts = _count_matrix(keys, self.n_states)
        # weights as numerators over one denominator: Python ints when exact
        if exact:
            self._denominator = math.lcm(*(Fraction(w).denominator for w in self.weights.values()))
            self._numerators = np.array(
                [int(Fraction(w) * self._denominator) for w in self.weights.values()], dtype=object
            )
        else:
            self._denominator = 1
            self._numerators = np.array([float(w) for w in self.weights.values()])

    @property
    def exact(self) -> bool:
        return all(isinstance(w, (Fraction, int)) for w in self.weights.values())

    @classmethod
    def uniform(cls, n_states: int, n_particles: int) -> "FiniteExchangeableLaw":
        """The i.i.d. uniform law: multiset weight = multinomial / S^N, one per multiset."""
        n_multisets = math.comb(n_states + n_particles - 1, n_particles)
        if n_multisets > ENUMERATION_CAP:
            raise CapExceededError(f"C(S+N-1, N) = {n_multisets} multisets exceed the enumeration cap")
        total = n_states**n_particles
        weights = {
            ms: Fraction(_multinomial(_multiset_counts(ms, n_states)), total)
            for ms in combinations_with_replacement(range(n_states), n_particles)
        }
        return cls(n_states, n_particles, weights)

    @classmethod
    def from_product(cls, sigma, n_particles: int) -> "FiniteExchangeableLaw":
        """Product law sigma^(x)N of a single-particle distribution."""
        sigma = list(sigma)
        weights = {}
        for ms in combinations_with_replacement(range(len(sigma)), n_particles):
            counts = _multiset_counts(ms, len(sigma))
            w = _multinomial(counts)
            for s, c in enumerate(counts):
                for _ in range(c):
                    w = w * sigma[s]
            weights[ms] = w
        return cls(len(sigma), n_particles, weights)

    @classmethod
    def from_tensor(cls, tensor: Array) -> "FiniteExchangeableLaw":
        """Symmetric tensor over ordered configurations (S, ..., S), N axes.

        Nonzero entries are grouped, in chunks of ``TENSOR_CHUNK`` flat ranks,
        by the base-S key of their sorted digits, and ``np.add.at`` adds each
        group onto its running total in rank order: the sums of one
        configuration at a time, exact for object arrays of ``Fraction``.
        Multisets are listed in ascending key order, the order of their first
        configurations.
        """
        tensor = np.asarray(tensor)
        n_particles = tensor.ndim
        n_states = tensor.shape[0]
        if tensor.shape != (n_states,) * n_particles:
            raise ValidationError("tensor must be a hypercube over the state space")
        if tensor.size > ENUMERATION_CAP:
            raise CapExceededError(f"tensor with {tensor.size} entries exceeds the cap")
        flat = tensor.reshape(-1)
        kind = flat.dtype.kind
        dtype = object if kind == "O" else np.int64 if kind in "biu" else np.result_type(flat.dtype, float)
        radix = n_states ** np.arange(n_particles - 1, -1, -1, dtype=np.int64)
        sums: dict[int, Fraction | float] = {}
        for start in range(0, flat.size, TENSOR_CHUNK):
            w = flat[start : start + TENSOR_CHUNK]
            ranks = start + np.flatnonzero(w != 0)
            keys = np.sort(ranks[:, None] // radix % n_states, axis=1) @ radix
            groups, inverse = np.unique(keys, return_inverse=True)
            totals = np.array([sums.get(key, 0) for key in groups.tolist()], dtype=dtype)
            np.add.at(totals, inverse, w[ranks - start].astype(dtype))
            sums.update(zip(groups.tolist(), totals.tolist()))
        keys = np.array(sorted(sums), dtype=np.int64)
        digits = keys[:, None] // radix % n_states
        weights = {tuple(row): sums[key] for row, key in zip(digits.tolist(), keys.tolist())}
        return cls(n_states, n_particles, weights)

    def _type_sums(self, k: int) -> tuple[Array, Array, Array]:
        """Prefix types of length k and the weighted falling and power sums.

        A type is the count vector u of a k-multiset, listed as its sorted
        tuple in lexicographic order. With c the count vector of a law
        multiset and a_c its weight times the common denominator, the sums
        are sum_c a_c F[c, u] and sum_c a_c P[c, u], where
        F[c, u] = prod_s c_s (c_s - 1) ... (c_s - u_s + 1) and
        P[c, u] = prod_s c_s^u_s. No entry exceeds N^k, so the tables are int64
        while N^k < 2^63 and Python ints beyond, and exact sums are formed
        in Python ints.
        """
        n = self.n_particles
        types = np.array(list(combinations_with_replacement(range(self.n_states), k)), dtype=np.int64)
        u = _count_matrix(types, self.n_states)
        c = self._counts
        if c.shape[0] * u.shape[0] > ENUMERATION_CAP:
            raise CapExceededError(f"{c.shape[0]} multisets x {u.shape[0]} prefix types exceed the cap")
        dtype = np.int64 if n**k < 2**63 else object
        falling = np.array([[math.perm(a, b) for b in range(k + 1)] for a in range(n + 1)], dtype=dtype)
        power = np.array([[a**b for b in range(k + 1)] for a in range(n + 1)], dtype=dtype)
        f_table = np.ones((c.shape[0], u.shape[0]), dtype=dtype)
        p_table = np.ones((c.shape[0], u.shape[0]), dtype=dtype)
        for s in range(self.n_states):
            f_table = f_table * falling[c[:, s, None], u[None, :, s]]
            p_table = p_table * power[c[:, s, None], u[None, :, s]]
        if not self.exact:
            f_table, p_table = f_table.astype(float), p_table.astype(float)
        return types, self._numerators @ f_table, self._numerators @ p_table

    def _scaled(self, sums: Array, denom: int) -> Array:
        """Weighted sums over ``denom``: Fractions for exact laws, floats otherwise."""
        if self.exact:
            d = self._denominator * denom
            return np.array([Fraction(x, d) for x in sums], dtype=object)
        return sums / denom

    def marginal(self, k: int) -> Array:
        """Exact k-point marginal over ordered k-tuples, shape (S,)*k.

        P(Z_1 = s_1, ..., Z_k = s_k) depends only on the prefix type u and
        equals sum_c w_c F[c, u] / N(N-1)...(N-k+1); rational weights stay
        rational.
        """
        if not (1 <= k <= self.n_particles):
            raise ValidationError(f"need 1 <= k <= N, got k={k}")
        types, falling, _ = self._type_sums(k)
        return _scatter(types, self._scaled(falling, math.perm(self.n_particles, k)), self.n_states)


@dataclass
class DFDecomposition:
    """The mixture over empirical measures and its product-law marginals.

    Each multiset with count vector c contributes its empirical measure
    c / N with its probability w_c.
    """

    law: FiniteExchangeableLaw

    def mixture_marginal(self, k: int) -> Array:
        """m-tilde^(k) = sum_c w_c (c / N)^(x)k, equal to sum_c w_c P[c, u] / N^k per prefix type."""
        if k < 1:
            raise ValidationError(f"need k >= 1, got k={k}")
        law = self.law
        types, _, power = law._type_sums(k)
        return _scatter(types, law._scaled(power, law.n_particles**k), law.n_states)


def df_decomposition(law: FiniteExchangeableLaw) -> DFDecomposition:
    """Rewrite a symmetric law as a mixture of empirical product laws.

    Each multiset contributes its empirical measure (counts / N) with its
    total probability; the first mixture marginal equals the law's first
    marginal identically, and the second obeys
    m-tilde2 = (N-1)/N * m2 + (1/N) * m1 on the diagonal.
    """
    return DFDecomposition(law)


@dataclass
class TVReport:
    k: int
    tv: Fraction | float
    bound: Fraction | float
    passed: bool


def tv_bound_check(law: FiniteExchangeableLaw, k: int) -> TVReport:
    """Total variation | m^(k) - m-tilde^(k) |_1 against the 2k(k-1)/N bound.

    Both marginals are constant on prefix types, so the sum runs over the
    C(S+k-1, k) types weighted by their k!/prod_s u_s! orderings, never over
    the S^k ordered prefixes: O(#multisets * C(S+k-1, k) * S) integer
    operations. Exact laws get TV = sum_u mult(u) |N^k A_F(u) - N^(k) A_P(u)|
    / (D N^k N^(k)) as one Fraction, with A_F, A_P the Python-int weighted
    sums of ``_type_sums``, D the common weight denominator and
    N^(k) = N(N-1)...(N-k+1). The tables are int64 only while N^k < 2^63.
    Float laws evaluate the same formula in float64.
    """
    n = law.n_particles
    if not (1 <= k <= n):
        raise ValidationError(f"need 1 <= k <= N, got k={k}")
    types, falling, power = law._type_sums(k)
    factorials = np.array([math.factorial(j) for j in range(k + 1)], dtype=object)
    mult = math.factorial(k) // np.prod(factorials[_count_matrix(types, law.n_states)], axis=1)
    n_pow, n_perm = n**k, math.perm(n, k)
    if law.exact:
        total = np.sum(mult * np.abs(n_pow * falling - n_perm * power))
        tv = Fraction(int(total), law._denominator * n_pow * n_perm)
        bound = Fraction(2 * k * (k - 1), n)
        passed = tv <= bound
    else:
        tv = float(np.sum(mult.astype(float) * np.abs(falling / n_perm - power / n_pow)))
        bound = 2.0 * k * (k - 1) / n
        passed = tv <= bound + 1e-12
    return TVReport(k=k, tv=tv, bound=bound, passed=bool(passed))


# ---------------------------------------------------------------------------
# Tiling, empirical measures, averaging
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tiling:
    """Partition of the phase-space box [-L, L]^(2d) into hyperrectangles.

    Cells have spatial side ``l_x = 2L/cells_x`` (each of the d spatial
    axes) and momentum side ``l_p = 2L/cells_p``; with ``cells_x = cells_p
    = 2n`` per axis the cell count is the canonical 4^d n^(2d).
    """

    d: int
    half_width: float
    cells_x: int
    cells_p: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValidationError("phase-space tilings support d = 1 or 2")
        if self.cells_x < 1 or self.cells_p < 1:
            raise ValidationError("cell counts must be positive")
        if self.half_width <= 0:
            raise ValidationError("tiling half-width must be positive")

    @property
    def l_x(self) -> float:
        return 2.0 * self.half_width / self.cells_x

    @property
    def l_p(self) -> float:
        return 2.0 * self.half_width / self.cells_p

    @property
    def cell_volume(self) -> float:
        return self.l_x**self.d * self.l_p**self.d

    @property
    def n_cells(self) -> int:
        return self.cells_x**self.d * self.cells_p**self.d

    @property
    def cell_diameter(self) -> float:
        return math.sqrt(self.d * self.l_x**2 + self.d * self.l_p**2)

    @property
    def box_volume(self) -> float:
        return (2.0 * self.half_width) ** (2 * self.d)

    def _axis_cells(self) -> tuple[int, ...]:
        return (self.cells_x,) * self.d + (self.cells_p,) * self.d

    def _axis_sides(self) -> tuple[float, ...]:
        return (self.l_x,) * self.d + (self.l_p,) * self.d

    def cell_index(self, points: Array) -> Array:
        """Flat cell index per point; -1 for points outside the box."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != 2 * self.d:
            raise ValidationError(f"points must have {2 * self.d} phase-space coordinates")
        idx = np.zeros(pts.shape[0], dtype=np.int64)
        inside = np.ones(pts.shape[0], dtype=bool)
        for axis, (cells, side) in enumerate(zip(self._axis_cells(), self._axis_sides())):
            co = np.floor((pts[:, axis] + self.half_width) / side).astype(np.int64)
            at_edge = pts[:, axis] == self.half_width
            co[at_edge] = cells - 1
            inside &= (co >= 0) & (co < cells)
            idx = idx * cells + np.clip(co, 0, cells - 1)
        idx[~inside] = -1
        return idx

    def in_cell(self, points: Array, flat: int) -> Array:
        """Mask of the points that ``cell_index`` puts in cell ``flat``.

        Tests each axis with cell_index's arithmetic, y = (x + L) / side and
        t <= y < t + 1 (that is, floor(y) == t), or x == L on the last cell
        of the axis, without forming flat indices. ``points`` has the
        phase-space coordinates on its last axis; the mask has the leading
        shape.
        """
        pts = np.asarray(points, dtype=float)
        coords = np.unravel_index(flat, self._axis_cells())
        mask = np.ones(pts.shape[:-1], dtype=bool)
        for axis, (t, cells, side) in enumerate(zip(coords, self._axis_cells(), self._axis_sides())):
            y = (pts[..., axis] + self.half_width) / side
            hit = (t <= y) & (y < t + 1)
            if t == cells - 1:
                hit |= pts[..., axis] == self.half_width
            mask &= hit
        return mask

    def cell_bounds(self, flat: int) -> tuple[Array, Array]:
        cells = self._axis_cells()
        sides = self._axis_sides()
        coords = []
        rest = flat
        for c in reversed(cells):
            coords.append(rest % c)
            rest //= c
        coords = coords[::-1]
        lo = np.array([-self.half_width + co * s for co, s in zip(coords, sides)])
        hi = lo + np.array(sides)
        return lo, hi

    def cell_center(self, flat: int) -> Array:
        lo, hi = self.cell_bounds(flat)
        return 0.5 * (lo + hi)

    def cell_lows(self) -> Array:
        """Lower corner of every cell, row j for flat index j (cell_bounds' arithmetic)."""
        coords = np.indices(self._axis_cells()).reshape(2 * self.d, -1).T
        return -self.half_width + coords * np.array(self._axis_sides())

    def cell_centers(self) -> Array:
        lo = self.cell_lows()
        return 0.5 * (lo + (lo + np.array(self._axis_sides())))

    @classmethod
    def square(cls, d: int, half_width: float, cells_per_axis: int) -> "Tiling":
        return cls(d, half_width, cells_per_axis, cells_per_axis)


def paper_scaling(n_particles: int, d: int, beta: float, growth_exponent: float,
                  n_boxes: int | None = None) -> dict:
    """Named tiling preset tied to the lower-bound parameter schedule.

    gamma = 4/(4d+1), delta = 1/20, spatial side N^(-2/(d(2d+1))), momentum
    side N^(-2/(d(2d+1)(4d+1))), hypercube half-width L = n N^(-gamma/(2d))
    with n growing like N^(5 beta d/(2s) + 1) for s <= 2 and
    N^(5 beta d/4 + 1) otherwise. Side lengths are rounded to an integer
    cell count; actual values are reported alongside the targets.
    """
    n = float(n_particles)
    gamma = 4.0 / (4 * d + 1)
    delta = 1.0 / 20.0
    l_x = n ** (-2.0 / (d * (2 * d + 1)))
    l_p = n ** (-2.0 / (d * (2 * d + 1) * (4 * d + 1)))
    if n_boxes is None:
        if growth_exponent <= 2:
            n_boxes = math.ceil(n ** (5.0 * beta * d / (2.0 * growth_exponent) + 1.0))
        else:
            n_boxes = math.ceil(n ** (5.0 * beta * d / 4.0 + 1.0))
    half_width = n_boxes * n ** (-gamma / (2.0 * d))
    cells_x = max(1, round(2.0 * half_width / l_x))
    cells_p = max(1, round(2.0 * half_width / l_p))
    tiling = Tiling(d, half_width, cells_x, cells_p)
    return {
        "gamma": gamma,
        "delta": delta,
        "target_l_x": l_x,
        "target_l_p": l_p,
        "n_boxes": n_boxes,
        "tiling": tiling,
    }


@dataclass
class EmpiricalMeasure:
    """Uniform atoms at phase-space points; weights are exactly 1/N."""

    points: Array

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.shape[0] < 1:
            raise ValidationError("empirical measure needs at least one atom")

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def atom_weight(self) -> Fraction:
        return Fraction(1, self.n_atoms)

    def float_weights(self) -> Array:
        return np.full(self.n_atoms, 1.0 / self.n_atoms)


@dataclass
class AveragedMeasure:
    """Piecewise-constant measure with exact per-cell masses."""

    tiling: Tiling
    cell_masses: Array  # object (Fraction) or float per cell
    source: str = ""

    def mass(self):
        return sum(self.cell_masses)

    def densities(self) -> Array:
        vol = self.tiling.cell_volume
        return np.array([float(m) / vol for m in self.cell_masses])

    def atoms(self) -> tuple[Array, Array]:
        """Cell-center atomization for transport computations."""
        masses = np.asarray(self.cell_masses, dtype=float)
        keep = masses > 0
        return self.tiling.cell_centers()[keep], masses[keep]


def average_measure(mu: EmpiricalMeasure, tiling: Tiling) -> AveragedMeasure:
    """Project a measure onto per-cell uniform densities, preserving cell masses.

    Atoms outside the tiling's box are dropped (the averaged measure covers
    the restriction to the box); for an empirical measure the cell masses
    are exact rationals count/N.
    """
    idx = tiling.cell_index(mu.points)
    counts = np.bincount(idx[idx >= 0], minlength=tiling.n_cells)
    masses = np.array([Fraction(int(c), mu.n_atoms) for c in counts], dtype=object)
    return AveragedMeasure(tiling, masses, source=f"empirical({mu.n_atoms})")


# ---------------------------------------------------------------------------
# Wasserstein-1
# ---------------------------------------------------------------------------


@dataclass
class TransportResult:
    distance: float
    dual_feasibility_gap: float
    duality_gap: float

    @property
    def certified(self) -> bool:
        return self.dual_feasibility_gap <= 1e-8 and self.duality_gap <= 1e-8


def _as_atoms(measure) -> tuple[Array, Array]:
    if isinstance(measure, EmpiricalMeasure):
        return measure.points, measure.float_weights()
    if isinstance(measure, AveragedMeasure):
        return measure.atoms()
    if isinstance(measure, tuple) and len(measure) == 2:
        pts = np.atleast_2d(np.asarray(measure[0], dtype=float))
        wts = np.asarray(measure[1], dtype=float)
        return pts, wts
    raise ValidationError(f"unsupported measure type {type(measure).__name__}")


def wasserstein1(mu, nu) -> TransportResult:
    """Wasserstein-1 distance with the Euclidean ground metric.

    One-dimensional supports use the exact CDF formula. Otherwise the
    transport linear program is solved and certified by its dual: the
    reported potentials must be feasible (u_i + v_j <= cost_ij) and close
    the duality gap within 1e-8.
    """
    a_pts, a_w = _as_atoms(mu)
    b_pts, b_w = _as_atoms(nu)
    if abs(a_w.sum() - b_w.sum()) > 1e-9 * max(1.0, a_w.sum()):
        raise ValidationError("transport requires equal total masses")
    n, m = a_pts.shape[0], b_pts.shape[0]
    if n * m > TRANSPORT_VARIABLE_CAP:
        raise CapExceededError(
            f"transport plan of {n} x {m} = {n * m} entries exceeds the cap of "
            f"{TRANSPORT_VARIABLE_CAP} ({TRANSPORT_MEMORY_BUDGET >> 20} MiB at "
            f"{TRANSPORT_BYTES_PER_VARIABLE} B per LP variable)"
        )
    if a_pts.shape[1] != b_pts.shape[1]:
        raise ValidationError("measures live in different ambient dimensions")

    # collapse to the 1D CDF formula when both supports share a line
    spread = np.ptp(np.vstack([a_pts, b_pts]), axis=0)
    active = spread > 0
    if active.sum() <= 1:
        axis = int(np.argmax(active)) if active.any() else 0
        return TransportResult(_wasserstein1_line(a_pts[:, axis], a_w, b_pts[:, axis], b_w), 0.0, 0.0)

    from scipy import sparse
    from scipy.optimize import linprog

    cost = np.linalg.norm(a_pts[:, None, :] - b_pts[None, :, :], axis=2)
    # supply rows then demand rows over the row-major plan x[i * m + j]
    a_eq = sparse.vstack(
        [sparse.kron(sparse.eye(n), np.ones((1, m))), sparse.kron(np.ones((1, n)), sparse.eye(m))],
        format="csr",
    )
    b_eq = np.concatenate([a_w, b_w])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise ValidationError(f"transport LP failed: {res.message}")
    duals = res.eqlin.marginals
    u, v = duals[:n], duals[n:]
    feas = float(np.max(u[:, None] + v[None, :] - cost))
    gap = abs(float(u @ a_w + v @ b_w) - float(res.fun))
    return TransportResult(float(res.fun), max(feas, 0.0), gap)


def _wasserstein1_line(a_x: Array, a_w: Array, b_x: Array, b_w: Array) -> float:
    xs = np.concatenate([a_x, b_x])
    order = np.argsort(xs)
    signed = np.concatenate([a_w, -b_w])[order]
    xs = xs[order]
    cdf = np.cumsum(signed)[:-1]
    gaps = np.diff(xs)
    return float(np.sum(np.abs(cdf) * gaps))


# ---------------------------------------------------------------------------
# Pauli-violation statistics
# ---------------------------------------------------------------------------


def uniform_box_sampler(tiling: Tiling):
    """Draw configurations i.i.d. uniform on the tiling's phase-space box."""
    half = tiling.half_width
    dim = 2 * tiling.d

    def draw(rng, n_trials, n_particles):
        return rng.uniform(-half, half, size=(n_trials, n_particles, dim))

    return draw


def exchangeable_law_sampler(law: FiniteExchangeableLaw, tiling: Tiling):
    """Draw N-point configurations from a finite exchangeable law.

    Law states are identified with tiling cells (state count must match);
    each drawn particle is placed uniformly inside its cell. Supports the
    tiny-law regime, e.g. symmetrized Husimi weights at N <= 3.
    """
    if law.n_states != tiling.n_cells:
        raise ValidationError(
            f"law has {law.n_states} states but the tiling has {tiling.n_cells} cells"
        )
    keys = list(law.weights.keys())
    probs = np.array([float(law.weights[k]) for k in keys])
    probs = probs / probs.sum()
    lows = tiling.cell_lows()
    sides = np.array(tiling._axis_sides())

    def draw(rng, n_trials, n_particles):
        if n_particles != law.n_particles:
            raise ValidationError("sampler is bound to the law's particle number")
        choice = rng.choice(len(keys), size=n_trials, p=probs)
        cells = np.array([keys[c] for c in choice])
        jitter = rng.uniform(0.0, 1.0, size=(n_trials, n_particles, 2 * tiling.d))
        return lows[cells] + jitter * sides

    return draw


def iid_cell_sampler(tiling: Tiling, cell_probs: Array):
    """Draw particles i.i.d. from a per-cell distribution, uniform in-cell."""
    probs = np.asarray(cell_probs, dtype=float)
    if probs.shape != (tiling.n_cells,) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValidationError("cell probabilities must sum to 1 over the tiling")
    lows = tiling.cell_lows()
    sides = np.array(tiling._axis_sides())

    def draw(rng, n_trials, n_particles):
        cells = rng.choice(tiling.n_cells, size=(n_trials, n_particles), p=probs)
        jitter = rng.uniform(0.0, 1.0, size=(n_trials, n_particles, 2 * tiling.d))
        return lows[cells] + jitter * sides

    return draw


@dataclass
class PauliViolationStats:
    epsilon: float
    threshold_mass: float
    threshold_count: int
    frequency: float
    ci_low: float
    ci_high: float
    n_trials: int
    exact_tail: float | None = None

    @property
    def matches_exact(self) -> bool:
        if self.exact_tail is None:
            return True
        return self.ci_low <= self.exact_tail <= self.ci_high


def pauli_violation_stats(
    sampler,
    tiling: Tiling,
    cell: int,
    epsilon: float,
    n_particles: int,
    n_trials: int,
    seed: int,
    exact_cell_prob: float | None = None,
) -> PauliViolationStats:
    """Monte Carlo frequency of a local occupancy exceeding the Pauli level.

    The event is {empirical mass of the cell >= (1+eps) (2 pi)^-d |cell|};
    its frequency is reported with the exact (Clopper-Pearson) 95% binomial
    confidence interval. Streams are chunked (``PAULI_CHUNK`` trials each)
    with seeds spawned deterministically from ``seed``, so results are
    reproducible regardless of worker layout. For an i.i.d. sampler with
    known per-draw cell probability the exact binomial tail is attached as
    the oracle.
    """
    if n_trials < 1:
        raise ValidationError(f"need at least one Monte Carlo trial, got {n_trials}")
    if not 0 <= cell < tiling.n_cells:
        raise ValidationError(f"cell {cell} is not in the tiling's {tiling.n_cells} cells")
    d = tiling.d
    threshold_mass = (1.0 + epsilon) * tiling.cell_volume / TWO_PI**d
    if threshold_mass <= 0:
        raise ValidationError("zero-width cells make the violation event ill-posed")
    threshold_count = math.ceil(threshold_mass * n_particles)  # event includes equality

    seeds = np.random.SeedSequence(seed).spawn(max(1, (n_trials + PAULI_CHUNK - 1) // PAULI_CHUNK))
    hits = 0
    done = 0
    for ss in seeds:
        size = min(PAULI_CHUNK, n_trials - done)
        if size <= 0:
            break
        rng = np.random.default_rng(ss)
        counts = tiling.in_cell(sampler(rng, size, n_particles), cell).sum(axis=1)
        hits += int((counts >= threshold_count).sum())
        done += size

    freq = hits / n_trials
    # Clopper-Pearson bounds are Beta quantiles; bdtrc(k, n, p) = P(Bin(n, p) > k), NaN for k > n
    ci_low = float(betaincinv(hits, n_trials - hits + 1, 0.025)) if hits > 0 else 0.0
    ci_high = float(betaincinv(hits + 1, n_trials - hits, 0.975)) if hits < n_trials else 1.0
    exact = None
    if exact_cell_prob is not None:
        exact = float(bdtrc(min(threshold_count - 1, n_particles), n_particles, exact_cell_prob))
    return PauliViolationStats(
        epsilon=epsilon,
        threshold_mass=threshold_mass,
        threshold_count=threshold_count,
        frequency=freq,
        ci_low=ci_low,
        ci_high=ci_high,
        n_trials=n_trials,
        exact_tail=exact,
    )


def decay_fit(n_values, frequencies, epsilon: float, delta: float) -> dict:
    """Fit log-frequency against N^delta * log(1+eps) and against log N."""
    n_arr = np.asarray(n_values, dtype=float)
    freq = np.asarray(frequencies, dtype=float)
    if np.any(freq <= 0):
        raise ValidationError("decay fit needs strictly positive frequencies")
    x = n_arr**delta * math.log1p(epsilon)
    slope_delta = float(np.polyfit(x, np.log(freq), 1)[0])
    slope_logn = float(np.polyfit(np.log(n_arr), np.log(freq), 1)[0])
    return {"slope_vs_ndelta": slope_delta, "slope_vs_logn": slope_logn}


# ---------------------------------------------------------------------------
# Energies of one-body measures, restriction and averaging defects
# ---------------------------------------------------------------------------


def measure_energy(
    points: Array,
    weights: Array,
    potential: TrapPotential,
    w_n: ScaledInteraction | None,
) -> float:
    """Semiclassical energy of an atomic phase-space measure.

    integral (|p|^2 + V) d mu  -  double integral w_N(x - y) d mu (x) d mu;
    the product measure includes the diagonal, faithful to mu^(x)2.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    d = pts.shape[1] // 2
    x, p = pts[:, :d], pts[:, d:]
    one_body = float(np.sum(w * (np.sum(p**2, axis=1) + potential.evaluate(x))))
    if w_n is None or pts.shape[0] == 0:
        return one_body
    diffs = x[:, None, :] - x[None, :, :]
    kernel = np.asarray(w_n.evaluate(diffs.reshape(-1, d)), dtype=float).reshape(len(w), len(w))
    two_body = float(w @ kernel @ w)
    return one_body - two_body


def averaged_measure_energy(
    avg: AveragedMeasure,
    potential: TrapPotential,
    w_n: ScaledInteraction | None,
    subsamples: int = 5,
) -> float:
    """Energy of a piecewise-constant measure.

    |p|^2 averages over momentum sides are closed-form; V is averaged on a
    per-cell midpoint subgrid; the interaction uses cell-center separations
    (adequate for the diagnostic defect shapes).
    """
    t = avg.tiling
    d = t.d
    centers, masses = avg.atoms()
    if len(masses) == 0:
        return 0.0
    # closed-form mean of p^2 over a centered interval of side l_p per axis
    kin_per_axis = []
    total_kin = 0.0
    pot = 0.0
    for center, mass in zip(centers, masses):
        p_c = center[d:]
        kin = float(np.sum(p_c**2) + d * t.l_p**2 / 12.0)
        total_kin += mass * kin
        x_lo = center[:d] - 0.5 * t.l_x
        offs = (np.arange(subsamples) + 0.5) / subsamples * t.l_x
        if d == 1:
            xs = (x_lo[0] + offs)[:, None]
        else:
            g1, g2 = np.meshgrid(x_lo[0] + offs, x_lo[1] + offs, indexing="ij")
            xs = np.column_stack([g1.ravel(), g2.ravel()])
        pot += mass * float(np.mean(potential.evaluate(xs)))
    one_body = total_kin + pot
    if w_n is None:
        return one_body
    diffs = centers[:, None, :d] - centers[None, :, :d]
    kernel = np.asarray(w_n.evaluate(diffs.reshape(-1, d)), dtype=float).reshape(len(masses), len(masses))
    return one_body - float(masses @ kernel @ masses)


@dataclass
class DefectReport:
    energy_full: float
    energy_restricted: float
    energy_averaged: float
    restriction_defect: float
    averaging_defect: float
    restriction_shape: float
    averaging_shape: float
    fitted_restriction_constant: float
    fitted_averaging_constant: float
    tau_exceeded: bool


def restriction_energy_defect(
    mu: EmpiricalMeasure,
    tiling: Tiling,
    potential: TrapPotential,
    w_n: ScaledInteraction | None,
    tau: float,
) -> DefectReport:
    """Energies of a measure, its box restriction and its cell average.

    The defects are reported against the bound shapes
    ``tau^2 N^(d beta) / min(L^4, L^(2s))`` (restriction) and
    ``(l_x + l_p) (|E| + 1)`` (averaging), with fitted constants; nothing
    is asserted here, downstream tests own the comparisons.
    """
    d = tiling.d
    pts = mu.points
    w = mu.float_weights()
    e_full = measure_energy(pts, w, potential, w_n)

    inside = tiling.cell_index(pts) >= 0
    e_restricted = measure_energy(pts[inside], w[inside], potential, w_n) if inside.any() else 0.0

    avg = average_measure(mu, tiling)
    e_avg = averaged_measure_energy(avg, potential, w_n)

    x, p = pts[:, :d], pts[:, d:]
    one_body = float(np.sum(w * (np.sum(p**2, axis=1) + potential.evaluate(x))))
    tau_exceeded = one_body > tau

    n_beta = 1.0
    if w_n is not None:
        n_beta = float(w_n.n_particles) ** (d * w_n.profile.beta)
    s = potential.growth_exponent
    l_box = tiling.half_width
    restriction_shape = tau**2 * n_beta / min(l_box**4, l_box ** (2 * s))
    averaging_shape = (tiling.l_x + tiling.l_p) * (abs(e_avg) + 1.0)
    r_defect = e_full - e_restricted
    a_defect = e_restricted - e_avg
    return DefectReport(
        energy_full=e_full,
        energy_restricted=e_restricted,
        energy_averaged=e_avg,
        restriction_defect=r_defect,
        averaging_defect=a_defect,
        restriction_shape=restriction_shape,
        averaging_shape=averaging_shape,
        fitted_restriction_constant=abs(r_defect) / restriction_shape if restriction_shape > 0 else math.nan,
        fitted_averaging_constant=abs(a_defect) / averaging_shape if averaging_shape > 0 else math.nan,
        tau_exceeded=tau_exceeded,
    )


def pauli_critical_volume(d: int, n_particles: int) -> float:
    """Cell volume below which a single atom already violates the local bound."""
    return TWO_PI**d / n_particles
