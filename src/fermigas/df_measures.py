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

The module also provides the phase-space tiling, Wasserstein-1 distances
between discrete measures given as (points, weights) pairs, with a dual
optimality certificate, and Monte Carlo statistics for local Pauli-bound
violations.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .__main__ import thread_cap
from .errors import CapExceededError, ValidationError

Array = np.ndarray

TWO_PI = 2.0 * math.pi

ENUMERATION_CAP = 10_000_000
# The transport LP has one variable per plan entry (n * m of them). Peak
# memory of the sparse HiGHS solve was measured at 1.0-1.3 KiB per variable
# for n * m from 1e4 to 3.6e5 (scipy 1.17); the estimate adds margin.
TRANSPORT_BYTES_PER_VARIABLE = 1536
TRANSPORT_MEMORY_BUDGET = 1 << 30
TRANSPORT_VARIABLE_CAP = TRANSPORT_MEMORY_BUDGET // TRANSPORT_BYTES_PER_VARIABLE
# Monte Carlo trials per spawned seed; the streams for a given seed depend on it.
PAULI_CHUNK = 2048
# Doubles drawn per block of a chunk (512 KiB): a block's points and in_cell's
# scratch stay in cache, and a worker's memory is bounded by max(this, one trial).
PAULI_BLOCK_DOUBLES = 1 << 16


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

    def mixture_marginal(self, k: int) -> Array:
        """k-point marginal of the Diaconis-Freedman mixture, shape (S,)*k.

        The law is rewritten as a mixture of empirical product laws: each
        multiset with count vector c contributes its empirical measure c / N
        with its probability w_c, so m-tilde^(k) = sum_c w_c (c / N)^(x)k,
        equal to sum_c w_c P[c, u] / N^k per prefix type. The first mixture
        marginal equals ``marginal(1)`` identically, and the second obeys
        m-tilde2 = (N-1)/N * m2 + (1/N) * m1 on the diagonal.
        """
        if k < 1:
            raise ValidationError(f"need k >= 1, got k={k}")
        types, _, power = self._type_sums(k)
        return _scatter(types, self._scaled(power, self.n_particles**k), self.n_states)


@dataclass
class TVReport:
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
    return TVReport(tv=tv, bound=bound, passed=bool(passed))


# ---------------------------------------------------------------------------
# Phase-space tilings
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
    def box_volume(self) -> float:
        return (2.0 * self.half_width) ** (2 * self.d)

    def _axis_cells(self) -> tuple[int, ...]:
        return (self.cells_x,) * self.d + (self.cells_p,) * self.d

    def _axis_sides(self) -> tuple[float, ...]:
        return (self.l_x,) * self.d + (self.l_p,) * self.d

    def in_cell(self, points: Array, flat: int) -> Array:
        """Mask of the points in cell ``flat`` (row-major over the 2d axes).

        A point lies in the cell when, on each axis with the cell's index t,
        y = (x + L) / side has t <= y < t + 1 (that is, floor(y) == t), or
        x == L on the last cell of the axis; points outside the box lie in
        no cell. ``points`` has the phase-space coordinates on its last axis;
        the mask has the leading shape.
        """
        pts = np.asarray(points, dtype=float)
        coords = np.unravel_index(flat, self._axis_cells())
        mask = np.ones(pts.shape[:-1], dtype=bool)
        y = np.empty(mask.shape)  # scratch arrays, reused on every axis
        hit = np.empty(mask.shape, dtype=bool)
        for axis, (t, cells, side) in enumerate(zip(coords, self._axis_cells(), self._axis_sides())):
            np.add(pts[..., axis], self.half_width, out=y)
            y /= side
            mask &= np.less_equal(t, y, out=hit)
            np.less(y, t + 1, out=hit)
            if t == cells - 1:
                # x == L gives y = 2L / side, within rounding of cells > t, so t <= y holds there
                hit |= pts[..., axis] == self.half_width
            mask &= hit
        return mask

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
    if n_particles < 1:
        raise ValidationError(f"need at least one particle, got N={n_particles}")
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


def wasserstein1(mu: tuple[Array, Array], nu: tuple[Array, Array]) -> TransportResult:
    """Wasserstein-1 distance with the Euclidean ground metric.

    Each measure is a ``(points, weights)`` pair: n atoms as an (n, D) array
    of points and their n masses. One-dimensional supports use the exact
    CDF formula. Otherwise the transport linear program is solved and
    certified by its dual: the reported potentials must be feasible
    (u_i + v_j <= cost_ij) and close the duality gap within 1e-8.
    """
    a_pts, a_w = np.atleast_2d(np.asarray(mu[0], dtype=float)), np.asarray(mu[1], dtype=float)
    b_pts, b_w = np.atleast_2d(np.asarray(nu[0], dtype=float)), np.asarray(nu[1], dtype=float)
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
    """Draw configurations i.i.d. uniform on the tiling's phase-space box.

    ``Generator.uniform`` fills its output in C order, so draws of n1 and then
    n2 trials are the rows of one draw of n1 + n2: the sampler consumes its
    stream trial by trial, as ``pauli_violation_stats`` requires.
    """
    half = tiling.half_width
    dim = 2 * tiling.d

    def draw(rng, n_trials, n_particles):
        return rng.uniform(-half, half, size=(n_trials, n_particles, dim))

    return draw


@dataclass
class PauliViolationStats:
    frequency: float
    ci_low: float
    ci_high: float
    exact_tail: float | None = None

    @property
    def matches_exact(self) -> bool:
        if self.exact_tail is None:
            return True
        return self.ci_low <= self.exact_tail <= self.ci_high


def _monte_carlo_workers(n_chunks: int) -> int:
    """min(chunks, CPUs available to the process, the ``FERMIGAS_THREADS`` cap)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(n_chunks, cpus, thread_cap() or cpus)


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
    confidence interval. For an i.i.d. sampler with known per-draw cell
    probability ``exact_cell_prob`` the exact binomial tail is attached as
    the oracle.

    The trials are split into chunks of ``PAULI_CHUNK``, each with its own
    generator seeded from ``SeedSequence(seed).spawn``. A chunk is drawn and
    tested in blocks of ``PAULI_BLOCK_DOUBLES // (N 2d)`` trials (at least
    one), so memory per worker is bounded by max(2^16 doubles, one trial)
    rather than by a whole chunk. The chunks run on
    ``min(chunks, CPUs available, FERMIGAS_THREADS)`` workers: the calling
    thread and a pool of the others. Hit counts are integers, so the
    result is bitwise the same for every block size and worker count.

    ``sampler(rng, n, N)`` must be a pure function of ``rng`` (it is called
    from worker threads), must consume the stream trial by trial (two draws
    of n1 and n2 trials equal the rows of one draw of n1 + n2) and must
    return an array of shape (n, N, 2d). A sampler that calls BLAS should run
    under a thread cap (``--threads``), so that BLAS threads and workers do
    not oversubscribe the CPUs.
    """
    from concurrent.futures import ThreadPoolExecutor

    from scipy.special import bdtrc, betaincinv

    if n_trials < 1:
        raise ValidationError(f"need at least one Monte Carlo trial, got {n_trials}")
    if n_particles < 1:
        raise ValidationError(f"need at least one particle, got N={n_particles}")
    if not 0 <= cell < tiling.n_cells:
        raise ValidationError(f"cell {cell} is not in the tiling's {tiling.n_cells} cells")
    if seed < 0:
        raise ValidationError(f"the Monte Carlo seed must be non-negative, got {seed}")
    if not math.isfinite(epsilon):
        raise ValidationError(f"epsilon must be finite, got {epsilon}")
    if exact_cell_prob is not None and not 0.0 <= exact_cell_prob <= 1.0:
        raise ValidationError(f"the cell probability must lie in [0, 1], got {exact_cell_prob}")
    d = tiling.d
    threshold_mass = (1.0 + epsilon) * tiling.cell_volume / TWO_PI**d
    if threshold_mass <= 0:
        raise ValidationError("zero-width cells make the violation event ill-posed")
    threshold_count = math.ceil(threshold_mass * n_particles)  # event includes equality
    dim = 2 * d
    block = max(1, PAULI_BLOCK_DOUBLES // (n_particles * dim))

    def chunk_hits(ss, size: int) -> int:
        rng = np.random.default_rng(ss)
        hits = 0
        for start in range(0, size, block):
            n = min(block, size - start)
            points = sampler(rng, n, n_particles)
            if np.shape(points) != (n, n_particles, dim):
                raise ValidationError(f"the sampler returned shape {np.shape(points)}, not {(n, n_particles, dim)}")
            counts = tiling.in_cell(points, cell).sum(axis=1)
            hits += int((counts >= threshold_count).sum())
        return hits

    sizes = [min(PAULI_CHUNK, n_trials - start) for start in range(0, n_trials, PAULI_CHUNK)]
    chunks = list(zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes))
    workers = _monte_carlo_workers(len(chunks))
    # the calling thread runs every workers-th chunk, so one thread fewer starts (none for one worker);
    # on an error or an interrupt the queued chunks are cancelled, not drawn
    pool = ThreadPoolExecutor(max(1, workers - 1))
    try:
        futures = [pool.submit(chunk_hits, *chunk) for i, chunk in enumerate(chunks) if i % workers]
        hits = sum(chunk_hits(*chunk) for chunk in chunks[::workers])
        hits += sum(future.result() for future in futures)
    finally:
        pool.shutdown(cancel_futures=True)

    freq = hits / n_trials
    # Clopper-Pearson bounds are Beta quantiles; bdtrc(k, n, p) = P(Bin(n, p) > k), NaN for k > n
    ci_low = float(betaincinv(hits, n_trials - hits + 1, 0.025)) if hits > 0 else 0.0
    ci_high = float(betaincinv(hits + 1, n_trials - hits, 0.975)) if hits < n_trials else 1.0
    exact = None
    if exact_cell_prob is not None:
        exact = float(bdtrc(min(threshold_count - 1, n_particles), n_particles, exact_cell_prob))
    return PauliViolationStats(
        frequency=freq,
        ci_low=ci_low,
        ci_high=ci_high,
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
