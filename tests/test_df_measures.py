import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigas import df_measures
from fermigas.errors import CapExceededError, ValidationError
from fermigas.df_measures import (
    ENUMERATION_CAP,
    PAULI_CHUNK,
    TRANSPORT_VARIABLE_CAP,
    FiniteExchangeableLaw,
    Tiling,
    decay_fit,
    paper_scaling,
    pauli_violation_stats,
    tv_bound_check,
    uniform_box_sampler,
    wasserstein1,
)
from pauli_reference import ref_pauli_violation_stats


# ---------------------------------------------------------------------------
# Brute-force oracles over ordered configurations (independent of the
# multiset bookkeeping inside the module).
# ---------------------------------------------------------------------------


def cell_index(tiling: Tiling, points) -> np.ndarray:
    """Flat cell index per point by floor division per axis; -1 outside the box.

    The reference rule that ``Tiling.in_cell`` is compared with: x == L
    belongs to the last cell of its axis.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    idx = np.zeros(pts.shape[0], dtype=np.int64)
    inside = np.ones(pts.shape[0], dtype=bool)
    for axis, (cells, side) in enumerate(zip(tiling._axis_cells(), tiling._axis_sides())):
        co = np.floor((pts[:, axis] + tiling.half_width) / side).astype(np.int64)
        co[pts[:, axis] == tiling.half_width] = cells - 1
        inside &= (co >= 0) & (co < cells)
        idx = idx * cells + np.clip(co, 0, cells - 1)
    idx[~inside] = -1
    return idx


def cell_bounds(tiling: Tiling, flat: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corner of one cell, its flat index unravelled by hand."""
    coords = []
    for cells in reversed(tiling._axis_cells()):
        coords.append(flat % cells)
        flat //= cells
    sides = np.array(tiling._axis_sides())
    lo = -tiling.half_width + np.array(coords[::-1]) * sides
    return lo, lo + sides


def pauli_critical_volume(d: int, n_particles: int) -> float:
    """Cell volume below which a single atom already violates the local bound."""
    return (2.0 * math.pi) ** d / n_particles


def iid_cell_sampler(tiling: Tiling, cell_probs):
    """Draw particles i.i.d. from a per-cell distribution, uniform in-cell."""
    probs = np.asarray(cell_probs, dtype=float)
    lows = np.array([cell_bounds(tiling, j)[0] for j in range(tiling.n_cells)])
    sides = np.array(tiling._axis_sides())

    def draw(rng, n_trials, n_particles):
        cells = rng.choice(tiling.n_cells, size=(n_trials, n_particles), p=probs)
        jitter = rng.uniform(0.0, 1.0, size=(n_trials, n_particles, 2 * tiling.d))
        return lows[cells] + jitter * sides

    return draw


def brute_marginal(tensor, k):
    n = tensor.ndim
    s = tensor.shape[0]
    out = np.zeros((s,) * k, dtype=object)
    for config in product(range(s), repeat=n):
        out[config[:k]] += tensor[config]
    return out


def brute_mixture_marginal(tensor, k):
    """m-tilde^(k) = sum over configs of weight * (counts/N)^(x)k.

    Integer numerators over the lcm of the weight denominators, summed by
    an int64 einsum over every ordered configuration.
    """
    n = tensor.ndim
    s = tensor.shape[0]
    weights = [Fraction(w) for w in tensor.ravel()]
    denom = math.lcm(*(w.denominator for w in weights))
    ints = np.array([int(w * denom) for w in weights], dtype=np.int64)
    configs = np.indices(tensor.shape).reshape(n, -1)
    counts = (configs[:, :, None] == np.arange(s)).sum(axis=0)
    axes = "abcdefgh"[:k]
    spec = "z," + ",".join("z" + a for a in axes) + "->" + axes
    sums = np.einsum(spec, ints, *([counts] * k))
    out = np.array([Fraction(int(x), denom * n**k) for x in sums.ravel()], dtype=object)
    return out.reshape((s,) * k)


def per_type_tv(law, k):
    """| m^(k) - m-tilde^(k) |_1 summed type by type in Fractions."""
    n, s = law.n_particles, law.n_states
    tv = Fraction(0)
    for prefix in combinations_with_replacement(range(s), k):
        u = [prefix.count(a) for a in range(s)]
        gap = Fraction(0)
        for multiset, w in law.weights.items():
            c = [multiset.count(a) for a in range(s)]
            gap += Fraction(w) * Fraction(math.prod(math.perm(c[a], u[a]) for a in range(s)), math.perm(n, k))
            gap -= Fraction(w) * Fraction(math.prod(c[a] ** u[a] for a in range(s)), n**k)
        tv += math.factorial(k) // math.prod(math.factorial(x) for x in u) * abs(gap)
    return tv


def random_rational_law(s, n, raw):
    """Law with weight raw[i] / sum(raw) on the i-th multiset, and its ordered tensor."""
    total = sum(raw)
    weights = {
        ms: Fraction(w, total) for ms, w in zip(combinations_with_replacement(range(s), n), raw) if w
    }
    tensor = np.zeros((s,) * n, dtype=object)
    for config in product(range(s), repeat=n):
        key = tuple(sorted(config))
        if key in weights:
            orderings = math.factorial(n) // math.prod(math.factorial(key.count(a)) for a in range(s))
            tensor[config] = weights[key] / orderings
    return weights, tensor


def uniform_tensor(s, n):
    tensor = np.empty((s,) * n, dtype=object)
    tensor[...] = Fraction(1, s**n)
    return tensor


def loop_from_tensor(tensor):
    """Multiset weights of a symmetric tensor, read one ordered configuration at a time."""
    tensor = np.asarray(tensor)
    weights = {}
    for config in product(range(tensor.shape[0]), repeat=tensor.ndim):
        w = tensor[config]
        if isinstance(w, np.generic):
            w = w.item()
        if w == 0:
            continue
        key = tuple(sorted(config))
        weights[key] = weights.get(key, 0) + w
    return weights


class TestFromTensor:
    def test_uniform_builds_only_multisets(self):
        # S^N = 16 777 216 is above the enumeration cap; the law has 6 435 multisets
        assert 8**8 > ENUMERATION_CAP
        law = FiniteExchangeableLaw.uniform(8, 8)
        assert law.weights == FiniteExchangeableLaw.from_product([Fraction(1, 8)] * 8, 8).weights

    def test_uniform_cap_on_multisets(self):
        assert math.comb(30 + 10 - 1, 10) > ENUMERATION_CAP
        with pytest.raises(CapExceededError, match="multisets"):
            FiniteExchangeableLaw.uniform(30, 10)


class TestDFDecomposition:
    def test_single_particle_identity(self):
        law = FiniteExchangeableLaw.uniform(4, 1)
        assert all(a == b for a, b in zip(law.marginal(1), law.mixture_marginal(1)))

    def test_first_marginals_exact_uniform(self):
        law = FiniteExchangeableLaw.uniform(3, 3)
        m1, mt1 = law.marginal(1), law.mixture_marginal(1)
        assert all(a == b for a, b in zip(m1, mt1))

    def test_second_marginal_against_brute_force(self):
        # 27-configuration enumeration is the oracle
        tensor = uniform_tensor(3, 3)
        law = FiniteExchangeableLaw(3, 3, loop_from_tensor(tensor))
        mt2 = law.mixture_marginal(2)
        brute = brute_mixture_marginal(tensor, 2)
        assert all(mt2[a, b] == brute[a, b] for a in range(3) for b in range(3))

    def test_second_marginal_lemma_entrywise(self):
        law = FiniteExchangeableLaw.uniform(3, 3)
        n = 3
        m1, m2 = law.marginal(1), law.marginal(2)
        mt2 = law.mixture_marginal(2)
        for a in range(3):
            for b in range(3):
                expected = Fraction(n - 1, n) * m2[a, b]
                if a == b:
                    expected += Fraction(1, n) * m1[a]
                assert mt2[a, b] == expected

    def test_marginals_against_brute_force_product_law(self):
        sigma = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        law = FiniteExchangeableLaw.from_product(sigma, 4)
        tensor = np.empty((3,) * 4, dtype=object)
        for config in product(range(3), repeat=4):
            w = Fraction(1)
            for c in config:
                w *= sigma[c]
            tensor[config] = w
        for k in (1, 2):
            ours = law.marginal(k)
            brute = brute_marginal(tensor, k)
            assert all(
                ours[idx] == brute[idx] for idx in product(range(3), repeat=k)
            )


class TestTVBound:
    def test_k1_zero(self):
        law = FiniteExchangeableLaw.uniform(4, 3)
        report = tv_bound_check(law, 1)
        assert report.tv == 0
        assert report.bound == 0
        assert report.passed

    def test_product_law_s4_n4(self):
        sigma = [Fraction(1, 4)] * 4
        law = FiniteExchangeableLaw.from_product(sigma, 4)
        report = tv_bound_check(law, 2)
        assert report.bound == Fraction(1)
        assert report.tv <= 1
        assert report.passed

    @settings(max_examples=20, deadline=None)
    @given(
        s=st.integers(2, 4),
        n=st.integers(2, 4),
        data=st.data(),
    )
    def test_exact_identities_random_laws(self, s, n, data):
        # random rational symmetric laws: first marginals match exactly and
        # the total-variation bound holds in exact arithmetic
        n_multisets = math.comb(s + n - 1, n)
        raw = data.draw(
            st.lists(st.integers(0, 8), min_size=n_multisets, max_size=n_multisets).filter(
                lambda xs: sum(xs) > 0
            )
        )
        total = sum(raw)
        weights = {
            ms: Fraction(w, total)
            for ms, w in zip(combinations_with_replacement(range(s), n), raw)
            if w
        }
        law = FiniteExchangeableLaw(s, n, weights)
        m1 = law.marginal(1)
        mt1 = law.mixture_marginal(1)
        assert all(a == b for a, b in zip(m1, mt1))
        report = tv_bound_check(law, 2)
        assert report.passed
        if n >= 3:
            assert tv_bound_check(law, 3).passed


class TestPrefixTypes:
    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(2, 5), n=st.integers(1, 6), data=st.data())
    def test_marginals_and_tv_against_enumeration(self, s, n, data):
        k = data.draw(st.integers(1, min(n, 4)))
        n_multisets = math.comb(s + n - 1, n)
        raw = data.draw(
            st.lists(st.integers(0, 8), min_size=n_multisets, max_size=n_multisets).filter(lambda xs: sum(xs) > 0)
        )
        weights, tensor = random_rational_law(s, n, raw)
        law = FiniteExchangeableLaw(s, n, loop_from_tensor(tensor))
        assert law.weights == weights
        ours, brute = law.marginal(k), brute_marginal(tensor, k)
        assert ours.shape == brute.shape and all(a == b for a, b in zip(ours.ravel(), brute.ravel()))
        ours, brute = law.mixture_marginal(k), brute_mixture_marginal(tensor, k)
        assert ours.shape == brute.shape and all(a == b for a, b in zip(ours.ravel(), brute.ravel()))
        report = tv_bound_check(law, k)
        assert isinstance(report.tv, Fraction)
        assert report.tv == per_type_tv(law, k)
        assert report.passed
        floats = FiniteExchangeableLaw(s, n, {ms: float(w) for ms, w in weights.items()})
        assert tv_bound_check(floats, k).tv == pytest.approx(float(report.tv), abs=1e-12, rel=0)
        assert floats.marginal(k) == pytest.approx(law.marginal(k).astype(float), abs=1e-12, rel=0)

    def test_counts_past_int64(self):
        # (S, N, k) = (2, 40, 12): the tables reach 40^12 > 2^63 and switch to Python ints
        raw = [int(x) for x in np.random.default_rng(3).integers(1, 9, 41)]
        total = sum(raw)
        weights = {ms: Fraction(w, total) for ms, w in zip(combinations_with_replacement(range(2), 40), raw)}
        law = FiniteExchangeableLaw(2, 40, weights)
        report = tv_bound_check(law, 12)
        assert report.tv == per_type_tv(law, 12)
        floats = FiniteExchangeableLaw(2, 40, {ms: float(w) for ms, w in weights.items()})
        assert tv_bound_check(floats, 12).tv == pytest.approx(float(report.tv), abs=1e-12, rel=0)

    def test_scale_s8_n8_k4(self):
        # 6 435 multisets x 330 prefix types against 4 096 ordered prefixes
        law = FiniteExchangeableLaw.from_product([Fraction(1, 8)] * 8, 8)
        report = tv_bound_check(law, 4)
        assert report.passed and report.tv <= Fraction(3, 1)
        floats = FiniteExchangeableLaw(8, 8, {ms: float(w) for ms, w in law.weights.items()})
        assert tv_bound_check(floats, 4).tv == pytest.approx(float(report.tv), abs=1e-12, rel=0)

    def test_tv_never_builds_prefix_tensors(self, monkeypatch):
        law = FiniteExchangeableLaw.uniform(6, 6)

        def refuse(*args, **kwargs):
            raise AssertionError("an S^k marginal tensor was built")

        monkeypatch.setattr(FiniteExchangeableLaw, "marginal", refuse)
        monkeypatch.setattr(FiniteExchangeableLaw, "mixture_marginal", refuse)
        report = tv_bound_check(law, 3)
        assert report.tv == per_type_tv(law, 3)
        assert report.passed

    def test_k_out_of_range(self):
        law = FiniteExchangeableLaw.uniform(3, 2)
        for k in (0, 3):
            with pytest.raises(ValidationError, match="k"):
                tv_bound_check(law, k)
        with pytest.raises(ValidationError, match="k"):
            law.mixture_marginal(0)


class TestTiling:
    def test_canonical_cell_count(self):
        # cells_x = cells_p = 2n per axis gives the canonical 4^d n^(2d)
        for d, n in ((1, 3), (2, 2)):
            t = Tiling.square(d, 1.0, 2 * n)
            assert t.n_cells == 4**d * n ** (2 * d)

    def test_cell_indexing_round_trip(self, rng):
        t = Tiling(1, 1.5, 3, 5)
        pts = rng.uniform(-1.5, 1.5, size=(200, 2))
        idx = cell_index(t, pts)
        assert np.all(idx >= 0)
        for j in range(t.n_cells):
            lo, hi = cell_bounds(t, j)
            inside = np.all((pts >= lo) & (pts < hi), axis=1)
            assert np.all(idx[inside] == j)

    @pytest.mark.parametrize("d, cells_x, cells_p", [(1, 3, 5), (2, 2, 3)])
    def test_in_cell_matches_cell_index(self, rng, d, cells_x, cells_p):
        t = Tiling(d, 1.5, cells_x, cells_p)
        axis_values = []
        for cells, side in zip(t._axis_cells(), t._axis_sides()):
            edges = np.concatenate([-t.half_width + np.arange(cells + 1) * side, [-t.half_width, t.half_width]])
            axis_values.append(np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]))
        edge_pts = np.column_stack([rng.choice(values, 4000) for values in axis_values])
        pts = np.vstack([edge_pts, rng.uniform(-1.6, 1.6, size=(4000, 2 * d))])
        idx = cell_index(t, pts)
        for cell in range(t.n_cells):
            assert np.array_equal(t.in_cell(pts, cell), idx == cell)
        # leading axes are kept, as for (trials, particles, coordinates) draws
        assert np.array_equal(t.in_cell(pts.reshape(4, -1, 2 * d), 1), (idx == 1).reshape(4, -1))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        d=st.integers(1, 2),
        half_width=st.floats(0.1, 40.0),
        cells_x=st.integers(1, 5),
        cells_p=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_cell_is_cell_index_on_random_tilings(self, d, half_width, cells_x, cells_p, seed):
        t = Tiling(d, half_width, cells_x, cells_p)
        rng = np.random.default_rng(seed)
        # per axis: every cell edge (both walls included) and uniform points inside and around the box
        axis_values = [
            np.concatenate([-half_width + np.arange(cells + 1) * side, rng.uniform(-1.1, 1.1, 8) * half_width])
            for cells, side in zip(t._axis_cells(), t._axis_sides())
        ]
        pts = np.column_stack([rng.choice(values, 600) for values in axis_values])
        corner = np.full((1, 2 * d), half_width)  # x = L on every axis lies in the last cell
        pts = np.vstack([pts, corner])
        idx = cell_index(t, pts)
        assert idx[-1] == t.n_cells - 1
        for cell in range(t.n_cells):
            assert np.array_equal(t.in_cell(pts, cell), idx == cell)

    def test_outside_points_flagged(self):
        t = Tiling.square(1, 1.0, 2)
        idx = cell_index(t, np.array([[2.0, 0.0], [0.0, -3.0], [0.5, 0.5]]))
        assert idx[0] == -1 and idx[1] == -1 and idx[2] >= 0

    def test_paper_scaling_preset(self):
        preset = paper_scaling(64, 1, 0.2, 2.0)
        assert preset["gamma"] == pytest.approx(4.0 / 5.0, abs=0)
        assert preset["delta"] == pytest.approx(1.0 / 20.0, abs=0)
        t = preset["tiling"]
        # actual sides track the targets after integer rounding
        assert t.l_x == pytest.approx(preset["target_l_x"], rel=0.1)
        assert t.l_p == pytest.approx(preset["target_l_p"], rel=0.1)
        assert preset["n_boxes"] == math.ceil(64 ** (5 * 0.2 / 4 + 1))


class TestWasserstein:
    def test_identical_measures(self, rng):
        mu = (rng.uniform(-1, 1, size=(40, 2)), np.full(40, 1 / 40))
        assert wasserstein1(mu, mu).distance == pytest.approx(0.0, abs=1e-12)

    def test_point_masses_euclidean(self):
        mu = (np.array([[0.0, 0.0]]), np.array([1.0]))
        nu = (np.array([[3.0, 4.0]]), np.array([1.0]))
        assert wasserstein1(mu, nu).distance == pytest.approx(5.0, abs=1e-12)

    def test_line_case_matches_lp(self, rng):
        # supports on a line: exact CDF formula versus the LP
        xs = rng.uniform(-1, 1, 12)
        ys = rng.uniform(-1, 1, 9)
        mu = (np.column_stack([xs, np.zeros(12)]), np.full(12, 1 / 12))
        nu = (np.column_stack([ys, np.zeros(9)]), np.full(9, 1 / 9))
        line = wasserstein1(mu, nu).distance
        nudged = (
            np.column_stack([ys, 1e-12 * np.arange(9)]),  # break collinearity -> LP route
            np.full(9, 1 / 9),
        )
        lp = wasserstein1(mu, nudged).distance
        assert line == pytest.approx(lp, abs=1e-6)

    def test_dual_certificate(self, rng):
        mu = (rng.uniform(-1, 1, size=(25, 2)), np.full(25, 1 / 25))
        nu = (rng.uniform(-1, 1, size=(35, 2)), np.full(35, 1 / 35))
        res = wasserstein1(mu, nu)
        assert res.dual_feasibility_gap <= 1e-8
        assert res.duality_gap <= 1e-8

    def test_mass_mismatch_rejected(self):
        mu = (np.zeros((2, 2)), np.array([0.5, 0.5]))
        nu = (np.ones((2, 2)), np.array([0.5, 0.25]))
        with pytest.raises(ValidationError, match="mass"):
            wasserstein1(mu, nu)

    def test_support_cap(self):
        pts = np.zeros((5001, 2))
        with pytest.raises(CapExceededError):
            wasserstein1((pts, np.full(5001, 1 / 5001)), (pts, np.full(5001, 1 / 5001)))

    @pytest.mark.parametrize("n", [1000, 5000])
    def test_plan_cap_raises_before_allocating(self, n):
        # a dense n x n plan LP: 16 GB of constraint matrix at n = 1000, 2 TB at 5000
        rng = np.random.default_rng(3)
        mu = (rng.uniform(-1, 1, (n, 2)), np.full(n, 1 / n))
        nu = (rng.uniform(-1, 1, (n, 2)), np.full(n, 1 / n))
        assert n * n > TRANSPORT_VARIABLE_CAP
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="cap"):
                wasserstein1(mu, nu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.fixture(scope="module")
def critical_tiling():
    # |S_L| = 2 pi so a cell's Pauli level equals its draw probability
    return Tiling.square(1, 0.5 * math.sqrt(2 * math.pi), 2)


class TestPauliViolation:

    def test_huge_epsilon_never_violates(self, critical_tiling):
        sampler = uniform_box_sampler(critical_tiling)
        stats = pauli_violation_stats(
            sampler, critical_tiling, 0, epsilon=1e9, n_particles=32, n_trials=500, seed=3
        )
        assert stats.frequency == 0.0

    def test_matches_exact_binomial_tail(self, critical_tiling):
        sampler = uniform_box_sampler(critical_tiling)
        q = critical_tiling.cell_volume / critical_tiling.box_volume
        stats = pauli_violation_stats(
            sampler,
            critical_tiling,
            0,
            epsilon=0.5,
            n_particles=64,
            n_trials=10_000,
            seed=42,
            exact_cell_prob=q,
        )
        assert stats.matches_exact

    def test_zero_count_interval_contains_exact_tail(self, critical_tiling):
        # no hit in 1000 trials (seed 1) while the exact tail 8.2e-4 exceeds 0.5 / 1000
        sampler = uniform_box_sampler(critical_tiling)
        q = critical_tiling.cell_volume / critical_tiling.box_volume
        stats = pauli_violation_stats(
            sampler, critical_tiling, 0, epsilon=0.75, n_particles=64, n_trials=1000, seed=1, exact_cell_prob=q
        )
        assert stats.frequency == 0.0
        assert stats.exact_tail > 0.5 / 1000
        assert stats.ci_low == 0.0
        assert stats.ci_high == pytest.approx(1.0 - 0.025 ** (1.0 / 1000), rel=1e-12)
        assert stats.matches_exact

    def test_seed_reproducibility(self, critical_tiling):
        sampler = uniform_box_sampler(critical_tiling)
        a = pauli_violation_stats(sampler, critical_tiling, 0, 0.5, 64, 2000, seed=9)
        b = pauli_violation_stats(sampler, critical_tiling, 0, 0.5, 64, 2000, seed=9)
        assert a.frequency == b.frequency

    def test_sweep_decay_negative_slope(self, critical_tiling):
        sampler = uniform_box_sampler(critical_tiling)
        freqs = []
        for n in (16, 64, 256):
            st_ = pauli_violation_stats(
                sampler, critical_tiling, 0, epsilon=0.25, n_particles=n, n_trials=10_000, seed=5
            )
            freqs.append(st_.frequency)
        fit = decay_fit([16, 64, 256], freqs, 0.25, 1.0 / 20.0)
        assert fit["slope_vs_ndelta"] < 0
        assert fit["slope_vs_logn"] < 0

    def test_single_atom_violates_small_cells(self):
        # structural fact: cells of volume below (2 pi)^d / N cannot host
        # even one atom without breaking the local bound at epsilon = 0
        n = 50
        vol = pauli_critical_volume(1, n)
        t = Tiling.square(1, 0.4 * math.sqrt(vol), 2)  # cell volume < critical
        assert t.cell_volume < vol
        sampler = uniform_box_sampler(t)
        q = t.cell_volume / t.box_volume
        stats = pauli_violation_stats(sampler, t, 0, epsilon=0.0, n_particles=n, n_trials=10, seed=1, exact_cell_prob=q)
        # the threshold count is 1: the event is "at least one atom in the cell"
        assert stats.exact_tail == pytest.approx(1.0 - (1.0 - q) ** n, rel=1e-12)

    def test_zero_width_cells_rejected(self):
        t = Tiling.square(1, 1.0, 4)
        sampler = uniform_box_sampler(t)
        with pytest.raises(ValidationError):
            pauli_violation_stats(sampler, t, 0, epsilon=-1.0, n_particles=4, n_trials=10, seed=0)

    @pytest.mark.parametrize("cell", [-1, 4])
    def test_cell_outside_tiling_rejected(self, critical_tiling, cell):
        sampler = uniform_box_sampler(critical_tiling)
        with pytest.raises(ValidationError, match="cell"):
            pauli_violation_stats(sampler, critical_tiling, cell, epsilon=0.5, n_particles=4, n_trials=10, seed=0)

    def test_zero_trials_rejected(self, critical_tiling):
        sampler = uniform_box_sampler(critical_tiling)
        with pytest.raises(ValidationError, match="trial"):
            pauli_violation_stats(sampler, critical_tiling, 0, epsilon=0.5, n_particles=4, n_trials=0, seed=0)

    # the last case puts the threshold count above N, where the tail is exactly 0
    @pytest.mark.parametrize(
        "epsilon, n, trials", [(0.5, 64, 2000), (0.25, 16, 500), (0.0, 8, 300), (0.75, 64, 1000), (1e9, 32, 100)]
    )
    def test_interval_and_tail_match_scipy_stats(self, critical_tiling, epsilon, n, trials):
        from scipy.stats import beta, binom  # the reference only; the module itself avoids scipy.stats

        sampler = uniform_box_sampler(critical_tiling)
        q = critical_tiling.cell_volume / critical_tiling.box_volume
        stats = pauli_violation_stats(sampler, critical_tiling, 0, epsilon, n, trials, seed=11, exact_cell_prob=q)
        hits = round(stats.frequency * trials)
        low = beta.ppf(0.025, hits, trials - hits + 1) if hits > 0 else 0.0
        high = beta.ppf(0.975, hits + 1, trials - hits) if hits < trials else 1.0
        assert stats.ci_low == pytest.approx(low, rel=1e-12, abs=0.0)
        assert stats.ci_high == pytest.approx(high, rel=1e-12, abs=0.0)
        threshold_count = math.ceil((1.0 + epsilon) * critical_tiling.cell_volume / (2.0 * math.pi) * n)
        assert stats.exact_tail == pytest.approx(binom.sf(threshold_count - 1, n, q), rel=1e-12, abs=0.0)


def _critical(d: int) -> Tiling:
    # |S_L| = (2 pi)^d with 2 cells per axis: the Pauli level sits at 1 + eps times the draw probability
    return Tiling.square(d, 0.5 * math.sqrt(2 * math.pi), 2)


@pytest.fixture(params=["one", "default", "pool"])
def workers(request, monkeypatch):
    """One worker (FERMIGAS_THREADS=1), the default count, and a 3-worker pool on any host."""
    monkeypatch.delenv("FERMIGAS_THREADS", raising=False)
    if request.param == "one":
        monkeypatch.setenv("FERMIGAS_THREADS", "1")
    elif request.param == "pool":
        monkeypatch.setattr(df_measures, "_monte_carlo_workers", lambda n_chunks: min(n_chunks, 3))
    return request.param


class TestBlockedPooledRun:
    """The blocked run on a worker pool against the serial whole-chunk loop."""

    # N = 100 has blocks of 327 (d = 1) and 163 (d = 2) trials, which divide no chunk
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 16, 100, 256])
    @pytest.mark.parametrize("trials", [1, 2049, 5000])
    def test_bitwise_equal_to_serial_chunks(self, workers, d, n, trials):
        tiling = _critical(d)
        sampler = uniform_box_sampler(tiling)
        q = tiling.cell_volume / tiling.box_volume
        for seed in (0, 7, 2**40 + 3):
            args = (sampler, tiling, 0, 0.5, n, trials, seed)
            got = pauli_violation_stats(*args, exact_cell_prob=q)
            assert got == ref_pauli_violation_stats(*args, exact_cell_prob=q)

    @pytest.mark.parametrize("budget", [1, 7, 4096])
    def test_any_block_size_gives_the_same_counts(self, workers, monkeypatch, budget):
        # a budget of 1 double draws one trial per block
        tiling = _critical(1)
        sampler = uniform_box_sampler(tiling)
        monkeypatch.setattr(df_measures, "PAULI_BLOCK_DOUBLES", budget)
        args = (sampler, tiling, 0, 0.25, 16, PAULI_CHUNK + 300, 5)
        assert pauli_violation_stats(*args) == ref_pauli_violation_stats(*args)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("splits", [(1, 1), (3, 5), (1, 2047), (640, 0, 1408)])
    def test_split_draws_equal_one_draw(self, d, splits):
        draw = uniform_box_sampler(_critical(d))
        rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        parts = [draw(rng, n, 17) for n in splits]
        whole = draw(np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0]), sum(splits), 17)
        assert np.array_equal(np.concatenate(parts), whole)

    def test_traced_peak_does_not_grow_with_n(self):
        # one chunk at N = 1024, d = 1: a whole-chunk draw is 32 MiB of points and 16 MiB of scratch
        tiling = _critical(1)
        sampler = uniform_box_sampler(tiling)
        pauli_violation_stats(sampler, tiling, 0, 0.5, 4, 1, seed=0)  # loads scipy.special first
        tracemalloc.start()
        try:
            pauli_violation_stats(sampler, tiling, 0, 0.5, 1024, PAULI_CHUNK, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_error_in_calling_thread_cancels_queued_chunks(self, monkeypatch):
        # 2 workers and 40 one-block chunks: the calling thread fails on its first chunk, and the
        # 20 chunks queued on the pool are cancelled rather than drawn (as a Ctrl-C would be)
        monkeypatch.setattr(df_measures, "_monte_carlo_workers", lambda n_chunks: 2)
        tiling = _critical(1)
        draw = uniform_box_sampler(tiling)
        caller = threading.current_thread()
        pool_draws = []

        def sampler(rng, n, n_particles):
            if threading.current_thread() is caller:
                raise RuntimeError("stopped")
            pool_draws.append(n)
            time.sleep(0.02)
            return draw(rng, n, n_particles)

        with pytest.raises(RuntimeError, match="stopped"):
            pauli_violation_stats(sampler, tiling, 0, 0.5, 1, 40 * PAULI_CHUNK, seed=0)
        assert len(pool_draws) < 5

    def test_worker_count(self, monkeypatch):
        monkeypatch.setenv("FERMIGAS_THREADS", "1")
        assert df_measures._monte_carlo_workers(50) == 1
        monkeypatch.delenv("FERMIGAS_THREADS")
        assert df_measures._monte_carlo_workers(1) == 1
        assert df_measures._monte_carlo_workers(50) == len(os.sched_getaffinity(0))
        monkeypatch.setenv("FERMIGAS_THREADS", "abc")
        with pytest.raises(ValidationError, match="FERMIGAS_THREADS"):
            df_measures._monte_carlo_workers(50)


class TestMonteCarloInputs:
    @pytest.mark.parametrize(
        "draw_shape",
        [lambda n, N: (n, N, 1), lambda n, N: (n, 2 * N, 2), lambda n, N: (n + 1, N, 2), lambda n, N: (n, N)],
    )
    def test_sampler_of_wrong_shape_rejected(self, workers, draw_shape):
        tiling = _critical(1)

        def sampler(rng, n, n_particles):
            return rng.uniform(-tiling.half_width, tiling.half_width, size=draw_shape(n, n_particles))

        with pytest.raises(ValidationError, match="shape"):
            pauli_violation_stats(sampler, tiling, 0, 0.5, 16, 5000, seed=1)

    def test_negative_seed_rejected(self):
        tiling = _critical(1)
        with pytest.raises(ValidationError, match="seed"):
            pauli_violation_stats(uniform_box_sampler(tiling), tiling, 0, 0.5, 16, 100, seed=-1)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        # the threshold count is ceil of a NaN or infinite mass, which raised ValueError or OverflowError
        tiling = _critical(1)
        with pytest.raises(ValidationError, match="epsilon"):
            pauli_violation_stats(uniform_box_sampler(tiling), tiling, 0, epsilon, 16, 100, seed=1)

    @pytest.mark.parametrize("prob", [1.5, -0.1, float("nan")])
    def test_cell_probability_outside_unit_interval_rejected(self, prob):
        tiling = _critical(1)
        with pytest.raises(ValidationError, match="probability"):
            pauli_violation_stats(uniform_box_sampler(tiling), tiling, 0, 0.5, 16, 100, seed=1, exact_cell_prob=prob)

    @pytest.mark.parametrize("prob", [0.0, 1.0])
    def test_cell_probability_at_the_ends_accepted(self, prob):
        tiling = _critical(1)
        stats = pauli_violation_stats(uniform_box_sampler(tiling), tiling, 0, 0.5, 16, 10, seed=1, exact_cell_prob=prob)
        assert stats.exact_tail == prob


def test_import_leaves_stats_and_optimize_unloaded():
    probe = (
        "import sys, fermigas.df_measures; "
        "print(' '.join(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == ""


class TestSamplers:
    def test_iid_cell_sampler_respects_distribution(self, rng):
        t = Tiling.square(1, 1.0, 2)
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        sampler = iid_cell_sampler(t, probs)
        pts = sampler(rng, 4000, 2).reshape(-1, 2)
        idx = cell_index(t, pts)
        freq = np.bincount(idx, minlength=4) / len(idx)
        assert freq == pytest.approx(probs, abs=0.02)
