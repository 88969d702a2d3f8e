import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigas import df_measures
from fermigas.errors import CapExceededError, ValidationError
from fermigas.model import SpatialGrid, bump_profile, harmonic_potential, scaled_interaction
from fermigas.df_measures import (
    ENUMERATION_CAP,
    TRANSPORT_VARIABLE_CAP,
    DFDecomposition,
    EmpiricalMeasure,
    FiniteExchangeableLaw,
    Tiling,
    average_measure,
    decay_fit,
    df_decomposition,
    measure_energy,
    paper_scaling,
    pauli_critical_volume,
    pauli_violation_stats,
    restriction_energy_defect,
    tv_bound_check,
    uniform_box_sampler,
    wasserstein1,
)


# ---------------------------------------------------------------------------
# Brute-force oracles over ordered configurations (independent of the
# multiset bookkeeping inside the module).
# ---------------------------------------------------------------------------


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
    """Multiset weights read one ordered configuration at a time, as from_tensor once did."""
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


def symmetric_tensor(rng, s, n, zero_frac=0.3):
    """Exact symmetric tensor: random rational multiset weights (some zero) spread over orderings."""
    multisets = list(combinations_with_replacement(range(s), n))
    raw = [0 if rng.random() < zero_frac else int(rng.integers(1, 50)) for _ in multisets]
    raw[0] = raw[0] or 1
    total = sum(raw)
    tensor = np.empty((s,) * n, dtype=object)
    for config in product(range(s), repeat=n):
        ms = tuple(sorted(config))
        counts = [ms.count(v) for v in range(s)]
        orderings = math.factorial(n) // math.prod(math.factorial(c) for c in counts)
        tensor[config] = Fraction(raw[multisets.index(ms)], total * orderings)
    return tensor


class TestFromTensor:
    @pytest.mark.parametrize("s, n", [(2, 1), (3, 4), (4, 5), (6, 3)])
    @pytest.mark.parametrize("chunk", [5, 64, 1 << 16])
    def test_matches_configuration_loop(self, rng, s, n, chunk):
        exact = symmetric_tensor(rng, s, n)
        floats = exact.astype(float)
        ref_exact, ref_float = loop_from_tensor(exact), loop_from_tensor(floats)
        with patch.object(df_measures, "TENSOR_CHUNK", chunk):
            law_exact = FiniteExchangeableLaw.from_tensor(exact)
            law_float = FiniteExchangeableLaw.from_tensor(floats)
        assert law_exact.weights == ref_exact
        assert list(law_exact.weights) == list(ref_exact)
        assert all(isinstance(w, Fraction) for w in law_exact.weights.values())
        assert law_float.weights.keys() == ref_float.keys()
        for key, w in ref_float.items():
            assert abs(law_float.weights[key] - w) <= 1e-15 * w
        # some multisets drew weight 0 (all but the single-particle case) and none is a key
        assert all(w != 0 for w in law_exact.weights.values())
        assert len(law_exact.weights) < math.comb(s + n - 1, n) or n == 1

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
        dec = df_decomposition(law)
        assert all(a == b for a, b in zip(law.marginal(1), dec.mixture_marginal(1)))

    def test_first_marginals_exact_uniform(self):
        law = FiniteExchangeableLaw.uniform(3, 3)
        dec = df_decomposition(law)
        m1, mt1 = law.marginal(1), dec.mixture_marginal(1)
        assert all(a == b for a, b in zip(m1, mt1))

    def test_second_marginal_against_brute_force(self):
        # 27-configuration enumeration is the oracle
        tensor = uniform_tensor(3, 3)
        law = FiniteExchangeableLaw.from_tensor(tensor)
        dec = df_decomposition(law)
        mt2 = dec.mixture_marginal(2)
        brute = brute_mixture_marginal(tensor, 2)
        assert all(mt2[a, b] == brute[a, b] for a in range(3) for b in range(3))

    def test_second_marginal_lemma_entrywise(self):
        law = FiniteExchangeableLaw.uniform(3, 3)
        n = 3
        m1, m2 = law.marginal(1), law.marginal(2)
        mt2 = df_decomposition(law).mixture_marginal(2)
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

    def test_husimi_weights_law(self):
        # symmetric 3-body Husimi weights over a small tiling, float path
        from fermigas.husimi import CoherentFamily, husimi
        from fermigas.oracle import DiscreteHamiltonian, ground_state

        grid = SpatialGrid(1, 2.5, 30)
        ham = DiscreteHamiltonian(grid, harmonic_potential(1), 3)
        _, state = ground_state(ham)
        family = CoherentFamily(3, 0.45, (1.0 / 3.0) ** 2 / 0.45)
        tiling = Tiling.square(1, 2.0, 2)  # 4 phase-space cells
        centers = tiling.cell_centers()
        s = len(centers)
        tensor = np.zeros((s,) * 3)
        for config in product(range(s), repeat=3):
            z = np.concatenate([centers[list(config)]], axis=0)[:, [0, 1]].reshape(-1)
            samples = z[None, :]
            tensor[config] = husimi(state, family, k=3, samples=samples)[0]
        tensor /= tensor.sum()
        law = FiniteExchangeableLaw.from_tensor(tensor)
        report = tv_bound_check(law, 2)
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
        dec = df_decomposition(law)
        m1 = law.marginal(1)
        mt1 = dec.mixture_marginal(1)
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
        law = FiniteExchangeableLaw.from_tensor(tensor)
        assert law.weights == weights
        ours, brute = law.marginal(k), brute_marginal(tensor, k)
        assert ours.shape == brute.shape and all(a == b for a, b in zip(ours.ravel(), brute.ravel()))
        ours, brute = df_decomposition(law).mixture_marginal(k), brute_mixture_marginal(tensor, k)
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
        monkeypatch.setattr(DFDecomposition, "mixture_marginal", refuse)
        report = tv_bound_check(law, 3)
        assert report.tv == per_type_tv(law, 3)
        assert report.passed

    def test_k_out_of_range(self):
        law = FiniteExchangeableLaw.uniform(3, 2)
        for k in (0, 3):
            with pytest.raises(ValidationError, match="k"):
                tv_bound_check(law, k)
        with pytest.raises(ValidationError, match="k"):
            df_decomposition(law).mixture_marginal(0)


class TestTiling:
    def test_canonical_cell_count(self):
        # cells_x = cells_p = 2n per axis gives the canonical 4^d n^(2d)
        for d, n in ((1, 3), (2, 2)):
            t = Tiling.square(d, 1.0, 2 * n)
            assert t.n_cells == 4**d * n ** (2 * d)

    def test_cell_indexing_round_trip(self, rng):
        t = Tiling(1, 1.5, 3, 5)
        pts = rng.uniform(-1.5, 1.5, size=(200, 2))
        idx = t.cell_index(pts)
        assert np.all(idx >= 0)
        for j in range(t.n_cells):
            lo, hi = t.cell_bounds(j)
            inside = np.all((pts >= lo) & (pts < hi), axis=1)
            assert np.all(idx[inside] == j)

    @pytest.mark.parametrize("d, cells_x, cells_p", [(1, 3, 5), (2, 2, 3)])
    def test_cell_lows_and_centers_match_cell_bounds(self, d, cells_x, cells_p):
        t = Tiling(d, 1.3, cells_x, cells_p)
        bounds = [t.cell_bounds(j) for j in range(t.n_cells)]
        assert np.array_equal(t.cell_lows(), np.array([lo for lo, _ in bounds]))
        assert np.array_equal(t.cell_centers(), np.array([0.5 * (lo + hi) for lo, hi in bounds]))

    @pytest.mark.parametrize("d, cells_x, cells_p", [(1, 3, 5), (2, 2, 3)])
    def test_in_cell_matches_cell_index(self, rng, d, cells_x, cells_p):
        t = Tiling(d, 1.5, cells_x, cells_p)
        axis_values = []
        for cells, side in zip(t._axis_cells(), t._axis_sides()):
            edges = np.concatenate([-t.half_width + np.arange(cells + 1) * side, [-t.half_width, t.half_width]])
            axis_values.append(np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]))
        edge_pts = np.column_stack([rng.choice(values, 4000) for values in axis_values])
        pts = np.vstack([edge_pts, rng.uniform(-1.6, 1.6, size=(4000, 2 * d))])
        idx = t.cell_index(pts)
        for cell in range(t.n_cells):
            assert np.array_equal(t.in_cell(pts, cell), idx == cell)
        # leading axes are kept, as for (trials, particles, coordinates) draws
        assert np.array_equal(t.in_cell(pts.reshape(4, -1, 2 * d), 1), (idx == 1).reshape(4, -1))

    def test_outside_points_flagged(self):
        t = Tiling.square(1, 1.0, 2)
        idx = t.cell_index(np.array([[2.0, 0.0], [0.0, -3.0], [0.5, 0.5]]))
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


class TestAveraging:
    def test_single_atom_occupies_one_cell(self):
        t = Tiling.square(1, 2.0, 4)
        center = t.cell_center(5)
        avg = average_measure(EmpiricalMeasure(center[None, :]), t)
        assert avg.cell_masses[5] == 1
        assert sum(avg.cell_masses) == 1

    def test_uniform_cell_center_atoms_fixed_point(self):
        t = Tiling.square(1, 2.0, 4)
        mu = EmpiricalMeasure(t.cell_centers())
        avg = average_measure(mu, t)
        assert all(m == Fraction(1, t.n_cells) for m in avg.cell_masses)

    def test_random_empirical_counts_exact(self, rng):
        t = Tiling.square(1, 2.0, 4)
        pts = rng.uniform(-2.0, 2.0, size=(100, 2))
        mu = EmpiricalMeasure(pts)
        avg = average_measure(mu, t)
        idx = t.cell_index(pts)
        for j in range(t.n_cells):
            assert avg.cell_masses[j] == Fraction(int((idx == j).sum()), 100)

    def test_atoms_and_masses_match_per_cell_loops(self, rng):
        t = Tiling.square(2, 1.0, 3)
        pts = rng.uniform(-1.2, 1.2, size=(40, 4))
        avg = average_measure(EmpiricalMeasure(pts), t)
        idx = t.cell_index(pts)
        assert all(avg.cell_masses[j] == Fraction(int((idx == j).sum()), 40) for j in range(t.n_cells))
        keep = [j for j in range(t.n_cells) if float(avg.cell_masses[j]) > 0]
        centers, masses = avg.atoms()
        assert np.array_equal(centers, np.array([t.cell_center(j) for j in keep]))
        assert np.array_equal(masses, np.array([float(avg.cell_masses[j]) for j in keep]))

    def test_mass_restriction(self, rng):
        t = Tiling.square(1, 1.0, 2)
        pts = rng.uniform(-2.0, 2.0, size=(50, 2))
        mu = EmpiricalMeasure(pts)
        avg = average_measure(mu, t)
        inside = (t.cell_index(pts) >= 0).sum()
        assert avg.mass() == Fraction(int(inside), 50)


class TestWasserstein:
    def test_identical_measures(self, rng):
        mu = EmpiricalMeasure(rng.uniform(-1, 1, size=(40, 2)))
        assert wasserstein1(mu, mu).distance == pytest.approx(0.0, abs=1e-12)

    def test_point_masses_euclidean(self):
        mu = EmpiricalMeasure(np.array([[0.0, 0.0]]))
        nu = EmpiricalMeasure(np.array([[3.0, 4.0]]))
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

    def test_averaged_measure_within_cell_diameter(self, rng):
        t = Tiling.square(1, 2.0, 4)
        for _ in range(20):
            mu = EmpiricalMeasure(rng.uniform(-2, 2, size=(30, 2)))
            avg = average_measure(mu, t)
            res = wasserstein1(avg, mu)
            assert res.distance <= t.cell_diameter + 1e-9
            assert res.certified

    def test_dual_certificate(self, rng):
        mu = EmpiricalMeasure(rng.uniform(-1, 1, size=(25, 2)))
        nu = EmpiricalMeasure(rng.uniform(-1, 1, size=(35, 2)))
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
        assert stats.exact_tail > 0.5 / stats.n_trials
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
        stats = pauli_violation_stats(sampler, t, 0, epsilon=0.0, n_particles=n, n_trials=10, seed=1)
        assert stats.threshold_count == 1

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
        assert stats.exact_tail == pytest.approx(binom.sf(stats.threshold_count - 1, n, q), rel=1e-12, abs=0.0)


def test_import_leaves_stats_and_optimize_unloaded():
    probe = (
        "import sys, fermigas.df_measures; "
        "print(' '.join(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == ""


class TestRestrictionDefects:
    def test_supported_inside_no_restriction_defect(self, rng):
        t = Tiling.square(1, 2.0, 8)
        mu = EmpiricalMeasure(rng.uniform(-1.5, 1.5, size=(64, 2)))
        potential = harmonic_potential(1)
        report = restriction_energy_defect(mu, t, potential, None, tau=20.0)
        assert report.restriction_defect == 0.0
        assert abs(report.averaging_defect) <= 3.0 * report.averaging_shape

    def test_defects_shrink_under_refinement(self, rng):
        # empirical configuration drawn from the oracle ground state's
        # symmetrized Husimi weights on a coarse tiling
        from fermigas.df_measures import exchangeable_law_sampler
        from fermigas.husimi import CoherentFamily, husimi
        from fermigas.oracle import DiscreteHamiltonian, ground_state

        grid = SpatialGrid(1, 2.5, 30)
        ham = DiscreteHamiltonian(grid, harmonic_potential(1), 3)
        _, state = ground_state(ham)
        family = CoherentFamily(3, 0.45, (1.0 / 3.0) ** 2 / 0.45)
        base = Tiling.square(1, 2.0, 2)
        centers = base.cell_centers()
        s_states = len(centers)
        tensor = np.zeros((s_states,) * 3)
        for config in product(range(s_states), repeat=3):
            z = centers[list(config)].reshape(-1)
            tensor[config] = husimi(state, family, k=3, samples=z[None, :])[0]
        tensor /= tensor.sum()
        law = FiniteExchangeableLaw.from_tensor(tensor)
        sampler = exchangeable_law_sampler(law, base)
        mu = EmpiricalMeasure(sampler(rng, 1, 3)[0])

        potential = harmonic_potential(1)
        w_n = scaled_interaction(bump_profile(1, beta=0.2), 16)
        defects = []
        for cells in (4, 8, 16):
            t = Tiling.square(1, 2.0, cells)
            report = restriction_energy_defect(mu, t, potential, w_n, tau=20.0)
            assert math.isfinite(report.averaging_defect)
            defects.append(abs(report.averaging_defect))
        assert defects[2] < defects[0]

    def test_far_point_mass_loses_everything(self):
        t = Tiling.square(1, 1.0, 2)
        mu = EmpiricalMeasure(np.array([[5.0, 5.0]]))
        potential = harmonic_potential(1)
        report = restriction_energy_defect(mu, t, potential, None, tau=100.0)
        assert report.energy_restricted == 0.0
        assert report.restriction_defect == pytest.approx(report.energy_full, abs=0)

    def test_tau_flag(self):
        t = Tiling.square(1, 1.0, 2)
        mu = EmpiricalMeasure(np.array([[0.0, 10.0]]))  # kinetic energy 100
        report = restriction_energy_defect(mu, t, harmonic_potential(1), None, tau=1.0)
        assert report.tau_exceeded

    def test_measure_energy_includes_diagonal(self):
        # mu^(x)2 of a single atom keeps the self-pair, per the definition
        w_n = scaled_interaction(bump_profile(1, beta=0.2, height=1.0), 4)
        pts = np.array([[0.0, 0.0]])
        e = measure_energy(pts, np.array([1.0]), harmonic_potential(1), w_n)
        w0 = float(w_n.evaluate(np.array([[0.0]]))[0])
        assert e == pytest.approx(-w0, abs=1e-12)


class TestSamplers:
    def test_iid_cell_sampler_respects_distribution(self, rng):
        from fermigas.df_measures import iid_cell_sampler

        t = Tiling.square(1, 1.0, 2)
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        sampler = iid_cell_sampler(t, probs)
        pts = sampler(rng, 4000, 2).reshape(-1, 2)
        idx = t.cell_index(pts)
        freq = np.bincount(idx, minlength=4) / len(idx)
        assert freq == pytest.approx(probs, abs=0.02)

    def test_exchangeable_law_sampler(self, rng):
        from fermigas.df_measures import exchangeable_law_sampler

        t = Tiling.square(1, 1.0, 2)  # 4 cells
        # law concentrated on the multiset (0, 3): every draw fills those cells
        law = FiniteExchangeableLaw(4, 2, {(0, 3): Fraction(1)})
        sampler = exchangeable_law_sampler(law, t)
        pts = sampler(rng, 50, 2)
        idx = t.cell_index(pts.reshape(-1, 2)).reshape(50, 2)
        assert np.all(np.sort(idx, axis=1) == [0, 3])

    def test_law_sampler_state_count_mismatch(self):
        from fermigas.df_measures import exchangeable_law_sampler

        law = FiniteExchangeableLaw(3, 2, {(0, 1): Fraction(1)})
        with pytest.raises(ValidationError, match="cells"):
            exchangeable_law_sampler(law, Tiling.square(1, 1.0, 2))
