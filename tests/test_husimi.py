import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from fermigas.errors import GridResolutionError, HypothesisViolationError, ValidationError
from fermigas.model import (
    SpatialGrid,
    TFConstants,
    bump_profile,
    double_well_potential,
    harmonic_potential,
    plateau_profile,
    quartic_potential,
    scaled_interaction,
)
from fermigas.husimi import (
    CoherentFamily,
    OneBodyOperator,
    coherent_state,
    envelope,
    envelope_gradient_norm_sq,
    frame_apply,
    gamma_from_measure,
    hartree_energy,
    husimi,
    husimi_at_samples,
    husimi_grid_table,
    lowest_orbitals,
    marginal_identity_report,
    momentum_density,
    semiclassical_error_decomposition,
    slater_operator,
    smearing_errors,
)
from fermigas.oracle import one_body_matrix
from fermigas.tf_solver import RelaxedLocalEnergy, minimize_1d_relaxed, sample_minimizer
from fermigas.vlasov import PhaseSpaceDensity, bathtub_lift, brillouin_momentum_grid, vlasov_energy

N_PARTICLES = 8
BETA = 0.2


@pytest.fixture(scope="module")
def setup():
    grid = SpatialGrid(1, 2.2, 256)
    from fermigas.model import harmonic_potential

    potential = harmonic_potential(1)
    family = CoherentFamily(N_PARTICLES, 0.12, (1.0 / N_PARTICLES) ** 2 / 0.12)
    orbitals = lowest_orbitals(grid, potential, N_PARTICLES, family.hbar)
    gamma = slater_operator(orbitals, grid)
    return grid, potential, family, gamma


class TestEnvelope:
    def test_unit_l2_norm_independent_quadrature(self):
        val, _ = quad(lambda u: envelope(np.array([u]))[0] ** 2, -1.0, 1.0, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_gradient_norm_matches_quadrature(self):
        # independent finite-difference route on a fresh mesh
        u = np.linspace(-1.0, 1.0, 400001)
        f = envelope(u)
        grad = np.gradient(f, u)
        fd = float(np.trapezoid(grad**2, u))
        assert envelope_gradient_norm_sq() == pytest.approx(fd, rel=1e-5)


class TestCoherentFamily:
    def test_default_split(self):
        fam = CoherentFamily.default(8, BETA)
        assert fam.hbar == pytest.approx(1.0 / 8.0, abs=0)
        assert fam.hbar_x == pytest.approx(8.0 ** (-BETA - 1.0), rel=1e-14)
        assert fam.hbar_p == pytest.approx(8.0 ** (BETA - 1.0), rel=1e-12)
        assert fam.hbar_x * fam.hbar_p == pytest.approx(fam.hbar**2, rel=1e-12)

    def test_rejects_inconsistent_scales(self):
        with pytest.raises(ValidationError):
            CoherentFamily(8, 0.1, 0.1)


class TestCoherentState:
    def test_zero_momentum_real_nonnegative(self, setup):
        grid, _, family, _ = setup
        f = coherent_state(0.3, 0.0, family, grid)
        assert np.allclose(f.imag, 0.0)
        assert np.all(f.real >= 0.0)

    def test_unit_norm_random_centers(self, setup, rng):
        grid, _, family, _ = setup
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0)
            p = rng.uniform(-3.0, 3.0)
            f = coherent_state(x, p, family, grid)
            assert abs(grid.integrate(np.abs(f) ** 2) - 1.0) <= 1e-6

    def test_under_resolved_grid_rejected(self):
        fam = CoherentFamily(64, 64.0**-1.3, 64.0**-2.0 / 64.0**-1.3)
        with pytest.raises(GridResolutionError):
            coherent_state(0.0, 0.0, fam, SpatialGrid(1, 2.0, 32))


class TestResolutionOfIdentity:
    def test_frame_reproduces_identity(self, setup, rng):
        grid, _, family, _ = setup
        target = 2.0 * math.pi * family.hbar
        y = grid.axis()
        for _ in range(20):
            psi = (rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)) * np.exp(
                -2.0 * y**2
            )
            out = frame_apply(psi, family, grid)
            rel = np.linalg.norm(out - target * psi) / (target * np.linalg.norm(psi))
            assert rel <= 1e-3


class TestHusimiTables:
    def test_zero_operator(self, setup):
        grid, _, family, _ = setup
        table = husimi_grid_table(OneBodyOperator(grid, np.zeros((grid.size, grid.size))), family)
        assert not np.any(table.values)

    def test_trace_identity(self, setup):
        grid, _, family, gamma = setup
        momentum = brillouin_momentum_grid(grid, family.hbar)
        table = husimi_grid_table(gamma, family, momentum)
        normalized = table.phase_space_integral(grid, momentum) / (2 * math.pi * family.hbar)
        assert normalized / N_PARTICLES == pytest.approx(1.0, abs=1e-3)

    def test_pauli_bound(self, setup):
        _, _, family, gamma = setup
        table = husimi_grid_table(gamma, family)
        assert table.values.min() >= 0.0
        assert table.values.max() <= 1.0 + 1e-6

    def test_marginal_identities(self, setup):
        _, _, family, gamma = setup
        report = marginal_identity_report(gamma, family)
        assert report["space_l1_gap"] <= 1e-4
        assert report["momentum_l1_gap"] <= 1e-4

    def test_k2_slater_vanishes_on_diagonal(self, setup, rng):
        _, _, family, gamma = setup
        zs = np.column_stack(
            [rng.uniform(-1, 1, 5), rng.uniform(-2, 2, 5), np.zeros(5), np.zeros(5)]
        )
        zs[:, 2] = zs[:, 0]
        zs[:, 3] = zs[:, 1]
        vals = husimi(gamma, family, k=2, samples=zs)
        assert np.all(np.abs(vals) <= 1e-10)

    def test_k2_slater_positive_off_diagonal(self, setup):
        _, _, family, gamma = setup
        vals = husimi(gamma, family, k=2, samples=np.array([[-0.8, 0.5, 0.8, -0.5]]))
        assert vals[0] > 0.0


@pytest.fixture(scope="module")
def tf_lift(setup):
    grid, potential, family, _ = setup
    constants = TFConstants.bathtub_consistent(1)
    rel = RelaxedLocalEnergy(constants.c_tf, 1.0)
    fine = minimize_1d_relaxed(potential, rel, grid.refine(8), tol=1e-3)
    rho = sample_minimizer(potential, rel, grid, fine.lam)
    momentum = brillouin_momentum_grid(grid, family.hbar)
    return bathtub_lift(rho, constants, momentum), fine


class TestGammaFromMeasure:

    def test_zero_measure(self, setup):
        grid, _, family, _ = setup
        momentum = brillouin_momentum_grid(grid, family.hbar)
        from fermigas.vlasov import PhaseSpaceDensity

        zero = PhaseSpaceDensity(grid, momentum, np.zeros((grid.size, momentum.size)))
        gamma = gamma_from_measure(zero, family)
        assert not np.any(gamma.matrix)

    def test_trace_and_occupations(self, setup, tf_lift):
        _, _, family, _ = setup
        lift, _ = tf_lift
        gamma = gamma_from_measure(lift, family)
        assert gamma.trace == pytest.approx(N_PARTICLES, abs=0.1)
        occ = gamma.occupations()
        assert occ.min() >= -1e-6
        assert occ.max() <= 1.0 + 1e-6

    def test_rejects_pauli_violation(self, setup, tf_lift):
        grid, _, family, _ = setup
        lift, _ = tf_lift
        from fermigas.vlasov import PhaseSpaceDensity

        doubled = PhaseSpaceDensity(grid, lift.momentum, 2.0 * lift.values)
        with pytest.raises(HypothesisViolationError, match="0 <= m <= 1"):
            gamma_from_measure(doubled, family, mass_rtol=2.0)

    def test_rejects_mass_defect(self, setup, tf_lift):
        grid, _, family, _ = setup
        lift, _ = tf_lift
        from fermigas.vlasov import PhaseSpaceDensity

        halved = PhaseSpaceDensity(grid, lift.momentum, 0.5 * lift.values)
        with pytest.raises(HypothesisViolationError, match="mass"):
            gamma_from_measure(halved, family)

    def test_rejects_support_touching_edge(self, setup):
        grid, _, family, _ = setup
        momentum = brillouin_momentum_grid(grid, family.hbar)
        values = np.zeros((grid.size, momentum.size))
        # occupy one momentum cell everywhere, including the box edge
        k = momentum.size // 2
        dp = momentum.cell_volume
        values[:, k] = 2.0 * math.pi / (dp * 2 * grid.half_width)
        values = np.clip(values, 0.0, 1.0)
        # rescale to unit phase-space mass using a wide band instead
        need = (2.0 * math.pi) / (grid.cell_volume * dp * grid.size)
        width = int(math.ceil(need))
        values[:, k - width // 2 : k - width // 2 + width] = 1.0
        from fermigas.vlasov import PhaseSpaceDensity

        m = PhaseSpaceDensity(grid, momentum, values)
        with pytest.raises(HypothesisViolationError, match="edge"):
            gamma_from_measure(m, family, mass_rtol=0.5)


# ---------------------------------------------------------------------------
# Dense plane-wave oracles: the explicit exp(-i y p / hbar) phase matrices
# that the FFT layer replaces, kept as references at M <= 256.
# ---------------------------------------------------------------------------


def _dense_windows(family, grid):
    y = grid.axis()
    return family.envelope_at(y[None, :], y[:, None])  # W[x, y] = f^h(y - x)


def _dense_phases(grid, momentum, hbar):
    return np.exp(-1j * np.outer(grid.axis(), momentum.axis()) / hbar)  # (y, p)


def _dense_modes(gamma):
    vals, vecs = np.linalg.eigh(0.5 * (gamma.matrix + gamma.matrix.T.conj()))
    keep = vals > 1e-12
    return vals[keep], vecs[:, keep]


def dense_table(gamma, family, momentum):
    grid = gamma.grid
    w = _dense_windows(family, grid)
    phases = _dense_phases(grid, momentum, family.hbar)
    table = np.zeros((grid.size, momentum.size))
    vals, vecs = _dense_modes(gamma)
    for lam, u in zip(vals, vecs.T):
        table += lam * grid.spacing * np.abs((w * u[None, :]) @ phases) ** 2
    return table


def dense_frame_apply(psi, family, grid, momentum):
    # F[y, y'] = h^2 dp sum_x W[x, y] W[x, y'] sum_p exp(i p (y - y') / hbar)
    w = _dense_windows(family, grid)
    phases = _dense_phases(grid, momentum, family.hbar)
    kernel = phases.conj() @ phases.T
    return grid.spacing**2 * momentum.cell_volume * ((w.T @ w) * kernel) @ psi


def dense_momentum_density(gamma, hbar, momentum):
    grid = gamma.grid
    fourier = (2 * math.pi * hbar) ** -0.5 * grid.spacing * _dense_phases(grid, momentum, hbar).T
    vals, vecs = _dense_modes(gamma)
    return np.abs(fourier @ (vecs / math.sqrt(grid.spacing))) ** 2 @ vals


def dense_marginal_report(gamma, family):
    grid = gamma.grid
    momentum = brillouin_momentum_grid(grid, family.hbar)
    n, h, dp = family.n_particles, grid.spacing, momentum.cell_volume
    table = dense_table(gamma, family, momentum)
    lhs_rho = n / (2 * math.pi) * table.sum(axis=1) * dp
    rhs_rho = (_dense_windows(family, grid) ** 2 @ (np.real(np.diag(gamma.matrix)) / h)) * h
    lhs_t = n / (2 * math.pi) * table.sum(axis=0) * h
    t_gamma = dense_momentum_density(gamma, family.hbar, momentum)
    k = momentum.size
    offsets = np.arange(k) * dp
    phases = np.exp(-1j * np.outer(offsets, grid.axis()) / family.hbar)
    g_off = (2 * math.pi * family.hbar) ** -0.5 * h * (phases @ family.envelope_at(grid.axis(), 0.0))
    g2 = np.abs(g_off) ** 2
    idx = np.arange(k)
    conv = np.array([np.sum(t_gamma * g2[(i - idx) % k]) for i in range(k)]) * dp
    return {
        "space_l1_gap": float(np.sum(np.abs(lhs_rho - rhs_rho)) * h),
        "momentum_l1_gap": float(np.sum(np.abs(lhs_t - conv)) * dp),
        "trace_normalized": float(table.sum() * h * dp / (2 * math.pi * family.hbar) / n),
        "space_scale": float(np.sum(np.abs(rhs_rho)) * h),
        "momentum_scale": float(np.sum(np.abs(conv)) * dp),
    }


def dense_gamma_from_measure(m, family):
    grid = m.grid
    y, h, dp = grid.axis(), grid.spacing, m.momentum.cell_volume
    w = _dense_windows(family, grid)
    coef = h * h * dp / (2 * math.pi * family.hbar)
    out = np.zeros((grid.size, grid.size), dtype=complex)
    for col, p in zip(m.values.T, m.momentum.axis()):
        if np.any(col):
            phase = np.exp(1j * p * y / family.hbar)
            out += coef * (phase[:, None] * (w.T @ (col[:, None] * w)) * phase[None, :].conj())
    return 0.5 * (out + out.T.conj())


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


FFT_SIZES = (64, 128, 256)
FFT_FAMILIES = {
    "squeezed": CoherentFamily(N_PARTICLES, 0.12, (1.0 / N_PARTICLES) ** 2 / 0.12),
    "unsqueezed": CoherentFamily.default(N_PARTICLES, 0.0),
}


@pytest.fixture(
    scope="module",
    params=[(m, name) for m in FFT_SIZES for name in FFT_FAMILIES],
    ids=lambda param: f"M{param[0]}-{param[1]}",
)
def fft_case(request):
    """Slater operators at rest and boosted, and a bath-tub lift with its quantization."""
    from fermigas.model import harmonic_potential

    m, name = request.param
    family = FFT_FAMILIES[name]
    grid = SpatialGrid(1, 2.2, m)
    potential = harmonic_potential(1)
    orbitals = lowest_orbitals(grid, potential, N_PARTICLES, family.hbar)
    slater = slater_operator(orbitals, grid)
    # a momentum boost makes t_gamma asymmetric, so a reflected convolution shows
    boost = np.exp(1.3j * grid.axis() / family.hbar)
    boosted = slater_operator(orbitals * boost[:, None], grid)
    constants = TFConstants.bathtub_consistent(1)
    rel = RelaxedLocalEnergy(constants.c_tf, 1.0)
    fine = minimize_1d_relaxed(potential, rel, grid.refine(8), tol=1e-3)
    momentum = brillouin_momentum_grid(grid, family.hbar)
    lift = bathtub_lift(sample_minimizer(potential, rel, grid, fine.lam), constants, momentum)
    quantized = gamma_from_measure(lift, family, mass_rtol=0.5)
    return grid, family, momentum, lift, (slater, boosted, quantized)


class TestFFTAgainstDenseOracles:
    def test_husimi_table(self, fft_case):
        _, family, momentum, _, operators = fft_case
        for gamma in operators:
            table = husimi_grid_table(gamma, family, momentum)
            assert _rel(table.values, dense_table(gamma, family, momentum)) <= 1e-12
            assert np.array_equal(table.p_axis, momentum.axis())

    def test_frame_apply(self, fft_case, rng):
        grid, family, momentum, _, _ = fft_case
        psi = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        assert _rel(frame_apply(psi, family, grid), dense_frame_apply(psi, family, grid, momentum)) <= 1e-12

    def test_momentum_density(self, fft_case):
        _, family, momentum, _, operators = fft_case
        for gamma in operators:
            t = momentum_density(gamma, family.hbar, momentum)
            assert _rel(t, dense_momentum_density(gamma, family.hbar, momentum)) <= 1e-12

    def test_marginal_convolution(self, fft_case):
        _, family, _, _, operators = fft_case
        for gamma in operators:
            report = marginal_identity_report(gamma, family)
            dense = dense_marginal_report(gamma, family)
            # the gaps are differences of O(1) marginals: compare on the marginals' scale
            assert abs(report["space_l1_gap"] - dense["space_l1_gap"]) <= 1e-12 * dense["space_scale"]
            assert abs(report["momentum_l1_gap"] - dense["momentum_l1_gap"]) <= 1e-12 * dense["momentum_scale"]
            assert report["trace_normalized"] == pytest.approx(dense["trace_normalized"], rel=1e-12)

    def test_gamma_from_measure(self, fft_case):
        _, family, _, lift, (_, _, quantized) = fft_case
        assert _rel(quantized.matrix, dense_gamma_from_measure(lift, family)) <= 1e-12
        assert np.array_equal(quantized.matrix, quantized.matrix.T.conj())


def _random_operator(grid, rng, rank, lowest):
    """An exactly Hermitian operator of the given rank, spread over the whole
    box, with occupations drawn uniformly from [lowest, 1]."""
    q, _ = np.linalg.qr(rng.standard_normal((grid.size, rank)) + 1j * rng.standard_normal((grid.size, rank)))
    b = (q * rng.uniform(lowest, 1.0, rank)) @ q.conj().T
    return OneBodyOperator(grid, 0.5 * (b + b.conj().T))


def _indefinite(grid, rng):
    return _random_operator(grid, rng, grid.size, -1.0)


def direct_momentum_density(gamma, hbar, momentum):
    # h / (2 pi hbar) * sum_{y, y'} exp(-i p (y - y') / hbar) gamma(y, y'), no eigenpairs
    phases = _dense_phases(gamma.grid, momentum, hbar)
    double_sum = np.einsum("yk,yz,zk->k", phases, gamma.matrix, phases.conj())
    return gamma.grid.spacing / (2 * math.pi * hbar) * np.real(double_sum)


def _table_at_samples(table, gamma, family, rng, count=50):
    ix = rng.integers(0, table.x_axis.size, count)
    ik = rng.integers(0, table.p_axis.size, count)
    samples = np.column_stack([table.x_axis[ix], table.p_axis[ik]])
    return table.values[ix, ik], husimi_at_samples(gamma, family, samples)


class TestLagSumsWithoutEigenpairs:
    """The table is h <f_{x,p}| gamma |f_{x,p}> for any Hermitian gamma,
    negative occupations included (an eigenvalue cut would drop them)."""

    def test_table_matches_samples(self, fft_case, rng):
        grid, family, momentum, _, operators = fft_case
        for gamma in (*operators, _indefinite(grid, rng)):
            table = husimi_grid_table(gamma, family, momentum)
            fast, direct = _table_at_samples(table, gamma, family, rng)
            assert _rel(fast, direct) <= 1e-12

    def test_indefinite_momentum_density(self, fft_case, rng):
        grid, family, momentum, _, _ = fft_case
        gamma = _indefinite(grid, rng)
        t = momentum_density(gamma, family.hbar, momentum)
        assert _rel(t, direct_momentum_density(gamma, family.hbar, momentum)) <= 1e-12

    @pytest.mark.parametrize("m", [24, 25])
    def test_aliased_lags(self, m, rng):
        # windows wider than half the box: lags d and d - M share an FFT bin
        grid = SpatialGrid(1, 2.2, m)
        family = CoherentFamily(2, 2.0, 0.25 / 2.0)
        edge = math.ceil(family.envelope_width / grid.spacing)
        assert 2 * edge >= m
        momentum = brillouin_momentum_grid(grid, family.hbar)
        gamma = _random_operator(grid, rng, 6, 0.0)
        table = husimi_grid_table(gamma, family, momentum)
        assert _rel(table.values, dense_table(gamma, family, momentum)) <= 1e-12
        indefinite = _indefinite(grid, rng)
        fast, direct = _table_at_samples(husimi_grid_table(indefinite, family, momentum), indefinite, family, rng)
        assert _rel(fast, direct) <= 1e-12


class TestNoDiagonalization:
    def test_husimi_layer_never_diagonalizes(self, setup, tf_lift, monkeypatch):
        import scipy.linalg

        grid, potential, family, gamma = setup  # built before the solvers are blocked
        lift, _ = tf_lift
        w_n = scaled_interaction(plateau_profile(beta=0.25, radius=0.5, edge_width=1e-3, height=1.0), N_PARTICLES)

        def refuse(*args, **kwargs):
            raise AssertionError("an operator was diagonalized")

        for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
            monkeypatch.setattr(scipy.linalg, name, refuse)
        momentum = brillouin_momentum_grid(grid, family.hbar)
        husimi_grid_table(gamma, family, momentum)
        momentum_density(gamma, family.hbar, momentum)
        marginal_identity_report(gamma, family)
        semiclassical_error_decomposition(gamma, family, potential, w_n=w_n)
        gamma_from_measure(lift, family)


TRAPS = {
    "harmonic": harmonic_potential(1),
    "quartic": quartic_potential(1),
    "double_well": double_well_potential(1),
}


class TestLowestOrbitals:
    @pytest.mark.parametrize("m", [64, 256])
    @pytest.mark.parametrize("trap", sorted(TRAPS))
    def test_matches_dense_eigh(self, trap, m):
        grid, potential, n, hbar = SpatialGrid(1, 2.2, m), TRAPS[trap], N_PARTICLES, 1.0 / N_PARTICLES
        u = lowest_orbitals(grid, potential, n, hbar)
        t_mat = one_body_matrix(grid, potential, hbar)
        energies, vecs = np.linalg.eigh(t_mat)
        dense = vecs[:, :n]
        assert np.max(np.abs(u @ u.T - dense @ dense.T)) <= 1e-12
        assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-12
        ritz = np.einsum("ia,ij,ja->a", u, t_mat, u)
        assert np.linalg.norm(t_mat @ u - u * ritz, axis=0).max() <= 1e-10
        assert np.allclose(ritz, energies[:n], rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("n", [0, 65])
    def test_count_out_of_range_rejected(self, n):
        with pytest.raises(ValidationError, match="orbitals"):
            lowest_orbitals(SpatialGrid(1, 2.2, 64), harmonic_potential(1), n, 0.125)


# measured on a 2-vCPU VM: 0.48-0.59 s and a 161.3 MiB tracemalloc peak, of
# which the M x M table is 128 MiB
SCALE_WALL_CAP_S = 3.0
SCALE_PEAK_CAP_MIB = 192.0


class TestScale:
    def test_decomposition_and_marginals_at_m4096_n128(self):
        n = 128
        grid, potential = SpatialGrid(1, 2.5, 4096), harmonic_potential(1)
        family = CoherentFamily.default(n, 0.0)
        gamma = slater_operator(lowest_orbitals(grid, potential, n, family.hbar), grid)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = semiclassical_error_decomposition(gamma, family, potential)
            marginals = marginal_identity_report(gamma, family)
            elapsed = time.perf_counter() - start
            peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert report.measured_correction == pytest.approx(report.expected_correction, rel=1e-6)
        assert marginals["space_l1_gap"] <= 1e-10
        assert marginals["trace_normalized"] == pytest.approx(1.0, abs=1e-9)
        assert elapsed <= SCALE_WALL_CAP_S
        assert peak_mib <= SCALE_PEAK_CAP_MIB


class TestNonDualMomentumRejected:
    @staticmethod
    def _stretched(grid, family):
        dual = brillouin_momentum_grid(grid, family.hbar)
        return SpatialGrid(1, 1.5 * dual.half_width, dual.points_per_axis)

    def test_husimi_table(self, setup):
        grid, _, family, gamma = setup
        with pytest.raises(ValidationError, match="lattice dual"):
            husimi_grid_table(gamma, family, self._stretched(grid, family))

    def test_momentum_density(self, setup):
        grid, _, family, gamma = setup
        with pytest.raises(ValidationError, match="lattice dual"):
            momentum_density(gamma, family.hbar, self._stretched(grid, family))

    def test_gamma_from_measure(self, setup, tf_lift):
        grid, _, family, _ = setup
        lift, _ = tf_lift
        stretched = PhaseSpaceDensity(grid, self._stretched(grid, family), lift.values)
        with pytest.raises(ValidationError, match="lattice dual"):
            gamma_from_measure(stretched, family)


class TestHartree:
    def test_zero_operator(self, setup):
        grid, potential, _, _ = setup
        gamma = OneBodyOperator(grid, np.zeros((grid.size, grid.size)))
        out = hartree_energy(gamma, potential, None, 8)
        assert out["total"] == 0.0

    def test_exchange_trace_bound(self, setup, rng):
        # tr(gamma x gamma Ex) = tr(gamma^2) <= tr(gamma) for 0 <= gamma <= 1
        grid, _, _, _ = setup
        for _ in range(10):
            k = 24
            basis, _ = np.linalg.qr(rng.standard_normal((grid.size, k)))
            occ = rng.uniform(0.0, 1.0, k)
            gamma = basis @ np.diag(occ) @ basis.T
            tr2 = float(np.trace(gamma @ gamma))
            tr1 = float(np.trace(gamma))
            assert 0.0 <= tr2 <= tr1 + 1e-10

    def test_hartree_tracks_n_vlasov_energy(self, harmonic_1d):
        # |E^H[gamma^h]/N - E^V_N[m]| shrinks along N = 8, 16, 32
        constants = TFConstants.bathtub_consistent(1)
        profile = bump_profile(1, beta=BETA, radius=1.0, height=1.0)
        grid = SpatialGrid(1, 2.2, 256)
        rel = RelaxedLocalEnergy(constants.c_tf, profile.i_w)
        fine = minimize_1d_relaxed(harmonic_1d, rel, grid.refine(8), tol=1e-3)
        rho = sample_minimizer(harmonic_1d, rel, grid, fine.lam)
        gaps = []
        for n in (8, 16, 32):
            family = CoherentFamily.default(n, BETA)
            momentum = brillouin_momentum_grid(grid, family.hbar)
            lift = bathtub_lift(rho, constants, momentum)
            gamma = gamma_from_measure(lift, family)
            w_n = scaled_interaction(profile, n)
            e_h = hartree_energy(gamma, harmonic_1d, w_n, n)["total"]
            e_v = vlasov_energy(lift, harmonic_1d, profile.i_w, w_n=w_n).total
            gaps.append(abs(e_h / n - e_v))
        assert gaps[0] > gaps[1] > gaps[2]


class TestErrorDecomposition:
    def test_kinetic_correction_identity(self, setup):
        grid, potential, family, _ = setup
        orbitals = lowest_orbitals(grid, potential, 5, family.hbar)
        fam5 = CoherentFamily(5, family.hbar_x, (1.0 / 5.0) ** 2 / family.hbar_x)
        gamma = slater_operator(orbitals, grid)
        report = semiclassical_error_decomposition(gamma, fam5, potential)
        assert abs(report.measured_correction - report.expected_correction) <= 1e-4

    def test_smearing_single_bound_constant_stable(self):
        profile = plateau_profile(beta=0.25, radius=0.5, edge_width=1e-3, height=1.0)
        w_n = scaled_interaction(profile, 4)
        records = smearing_errors(w_n.evaluate, w_n.support_radius, [1e-2, 1e-3, 1e-4])
        ratios = [r["ratio_single"] for r in records]
        assert max(ratios) / min(ratios) <= 2.0

    @pytest.mark.parametrize("kernel", ["plateau", "bump"])
    def test_smearing_fft_matches_direct_convolution(self, kernel, monkeypatch):
        import fermigas.husimi as husimi_module

        if kernel == "plateau":
            profile = plateau_profile(beta=0.25, radius=0.5, edge_width=1e-3, height=1.0)
        else:
            profile = bump_profile(1, beta=0.2, radius=1.0, height=1.0)
        w_n = scaled_interaction(profile, 4)
        hbars = [1e-2, 1e-3, 1e-4, 1.0 / 32]
        fast = smearing_errors(w_n.evaluate, w_n.support_radius, hbars)
        monkeypatch.setattr(husimi_module, "_convolve_same", lambda a, k: np.convolve(a, k, mode="same"))
        direct = smearing_errors(w_n.evaluate, w_n.support_radius, hbars)
        w_l1 = profile.i_w  # w_N >= 0 keeps the mass of the profile
        for f, r in zip(fast, direct):
            assert f["grad_l1"] == r["grad_l1"]
            scale = math.sqrt(f["hbar_x"]) * f["grad_l1"]
            for key in ("error_single", "error_double"):
                assert abs(f[key] - r[key]) <= 1e-12 * w_l1
            for key in ("ratio_single", "ratio_double"):
                assert abs(f[key] - r[key]) * scale <= 1e-12 * w_l1

    def test_potential_gap_reported(self, setup):
        grid, potential, family, gamma = setup
        report = semiclassical_error_decomposition(gamma, family, potential)
        assert report.potential_gap >= 0.0
        assert report.potential_gap <= 5.0 * report.potential_gap_scale * N_PARTICLES


@pytest.fixture(scope="module")
def tiny_state():
    from fermigas.model import harmonic_potential
    from fermigas.oracle import DiscreteHamiltonian, ground_state

    grid = SpatialGrid(1, 2.5, 40)
    ham = DiscreteHamiltonian(grid, harmonic_potential(1), 2)
    _, state = ground_state(ham)
    return grid, state


class TestStateHusimi:

    def test_free_ground_state_matches_wick_route(self, tiny_state):
        # a free-fermion ground state is a Slater determinant: the
        # annihilation route and the Wick rule must agree for k = 2
        from fermigas.oracle import reduced_densities

        grid, state = tiny_state
        family = CoherentFamily(2, 0.3, 0.25 / 0.3)
        red = reduced_densities(state)
        gamma = OneBodyOperator(grid, red.gamma1)
        samples = np.array(
            [[-0.5, 0.4, 0.6, -0.3], [0.0, 1.0, 0.2, -1.0], [0.3, 0.0, -0.3, 0.0]]
        )
        direct = husimi(state, family, k=2, samples=samples)
        wick = husimi(gamma, family, k=2, samples=samples)
        assert direct == pytest.approx(wick, rel=1e-8, abs=1e-12)

    def test_k_exceeding_n_rejected(self, tiny_state):
        _, state = tiny_state
        family = CoherentFamily(2, 0.3, 0.25 / 0.3)
        with pytest.raises(ValidationError, match="exceeds"):
            husimi(state, family, k=3, samples=np.zeros((1, 6)))
