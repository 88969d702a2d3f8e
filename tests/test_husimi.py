import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from fermigas.errors import GridResolutionError, HypothesisViolationError, ValidationError
from fermigas.model import (
    LatticeModel,
    OneBodyOperator,
    SpatialGrid,
    TFConstants,
    TrapPotential,
    bump_profile,
    double_well_potential,
    harmonic_potential,
    plateau_profile,
    quartic_potential,
    scaled_interaction,
    slater_operator,
)
from fermigas.husimi import (
    CoherentFamily,
    _dual_lag_phases,
    _envelope_constants,
    _hermitian_lag,
    _lag_spectrum,
    _neighbors,
    coherent_state,
    envelope,
    envelope_gradient_norm_sq,
    frame_apply,
    gamma_from_measure,
    hartree_energy,
    husimi_at_samples,
    husimi_grid_table,
    lowest_orbitals,
    marginal_identity_report,
    momentum_density,
    semiclassical_error_decomposition,
    smearing_errors,
)
from fermigas.tf_solver import RelaxedLocalEnergy, minimize_1d_relaxed, sample_minimizer
from fermigas.vlasov import PhaseSpaceDensity, bathtub_lift, brillouin_momentum_grid, vlasov_energy
from lift_reference import ref_gamma_from_measure

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

    def test_constants_pinned(self):
        # the floats of the hand-built midpoint mesh that SpatialGrid(1, 1.0, 2^17) replaced
        assert _envelope_constants() == (1.0084146231669044, 3.0776091312317764)


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

    def test_hbar_is_the_lattice_models(self):
        # float(n) ** -1.0 and 1 / n differ by an ulp at n = 1923; both classes read semiclassical_hbar
        n = 1923
        model = LatticeModel(SpatialGrid(1, 2.5, n), harmonic_potential(1), n)
        assert CoherentFamily.default(n, 0.2).hbar == model.hbar


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
        vals = husimi_at_samples(gamma, family, zs, k=2)
        assert np.all(np.abs(vals) <= 1e-10)

    def test_k2_slater_positive_off_diagonal(self, setup):
        _, _, family, gamma = setup
        vals = husimi_at_samples(gamma, family, np.array([[-0.8, 0.5, 0.8, -0.5]]), k=2)
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
        zero = PhaseSpaceDensity(grid, momentum, np.zeros(grid.size))
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

    def test_rejects_mass_defect(self, setup, tf_lift):
        grid, _, family, _ = setup
        lift, _ = tf_lift
        # in 1D the ball volume is linear in the radius: half the radius, half the mass
        halved = PhaseSpaceDensity(grid, lift.momentum, 0.5 * lift.fermi_radius)
        assert halved.normalization() == pytest.approx(0.5 * lift.normalization(), rel=1e-12)
        with pytest.raises(HypothesisViolationError, match="mass"):
            gamma_from_measure(halved, family)

    def test_rejects_support_touching_edge(self, setup):
        grid, _, family, _ = setup
        momentum = brillouin_momentum_grid(grid, family.hbar)
        # one radius everywhere, box edge included, for unit mass: 2 L * 2 R / (2 pi) = 1
        m = PhaseSpaceDensity(grid, momentum, np.full(grid.size, math.pi / (2.0 * grid.half_width)))
        assert m.normalization() == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(HypothesisViolationError, match="edge"):
            gamma_from_measure(m, family)


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
    quantized = gamma_from_measure(lift, family)
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
            t = momentum_density(gamma, family.hbar)
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


def _max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestBandSumsAgainstTable:
    """The closed-form Dirichlet sums against the lift table's real FFT (``lift_reference``)."""

    def test_fft_case_lifts(self, fft_case):
        _, family, _, lift, (_, _, quantized) = fft_case
        assert _max_rel(quantized.matrix, ref_gamma_from_measure(lift, family)) <= 1e-13

    def test_radii_tied_to_dual_momenta(self, fft_case):
        grid, family, momentum, lift, _ = fft_case
        # each nonzero radius moved onto the nearest dual |p_k|, which the lift then occupies
        p_abs = np.abs(momentum.axis())
        nearest = p_abs[np.abs(p_abs[None, :] - lift.fermi_radius[:, None]).argmin(axis=1)]
        tied = PhaseSpaceDensity(grid, momentum, np.where(lift.fermi_radius > 0.0, nearest, 0.0))
        occupied = tied.fermi_radius > 0.0
        assert np.count_nonzero(occupied) > 0
        assert np.all(tied.values[p_abs[None, :] == tied.fermi_radius[:, None]] == 1.0)
        gamma = gamma_from_measure(tied, family)
        assert _max_rel(gamma.matrix, ref_gamma_from_measure(tied, family)) <= 1e-13

    @pytest.mark.parametrize("m", FFT_SIZES)
    @pytest.mark.parametrize("name", sorted(FFT_FAMILIES))
    def test_empty_and_full_rows(self, m, name):
        family = FFT_FAMILIES[name]
        grid = SpatialGrid(1, 2.2, m)
        momentum = brillouin_momentum_grid(grid, family.hbar)
        # N rows at the centre with R = pi hbar / h, the dual half-width, carry the unit mass
        radius = np.zeros(grid.size)
        radius[m // 2 - N_PARTICLES // 2 : m // 2 + N_PARTICLES // 2] = math.pi * family.hbar / grid.spacing
        lift = PhaseSpaceDensity(grid, momentum, radius)
        assert lift.normalization() == pytest.approx(1.0, rel=1e-12)
        assert set(lift.values.sum(axis=1)) == {0.0, float(m)}
        gamma = gamma_from_measure(lift, family)
        assert _max_rel(gamma.matrix, ref_gamma_from_measure(lift, family)) <= 1e-13


class TestOneDimensionalFrame:
    """Every entry point of the 1D coherent frame rejects a 2D grid."""

    @pytest.fixture(scope="class")
    def plane(self):
        grid = SpatialGrid(2, 2.2, 16)
        family = CoherentFamily.default(4, 0.1)
        gamma = OneBodyOperator(grid, np.eye(grid.size) / grid.size)
        radius = np.full(grid.size, 0.5)
        return grid, family, gamma, PhaseSpaceDensity(grid, brillouin_momentum_grid(grid, family.hbar), radius)

    @pytest.mark.parametrize(
        "call",
        [
            lambda grid, family, gamma, lift: coherent_state(0.0, 0.0, family, grid),
            lambda grid, family, gamma, lift: husimi_grid_table(gamma, family),
            lambda grid, family, gamma, lift: frame_apply(np.ones(grid.size), family, grid),
            lambda grid, family, gamma, lift: gamma_from_measure(lift, family),
            lambda grid, family, gamma, lift: marginal_identity_report(gamma, family),
            lambda grid, family, gamma, lift: semiclassical_error_decomposition(
                gamma, family, harmonic_potential(2)
            ),
            lambda grid, family, gamma, lift: momentum_density(gamma, family.hbar),
        ],
        ids=[
            "coherent_state",
            "husimi_grid_table",
            "frame_apply",
            "gamma_from_measure",
            "marginal_identity_report",
            "semiclassical_error_decomposition",
            "momentum_density",
        ],
    )
    def test_rejects_2d_grid(self, plane, call):
        with pytest.raises(ValidationError, match="2D grid"):
            call(*plane)


def window_band(family, grid):
    """The M x (2r + 1) window table that ``husimi._window`` replaced, kept as its reference.

    ``band[i, r + o] = f^h(y_(i+o) - y_i)`` for |o| <= r, zero where i + o is off the grid.
    """
    y = grid.axis()
    r = int(math.ceil(math.sqrt(family.hbar_x) / grid.spacing))
    idx = np.arange(grid.size)[:, None] + np.arange(-r, r + 1)[None, :]
    inside = (idx >= 0) & (idx < grid.size)
    values = family.envelope_at(y[np.clip(idx, 0, grid.size - 1)], y[:, None])
    return np.where(inside, values, 0.0), r


def band_table(gamma, family, momentum):
    """``husimi_grid_table``'s values from the window band, one row-wise product per lag."""
    grid = gamma.grid
    band, r = window_band(family, grid)
    size, width = grid.size, band.shape[1]
    lags = min(2 * r, size - 1)
    _, phases = _dual_lag_phases(grid, family.hbar, momentum, lags)
    lag = np.zeros((size, lags + 1), dtype=complex)
    for d in range(lags + 1):
        coupled = np.zeros(size, dtype=complex)
        coupled[d:] = phases[d] * _hermitian_lag(gamma.matrix, d)
        pairs = band[:, d:] * band[:, : width - d]  # W[x, j] W[x, j - d] at j = x + a - r
        lag[:, d] = np.einsum("xa,xa->x", pairs, _neighbors(coupled, r)[:, d:])
    return grid.spacing * _lag_spectrum(lag, size)


def band_gamma_from_measure(m, family):
    """``gamma_from_measure``'s matrix from the window band (hypothesis checks left out)."""
    grid = m.grid
    band, r = window_band(family, grid)
    size, width = grid.size, band.shape[1]
    lags = min(2 * r, size - 1)
    momentum, phases = _dual_lag_phases(grid, family.hbar, m.momentum, lags)
    coef = grid.spacing**2 * momentum.cell_volume / (2 * math.pi * family.hbar)
    lag = np.arange(lags + 1)
    low = lag <= size // 2
    m_hat = np.fft.rfft(m.values, axis=1)[:, np.where(low, lag, size - lag)]
    m_hat[:, low] = np.conj(m_hat[:, low])
    out = np.zeros((size, size), dtype=complex)
    for d in range(lags + 1):
        j = np.arange(d, size)
        pairs = band[d:, : width - d] * band[: size - d, d:]  # W[x, j] W[x, j - d] at x = j + a - r
        near = _neighbors(m_hat[:, d], r)[d:, : width - d]
        lower = coef * np.conj(phases[d]) * np.einsum("ja,ja->j", pairs, near)
        out[j, j - d] = lower
        out[j - d, j] = np.conj(lower)
    return out


def band_marginal_report(gamma, family):
    """``marginal_identity_report`` from the band table, the space side summed over the band's rows."""
    grid = gamma.grid
    momentum = brillouin_momentum_grid(grid, family.hbar)
    n, h, dp = family.n_particles, grid.spacing, momentum.cell_volume
    table = band_table(gamma, family, momentum)
    band, r = window_band(family, grid)
    lhs_rho = n / (2 * math.pi) * table.sum(axis=1) * dp
    rhs_rho = np.einsum("xa,xa->x", band**2, _neighbors(np.real(np.diag(gamma.matrix)) / h, r)) * h
    lhs_t = n / (2 * math.pi) * table.sum(axis=0) * h
    t_gamma = momentum_density(gamma, family.hbar)
    g2 = h * h / (2 * math.pi * family.hbar) * np.abs(np.fft.fft(family.envelope_at(grid.axis(), 0.0))) ** 2
    conv = np.fft.irfft(np.fft.rfft(t_gamma) * np.fft.rfft(g2), n=momentum.size) * dp
    return {
        "space_l1_gap": float(np.sum(np.abs(lhs_rho - rhs_rho)) * h),
        "momentum_l1_gap": float(np.sum(np.abs(lhs_t - conv)) * dp),
        "trace_normalized": float(np.sum(table)) * h * dp / (2 * math.pi * family.hbar) / n,
    }


class TestWindowAgainstBand:
    """The (2r + 1)-point window against the M-row band it replaced, to 1e-13 absolute."""

    def test_husimi_table(self, fft_case):
        _, family, momentum, _, operators = fft_case
        for gamma in operators:
            got = husimi_grid_table(gamma, family, momentum).values
            assert np.max(np.abs(got - band_table(gamma, family, momentum))) <= 1e-13

    def test_gamma_from_measure(self, fft_case):
        _, family, _, lift, (_, _, quantized) = fft_case
        assert np.max(np.abs(quantized.matrix - band_gamma_from_measure(lift, family))) <= 1e-13

    def test_frame_apply(self, fft_case, rng):
        grid, family, _, _, _ = fft_case
        psi = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        band, _ = window_band(family, grid)
        want = 2 * math.pi * family.hbar * grid.spacing * np.sum(band**2, axis=1) * psi
        assert np.max(np.abs(frame_apply(psi, family, grid) - want)) <= 1e-13

    def test_marginal_identity_report(self, fft_case):
        _, family, _, _, operators = fft_case
        for gamma in operators:
            got, want = marginal_identity_report(gamma, family), band_marginal_report(gamma, family)
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-13

    @pytest.mark.parametrize("m, half_width", [(24, 2.2), (25, 2.2), (8, 1.0)])
    def test_windows_wider_than_half_the_box(self, m, half_width, rng):
        # at M = 8 the window's 2r + 1 = 13 points exceed the grid
        grid = SpatialGrid(1, half_width, m)
        family = CoherentFamily(2, 2.0, 0.25 / 2.0)
        momentum = brillouin_momentum_grid(grid, family.hbar)
        gamma = _random_operator(grid, rng, min(6, m), -1.0)
        got = husimi_grid_table(gamma, family, momentum).values
        assert np.max(np.abs(got - band_table(gamma, family, momentum))) <= 1e-13
        psi = rng.standard_normal(m)
        band, _ = window_band(family, grid)
        want = 2 * math.pi * family.hbar * grid.spacing * np.sum(band**2, axis=1) * psi
        assert np.max(np.abs(frame_apply(psi, family, grid) - want)) <= 1e-13
        got, want = marginal_identity_report(gamma, family), band_marginal_report(gamma, family)
        for key in want:
            assert abs(got[key] - want[key]) <= 1e-13


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
        t = momentum_density(gamma, family.hbar)
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
        momentum_density(gamma, family.hbar)
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
        diag, off = LatticeModel(grid, potential, n).one_body_diagonals()
        t_mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
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

    @pytest.mark.parametrize("scale", [1.1, 1.0 + 2e-12, 1.0 - 2e-12])
    def test_hbar_other_than_one_over_n_rejected(self, scale):
        with pytest.raises(ValidationError, match="1/n"):
            lowest_orbitals(SpatialGrid(1, 2.2, 64), harmonic_potential(1), 8, scale / 8)


# measured on a 2-vCPU VM: 0.48-0.59 s and a 161.3 MiB tracemalloc peak, of
# which the M x M table is 128 MiB
SCALE_WALL_CAP_S = 3.0
SCALE_PEAK_CAP_MIB = 192.0
# measured on a 2-vCPU VM: gamma_from_measure of the bath-tub lift at
# M = 2048, N = 64 peaks at 74.2 MiB traced, of which the M x M complex
# result is 64 MiB; a complex inverse FFT of the whole table peaked at 258 MiB
QUANTIZE_PEAK_CAP_MIB = 128.0
# 1.5 times the 16 MiB complex result at M = 1024, N = 32 (21.1 MiB measured);
# building the lift's table and its real FFT peaked at 30.4 MiB
QUANTIZE_1024_PEAK_CAP_MIB = 24.0


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


    def test_quantization_memory_at_m2048(self):
        n = 64
        grid, potential = SpatialGrid(1, 2.5, 2048), harmonic_potential(1)
        constants = TFConstants.bathtub_consistent(1)
        rel = RelaxedLocalEnergy(constants.c_tf, 1.0)
        fine = minimize_1d_relaxed(potential, rel, grid.refine(4), tol=1e-3)
        rho = sample_minimizer(potential, rel, grid, fine.lam)
        family = CoherentFamily.default(n, 0.0)
        lift = bathtub_lift(rho, constants, brillouin_momentum_grid(grid, family.hbar))
        tracemalloc.start()
        try:
            gamma = gamma_from_measure(lift, family)
            peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert gamma.trace == pytest.approx(n, abs=0.1)
        assert peak_mib <= QUANTIZE_PEAK_CAP_MIB

    def test_quantization_leaves_table_unbuilt_at_m1024(self):
        n = 32
        grid, potential = SpatialGrid(1, 2.5, 1024), harmonic_potential(1)
        constants = TFConstants.bathtub_consistent(1)
        rel = RelaxedLocalEnergy(constants.c_tf, 1.0)
        fine = minimize_1d_relaxed(potential, rel, grid.refine(4), tol=1e-3)
        rho = sample_minimizer(potential, rel, grid, fine.lam)
        family = CoherentFamily.default(n, 0.0)
        lift = bathtub_lift(rho, constants, brillouin_momentum_grid(grid, family.hbar))
        tracemalloc.start()
        try:
            gamma = gamma_from_measure(lift, family)
            peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert lift._values is None
        assert gamma.trace == pytest.approx(n, abs=0.1)
        assert peak_mib <= QUANTIZE_1024_PEAK_CAP_MIB


class TestHermitianCheck:
    # M = 300 is three 128-row strips, the last one partial; the defect sits
    # in the last one, on either side of the diagonal, next to a large entry
    # in the first one that sets the scale of the tolerance
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_single_defect_in_last_strip(self, dtype, side, scale):
        grid = SpatialGrid(1, 2.2, 300)
        matrix = np.zeros((300, 300), dtype=dtype)
        matrix[0, 0] = scale
        at = (298, 299) if side == "upper" else (299, 298)
        matrix[at] = 0.99e-10 * scale
        OneBodyOperator(grid, matrix)
        matrix[at] = 1.01e-10 * scale
        with pytest.raises(ValidationError, match="not Hermitian"):
            OneBodyOperator(grid, matrix)


class TestNonDualMomentumRejected:
    @staticmethod
    def _stretched(grid, family):
        dual = brillouin_momentum_grid(grid, family.hbar)
        return SpatialGrid(1, 1.5 * dual.half_width, dual.points_per_axis)

    def test_husimi_table(self, setup):
        grid, _, family, gamma = setup
        with pytest.raises(ValidationError, match="lattice dual"):
            husimi_grid_table(gamma, family, self._stretched(grid, family))

    def test_gamma_from_measure(self, setup, tf_lift):
        grid, _, family, _ = setup
        lift, _ = tf_lift
        stretched = PhaseSpaceDensity(grid, self._stretched(grid, family), lift.fermi_radius)
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

    def test_interaction_forms_no_pair_array_at_m4096(self):
        # the dense M x M coupling and its index array were 256 MiB here
        n = 128
        grid, potential = SpatialGrid(1, 2.5, 4096), harmonic_potential(1)
        gamma = slater_operator(lowest_orbitals(grid, potential, n, 1.0 / n), grid)
        w_n = scaled_interaction(bump_profile(1, beta=0.2, radius=1.0, height=2.0), n)
        tracemalloc.start()
        try:
            out = hartree_energy(gamma, potential, w_n, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out["interaction_term"] < 0.0
        assert peak <= 8 << 20

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
        fam5 = CoherentFamily(5, family.hbar_x, (1.0 / 5.0) ** 2 / family.hbar_x)
        orbitals = lowest_orbitals(grid, potential, 5, fam5.hbar)
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


def dict_state(state) -> dict:
    """A lattice state as {occupied-site tuple: coefficient}, its zero coefficients dropped."""
    occupations = state.ham.occupations
    return {tuple(occupations[r]): c for r, c in enumerate(state.coefficients) if c != 0.0}


def dict_remove(current: dict, f) -> dict:
    """sum_j conj(f_j) c_j on a dict state, with the Jordan-Wigner sign (-1)^pos of the removed slot."""
    out = {}
    for sites, c in current.items():
        for pos, site in enumerate(sites):
            amp = np.conj(f[site]) * ((-1) ** pos) * c
            if amp != 0.0:
                child = sites[:pos] + sites[pos + 1 :]
                out[child] = out.get(child, 0.0) + amp
    return out


def dict_walk_husimi(state, family, samples, k):
    """Husimi values of a lattice state by removing one particle per point from its dict.

    ||a(f_k) ... a(f_1) psi||^2 with a(f) = sqrt(h) sum_j conj(f(y_j)) c_j: the
    N-body definition, independent of the one-body matrix and of the Wick rule.
    """
    grid = state.ham.grid
    sqrt_h = math.sqrt(grid.spacing)
    out = np.zeros(samples.shape[0])
    for idx, row in enumerate(samples):
        current = dict_state(state)
        for x, p in row.reshape(k, 2):
            current = dict_remove(current, sqrt_h * coherent_state(x, p, family, grid))
        out[idx] = sum(abs(c) ** 2 for c in current.values())
    return out


# V = ((x - 0.3)^2 - 1)^2: two wells, no mirror symmetry, so no state coefficient
# is forced equal to its mirror's
SHIFTED_DOUBLE_WELL = TrapPotential(
    1,
    lambda p: ((p[:, 0] - 0.3) ** 2 - 1.0) ** 2,
    lambda p: 4.0 * ((p - 0.3) ** 2 - 1.0) * (p - 0.3),
    4.0,
    0.1,
    10.0,
    20.0,
)


def lattice_ground_state(trap, n):
    from fermigas.oracle import DiscreteHamiltonian, ground_state

    potential, interacting = {
        "harmonic": (harmonic_potential(1), False),
        "harmonic_bump": (harmonic_potential(1), True),
        "shifted_double_well": (SHIFTED_DOUBLE_WELL, False),
    }[trap]
    w_n = scaled_interaction(bump_profile(1, beta=0.2, height=2.0), n) if interacting else None
    _, state = ground_state(DiscreteHamiltonian(SpatialGrid(1, 2.5, 20), potential, n, w_n=w_n))
    return state


STATE_CASES = [(trap, n) for trap in ("harmonic", "harmonic_bump", "shifted_double_well") for n in (1, 2, 3, 4)]


class TestAnnihilate:
    @pytest.mark.parametrize("trap, n", STATE_CASES)
    def test_husimi_matches_dict_walk(self, trap, n):
        # the one-body route from gamma1 against removing k particles from the state: exact
        # at k = 1 for every state, and at k = 2 by Wick for the free ground states, which
        # are Slater determinants
        from fermigas.oracle import reduced_densities

        state = lattice_ground_state(trap, n)
        gamma = OneBodyOperator(state.ham.grid, reduced_densities(state).gamma1)
        family = CoherentFamily(n, 1.2, n**-2.0 / 1.2)  # 9.8 grid points across the envelope
        rng = np.random.default_rng(n)
        for k in range(1, min(n, 1 if trap == "harmonic_bump" else 2) + 1):
            samples = np.column_stack(
                [rng.uniform(-1.2, 1.2, size=(4, k)), rng.uniform(-2.0, 2.0, size=(4, k))]
            )[:, np.arange(2 * k).reshape(2, k).T.ravel()]  # rows (x1, p1, ..., xk, pk)
            ref = dict_walk_husimi(state, family, samples, k)
            assert ref.max() > 1e-4
            assert np.max(np.abs(husimi_at_samples(gamma, family, samples, k) - ref)) <= 1e-12

    @pytest.mark.parametrize("trap, n", STATE_CASES)
    def test_hole_columns_give_gamma1(self, trap, n):
        # with f = e_j the removal gives c_j psi, so <c_i psi, c_j psi> is gamma1[i, j]
        from fermigas.oracle import reduced_densities

        state = lattice_ground_state(trap, n)
        psi = dict_state(state)
        holes = [dict_remove(psi, e) for e in np.eye(state.ham.grid.points_per_axis)]
        gamma1 = np.array([[sum(c * a.get(key, 0.0) for key, c in b.items()) for b in holes] for a in holes])
        assert np.max(np.abs(gamma1 - reduced_densities(state).gamma1)) <= 1e-12


@pytest.fixture(scope="module")
def tiny_state():
    from fermigas.model import harmonic_potential
    from fermigas.oracle import DiscreteHamiltonian, ground_state

    grid = SpatialGrid(1, 2.5, 40)
    ham = DiscreteHamiltonian(grid, harmonic_potential(1), 2)
    _, state = ground_state(ham)
    return grid, state


class TestStateHusimi:

    def test_free_ground_state_matches_wick_route(self):
        # the free 3-particle ground state is the Slater determinant of the three lowest
        # orbitals u_c; by Cauchy-Binet its k = 2 Husimi function is h^2 sum_{a<b} |det M_ab|^2,
        # M_ab the 2 x 2 matrix of plain lattice products f_{z_i}^H u_c for c in {a, b}
        grid = SpatialGrid(1, 2.5, 120)
        family = CoherentFamily(3, 0.3, (1.0 / 3.0) ** 2 / 0.3)
        orbitals = lowest_orbitals(grid, harmonic_potential(1), 3, family.hbar)
        samples = np.array(
            [[-0.5, 0.4, 0.6, -0.3], [0.0, 1.0, 0.2, -1.0], [0.3, 0.0, -0.3, 0.0], [0.4, -0.8, 0.4, 0.8]]
        )
        ref = np.zeros(len(samples))
        for idx, row in enumerate(samples):
            products = np.array([coherent_state(x, p, family, grid).conj() @ orbitals for x, p in row.reshape(2, 2)])
            ref[idx] = grid.spacing**2 * sum(
                abs(np.linalg.det(products[:, [a, b]])) ** 2 for a, b in ((0, 1), (0, 2), (1, 2))
            )
        assert ref.min() > 1e-3
        wick = husimi_at_samples(slater_operator(orbitals, grid), family, samples, k=2)
        assert np.max(np.abs(wick - ref)) <= 1e-12

    def test_k_exceeding_n_rejected(self, tiny_state):
        # k = 3 exceeds the state's two particles; one-body operators carry k in {1, 2}
        from fermigas.oracle import reduced_densities

        grid, state = tiny_state
        gamma = OneBodyOperator(grid, reduced_densities(state).gamma1)
        family = CoherentFamily(2, 0.3, 0.25 / 0.3)
        with pytest.raises(ValidationError, match="k in"):
            husimi_at_samples(gamma, family, np.zeros((1, 6)), k=3)
