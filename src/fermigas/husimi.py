"""Squeezed coherent states, Husimi functions and the semiclassical bridge
between phase-space occupation functions and one-body operators.

The envelope is a fixed smooth compactly supported radial bump with unit L2
norm, localized at scale sqrt(hbar_x) in space and sqrt(hbar_p) in momentum
with hbar_x * hbar_p = hbar^2, hbar = N^(-1/d). Momentum sums use the grid
dual to the spatial lattice (half-width pi*hbar/h, one point per spatial
point). There h * dp = 2 pi hbar / M, so exp(-i (y_j - y_j') p_k / hbar) is
a phase of the lag d = j - j' times exp(-2 pi i d k / M): a plane-wave sum
over pairs of sites is a sum over lags and one ``np.fft`` call, the frame
operator is exactly the diagonal 2 pi hbar * h * sum_x f^h(x - y)^2, and the
frame identities close to quadrature precision instead of leaking staircase
error. The windows f^h(y - x) are kept as a band of half-width
r = ceil(sqrt(hbar_x) / h) and overlap only at lags |d| <= 2r, so a Husimi
table costs O(M r^2) plus one real M x M FFT and a momentum density O(M^2).
Nothing here diagonalizes an operator; ``OneBodyOperator.occupations``
reports eigenvalues when asked.

Operators are carried in occupancy form: ``matrix[i, j]`` is the h-weighted
kernel, so eigenvalues are natural occupations in [0, 1], the trace counts
particles, and inner products are ``h * f^dagger B g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridResolutionError, HypothesisViolationError, ValidationError
from .model import ScaledInteraction, SpatialGrid, TrapPotential, _mollifier, _one_body_diagonals
from .vlasov import PhaseSpaceDensity, brillouin_momentum_grid

Array = np.ndarray

TWO_PI = 2.0 * math.pi

MIN_POINTS_PER_ENVELOPE = 8


def _mollifier_derivative(u: Array) -> Array:
    out = np.zeros_like(u, dtype=float)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = _mollifier(ui) * (-2.0 * ui / (1.0 - ui**2) ** 2)
    return out


@lru_cache(maxsize=1)
def _envelope_constants() -> tuple[float, float]:
    """(normalization c with ||c*bump||_L2 = 1, squared L2 norm of the gradient)."""
    n = 1 << 17
    du = 2.0 / n
    u = -1.0 + du * (np.arange(n) + 0.5)
    norm2 = float(np.sum(_mollifier(u) ** 2) * du)
    c = 1.0 / math.sqrt(norm2)
    grad2 = float(np.sum((c * _mollifier_derivative(u)) ** 2) * du)
    return c, grad2


def envelope(u: Array) -> Array:
    """Unit-L2 radial bump profile, supported on |u| <= 1."""
    c, _ = _envelope_constants()
    return c * _mollifier(np.asarray(u, dtype=float))


def envelope_gradient_norm_sq() -> float:
    """Squared L2 norm of the envelope gradient (1D profile)."""
    return _envelope_constants()[1]


@dataclass(frozen=True)
class CoherentFamily:
    """Squeezing scales of the coherent frame for N particles in 1D.

    ``hbar_x * hbar_p = hbar^2`` is enforced at construction within 1e-12
    relative. The defaults ``hbar_x = N^(-beta-1)``, ``hbar_p = N^(beta-1)``
    keep both scales small while the spatial smearing stays below the
    interaction range.
    """

    n_particles: int
    hbar_x: float
    hbar_p: float
    d: int = 1

    def __post_init__(self):
        if self.d != 1:
            raise ValidationError("coherent-frame operators are desk-scale 1D only")
        if self.n_particles < 1:
            raise ValidationError("need at least one particle")
        if self.hbar_x <= 0 or self.hbar_p <= 0:
            raise ValidationError("squeezing scales must be positive")
        product = self.hbar_x * self.hbar_p
        if abs(product - self.hbar**2) > 1e-12 * self.hbar**2:
            raise ValidationError(
                f"hbar_x * hbar_p = {product:.3e} must equal hbar^2 = {self.hbar**2:.3e}"
            )

    @property
    def hbar(self) -> float:
        return float(self.n_particles) ** (-1.0 / self.d)

    @classmethod
    def default(cls, n_particles: int, beta: float, hbar_x: float | None = None) -> "CoherentFamily":
        hbar = float(n_particles) ** -1.0
        if hbar_x is None:
            hbar_x = float(n_particles) ** (-beta - 1.0)
        return cls(n_particles, hbar_x, hbar**2 / hbar_x)

    @property
    def envelope_width(self) -> float:
        return 2.0 * math.sqrt(self.hbar_x)

    def check_resolution(self, grid: SpatialGrid):
        points = self.envelope_width / grid.spacing
        if points < MIN_POINTS_PER_ENVELOPE:
            raise GridResolutionError(
                f"grid puts only {points:.1f} points across the envelope width "
                f"{self.envelope_width:.3g}; need >= {MIN_POINTS_PER_ENVELOPE}"
            )

    def envelope_at(self, y: Array, center: float) -> Array:
        """f^h(y - center) = hbar_x^(-1/4) f((y - center)/sqrt(hbar_x))."""
        s = math.sqrt(self.hbar_x)
        return self.hbar_x**-0.25 * envelope((np.asarray(y) - center) / s)


def coherent_state(x: float, p: float, family: CoherentFamily, grid: SpatialGrid) -> Array:
    """Grid samples of the squeezed coherent state centered at (x, p)."""
    if grid.d != 1:
        raise ValidationError("coherent states are sampled on 1D grids")
    family.check_resolution(grid)
    y = grid.axis()
    return family.envelope_at(y, x) * np.exp(1j * p * y / family.hbar)


def _hermitian_defect(matrix: Array) -> tuple[float, float]:
    """max |A - A^H| and max |A|, from one 128-row strip of the upper triangle
    at a time against the conjugated column strip below it (no M x M temporary)."""
    defect = peak = 0.0
    for i in range(0, matrix.shape[0], 128):
        upper = matrix[i : i + 128, i:]
        lower = np.conj(matrix[i:, i : i + 128].T)
        defect = max(defect, float(np.max(np.abs(upper - lower))))
        peak = max(peak, float(np.max(np.abs(upper))), float(np.max(np.abs(lower))))
    return defect, peak


@dataclass
class OneBodyOperator:
    """Occupancy-form operator on the grid: eigenvalues are occupations."""

    grid: SpatialGrid
    matrix: Array

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        m = self.grid.size
        if self.matrix.shape != (m, m):
            raise ValidationError(f"operator matrix must be {(m, m)}")
        herm, peak = _hermitian_defect(self.matrix)
        scale = max(1.0, peak)
        if herm > 1e-10 * scale:
            raise ValidationError(f"operator is not Hermitian (defect {herm:.3e})")

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def occupations(self) -> Array:
        return np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T.conj()))

    def density(self) -> Array:
        """Spatial density rho_gamma; integrates to the trace."""
        return np.real(np.diag(self.matrix)) / self.grid.spacing


def slater_operator(orbitals: Array, grid: SpatialGrid) -> OneBodyOperator:
    """gamma = sum_a |u_a><u_a| for plainly orthonormal orbital columns."""
    n = orbitals.shape[1]
    overlap = orbitals.T.conj() @ orbitals
    if not np.allclose(overlap, np.eye(n), atol=1e-8):
        raise ValidationError("orbital columns must be orthonormal")
    return OneBodyOperator(grid, orbitals @ orbitals.T.conj())


def lowest_orbitals(grid: SpatialGrid, potential: TrapPotential, n: int, hbar: float) -> Array:
    """Columns = N lowest eigenvectors of the lattice one-body Hamiltonian.

    The Hamiltonian (``oracle.one_body_matrix``: 3-point -hbar^2 Laplacian
    plus diagonal V) is tridiagonal, so only the N wanted eigenpairs are
    computed, by bisection and inverse iteration on its two diagonals.
    """
    from scipy.linalg import eigh_tridiagonal

    diag, off = _one_body_diagonals(grid, potential, hbar)
    if not 1 <= n <= grid.size:
        raise ValidationError(f"need 1 <= n <= {grid.size} orbitals, got {n}")
    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n - 1))
    return vecs


# ---------------------------------------------------------------------------
# Husimi tables
# ---------------------------------------------------------------------------


@dataclass
class HusimiTable:
    """One-particle Husimi values on the spatial x lattice-dual momentum grid."""

    x_axis: Array
    p_axis: Array
    values: Array

    def phase_space_integral(self, grid: SpatialGrid, momentum: SpatialGrid) -> float:
        """Plain double integral of the tabulated values."""
        return float(np.sum(self.values) * grid.cell_volume * momentum.cell_volume)


def _window_band(family: CoherentFamily, grid: SpatialGrid) -> tuple[Array, int]:
    """The windows W[x, y] = f^h(y - x) as an M x (2r + 1) band and its radius r.

    ``band[i, r + o] = f^h(y_(i+o) - y_i)`` for |o| <= r = ceil(sqrt(hbar_x) / h),
    zero where i + o is off the grid, so row i is the window centered at y_i
    and W[i, i + o] = band[i, r + o]. The envelope is even, so column j of W
    is row j of the band read backwards: W[j - o, j] = band[j, r - o].
    """
    y = grid.axis()
    r = int(math.ceil(math.sqrt(family.hbar_x) / grid.spacing))
    idx = np.arange(grid.size)[:, None] + np.arange(-r, r + 1)[None, :]
    inside = (idx >= 0) & (idx < grid.size)
    values = family.envelope_at(y[np.clip(idx, 0, grid.size - 1)], y[:, None])
    return np.where(inside, values, 0.0), r


def _neighbors(v: Array, r: int) -> Array:
    """Read-only view ``out[i, r + o] = v[i + o]`` for |o| <= r, zero off the grid."""
    padded = np.zeros(v.size + 2 * r, dtype=v.dtype)
    padded[r : r + v.size] = v
    return np.lib.stride_tricks.sliding_window_view(padded, 2 * r + 1)


def _dual_lag_phases(grid: SpatialGrid, hbar: float, momentum: SpatialGrid | None, lags: int):
    """The lattice-dual momentum grid and the lag phases exp(-i p_0 d h / hbar), d = 0..lags.

    With h * dp = 2 pi hbar / M,
    exp(-i (y_j - y_j') p_k / hbar) = exp(-i p_0 d h / hbar) * exp(-2 pi i d k / M)
    for the lag d = j - j', so a plane-wave sum over pairs of sites is a
    sum over lags, and the lag sum is an FFT whose output is already in
    increasing-p order. A given ``momentum`` must be that dual grid.
    """
    dual = brillouin_momentum_grid(grid, hbar)
    if momentum is not None and momentum != dual:
        raise ValidationError(f"momentum grid {momentum} is not the lattice dual {dual}")
    return dual, np.exp(-1j * dual.axis()[0] * grid.spacing / hbar * np.arange(lags + 1))


def _hermitian_lag(matrix: Array, d: int) -> Array:
    """Lag d of the Hermitian part of ``matrix``: its entries (j, j - d), j = d..M-1."""
    return 0.5 * (np.diagonal(matrix, -d) + np.diagonal(matrix, d).conj())


def _lag_spectrum(lag: Array, size: int) -> Array:
    """sum_d lag(d) exp(-2 pi i d k / M) over k, for lags d = 0..D (last axis)
    of a sequence with lag(-d) = conj(lag(d)), D < M.

    The sequence is Hermitian, so the result is real: ``np.fft.hfft`` of
    the first M//2 + 1 periodic bins. A lag d >= M/2 lands as its mirror
    -d in bin M - d, added to whatever is there.
    """
    half = size // 2
    bins = lag[..., : half + 1].copy()
    wrap = np.arange(size - half, lag.shape[-1])
    bins[..., size - wrap] += np.conj(lag[..., wrap])
    return np.fft.hfft(bins, size)


def husimi_grid_table(
    gamma: OneBodyOperator,
    family: CoherentFamily,
    momentum: SpatialGrid | None = None,
) -> HusimiTable:
    """One-particle Husimi function on the full spatial x dual-momentum grid.

    m(x, p) = h * <f_{x,p}| B |f_{x,p}> for the Hermitian part of B, with no
    eigenpairs: on the dual grid m(x, p_k) = h * sum_d lag[x, d]
    exp(-2 pi i d k / M) with
    lag[x, d] = exp(-i p_0 d h / hbar) * sum_j W[x, j] W[x, j - d] B(j, j - d),
    and only lags |d| <= 2r carry windows that overlap. The banded windows
    make the lags O(M r^2) and the table is one real M x M FFT. ``momentum``
    defaults to the lattice-dual grid and must equal it (ValidationError
    otherwise).
    """
    grid = gamma.grid
    family.check_resolution(grid)
    band, r = _window_band(family, grid)
    size, width = grid.size, band.shape[1]
    lags = min(2 * r, size - 1)
    momentum, phases = _dual_lag_phases(grid, family.hbar, momentum, lags)
    lag = np.zeros((size, lags + 1), dtype=complex)
    for d in range(lags + 1):
        coupled = np.zeros(size, dtype=complex)  # phased B(j, j - d), zero for j < d
        coupled[d:] = phases[d] * _hermitian_lag(gamma.matrix, d)
        pairs = band[:, d:] * band[:, : width - d]  # W[x, j] W[x, j - d] at j = x + a - r
        lag[:, d] = np.einsum("xa,xa->x", pairs, _neighbors(coupled, r)[:, d:])
    table = grid.spacing * _lag_spectrum(lag, size)
    return HusimiTable(x_axis=grid.axis(), p_axis=momentum.axis(), values=table)


def husimi_at_samples(source, family: CoherentFamily, samples: Array, k: int = 1) -> Array:
    """Husimi values at explicit phase-space samples.

    ``source`` is a OneBodyOperator (k = 1, or k = 2 through the Wick rule
    for Slater-type operators) or an oracle FermionState (any k <= N, via
    annihilation on the occupation basis). Samples have shape (n, 2) for
    k = 1 and (n, 4) for k = 2 as (x1, p1, x2, p2).
    """
    from .oracle import FermionState

    samples = np.asarray(samples, dtype=float)
    if isinstance(source, OneBodyOperator):
        if k == 1:
            return _husimi1_operator(source, family, samples)
        if k == 2:
            return _husimi2_slater(source, family, samples)
        raise ValidationError("operator sources support k in {1, 2}")
    if isinstance(source, FermionState):
        if k > source.n_particles:
            raise ValidationError(f"k={k} exceeds N={source.n_particles}")
        return _husimi_state(source, family, samples, k)
    raise ValidationError(f"unsupported Husimi source {type(source).__name__}")


def _husimi1_operator(gamma: OneBodyOperator, family: CoherentFamily, samples: Array) -> Array:
    grid = gamma.grid
    family.check_resolution(grid)
    h = grid.spacing
    out = np.zeros(samples.shape[0])
    for idx, (x, p) in enumerate(samples):
        f = coherent_state(x, p, family, grid)
        out[idx] = float(np.real(h * (f.conj() @ (gamma.matrix @ f))))
    return out


def _husimi2_slater(gamma: OneBodyOperator, family: CoherentFamily, samples: Array) -> Array:
    # Wick rule for gamma^(2) = gamma (x) gamma (1 - Ex):
    #   m2(z1, z2) = m1(z1) m1(z2) - |<f_z1| gamma |f_z2>|^2
    grid = gamma.grid
    h = grid.spacing
    out = np.zeros(samples.shape[0])
    for idx, (x1, p1, x2, p2) in enumerate(samples):
        f1 = coherent_state(x1, p1, family, grid)
        f2 = coherent_state(x2, p2, family, grid)
        m1a = np.real(h * (f1.conj() @ (gamma.matrix @ f1)))
        m1b = np.real(h * (f2.conj() @ (gamma.matrix @ f2)))
        cross = h * (f1.conj() @ (gamma.matrix @ f2))
        out[idx] = float(m1a * m1b - np.abs(cross) ** 2)
    return out


def _husimi_state(state, family: CoherentFamily, samples: Array, k: int) -> Array:
    grid = state.ham.grid
    out = np.zeros(samples.shape[0])
    for idx, row in enumerate(samples):
        zs = row.reshape(k, 2)
        current = {tuple(state.ham.occupations[r]): state.coefficients[r] for r in range(state.ham.dim)}
        current = {s: c for s, c in current.items() if c != 0.0}
        value_ok = True
        for x, p in zs:
            f = coherent_state(x, p, family, grid)
            nxt: dict[tuple[int, ...], complex] = {}
            sqrt_h = math.sqrt(grid.spacing)
            for sites, c in current.items():
                for pos, site in enumerate(sites):
                    amp = np.conj(f[site]) * sqrt_h * ((-1) ** pos) * c
                    if amp == 0.0:
                        continue
                    child = sites[:pos] + sites[pos + 1 :]
                    nxt[child] = nxt.get(child, 0.0) + amp
            current = nxt
            if not current:
                value_ok = False
                break
        out[idx] = sum(abs(c) ** 2 for c in current.values()) if value_ok else 0.0
    return out


def husimi(source, family: CoherentFamily, k: int = 1, samples: Array | None = None):
    """Husimi function of an operator or state.

    With ``samples=None`` and k=1 returns the full grid table; otherwise the
    values at the given samples.
    """
    from .oracle import FermionState

    if isinstance(source, FermionState) and k > source.n_particles:
        raise ValidationError(f"k={k} exceeds N={source.n_particles}")
    if samples is None:
        if k != 1:
            raise ValidationError("full tables are only built for k = 1")
        if isinstance(source, FermionState):
            from .oracle import reduced_densities

            gamma = OneBodyOperator(source.ham.grid, reduced_densities(source).gamma1)
            return husimi_grid_table(gamma, family)
        return husimi_grid_table(source, family)
    return husimi_at_samples(source, family, np.asarray(samples, dtype=float), k=k)


# ---------------------------------------------------------------------------
# Frame identities and the measure -> operator construction
# ---------------------------------------------------------------------------


def frame_apply(psi: Array, family: CoherentFamily, grid: SpatialGrid) -> Array:
    """Apply the frame operator (double integral of |f><f|) to a vector.

    On the lattice-dual momentum grid the p sum of exp(i p (y - y') / hbar) is
    M * delta(y, y'), so the operator is exactly the diagonal multiplier
    2 pi hbar * h * sum_x f^h(x - y)^2. It equals (2 pi hbar)^d away from
    the box edges (resolution of the identity).
    """
    family.check_resolution(grid)
    band, _ = _window_band(family, grid)
    return TWO_PI * family.hbar * grid.spacing * np.sum(band**2, axis=1) * psi


def momentum_density(gamma: OneBodyOperator, hbar: float, momentum: SpatialGrid) -> Array:
    """t_gamma(p) = h / (2 pi hbar) * sum_{y, y'} exp(-i p (y - y') / hbar) B(y, y').

    This is sum_a lambda_a |F[u_a](p)|^2 over the eigenpairs of the
    Hermitian part of B, with F[u](p) = (2 pi hbar)^(-1/2) * h * sum_y u(y)
    exp(-i p y / hbar) on the lattice-dual grid (ValidationError for any
    other ``momentum``), but it is computed without them: the diagonal sums
    of B over all M lags, O(M^2), then one FFT. It integrates to the trace.
    """
    grid = gamma.grid
    _, phases = _dual_lag_phases(grid, hbar, momentum, grid.size - 1)
    lag = np.array([_hermitian_lag(gamma.matrix, d).sum() for d in range(grid.size)]) * phases
    return grid.spacing / (TWO_PI * hbar) * _lag_spectrum(lag, grid.size)


def marginal_identity_report(gamma: OneBodyOperator, family: CoherentFamily) -> dict:
    """L1 defects of the two marginal identities of the one-particle Husimi.

    Space: N (2 pi)^-d * integral of m over p  =  rho_gamma * |f^h|^2.
    Momentum: N (2 pi)^-d * integral of m over x  =  t_gamma * |g^h|^2,
    with the momentum convolution taken periodically over the dual cell
    (both sides are trigonometric polynomials on the momentum lattice), as
    an FFT circular convolution. |g^h|^2 on the offsets k * dp is the
    squared FFT of the envelope samples.
    """
    grid = gamma.grid
    momentum = brillouin_momentum_grid(grid, family.hbar)
    n = family.n_particles
    table = husimi_grid_table(gamma, family, momentum)
    h, dp = grid.spacing, momentum.cell_volume
    y = grid.axis()

    lhs_rho = n / (TWO_PI * 1.0) * table.values.sum(axis=1) * dp
    band, r = _window_band(family, grid)
    rho1 = np.real(np.diag(gamma.matrix)) / h
    rhs_rho = np.einsum("xa,xa->x", band**2, _neighbors(rho1, r)) * h
    space_gap = float(np.sum(np.abs(lhs_rho - rhs_rho)) * h)

    lhs_t = n / TWO_PI * table.values.sum(axis=0) * h
    t_gamma = momentum_density(gamma, family.hbar, momentum)
    g2 = h * h / (TWO_PI * family.hbar) * np.abs(np.fft.fft(family.envelope_at(y, 0.0))) ** 2
    conv = np.fft.irfft(np.fft.rfft(t_gamma) * np.fft.rfft(g2), n=momentum.size) * dp
    momentum_gap = float(np.sum(np.abs(lhs_t - conv)) * dp)
    return {
        "space_l1_gap": space_gap,
        "momentum_l1_gap": momentum_gap,
        "trace_normalized": table.phase_space_integral(grid, momentum) / (TWO_PI * family.hbar) / n,
    }


def gamma_from_measure(
    m: PhaseSpaceDensity,
    family: CoherentFamily,
    mass_rtol: float = 0.02,
    bound_tol: float = 1e-9,
) -> OneBodyOperator:
    """Coherent quantization of an occupation function.

    B = (2 pi hbar)^-d * sum over the product grid of
    ``m(x, p) |f_{x,p}><f_{x,p}| h dp``, on the lattice-dual momentum grid
    (ValidationError for any other ``m.momentum``). Hypotheses checked: the
    phase-space mass equals one particle-normalized unit (double integral
    (2 pi)^d) within ``mass_rtol``, 0 <= m <= 1, and the spatial density
    vanishes near the box edge so the frame truncation is inert. The result
    satisfies 0 <= B <= 1 up to quadrature and has trace N up to the mass
    defect.

    With m_hat(x, d) = sum_k m(x, p_k) exp(2 pi i kd / M) (one real FFT
    over p), B[j, j - d] = coef * exp(i p_0 d h / hbar) *
    sum_x f^h(x - y_j) f^h(x - y_(j-d)) m_hat(x, d). Windows more than 2r
    points apart do not overlap, so only lags d <= 2r are built, each from
    the banded windows in O(M r), and the upper triangle is the conjugate
    of the lower one.
    """
    grid = m.grid
    family.check_resolution(grid)
    band, r = _window_band(family, grid)
    size, width = grid.size, band.shape[1]
    lags = min(2 * r, size - 1)
    momentum, phases = _dual_lag_phases(grid, family.hbar, m.momentum, lags)
    if not np.any(m.values):
        return OneBodyOperator(grid, np.zeros((size, size)))
    mass = m.normalization()
    if abs(mass - 1.0) > mass_rtol:
        raise HypothesisViolationError(
            f"phase-space mass {mass:.6g} deviates from 1 beyond rtol {mass_rtol}"
        )
    if float(np.min(m.values)) < -bound_tol or float(np.max(m.values)) > 1.0 + bound_tol:
        raise HypothesisViolationError("occupation function must satisfy 0 <= m <= 1")
    rho = m.spatial_density()
    edge = max(2, int(math.ceil(family.envelope_width / grid.spacing)))
    if float(np.max(rho[:edge], initial=0.0)) > 1e-9 or float(np.max(rho[-edge:], initial=0.0)) > 1e-9:
        raise HypothesisViolationError(
            "spatial density of m must vanish within an envelope width of the box edge"
        )

    h, dp = grid.spacing, momentum.cell_volume
    # one h from the x quadrature, one to convert the kernel to occupancy form
    coef = h * h * dp / (TWO_PI * family.hbar)
    # m is real: m_hat(x, d) is the conjugate of rfft bin d for d <= M/2 and
    # rfft bin M - d above; only the lags that are read are kept
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
    return OneBodyOperator(grid, out)


def hartree_energy(
    gamma: OneBodyOperator,
    potential: TrapPotential,
    w_n: ScaledInteraction | None,
    n_particles: int,
) -> dict:
    """hbar^2 tr(-Lap gamma) + tr(V gamma) - N^-1 * double integral (w_N * rho) rho.

    The Laplacian is the fixed 3-point lattice stencil; the interaction is a
    direct double quadrature of the scaled kernel against the operator's
    spatial density.
    """
    grid = gamma.grid
    hbar = float(n_particles) ** -1.0
    h = grid.spacing
    b = gamma.matrix
    hop = hbar**2 / h**2
    diag = np.real(np.diag(b))
    off = np.real(np.diag(b, 1))
    kinetic = hop * (2.0 * diag.sum() - 2.0 * off.sum())
    v = grid.sample(potential.evaluate)
    pot = float(v @ diag)
    inter = 0.0
    if w_n is not None:
        rho = diag / h
        inter = -float(rho @ w_n.pair_matrix(grid) @ rho) * h * h / n_particles
    return {
        "kinetic_term": float(kinetic),
        "potential_term": pot,
        "interaction_term": float(inter),
        "total": float(kinetic + pot + inter),
    }


# ---------------------------------------------------------------------------
# Smearing estimates and the error decomposition
# ---------------------------------------------------------------------------


def _convolve_same(a: Array, kernel: Array) -> Array:
    """``np.convolve(a, kernel, mode="same")`` for len(kernel) <= len(a), as
    one zero-padded rfft product (a linear, not periodic, convolution)."""
    n_full = a.size + kernel.size - 1
    n_fft = 1 << (n_full - 1).bit_length()
    full = np.fft.irfft(np.fft.rfft(a, n_fft) * np.fft.rfft(kernel, n_fft), n_fft)
    start = (kernel.size - 1) // 2
    return full[start : start + a.size]


def smearing_errors(
    w_eval,
    support_radius: float,
    hbar_x_values,
    n_points: int = 1 << 15,
) -> list[dict]:
    """L1 smearing defect of a kernel under single and double envelope blur.

    For each hbar_x: err = || w - w * phi (* phi) ||_L1 with phi = |f^h|^2,
    reported together with the ratios err / (sqrt(hbar_x) * ||w'||_L1). The
    gradient norm is the fine-grid total variation, so kernels with steep
    edges are handled verbatim.
    """
    records = []
    for hbar_x in hbar_x_values:
        s = math.sqrt(float(hbar_x))
        extent = support_radius + 3.0 * s + 0.1 * support_radius
        h = 2.0 * extent / n_points
        y = -extent + h * (np.arange(n_points) + 0.5)
        w_vals = np.asarray(w_eval(y[:, None]), dtype=float)
        n_phi = int(2 * math.ceil(s / h)) + 1
        u = (np.arange(n_phi) - (n_phi - 1) / 2) * h / s
        phi = envelope(u) ** 2 / s
        phi = phi / (phi.sum() * h)  # unit mass on the grid
        once = _convolve_same(w_vals, phi) * h
        twice = _convolve_same(once, phi) * h
        grad_l1 = float(np.sum(np.abs(np.diff(w_vals))))
        err1 = float(np.sum(np.abs(w_vals - once)) * h)
        err2 = float(np.sum(np.abs(w_vals - twice)) * h)
        denom = s * grad_l1
        records.append(
            {
                "hbar_x": float(hbar_x),
                "error_single": err1,
                "error_double": err2,
                "grad_l1": grad_l1,
                "ratio_single": err1 / denom,
                "ratio_double": err2 / denom,
            }
        )
    return records


@dataclass
class SemiclassicalErrorReport:
    kinetic_husimi: float
    kinetic_spectral: float
    measured_correction: float
    expected_correction: float
    potential_husimi: float
    potential_operator: float
    potential_gap: float
    potential_gap_scale: float
    smearing: list[dict]


def semiclassical_error_decomposition(
    gamma: OneBodyOperator,
    family: CoherentFamily,
    potential: TrapPotential,
    w_n: ScaledInteraction | None = None,
    hbar_x_values=(1e-2, 1e-3, 1e-4),
) -> SemiclassicalErrorReport:
    """Split the Husimi-level energy from the operator-level energy.

    The kinetic gap is the exact identity
    ``(2 pi hbar)^-d * integral |p|^2 m - tr(-hbar^2 Lap gamma)
      = N * hbar_p * ||grad f||^2``
    (per particle after dividing by N); the operator kinetic trace is taken
    in the same momentum representation, so the identity is clean of stencil
    artifacts. The potential gap is reported against its sqrt(hbar_x) scale,
    and the kernel smearing table carries fitted constants per hbar_x.
    """
    grid = gamma.grid
    momentum = brillouin_momentum_grid(grid, family.hbar)
    table = husimi_grid_table(gamma, family, momentum)
    n = family.n_particles
    hbar = family.hbar
    h, dp = grid.spacing, momentum.cell_volume
    p2 = momentum.axis() ** 2
    kin_husimi = float((table.values @ p2).sum() * h * dp) / (TWO_PI * hbar)
    t_gamma = momentum_density(gamma, hbar, momentum)
    kin_spectral = float((t_gamma * p2).sum() * dp)
    measured = (kin_husimi - kin_spectral) / n
    expected = family.hbar_p * envelope_gradient_norm_sq()

    v = grid.sample(potential.evaluate)
    rho_blur = (table.values.sum(axis=1) * dp) / (TWO_PI * hbar)  # rho_gamma * |f^h|^2
    pot_husimi = float((v * rho_blur).sum() * h)
    pot_operator = float(v @ np.real(np.diag(gamma.matrix)))
    gap = abs(pot_husimi - pot_operator)
    gap_scale = math.sqrt(family.hbar_x) * n ** (1.0 + 0.5 * getattr(getattr(w_n, "profile", None), "beta", 0.0))

    smearing = []
    if w_n is not None:
        smearing = smearing_errors(w_n.evaluate, w_n.support_radius, hbar_x_values)
    return SemiclassicalErrorReport(
        kinetic_husimi=kin_husimi,
        kinetic_spectral=kin_spectral,
        measured_correction=measured,
        expected_correction=expected,
        potential_husimi=pot_husimi,
        potential_operator=pot_operator,
        potential_gap=gap,
        potential_gap_scale=gap_scale,
        smearing=smearing,
    )
