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
error. Every window f^h(y - x) samples f^h on the same 2r + 1 offsets,
r = ceil(sqrt(hbar_x) / h), and windows overlap only at lags |d| <= 2r, so a
Husimi table costs O(M r^2) plus one real M x M FFT, a momentum density O(M^2).
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
from .model import LatticeModel, OneBodyOperator, ScaledInteraction, SpatialGrid, TrapPotential, _convolve_same
from .model import _mollifier, semiclassical_hbar, slater_operator  # noqa: F401  (bench/ reads husimi.slater_operator)
from .vlasov import PhaseSpaceDensity, brillouin_momentum_grid

Array = np.ndarray

TWO_PI = 2.0 * math.pi

MIN_POINTS_PER_ENVELOPE = 8
# Points of the fine mesh on which smearing_errors blurs a kernel.
SMEARING_POINTS = 1 << 15
# How far the phase-space mass of a quantized lift may be from one unit.
MASS_RTOL = 0.02


def _mollifier_derivative(u: Array) -> Array:
    out = np.zeros_like(u, dtype=float)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = _mollifier(ui) * (-2.0 * ui / (1.0 - ui**2) ** 2)
    return out


@lru_cache(maxsize=1)
def _envelope_constants() -> tuple[float, float]:
    """(normalization c with ||c*bump||_L2 = 1, squared L2 norm of the gradient)."""
    mesh = SpatialGrid(1, 1.0, 1 << 17)
    u = mesh.axis()
    c = 1.0 / math.sqrt(mesh.integrate(_mollifier(u) ** 2))
    return c, mesh.integrate((c * _mollifier_derivative(u)) ** 2)


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

    def __post_init__(self):
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
        return semiclassical_hbar(self.n_particles)

    @classmethod
    def default(cls, n_particles: int, beta: float, hbar_x: float | None = None) -> "CoherentFamily":
        hbar = semiclassical_hbar(n_particles)
        if hbar_x is None:
            hbar_x = float(n_particles) ** (-beta - 1.0)
        return cls(n_particles, hbar_x, hbar**2 / hbar_x)

    @property
    def envelope_width(self) -> float:
        return 2.0 * math.sqrt(self.hbar_x)

    def check_resolution(self, grid: SpatialGrid):
        if grid.d != 1:
            raise ValidationError(f"the coherent frame is one-dimensional; got a {grid.d}D grid")
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
    family.check_resolution(grid)
    y = grid.axis()
    return family.envelope_at(y, x) * np.exp(1j * p * y / family.hbar)


def lowest_orbitals(grid: SpatialGrid, potential: TrapPotential, n: int, hbar: float) -> Array:
    """Columns = N lowest eigenvectors of the lattice one-body Hamiltonian (``LatticeModel.orbitals``).

    ``hbar`` must be the model's 1/n within 1e-12 relative, or ``ValidationError`` is raised.
    """
    if not 1 <= n <= grid.size:
        raise ValidationError(f"need 1 <= n <= {grid.size} orbitals, got {n}")
    model = LatticeModel(grid, potential, n)
    if not abs(hbar - model.hbar) <= 1e-12 * model.hbar:
        raise ValidationError(f"hbar={hbar!r} is not the lattice model's 1/n = {model.hbar!r} at n={n}")
    return model.orbitals(n)[1]


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


def _window(family: CoherentFamily, grid: SpatialGrid) -> tuple[Array, int]:
    """f^h(o h) on the offsets |o| <= r = ceil(sqrt(hbar_x) / h), and r: the grid is uniform and the
    envelope even, so every window W[x, y] = f^h(y - x) is ``window[r + o]`` at y = x + o h."""
    r = int(math.ceil(math.sqrt(family.hbar_x) / grid.spacing))
    return family.envelope_at(np.arange(-r, r + 1) * grid.spacing, 0.0), r


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
    and only lags |d| <= 2r carry windows that overlap. Each lag is one
    matvec against the same window product at every x, so the lags are
    O(M r^2) and the table is one real M x M FFT. ``momentum``
    defaults to the lattice-dual grid and must equal it (ValidationError
    otherwise).
    """
    grid = gamma.grid
    family.check_resolution(grid)
    window, r = _window(family, grid)
    size, width = grid.size, window.size
    lags = min(2 * r, size - 1)
    momentum, phases = _dual_lag_phases(grid, family.hbar, momentum, lags)
    lag = np.zeros((size, lags + 1), dtype=complex)
    for d in range(lags + 1):
        coupled = np.zeros(size, dtype=complex)  # phased B(j, j - d), zero for j < d
        coupled[d:] = phases[d] * _hermitian_lag(gamma.matrix, d)
        # W[x, j] W[x, j - d] at j = x + a + d - r; off-grid j reads a zero
        lag[:, d] = _neighbors(coupled, r)[:, d:] @ (window[d:] * window[: width - d])
    table = grid.spacing * _lag_spectrum(lag, size)
    return HusimiTable(x_axis=grid.axis(), p_axis=momentum.axis(), values=table)


def husimi_at_samples(gamma: OneBodyOperator, family: CoherentFamily, samples: Array, k: int = 1) -> Array:
    """Husimi values of a one-body operator at explicit phase-space samples.

    Samples have shape (n, 2) as (x, p) for k = 1 and (n, 4) as (x1, p1, x2, p2)
    for k = 2. Each sample builds its k coherent states and applies the matrix
    B of ``gamma`` to each once: m1(z) = h <f_z| B |f_z>, and for k = 2 the
    Wick rule of a Slater-type gamma^(2) = gamma (x) gamma (1 - Ex) gives
    m2(z1, z2) = m1(z1) m1(z2) - |h <f_z1| B |f_z2>|^2.
    """
    if k not in (1, 2):
        raise ValidationError(f"Husimi values of an operator need k in {{1, 2}}, got k={k}")
    samples = np.asarray(samples, dtype=float)
    grid = gamma.grid
    h = grid.spacing
    out = np.zeros(samples.shape[0])
    for idx, row in enumerate(samples):
        fs = [coherent_state(x, p, family, grid) for x, p in row.reshape(k, 2)]
        applied = [gamma.matrix @ f for f in fs]
        m1 = [np.real(h * (f.conj() @ g)) for f, g in zip(fs, applied)]
        out[idx] = m1[0] if k == 1 else m1[0] * m1[1] - np.abs(h * (fs[0].conj() @ applied[1])) ** 2
    return out


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
    window, r = _window(family, grid)
    return TWO_PI * family.hbar * grid.spacing * (_neighbors(np.ones(grid.size), r) @ window**2) * psi


def momentum_density(gamma: OneBodyOperator, hbar: float) -> Array:
    """t_gamma(p) = h / (2 pi hbar) * sum_{y, y'} exp(-i p (y - y') / hbar) B(y, y').

    This is sum_a lambda_a |F[u_a](p)|^2 over the eigenpairs of the
    Hermitian part of B, with F[u](p) = (2 pi hbar)^(-1/2) * h * sum_y u(y)
    exp(-i p y / hbar) on the lattice-dual grid of the operator's 1D grid
    (ValidationError in 2D), but it is computed without them: the diagonal
    sums of B over all M lags, O(M^2), then one FFT. It integrates to the
    trace.
    """
    grid = gamma.grid
    if grid.d != 1:
        raise ValidationError(f"momentum densities are taken on 1D grids; got a {grid.d}D grid")
    _, phases = _dual_lag_phases(grid, hbar, None, grid.size - 1)
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
    window, r = _window(family, grid)
    rho1 = np.real(np.diag(gamma.matrix)) / h
    rhs_rho = (_neighbors(rho1, r) @ window**2) * h
    space_gap = float(np.sum(np.abs(lhs_rho - rhs_rho)) * h)

    lhs_t = n / TWO_PI * table.values.sum(axis=0) * h
    t_gamma = momentum_density(gamma, family.hbar)
    g2 = h * h / (TWO_PI * family.hbar) * np.abs(np.fft.fft(family.envelope_at(y, 0.0))) ** 2
    conv = np.fft.irfft(np.fft.rfft(t_gamma) * np.fft.rfft(g2), n=momentum.size) * dp
    momentum_gap = float(np.sum(np.abs(lhs_t - conv)) * dp)
    return {
        "space_l1_gap": space_gap,
        "momentum_l1_gap": momentum_gap,
        "trace_normalized": table.phase_space_integral(grid, momentum) / (TWO_PI * family.hbar) / n,
    }


def gamma_from_measure(m: PhaseSpaceDensity, family: CoherentFamily) -> OneBodyOperator:
    """Coherent quantization of a bath-tub lift.

    B = (2 pi hbar)^-d * sum over the product grid of
    ``m(x, p) |f_{x,p}><f_{x,p}| h dp``, on the lattice-dual momentum grid
    (ValidationError for any other ``m.momentum``). Hypotheses checked: the
    phase-space mass equals one particle-normalized unit (double integral
    (2 pi)^d) within ``MASS_RTOL``, and the spatial density vanishes near
    the box edge so the frame truncation is inert (0 <= m <= 1 holds for a
    lift). The result satisfies 0 <= B <= 1 up to quadrature and has trace N
    up to the mass defect.

    With m_hat(x, d) = sum_k m(x, p_k) exp(2 pi i kd / M),
    B[j, j - d] = coef * exp(i p_0 d h / hbar) *
    sum_x f^h(x - y_j) f^h(x - y_(j-d)) m_hat(x, d). Row x of the lift is
    the band of n dual bins k_lo .. k_lo + n - 1 with |p_k| <= R(x), so
    m_hat(x, d) is the Dirichlet sum exp(i t (2 k_lo + n - 1)) sin(n t) /
    sin(t), t = pi d / M (n at d = 0), and no table is read. Windows more
    than 2r points apart do not overlap, so only lags d <= 2r are built,
    each one matvec of m_hat's neighbors against the window product,
    O(M r), and the upper triangle is the conjugate of the lower one.
    """
    grid = m.grid
    family.check_resolution(grid)
    window, r = _window(family, grid)
    size, width = grid.size, window.size
    lags = min(2 * r, size - 1)
    momentum, phases = _dual_lag_phases(grid, family.hbar, m.momentum, lags)
    # row x occupies the dual bins first[x] .. first[x] + count[x] - 1, ties with R included
    p = momentum.axis()
    first = np.searchsorted(p, -m.fermi_radius, "left")
    count = np.searchsorted(p, m.fermi_radius, "right") - first
    if not np.any(count):
        return OneBodyOperator(grid, np.zeros((size, size)))
    mass = m.normalization()
    if abs(mass - 1.0) > MASS_RTOL:
        raise HypothesisViolationError(
            f"phase-space mass {mass:.6g} deviates from 1 beyond rtol {MASS_RTOL}"
        )
    rho = m.spatial_density()
    edge = max(2, int(math.ceil(family.envelope_width / grid.spacing)))
    if float(np.max(rho[:edge], initial=0.0)) > 1e-9 or float(np.max(rho[-edge:], initial=0.0)) > 1e-9:
        raise HypothesisViolationError(
            "spatial density of m must vanish within an envelope width of the box edge"
        )

    h, dp = grid.spacing, momentum.cell_volume
    # one h from the x quadrature, one to convert the kernel to occupancy form
    coef = h * h * dp / (TWO_PI * family.hbar)
    t, turn = math.pi / size, 2 * size
    out = np.zeros((size, size), dtype=complex)
    for d in range(lags + 1):
        j = np.arange(d, size)
        # angles reduced mod 2 pi in integers, so their rounding does not grow with k or d
        dirichlet = np.sin(t * (d * count % turn)) / math.sin(t * d) if d else count
        m_hat = np.exp(1j * t * (d * (2 * first + count - 1) % turn)) * dirichlet
        # W[j, x] W[j - d, x] at x = j + a - r; off-grid x reads a zero
        near = _neighbors(m_hat, r)[d:, : width - d]
        lower = coef * np.conj(phases[d]) * (near @ (window[d:] * window[: width - d]))
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

    The one-body traces are those of the ``LatticeModel`` on the operator's
    grid; the interaction is -N^-1 times its ``direct_sum``, the mean-field
    pair sum, twice the direct part of ``LatticeModel.energy``.
    """
    model = LatticeModel(gamma.grid, potential, n_particles, w_n)
    kinetic, pot = model.one_body_traces(gamma.matrix)
    inter = -model.direct_sum(gamma.matrix) / n_particles
    return {
        "kinetic_term": kinetic,
        "potential_term": pot,
        "interaction_term": float(inter),
        "total": float(kinetic + pot + inter),
    }


# ---------------------------------------------------------------------------
# Smearing estimates and the error decomposition
# ---------------------------------------------------------------------------


def smearing_errors(w_eval, support_radius: float, hbar_x_values) -> list[dict]:
    """L1 smearing defect of a kernel under single and double envelope blur.

    For each hbar_x: err = || w - w * phi (* phi) ||_L1 with phi = |f^h|^2,
    reported together with the ratios err / (sqrt(hbar_x) * ||w'||_L1). The
    gradient norm is the fine-grid total variation, so kernels with steep
    edges are handled verbatim. Each hbar_x gets its own mesh of
    ``SMEARING_POINTS`` points; ``w_eval`` must be pointwise. Every hbar_x
    must be positive (ValidationError otherwise).
    """
    records = []
    for hbar_x in hbar_x_values:
        if not hbar_x > 0:
            raise ValidationError(f"smearing scales must be positive, got hbar_x={hbar_x}")
        s = math.sqrt(float(hbar_x))
        mesh = SpatialGrid(1, support_radius + 3.0 * s + 0.1 * support_radius, SMEARING_POINTS)
        h = mesh.spacing
        w_vals = mesh.sample(w_eval)
        n_phi = int(2 * math.ceil(s / h)) + 1
        u = (np.arange(n_phi) - (n_phi - 1) / 2) * h / s
        phi = envelope(u) ** 2 / s
        phi = phi / (phi.sum() * h)  # unit mass on the grid
        once = _convolve_same(w_vals, phi) * h
        twice = _convolve_same(once, phi) * h
        grad_l1 = float(np.sum(np.abs(np.diff(w_vals))))
        err1 = mesh.integrate(np.abs(w_vals - once))
        err2 = mesh.integrate(np.abs(w_vals - twice))
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
    t_gamma = momentum_density(gamma, hbar)
    kin_spectral = float((t_gamma * p2).sum() * dp)
    measured = (kin_husimi - kin_spectral) / n
    expected = family.hbar_p * envelope_gradient_norm_sq()

    v = grid.sample(potential.evaluate)
    rho_blur = (table.values.sum(axis=1) * dp) / (TWO_PI * hbar)  # rho_gamma * |f^h|^2
    pot_husimi = float((v * rho_blur).sum() * h)
    pot_operator = float(v @ np.real(np.diag(gamma.matrix)))
    gap = abs(pot_husimi - pot_operator)
    beta = 0.0 if w_n is None else w_n.profile.beta
    gap_scale = math.sqrt(family.hbar_x) * n ** (1.0 + 0.5 * beta)

    smearing = []
    if w_n is not None:
        smearing = smearing_errors(w_n.evaluate, w_n.support_radius, hbar_x_values)
    return SemiclassicalErrorReport(
        kinetic_husimi=kin_husimi,
        kinetic_spectral=kin_spectral,
        measured_correction=measured,
        expected_correction=expected,
        potential_operator=pot_operator,
        potential_gap=gap,
        potential_gap_scale=gap_scale,
        smearing=smearing,
    )
