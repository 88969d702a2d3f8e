"""Validated domain objects shared by every solver.

Contains the dimension guard, the two kinetic-coefficient conventions,
trapping potentials with sampled assumption checks, compactly supported
interaction profiles with their short-range scaling, uniform spatial
grids with the fixed quadrature rule, and the 1D lattice's one-body layer:
hbar = 1/N, the ``LatticeModel`` (one-body stencil and pair kernel, the energy
of any one-body matrix gamma) over which the oracle builds its Hamiltonian H,
and the occupancy-form ``OneBodyOperator`` with its Slater constructor.

Conventions
-----------
* Points are arrays of shape ``(n, d)``; scalar fields return ``(n,)``.
  Evaluators must be pointwise (value i depends on point i only), because
  ``SpatialGrid.blocks`` feeds them the grid in blocks of rows.
* Grids are uniform with ``M`` cell-centered points per axis and spacing
  ``h = 2 * half_width / M``; integrals are the equal-weight rule
  ``h**d * sum(values)`` (the trapezoid value for densities vanishing on
  the box boundary).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, ValidationError

Array = np.ndarray

# Slack used when checking nonnegativity / bounds on sampled probe points.
_PROBE_SLACK = 1e-9
# The probe grid of TrapPotential: points per axis on [-radius, radius]^d.
_PROBE_RADIUS = 8.0
_PROBE_POINTS = 41
# Points per block of SpatialGrid.blocks and of the Thomas-Fermi solver's
# blocked passes: 128 KiB per float64 temporary.
SAMPLE_BLOCK_POINTS = 1 << 14


@dataclass(frozen=True)
class Dimension:
    """Spatial dimension, restricted to 1 or 2.

    In three or more dimensions the Thomas-Fermi energy with an attractive
    quadratic term is unbounded below, so construction is rejected.
    """

    d: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValidationError(
                f"dimension d={self.d} rejected: only d=1 and d=2 are supported "
                "(the energy functional is unbounded below for d>=3)"
            )


class ConstantsSource(str, Enum):
    PAPER_LITERAL = "paper_literal"
    BATHTUB_CONSISTENT = "bathtub_consistent"


def fermi_radius_coefficient(d: int) -> float:
    """Coefficient c_d with ``rho = (2*pi)^-d * |ball(c_d * rho^(1/d))|``."""
    Dimension(d)
    return math.pi if d == 1 else math.sqrt(4.0 * math.pi)


def _ball_volume(d: int, radius: Array) -> Array:
    """|ball(radius)| in d = 1 or 2 dimensions, per radius."""
    if d == 1:
        return 2.0 * radius
    return math.pi * radius**2


def _ball_p2_integral(d: int, radius: Array) -> Array:
    """Integral of |p|^2 over ball(radius) in d = 1 or 2 dimensions, per radius."""
    if d == 1:
        return (2.0 / 3.0) * radius**3
    return (math.pi / 2.0) * radius**4


@dataclass(frozen=True)
class TFConstants:
    """Kinetic-energy coefficient convention for the density functional.

    ``paper_literal`` carries the literal constants pi^2 (d=1) and 8*pi
    (d=2). ``bathtub_consistent`` carries d*c_d^2/(d+2), the value forced
    by the phase-space bath-tub lift: with it the lift's kinetic energy
    equals ``c_tf * integral(rho^(1+2/d))`` exactly. The two differ by a
    factor 3 (d=1) resp. 4 (d=2); the library defaults to the bath-tub
    convention so that cross-checks between the density and phase-space
    functionals close exactly.
    """

    d: int
    c_tf: float
    c_d: float
    source: ConstantsSource

    def __post_init__(self):
        Dimension(self.d)

    @classmethod
    def paper_literal(cls, d: int) -> "TFConstants":
        c_tf = math.pi**2 if d == 1 else 8.0 * math.pi
        return cls(d, c_tf, fermi_radius_coefficient(d), ConstantsSource.PAPER_LITERAL)

    @classmethod
    def bathtub_consistent(cls, d: int) -> "TFConstants":
        c_d = fermi_radius_coefficient(d)
        c_tf = d * c_d**2 / (d + 2)
        return cls(d, c_tf, c_d, ConstantsSource.BATHTUB_CONSISTENT)

    @classmethod
    def from_source(cls, d: int, source: ConstantsSource | str) -> "TFConstants":
        source = ConstantsSource(source)
        if source is ConstantsSource.PAPER_LITERAL:
            return cls.paper_literal(d)
        return cls.bathtub_consistent(d)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform cell-centered grid on the box [-half_width, half_width]^d.

    Serves both position grids and momentum grids (``half_width`` is then a
    momentum cutoff).
    """

    d: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        Dimension(self.d)
        if self.points_per_axis < 2:
            raise ValidationError("grid needs at least 2 points per axis")
        if self.half_width <= 0:
            raise ValidationError("grid half_width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.d

    @property
    def size(self) -> int:
        return self.points_per_axis**self.d

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.d

    def axis(self, start: int = 0, stop: int | None = None) -> Array:
        """Cell centres ``start..stop-1`` along one axis (all of them by default)."""
        stop = self.points_per_axis if stop is None else stop
        return -self.half_width + self.spacing * (np.arange(start, stop) + 0.5)

    def _rows(self, start: int, stop: int) -> Array:
        """Points of axis-0 rows ``start..stop-1``, flattened C-order, shape (rows * M^(d-1), d)."""
        if self.d == 1:
            return self.axis(start, stop)[:, None]
        pts = np.empty((stop - start, self.points_per_axis, 2))
        pts[:, :, 0] = self.axis(start, stop)[:, None]
        pts[:, :, 1] = self.axis()
        return pts.reshape(-1, 2)

    def points(self) -> Array:
        """All grid points, flattened C-order, shape (M^d, d)."""
        return self._rows(0, self.points_per_axis)

    def blocks(self, fn: Callable[[Array], Array]) -> Iterator[tuple[slice, Array]]:
        """``(b, fn(self.points()[b]))`` over consecutive blocks of axis-0 rows.

        ``fn`` must be pointwise: it maps an (n, d) array of points to the
        (n,) values at those points, each value depending on its own point
        only (every potential and interaction evaluator in this package is).
        The point table is then never formed whole: each block holds about
        ``SAMPLE_BLOCK_POINTS`` points, so a pass over the blocks needs
        O(block) scratch. Each yielded value array is fresh and may be
        overwritten.
        """
        m = self.points_per_axis
        row_size = self.size // m
        rows = max(1, SAMPLE_BLOCK_POINTS // row_size)
        for start in range(0, m, rows):
            stop = min(start + rows, m)
            values = np.asarray(fn(self._rows(start, stop)), dtype=float)
            if values.shape != ((stop - start) * row_size,):
                raise ValidationError("a pointwise evaluator must map (n, d) points to (n,) values")
            yield slice(start * row_size, stop * row_size), values

    def sample(self, fn: Callable[[Array], Array]) -> Array:
        """``fn(self.points())`` as a float array, filled block by block from ``blocks``."""
        out = np.empty(self.size)
        for b, values in self.blocks(fn):
            out[b] = values
        return out

    def integrate(self, values: Array) -> float:
        return float(self.cell_volume * np.sum(values))

    def refine(self, factor: int = 2) -> "SpatialGrid":
        return SpatialGrid(self.d, self.half_width, self.points_per_axis * factor)


@dataclass(frozen=True)
class TrapPotential:
    """Confining potential with sampled growth and gradient checks.

    The evaluator and gradient are user code and must be pointwise (see
    ``SpatialGrid.blocks``), so the assumptions
    ``V >= 0``, ``V(x) >= growth_constant*|x|^s - growth_offset`` and
    ``|grad V(x)| <= gradient_constant*(|x|^(s-1)+1)`` are checked on a
    probe grid at construction rather than symbolically.
    """

    d: int
    evaluate: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    growth_exponent: float
    growth_constant: float
    growth_offset: float
    gradient_constant: float
    name: str = "custom"

    def __post_init__(self):
        Dimension(self.d)
        if self.growth_exponent <= 0:
            raise ValidationError("growth exponent s must be positive")
        self._probe_check()

    def _probe_check(self):
        pts = _probe_grid(self.d, _PROBE_RADIUS, _PROBE_POINTS)
        v = np.asarray(self.evaluate(pts), dtype=float)
        if v.shape != (pts.shape[0],):
            raise ValidationError("potential evaluator must map (n, d) to (n,)")
        if np.any(v < -_PROBE_SLACK):
            raise ValidationError(f"potential '{self.name}' is negative on the probe grid")
        r = np.linalg.norm(pts, axis=1)
        lower = self.growth_constant * r**self.growth_exponent - self.growth_offset
        if np.any(v < lower - _PROBE_SLACK * (1.0 + np.abs(lower))):
            raise ValidationError(
                f"potential '{self.name}' violates the growth bound "
                f"C|x|^s - c with C={self.growth_constant}, c={self.growth_offset}"
            )
        g = np.asarray(self.gradient(pts), dtype=float)
        if g.shape != pts.shape:
            raise ValidationError("potential gradient must map (n, d) to (n, d)")
        gnorm = np.linalg.norm(g, axis=1)
        bound = self.gradient_constant * (r ** (self.growth_exponent - 1.0) + 1.0)
        if np.any(gnorm > bound * (1.0 + _PROBE_SLACK) + _PROBE_SLACK):
            raise ValidationError(
                f"potential '{self.name}' violates the gradient bound "
                f"C(|x|^(s-1)+1) with C={self.gradient_constant}"
            )


def _probe_grid(d: int, radius: float, points: int) -> Array:
    ax = np.linspace(-radius, radius, points)
    if d == 1:
        return ax[:, None]
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _squared_norm(pts: Array) -> Array:
    """``|x|^2`` per row of an (n, d) point array, d in {1, 2}.

    Bitwise equal to ``np.sum(pts**2, axis=1)``, whose reduction over two
    columns adds them in the same order, without the strided reduction.
    """
    sq = pts * pts
    return sq[:, 0] + sq[:, 1] if sq.shape[1] == 2 else sq[:, 0]


def harmonic_potential(d: int, stiffness: float = 1.0) -> TrapPotential:
    """V(x) = stiffness * |x|^2."""
    a = float(stiffness)

    def ev(pts):
        return a * _squared_norm(pts)

    def gr(pts):
        return 2.0 * a * pts

    return TrapPotential(d, ev, gr, 2.0, a, 0.0, 2.0 * a, name="harmonic")


def quartic_potential(d: int, stiffness: float = 1.0) -> TrapPotential:
    """V(x) = stiffness * |x|^4."""
    a = float(stiffness)

    def ev(pts):
        return a * _squared_norm(pts) ** 2

    def gr(pts):
        return 4.0 * a * _squared_norm(pts)[:, None] * pts

    return TrapPotential(d, ev, gr, 4.0, a, 0.0, 4.0 * a, name="quartic")


def double_well_potential(d: int, well_radius: float = 1.0, stiffness: float = 1.0) -> TrapPotential:
    """V(x) = stiffness * (|x|^2 - well_radius^2)^2, two wells at |x| = well_radius."""
    a = float(stiffness)
    b2 = float(well_radius) ** 2

    def ev(pts):
        return a * (_squared_norm(pts) - b2) ** 2

    def gr(pts):
        return 4.0 * a * (_squared_norm(pts) - b2)[:, None] * pts

    # (r^2-b^2)^2 >= r^4/2 - 2 b^4;  |grad| = 4a r |r^2-b^2| <= 4a(1+b^2)(r^3+1)
    return TrapPotential(
        d, ev, gr, 4.0, a / 2.0, 2.0 * a * b2**2, 4.0 * a * (1.0 + b2), name="double_well"
    )


def theorem_beta_limit(d: int) -> float:
    """Largest scaling exponent covered by the two-sided energy asymptotics."""
    return 2.0 / (d * (2 * d + 1))


@dataclass(frozen=True)
class InteractionProfile:
    """Nonnegative, compactly supported interaction profile w.

    ``i_w`` is the integral of w. ``beta`` is the short-range exponent; it
    must lie in (0, 1/d). Values at or above ``theorem_beta_limit(d)`` lie
    outside the range of the two-sided energy theorem (the upper bound alone
    still applies), and the CLI warns about them.
    """

    d: int
    evaluate: Callable[[Array], Array]
    support_radius: float
    beta: float
    i_w: float
    name: str = "custom"

    def __post_init__(self):
        Dimension(self.d)
        if not (0.0 < self.beta < 1.0 / self.d):
            raise ValidationError(
                f"beta={self.beta} rejected: the short-range exponent must lie in "
                f"(0, 1/d) = (0, {1.0 / self.d})"
            )
        if self.support_radius <= 0 or not math.isfinite(self.support_radius):
            raise ValidationError("interaction profile must have finite support radius")
        if self.i_w < 0:
            raise ValidationError("interaction integral must be nonnegative")

    def check_subcritical(self, constants: TFConstants):
        """In 2D the attractive coupling must stay below c_tf."""
        if self.d == 2 and self.i_w >= constants.c_tf:
            raise ValidationError(
                f"interaction integral I_w={self.i_w:.6g} rejected: in d=2 it must be "
                f"below c_tf={constants.c_tf:.6g} ({constants.source.value}) or the "
                "energy is unbounded below"
            )


@dataclass(frozen=True)
class ScaledInteraction:
    """Short-range rescaling w_N = N^(d*beta) * w(N^beta x) of a profile.

    The rescaling preserves the integral: ``i_w`` of the scaled kernel
    equals that of the profile, while the support shrinks to
    ``R_w * N^-beta`` and the amplitude grows as ``N^(d*beta)``. Every grid
    pair sum reads the one sample of w_N on lattice offsets, ``stencil``.
    """

    profile: InteractionProfile
    n_particles: int

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValidationError("particle count must be >= 1")

    @property
    def length_factor(self) -> float:
        return float(self.n_particles) ** self.profile.beta

    @property
    def amplitude(self) -> float:
        return float(self.n_particles) ** (self.profile.d * self.profile.beta)

    @property
    def support_radius(self) -> float:
        return self.profile.support_radius / self.length_factor

    @property
    def i_w(self) -> float:
        return self.profile.i_w

    def evaluate(self, points: Array) -> Array:
        return self.amplitude * self.profile.evaluate(np.asarray(points) * self.length_factor)

    def stencil(self, grid: SpatialGrid) -> Array:
        """w_N(o h) on the offsets |o_i| <= reach = min(floor(R_N / h) + 1, M - 1), entry reach + o per axis,
        zero beyond R_N, which is tested as the profile tests it: |o h| N^beta <= R_w."""
        reach = min(int(math.floor(self.support_radius / grid.spacing)) + 1, grid.points_per_axis - 1)
        axis = np.arange(-reach, reach + 1) * grid.spacing
        offsets = np.stack(np.meshgrid(*[axis] * grid.d, indexing="ij"), axis=-1).reshape(-1, grid.d)
        inside = np.linalg.norm(offsets * self.length_factor, axis=1) <= self.profile.support_radius
        values = np.zeros(offsets.shape[0])
        values[inside] = self.evaluate(offsets[inside])
        return values.reshape((2 * reach + 1,) * grid.d)

    def convolve(self, grid: SpatialGrid, values: Array) -> Array:
        """(w_N * a)(x) = sum_y w_N(x - y) a(y) on a 1D or 2D grid, flattened C-order."""
        return _convolve_same(np.reshape(values, grid.shape), self.stencil(grid)).ravel()

    def density_pair_sum(self, grid: SpatialGrid, values: Array) -> float:
        """sum_(x, y) w_N(x - y) a(x) a(y) = a . (w_N * a) over the sites of a 1D or 2D grid.

        The mean-field pair energy -double integral w_N rho rho is minus this
        sum over the cell masses a = rho h^d; in the local limit it tends to
        -I_w integral rho^2, twice the lattice side's -N^-1 sum_(j<k) w_N.
        """
        return float(np.ravel(values) @ self.convolve(grid, values))


def _convolve_same(a: Array, kernel: Array) -> Array:
    """The linear (not periodic) convolution of ``a`` with an odd-sided kernel of any size over every
    axis, cropped to a's shape with the kernel centred, from one zero-padded rfftn product."""
    axes = tuple(range(a.ndim))
    size = [1 << (n + k - 2).bit_length() for n, k in zip(a.shape, kernel.shape)]
    full = np.fft.irfftn(np.fft.rfftn(a, size, axes) * np.fft.rfftn(kernel, size, axes), size, axes)
    return full[tuple(slice((k - 1) // 2, (k - 1) // 2 + n) for n, k in zip(a.shape, kernel.shape))]


def scaled_interaction(profile: InteractionProfile, n_particles: int) -> ScaledInteraction:
    """Attach the mass-preserving short-range scaling to a profile."""
    return ScaledInteraction(profile, n_particles)


def semiclassical_hbar(n_particles: int) -> float:
    """hbar = 1/N, the one spelling of the semiclassical parameter of N particles in 1D."""
    return 1.0 / n_particles


@dataclass
class LatticeModel:
    """N spinless fermions on a 1D grid: the one-body stencil and the pair kernel.

    The 3-point -hbar^2 Laplacian with Dirichlet walls plus diagonal V, hbar = 1/N, and the
    pair energy -N^-1 sum_(j<k) w_N(x_j - x_k), whose lags w_N(d h) are the lags d >= 0 of
    ``w_n.stencil(grid)``; no energy read from them needs the C(M, N) basis.
    """

    grid: SpatialGrid
    potential: TrapPotential
    n_particles: int
    w_n: ScaledInteraction | None = None

    def __post_init__(self):
        if self.grid.d != 1:
            raise ValidationError("the many-body oracle supports d=1 only")
        m, n = self.grid.points_per_axis, self.n_particles
        if not (1 <= n <= m):
            raise ValidationError(f"need 1 <= N <= M, got N={n}, M={m}")

    @property
    def hbar(self) -> float:
        return semiclassical_hbar(self.n_particles)

    @property
    def hop(self) -> float:
        """hbar^2 / h^2, the magnitude of every off-diagonal entry of the stencil (each one is -hop)."""
        return self.hbar**2 / self.grid.spacing**2

    def one_body_diagonals(self) -> tuple[Array, Array]:
        """Main and off diagonal of the tridiagonal one-body matrix."""
        diag = 2.0 * self.hop + self.grid.sample(self.potential.evaluate)
        return diag, np.full(self.grid.points_per_axis - 1, -self.hop)

    def orbitals(self, k: int) -> tuple[Array, Array]:
        """The k lowest one-body eigenvalues and eigenvector columns, by bisection and inverse iteration."""
        from scipy.linalg import eigh_tridiagonal

        return eigh_tridiagonal(*self.one_body_diagonals(), select="i", select_range=(0, k - 1))

    def one_body_traces(self, gamma: Array) -> tuple[float, float]:
        """(tr(T gamma), tr(V gamma)) from gamma's diagonal and upper off-diagonal (gamma Hermitian)."""
        diag = np.real(np.diag(gamma))
        off = np.real(np.diag(gamma, 1))
        kinetic = self.hop * (2.0 * diag.sum() - 2.0 * off.sum())
        return float(kinetic), float(self.grid.sample(self.potential.evaluate) @ diag)

    def exchange_sum(self, gamma: Array) -> float:
        """sum_(i, j) w_N(x_i - x_j) |gamma_ij|^2: w_N(|d| h) times the squared norm
        of gamma's d-th diagonal, summed over the stencil's lags d where w_N is nonzero."""
        stencil = self.w_n.stencil(self.grid)
        table = stencil[stencil.size // 2 :]  # w_N(d h), d = 0..reach
        lags = [d for d in range(1 - table.size, table.size) if table[abs(d)]]
        return float(sum(table[abs(d)] * np.linalg.norm(np.diagonal(gamma, d)) ** 2 for d in lags))

    def direct_sum(self, gamma: Array) -> float:
        """sum_(i, j) w_N(x_i - x_j) nu_i nu_j for nu = diag gamma (``density_pair_sum``); 0 without w_N."""
        if self.w_n is None:
            return 0.0
        return self.w_n.density_pair_sum(self.grid, np.real(np.diag(gamma)))

    def energy(self, gamma: Array) -> float:
        """tr(T gamma) + tr(V gamma) - (direct_sum - exchange_sum) / (2N) for a Hermitian gamma.

        For a Slater projector gamma = U U^H, Wick's rule gives <n_i n_j> = nu_i nu_j - |gamma_ij|^2,
        so this is the determinant's exact lattice energy, whose i = j pair terms cancel (no
        self-interaction). Every term reads gamma's diagonals; no M x M array is formed.
        """
        kinetic, pot = self.one_body_traces(gamma)
        if self.w_n is None:
            return kinetic + pot
        return kinetic + pot - 0.5 * (self.direct_sum(gamma) - self.exchange_sum(gamma)) / self.n_particles


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


def slater_operator(orbitals: Array, grid: SpatialGrid) -> OneBodyOperator:
    """gamma = sum_a |u_a><u_a| for plainly orthonormal orbital columns."""
    n = orbitals.shape[1]
    overlap = orbitals.T.conj() @ orbitals
    if not np.allclose(overlap, np.eye(n), atol=1e-8):
        raise ValidationError("orbital columns must be orthonormal")
    return OneBodyOperator(grid, orbitals @ orbitals.T.conj())


def box_profile(d: int, beta: float, radius: float = 1.0, height: float = 1.0) -> InteractionProfile:
    """w = height on the ball |x| <= radius, with its analytic integral."""
    r, c = float(radius), float(height)

    def ev(pts):
        return np.where(np.linalg.norm(pts, axis=1) <= r, c, 0.0)

    i_w = 2.0 * r * c if d == 1 else math.pi * r**2 * c
    return InteractionProfile(d, ev, r, beta, i_w, name="box")


def hat_profile(beta: float, radius: float = 1.0, height: float = 1.0) -> InteractionProfile:
    """1D tent w(x) = height * (1 - |x|/radius)_+ with its analytic integral."""
    r, c = float(radius), float(height)

    def ev(pts):
        return c * np.clip(1.0 - np.abs(pts[:, 0]) / r, 0.0, None)

    return InteractionProfile(1, ev, r, beta, r * c, name="hat")


def _mollifier(u: Array) -> Array:
    out = np.zeros_like(u, dtype=float)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui**2))
    return out


def bump_profile(d: int, beta: float, radius: float = 1.0, height: float = 1.0) -> InteractionProfile:
    """Smooth compactly supported radial bump, w(0) = height."""
    r, c = float(radius), float(height)

    def ev(pts):
        return c * _mollifier(np.linalg.norm(pts, axis=1) / r)

    if d == 1:  # midpoint rule on the support, 8192 points
        grid = SpatialGrid(1, r, 8192)
        i_w = grid.integrate(grid.sample(ev))
    else:  # radial: 2 pi * integral_0^r s w(s) ds, 200-node Gauss-Legendre on [0, r]
        nodes, weights = np.polynomial.legendre.leggauss(200)
        s = 0.5 * r * (nodes + 1.0)
        i_w = math.pi * r * float(weights @ (s * ev(np.column_stack([s, np.zeros_like(s)]))))
    return InteractionProfile(d, ev, r, beta, i_w, name="bump")


def _smoothstep(u: Array) -> Array:
    """C^1 ramp: 0 for u<=0, 1 for u>=1, 3u^2-2u^3 between."""
    t = np.clip(u, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def plateau_profile(
    beta: float, radius: float = 0.5, edge_width: float = 1e-3, height: float = 1.0
) -> InteractionProfile:
    """1D plateau of the given height with steep smoothed cliffs.

    The cliffs of width ``edge_width`` make the kernel's variation live at
    a single short scale, which is what the square-root smearing envelope
    is sharp against.
    """
    r, eps, c = float(radius), float(edge_width), float(height)

    def ev(pts):
        x = np.abs(pts[:, 0])
        return c * _smoothstep((r - x) / eps)

    i_w = 2.0 * c * (r - eps / 2.0)  # each ramp integrates to c*eps/2
    return InteractionProfile(1, ev, r, beta, i_w, name="plateau")


def audit_constants(d: int) -> dict:
    """Compare the two c_tf conventions on a probe density.

    Reports, for each convention, c_tf and the value of
    ``c_tf * integral(rho^(1+2/d))``, next to the kinetic energy of the
    phase-space bath-tub lift of the same density (computed with the
    closed-form ball integrals). The report exposes the mismatch without
    deciding which convention is intended. The probe density is a
    mollifier bump of unit mass on a fixed grid.
    """
    grid = SpatialGrid(d, 4.0, 256 if d == 1 else 96)
    pts = grid.points()
    raw = _mollifier(np.linalg.norm(pts, axis=1) / (0.75 * grid.half_width))
    rho = raw / grid.integrate(raw)

    paper = TFConstants.paper_literal(d)
    bathtub = TFConstants.bathtub_consistent(d)
    power_int = grid.integrate(rho ** (1.0 + 2.0 / d))
    c_d = fermi_radius_coefficient(d)
    # (2 pi)^-d * integral over |p| <= c_d rho^(1/d) of |p|^2 dp, per point
    lift_kinetic = grid.integrate(_ball_p2_integral(d, c_d * rho ** (1.0 / d))) / (2.0 * math.pi) ** d
    report = {
        "d": d,
        "c_d": c_d,
        "probe_power_integral": power_int,
        "bathtub_lift_kinetic": lift_kinetic,
        "conventions": {},
    }
    for constants in (paper, bathtub):
        term = constants.c_tf * power_int
        report["conventions"][constants.source.value] = {
            "c_tf": constants.c_tf,
            "kinetic_term": term,
            "ratio_to_lift": term / lift_kinetic,
        }
    return report


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

_POTENTIAL_FAMILIES = {
    "harmonic": harmonic_potential,
    "quartic": quartic_potential,
    "double_well": double_well_potential,
}


def potential_from_config(cfg: dict, d: int) -> TrapPotential:
    family = cfg.get("family")
    if family not in _POTENTIAL_FAMILIES:
        raise ConfigError(
            f"unknown potential family {family!r}; choose from {sorted(_POTENTIAL_FAMILIES)}"
        )
    try:
        return _POTENTIAL_FAMILIES[family](d, **cfg.get("params", {}))
    except TypeError as exc:
        raise ConfigError(f"bad parameters for potential family {family!r}: {exc}") from None


def interaction_from_config(cfg: dict, d: int, beta: float, constants: TFConstants) -> InteractionProfile:
    family = cfg.get("family")
    params = dict(cfg.get("params", {}))
    try:
        if family == "box":
            profile = box_profile(d, beta, **params)
        elif family == "bump":
            profile = bump_profile(d, beta, **params)
        elif family == "hat":
            if d != 1:
                raise ConfigError("hat interaction profile is 1D only")
            profile = hat_profile(beta, **params)
        elif family == "plateau":
            if d != 1:
                raise ConfigError("plateau interaction profile is 1D only")
            profile = plateau_profile(beta, **params)
        else:
            raise ConfigError(
                f"unknown interaction family {family!r}; choose from "
                "['box', 'bump', 'hat', 'plateau']"
            )
    except TypeError as exc:
        raise ConfigError(f"bad parameters for interaction family {family!r}: {exc}") from None
    profile.check_subcritical(constants)
    return profile


@dataclass
class ModelConfig:
    """Validated contents of a run configuration file."""

    d: int
    potential: TrapPotential
    constants: TFConstants
    grid: SpatialGrid
    beta: float | None = None
    interaction: InteractionProfile | None = None
    n_particles: int | None = None
    raw: dict = field(default_factory=dict)


def read_config(path) -> dict:
    """The JSON object of a config file, not yet validated."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file must hold a JSON object, got {type(raw).__name__}")
    return raw


def load_config(path) -> ModelConfig:
    return config_from_dict(read_config(path))


def config_from_dict(raw: dict) -> ModelConfig:
    if "d" not in raw:
        raise ConfigError("config must set 'd'")
    try:
        d = Dimension(int(raw["d"])).d
    except (TypeError, ValueError):
        raise ConfigError(f"config 'd' must be an integer, got {raw['d']!r}") from None

    constants = TFConstants.from_source(d, raw.get("constants", "bathtub_consistent"))

    grid_cfg = raw.get("grid", {})
    grid = SpatialGrid(
        d,
        float(grid_cfg.get("half_width", 4.0)),
        int(grid_cfg.get("points_per_axis", 512 if d == 1 else 96)),
    )

    if "potential" not in raw:
        raise ConfigError("config must set 'potential'")
    potential = potential_from_config(raw["potential"], d)

    beta = raw.get("beta")
    interaction = None
    if "interaction" in raw:
        if beta is None:
            raise ConfigError("config with an interaction must set 'beta'")
        interaction = interaction_from_config(raw["interaction"], d, float(beta), constants)

    n_particles = raw.get("n_particles")
    if n_particles is not None:
        n_particles = int(n_particles)
        if n_particles < 1:
            raise ConfigError("n_particles must be >= 1")

    return ModelConfig(
        d=d,
        potential=potential,
        constants=constants,
        grid=grid,
        beta=None if beta is None else float(beta),
        interaction=interaction,
        n_particles=n_particles,
        raw=raw,
    )
