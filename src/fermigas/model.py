"""Validated domain objects shared by every solver.

Contains the dimension guard, the two kinetic-coefficient conventions,
trapping potentials with sampled assumption checks, compactly supported
interaction profiles with their short-range scaling, and uniform spatial
grids with the fixed quadrature rule.

Conventions
-----------
* Points are arrays of shape ``(n, d)``; scalar fields return ``(n,)``.
  Evaluators must be pointwise (value i depends on point i only), because
  ``SpatialGrid.sample`` feeds them the grid in blocks of rows.
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
from typing import Callable

import numpy as np

from .errors import ConfigError, ValidationError

Array = np.ndarray

# Slack used when checking nonnegativity / bounds on sampled probe points.
_PROBE_SLACK = 1e-9
# Points per block of SpatialGrid.sample and of the Thomas-Fermi solver's
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

    def axis(self) -> Array:
        h = self.spacing
        return -self.half_width + h * (np.arange(self.points_per_axis) + 0.5)

    def _rows(self, ax: Array, start: int, stop: int) -> Array:
        """Points of axis-0 rows ``start..stop-1``, flattened C-order, shape (rows * M^(d-1), d)."""
        if self.d == 1:
            return ax[start:stop, None]
        pts = np.empty((stop - start, ax.size, 2))
        pts[:, :, 0] = ax[start:stop, None]
        pts[:, :, 1] = ax
        return pts.reshape(-1, 2)

    def points(self) -> Array:
        """All grid points, flattened C-order, shape (M^d, d)."""
        return self._rows(self.axis(), 0, self.points_per_axis)

    def sample(self, fn: Callable[[Array], Array]) -> Array:
        """``fn(self.points())`` as a float array, evaluated over blocks of rows.

        ``fn`` must be pointwise: it maps an (n, d) array of points to the
        (n,) values at those points, each value depending on its own point
        only (every potential and interaction evaluator in this package is).
        The point table is then never formed whole: each block holds about
        ``SAMPLE_BLOCK_POINTS`` points, so the scratch stays O(block) beside
        the one output array.
        """
        ax = self.axis()
        m = self.points_per_axis
        row_size = self.size // m
        rows = max(1, SAMPLE_BLOCK_POINTS // row_size)
        out = np.empty(self.size)
        for start in range(0, m, rows):
            stop = min(start + rows, m)
            values = np.asarray(fn(self._rows(ax, start, stop)), dtype=float)
            if values.shape != ((stop - start) * row_size,):
                raise ValidationError("a pointwise evaluator must map (n, d) points to (n,) values")
            out[start * row_size : stop * row_size] = values
        return out

    def integrate(self, values: Array) -> float:
        return float(self.cell_volume * np.sum(values))

    def refine(self, factor: int = 2) -> "SpatialGrid":
        return SpatialGrid(self.d, self.half_width, self.points_per_axis * factor)


@dataclass(frozen=True)
class TrapPotential:
    """Confining potential with sampled growth and gradient checks.

    The evaluator and gradient are user code and must be pointwise (see
    ``SpatialGrid.sample``), so the assumptions
    ``V >= 0``, ``V(x) >= growth_constant*|x|^s - growth_offset`` and
    ``|grad V(x)| <= gradient_constant*(|x|^(s-1)+1)`` are checked on a
    probe grid at construction rather than symbolically. ``flat_spots_null``
    asserts that level sets of V carry no volume, required by the 1D solver.
    """

    d: int
    evaluate: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    growth_exponent: float
    growth_constant: float
    growth_offset: float
    gradient_constant: float
    flat_spots_null: bool = True
    name: str = "custom"
    probe_radius: float = 8.0
    probe_points: int = 41

    def __post_init__(self):
        Dimension(self.d)
        if self.growth_exponent <= 0:
            raise ValidationError("growth exponent s must be positive")
        self._probe_check()

    def _probe_check(self):
        pts = _probe_grid(self.d, self.probe_radius, self.probe_points)
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


def harmonic_potential(d: int, stiffness: float = 1.0) -> TrapPotential:
    """V(x) = stiffness * |x|^2."""
    a = float(stiffness)

    def ev(pts):
        return a * np.sum(pts**2, axis=1)

    def gr(pts):
        return 2.0 * a * pts

    return TrapPotential(d, ev, gr, 2.0, a, 0.0, 2.0 * a, name="harmonic")


def quartic_potential(d: int, stiffness: float = 1.0) -> TrapPotential:
    """V(x) = stiffness * |x|^4."""
    a = float(stiffness)

    def ev(pts):
        return a * np.sum(pts**2, axis=1) ** 2

    def gr(pts):
        return 4.0 * a * np.sum(pts**2, axis=1)[:, None] * pts

    return TrapPotential(d, ev, gr, 4.0, a, 0.0, 4.0 * a, name="quartic")


def double_well_potential(d: int, well_radius: float = 1.0, stiffness: float = 1.0) -> TrapPotential:
    """V(x) = stiffness * (|x|^2 - well_radius^2)^2, two wells at |x| = well_radius."""
    a = float(stiffness)
    b2 = float(well_radius) ** 2

    def ev(pts):
        return a * (np.sum(pts**2, axis=1) - b2) ** 2

    def gr(pts):
        return 4.0 * a * (np.sum(pts**2, axis=1) - b2)[:, None] * pts

    # (r^2-b^2)^2 >= r^4/2 - 2 b^4;  |grad| = 4a r |r^2-b^2| <= 4a(1+b^2)(r^3+1)
    return TrapPotential(
        d, ev, gr, 4.0, a / 2.0, 2.0 * a * b2**2, 4.0 * a * (1.0 + b2), name="double_well"
    )


def _one_body_diagonals(grid: SpatialGrid, potential: TrapPotential, hbar: float) -> tuple[Array, Array]:
    """Main and off diagonal of the lattice one-body matrix on a 1D grid.

    The matrix is the 3-point -hbar^2 Laplacian with Dirichlet walls plus
    diagonal V, shared by the many-body oracle and the Husimi orbitals.
    """
    if grid.d != 1:
        raise ValidationError("the lattice oracle is 1D only")
    t = hbar**2 / grid.spacing**2
    diag = 2.0 * t + grid.sample(potential.evaluate)
    return diag, np.full(grid.points_per_axis - 1, -t)


class BetaRange(str, Enum):
    THEOREM = "theorem"
    UPPER_BOUND_ONLY = "upper_bound_only"


def theorem_beta_limit(d: int) -> float:
    """Largest scaling exponent covered by the two-sided energy asymptotics."""
    return 2.0 / (d * (2 * d + 1))


@dataclass(frozen=True)
class InteractionProfile:
    """Nonnegative, compactly supported interaction profile w.

    ``i_w`` is the integral of w, ``sup_norm`` its max, and the two
    gradient norms are carried as diagnostics for the scaling estimates.
    ``beta`` is the short-range exponent; it must lie in (0, 1/d), and
    values at or above 2/(d(2d+1)) are flagged as outside the range of the
    two-sided energy theorem (the upper bound alone still applies).
    """

    d: int
    evaluate: Callable[[Array], Array]
    support_radius: float
    beta: float
    i_w: float
    sup_norm: float
    grad_l1: float
    grad_l_onepd2: float
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

    @property
    def beta_range(self) -> BetaRange:
        if self.beta < theorem_beta_limit(self.d):
            return BetaRange.THEOREM
        return BetaRange.UPPER_BOUND_ONLY

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
    ``R_w * N^-beta`` and the amplitude grows as ``N^(d*beta)``.
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

    @property
    def sup_norm(self) -> float:
        return self.amplitude * self.profile.sup_norm

    @property
    def grad_l1(self) -> float:
        return self.length_factor * self.profile.grad_l1

    @property
    def grad_l_onepd2(self) -> float:
        # |grad w_N|_p = N^(d beta + beta - d beta / p) |grad w|_p, p = 1 + d/2
        d, beta = self.profile.d, self.profile.beta
        p = 1.0 + d / 2.0
        return float(self.n_particles) ** ((d + 1) * beta - d * beta / p) * self.profile.grad_l_onepd2

    def evaluate(self, points: Array) -> Array:
        return self.amplitude * self.profile.evaluate(np.asarray(points) * self.length_factor)

    def pair_matrix(self, grid: SpatialGrid) -> Array:
        """w_N(|x_i - x_j|) over the sites of a 1D grid, diagonal included."""
        m = grid.points_per_axis
        table = np.asarray(self.evaluate((np.arange(m) * grid.spacing)[:, None]), dtype=float)
        return table[np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])]

    def integral_quadrature(self, points_per_axis: int = 4096) -> float:
        """Integral of the scaled kernel on a support-adapted grid."""
        return _support_quadrature(self.evaluate, self.profile.d, self.support_radius, points_per_axis)


def scaled_interaction(profile: InteractionProfile, n_particles: int) -> ScaledInteraction:
    """Attach the mass-preserving short-range scaling to a profile."""
    return ScaledInteraction(profile, n_particles)


def _support_quadrature(evaluate, d: int, radius: float, points_per_axis: int) -> float:
    if d == 2:
        points_per_axis = min(points_per_axis, 1024)
    h = 2.0 * radius / points_per_axis
    ax = -radius + h * (np.arange(points_per_axis) + 0.5)
    if d == 1:
        return float(np.sum(evaluate(ax[:, None])) * h)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    return float(np.sum(evaluate(pts)) * h * h)


def _gradient_norms(evaluate, d: int, radius: float, points_per_axis: int = 8192) -> tuple[float, float]:
    """Finite-difference ``(|grad w|_1, |grad w|_(1+d/2))`` on a fine grid.

    The L1 value telescopes to the total variation, so it stays meaningful
    for kernels with jumps; the L^(1+d/2) value of a jump diverges under
    refinement and is reported as computed.
    """
    p = 1.0 + d / 2.0
    if d == 1:
        h = 2.0 * radius / points_per_axis
        ax = -radius + h * (np.arange(points_per_axis) + 0.5)
        vals = evaluate(ax[:, None])
        dv = np.diff(vals) / h
        l1 = float(np.sum(np.abs(dv)) * h)
        lp = float((np.sum(np.abs(dv) ** p) * h) ** (1.0 / p))
        return l1, lp
    n = min(points_per_axis, 512)
    h = 2.0 * radius / n
    ax = -radius + h * (np.arange(n) + 0.5)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    vals = evaluate(pts).reshape(n, n)
    gx = np.diff(vals, axis=0) / h
    gy = np.diff(vals, axis=1) / h
    gnorm = np.sqrt(gx[:, :-1] ** 2 + gy[:-1, :] ** 2)
    l1 = float(np.sum(gnorm) * h * h)
    lp = float((np.sum(gnorm**p) * h * h) ** (1.0 / p))
    return l1, lp


def box_profile(d: int, beta: float, radius: float = 1.0, height: float = 1.0) -> InteractionProfile:
    """w = height on the ball |x| <= radius. Integral and sup are analytic."""
    r, c = float(radius), float(height)

    def ev(pts):
        return np.where(np.linalg.norm(pts, axis=1) <= r, c, 0.0)

    i_w = 2.0 * r * c if d == 1 else math.pi * r**2 * c
    grad_l1 = 2.0 * c if d == 1 else 2.0 * math.pi * r * c  # total variation of the jump
    return InteractionProfile(d, ev, r, beta, i_w, c, grad_l1, math.inf, name="box")


def hat_profile(beta: float, radius: float = 1.0, height: float = 1.0) -> InteractionProfile:
    """1D tent w(x) = height * (1 - |x|/radius)_+ with analytic norms."""
    r, c = float(radius), float(height)

    def ev(pts):
        return c * np.clip(1.0 - np.abs(pts[:, 0]) / r, 0.0, None)

    slope = c / r
    grad_lp = (2.0 * r * slope**1.5) ** (2.0 / 3.0)
    return InteractionProfile(1, ev, r, beta, r * c, c, 2.0 * c, grad_lp, name="hat")


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

    i_w = _support_quadrature(ev, d, r, 8192)
    l1, lp = _gradient_norms(ev, d, r)
    return InteractionProfile(d, ev, r, beta, i_w, c, l1, lp, name="bump")


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
    grad_l1 = 2.0 * c
    # integral of |3u^2(1-u)... | closed form is overkill; quadrature on the ramps
    l1, lp = _gradient_norms(ev, 1, r + eps, 1 << 16)
    return InteractionProfile(1, ev, r, beta, i_w, c, grad_l1, lp, name="plateau")


def audit_constants(d: int, probe_density=None, grid: SpatialGrid | None = None) -> dict:
    """Compare the two c_tf conventions on a probe density.

    Reports, for each convention, c_tf and the value of
    ``c_tf * integral(rho^(1+2/d))``, next to the kinetic energy of the
    phase-space bath-tub lift of the same density (computed with the
    closed-form ball integrals). The report exposes the mismatch without
    deciding which convention is intended.
    """
    Dimension(d)
    if grid is None:
        grid = SpatialGrid(d, 4.0, 256 if d == 1 else 96)
    if probe_density is None:
        pts = grid.points()
        raw = _mollifier(np.linalg.norm(pts, axis=1) / (0.75 * grid.half_width))
        total = grid.integrate(raw)
        rho = raw / total if total > 0 else raw
    else:
        rho = np.asarray(probe_density, dtype=float)

    paper = TFConstants.paper_literal(d)
    bathtub = TFConstants.bathtub_consistent(d)
    power_int = grid.integrate(rho ** (1.0 + 2.0 / d))
    c_d = fermi_radius_coefficient(d)
    # (2 pi)^-d * integral over |p| <= c_d rho^(1/d) of |p|^2 dp, per point:
    #   d=1: (2/3) P^3 / (2 pi),  d=2: (pi/2) P^4 / (2 pi)^2,  P = c_d rho^(1/d)
    radii = c_d * rho ** (1.0 / d)
    if d == 1:
        lift_kinetic = grid.integrate((2.0 / 3.0) * radii**3) / (2.0 * math.pi)
    else:
        lift_kinetic = grid.integrate((math.pi / 2.0) * radii**4) / (2.0 * math.pi) ** 2
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
            "ratio_to_lift": term / lift_kinetic if lift_kinetic > 0 else math.nan,
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


def load_config(path) -> ModelConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    return config_from_dict(raw)


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
