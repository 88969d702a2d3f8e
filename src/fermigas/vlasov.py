"""Phase-space energies: bath-tub lifts, the singular and short-range
interaction modes, and the equality between the density functional minimum
and the phase-space minimum.

Phase-space quantities use the measure ``dx dp / (2 pi)^d``. For indicator
lifts, momentum integrals are evaluated with the closed-form ball formulas
per spatial point (no momentum quadrature and hence no staircase error). A
lift is its Fermi radius and nothing else; the gridded 0/1 table is a view
for external readers, built on first read and capped by ``LIFT_TABLE_CAP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, MomentumCoverageError, ValidationError
from .model import ScaledInteraction, SpatialGrid, TFConstants, TrapPotential, _ball_p2_integral, _ball_volume
from .tf_solver import (
    DensityField,
    RelaxedLocalEnergy,
    TFSolution,
    minimize_1d_relaxed,
    minimize_2d,
)

Array = np.ndarray

TWO_PI = 2.0 * math.pi

# Building a lift's table holds the float table and the boolean comparison
# it is cast from: 8 + 1 bytes per (x, p) cell, as measured with tracemalloc.
LIFT_TABLE_BYTES_PER_CELL = 9
LIFT_TABLE_MEMORY_BUDGET = 1 << 30
LIFT_TABLE_CAP = LIFT_TABLE_MEMORY_BUDGET // LIFT_TABLE_BYTES_PER_CELL


class PhaseSpaceDensity:
    """Bath-tub lift m(x, p) = [ |p| <= fermi_radius(x) ] on a product grid.

    A lift is its Fermi radius: one finite nonnegative value per spatial
    point (flattened), ``ValidationError`` otherwise. Its mass and kinetic
    densities are the closed-form ball integrals. ``values[i, k]`` is the
    exactly 0/1 table of m at spatial point i and momentum point k, a
    read-only view built on first read and cached (``CapExceededError``
    above ``LIFT_TABLE_CAP`` cells); nothing in the package reads it.
    """

    def __init__(self, grid: SpatialGrid, momentum: SpatialGrid, fermi_radius: Array):
        if grid.d != momentum.d:
            raise ValidationError("spatial and momentum grids must share the dimension")
        fermi_radius = np.asarray(fermi_radius, dtype=float)
        if fermi_radius.shape != (grid.size,):
            raise ValidationError(f"Fermi radius must have shape {(grid.size,)}")
        if not np.all(np.isfinite(fermi_radius) & (fermi_radius >= 0.0)):
            raise ValidationError("Fermi radius must be finite and nonnegative")
        self.grid = grid
        self.momentum = momentum
        self.fermi_radius = fermi_radius
        self._values = None

    @property
    def values(self) -> Array:
        if self._values is None:
            cells = self.grid.size * self.momentum.size
            if cells > LIFT_TABLE_CAP:
                raise CapExceededError(
                    f"lift table of {self.grid.size} x {self.momentum.size} = {cells} cells exceeds "
                    f"the cap of {LIFT_TABLE_CAP} ({LIFT_TABLE_MEMORY_BUDGET >> 20} MiB at "
                    f"{LIFT_TABLE_BYTES_PER_CELL} B per cell)"
                )
            p_norm = np.linalg.norm(self.momentum.points(), axis=1)
            self._values = (p_norm[None, :] <= self.fermi_radius[:, None]).astype(float)
            self._values.flags.writeable = False
        return self._values

    @property
    def d(self) -> int:
        return self.grid.d

    def spatial_density(self) -> Array:
        """rho_m(x) = (2 pi)^-d * integral of m over p."""
        return _ball_volume(self.d, self.fermi_radius) / TWO_PI**self.d

    def normalization(self) -> float:
        """(2 pi)^-d * double integral of m."""
        return float(self.grid.integrate(self.spatial_density()))

    def kinetic_density(self) -> Array:
        """(2 pi)^-d * integral of |p|^2 m over p, per spatial point."""
        return _ball_p2_integral(self.d, self.fermi_radius) / TWO_PI**self.d


def bathtub_lift(rho: DensityField, constants: TFConstants, momentum: SpatialGrid) -> PhaseSpaceDensity:
    """Indicator lift m(x, p) = [ |p| <= c_d * rho(x)^(1/d) ].

    The momentum grid must cover the largest Fermi radius with at least 10%
    margin, otherwise the lift would be clipped; the error reports the
    required half-width. The lift carries only ``fermi_radius``: mass and
    kinetic integrals use the closed-form ball integrals, so the lift's
    normalization matches the density mass to quadrature precision, and the
    exactly 0/1 gridded ``values`` are built only when first read.
    """
    d = rho.grid.d
    if constants.d != d or momentum.d != d:
        raise ValidationError("density, constants and momentum grid dimensions differ")
    radius = constants.c_d * rho.values ** (1.0 / d)
    required = float(radius.max(initial=0.0)) * 1.1
    if momentum.half_width < required:
        raise MomentumCoverageError(
            f"momentum grid half-width {momentum.half_width:.6g} does not cover the "
            f"Fermi radius with 10% margin; need at least {required:.6g}",
            required_half_width=required,
        )
    return PhaseSpaceDensity(rho.grid, momentum, radius)


@dataclass
class VlasovReport:
    """Energy breakdown of a phase-space density.

    ``interaction_term`` is the signed contribution (negative for an
    attractive coupling); ``total = kinetic + potential + interaction``.
    """

    kinetic_term: float
    potential_term: float
    interaction_term: float
    normalization: float
    mode: str

    @property
    def total(self) -> float:
        return self.kinetic_term + self.potential_term + self.interaction_term


def vlasov_energy(
    m: PhaseSpaceDensity,
    potential: TrapPotential,
    i_w: float,
    w_n: ScaledInteraction | None = None,
) -> VlasovReport:
    """Phase-space energy of m, in singular or short-range mode.

    Singular mode (``w_n is None``) uses ``i_w * integral(rho_m^2)`` for the
    interaction; short-range mode evaluates the w_N double integral as
    ``density_pair_sum`` over the cells, which by Young's inequality never
    exceeds the singular value for nonnegative densities.
    """
    rho_m = DensityField(m.grid, m.spatial_density())
    v = m.grid.sample(potential.evaluate)
    kinetic = m.grid.integrate(m.kinetic_density())
    pot = m.grid.integrate(v * rho_m.values)
    if w_n is None:
        inter = -i_w * rho_m.power_integral(2.0)
        mode = "singular"
    else:
        inter = -w_n.density_pair_sum(m.grid, rho_m.values) * m.grid.cell_volume**2
        mode = f"scaled_n={w_n.n_particles}"
    return VlasovReport(kinetic, pot, inter, m.normalization(), mode)


def brillouin_momentum_grid(grid: SpatialGrid, hbar: float) -> SpatialGrid:
    """Momentum grid dual to a spatial grid at scale hbar.

    Half-width pi*hbar/h with as many points as the spatial axis; with this
    choice plane-wave sums over the grid are exact discrete delta functions,
    which the coherent-frame identities rely on.
    """
    return SpatialGrid(grid.d, math.pi * hbar / grid.spacing, grid.points_per_axis)


@dataclass
class EqualityReport:
    tf_solution: TFSolution
    tf_total: float
    vlasov_total: float
    relative_difference: float
    passed: bool


def tf_vlasov_equality_check(
    potential: TrapPotential,
    constants: TFConstants,
    i_w: float,
    grid: SpatialGrid,
    tol: float = 1e-3,
) -> EqualityReport:
    """Minimize the density functional, lift, and compare the two energies.

    With bath-tub-consistent constants the lift's kinetic energy reproduces
    the density kinetic term exactly, so the phase-space energy of the lift
    equals the density-functional minimum up to quadrature. With the literal
    constants the kinetic terms differ by the audited factor, and ``passed``
    refers to the equality as stated. The lift's momentum grid has 64 points
    per axis and covers the largest Fermi radius with 10% margin.
    """
    d = grid.d
    if d == 2:
        sol = minimize_2d(potential, constants, i_w, grid, tol=min(tol, 1e-6))
    else:
        rel = RelaxedLocalEnergy(constants.c_tf, i_w)
        # the equality compares both energies at the same density, so the
        # mass tolerance only needs to clear the activation-jump size
        mass_tol = max(min(tol, 1e-6), 2.5 * rel.rho_jump * grid.spacing)
        sol = minimize_1d_relaxed(potential, rel, grid, tol=mass_tol)
    p_max = 1.1 * constants.c_d * float(sol.rho.values.max()) ** (1.0 / d) + 1e-9
    momentum = SpatialGrid(d, p_max, 64)
    lift = bathtub_lift(sol.rho, constants, momentum)
    report = vlasov_energy(lift, potential, i_w)
    tf_total = sol.energy.total
    diff = abs(report.total - tf_total)
    rel = diff / max(abs(tf_total), 1e-30)
    return EqualityReport(
        tf_solution=sol,
        tf_total=tf_total,
        vlasov_total=report.total,
        relative_difference=rel,
        passed=bool(rel <= tol),
    )
