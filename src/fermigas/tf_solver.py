"""Minimization of the Thomas-Fermi functional.

The functional is ``E[rho] = c_tf * I(rho^(1+2/d)) + I(V rho) - i_w * I(rho^2)``
over densities with unit mass, where ``I`` is the grid quadrature. In 2D the
minimizer has the closed form ``(lam - V)_+ / (2 (c_tf - i_w))`` and only the
chemical potential ``lam`` must be found. In 1D the quadratic term makes the
functional non-convex; minimization goes through the relaxed local energy,
whose pointwise structure gives the global minimizer of the discrete problem
by a per-point activation rule. In both dimensions a point with threshold
``s`` (``V`` in 2D, ``V - alpha`` in 1D) is active iff ``s < lam`` and then
carries ``g(lam - s)`` for one fixed increasing profile ``g``, so ``lam`` is
solved exactly from the sorted thresholds instead of by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, MassJumpError, ValidationError
from .model import SpatialGrid, TFConstants, TrapPotential

Array = np.ndarray

_MAX_NEWTON_STEPS = 100


@dataclass
class DensityField:
    """Nonnegative grid density with quadrature helpers."""

    grid: SpatialGrid
    values: Array

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.shape != (self.grid.size,):
            raise ValidationError(
                f"density has {self.values.size} values for a grid of size {self.grid.size}"
            )
        if np.any(self.values < 0):
            raise ValidationError("density values must be nonnegative")

    @classmethod
    def from_callable(cls, grid: SpatialGrid, fn) -> "DensityField":
        return cls(grid, np.asarray(fn(grid.points()), dtype=float))

    @property
    def mass(self) -> float:
        return self.grid.integrate(self.values)

    def power_integral(self, p: float) -> float:
        return self.grid.integrate(self.values**p)

    def normalized(self) -> "DensityField":
        m = self.mass
        if m <= 0:
            raise ValidationError("cannot normalize a zero-mass density")
        return DensityField(self.grid, self.values / m)


@dataclass(frozen=True)
class RelaxedLocalEnergy:
    """Pointwise local energy and its convex relaxation (1D).

    For coupling ``i_w`` and cubic coefficient ``(1-eta) c_tf`` the local
    energy ``e(t) = (1-eta) c_tf t^3 - i_w t^2 + alpha t`` with
    ``alpha = i_w^2 / (4 (1-eta) c_tf)`` has exactly the two minimizers
    ``t = 0`` and ``t = rho_jump = i_w / (2 (1-eta) c_tf)``, both at value 0.
    The relaxation ``J(t) = e(t) * [t >= rho_jump]`` is convex and coincides
    with ``e`` above the jump density. ``eta = 0`` is the plain relaxation
    used for minimization; ``eta`` in (0, 1) reserves part of the cubic term
    for separate kinetic bookkeeping.
    """

    c_tf: float
    i_w: float
    eta: float = 0.0

    def __post_init__(self):
        if self.c_tf <= 0:
            raise ValidationError("c_tf must be positive")
        if self.i_w < 0:
            raise ValidationError("i_w must be nonnegative")
        if not (0.0 <= self.eta < 1.0):
            raise ValidationError("eta must lie in [0, 1)")

    @classmethod
    def eta_variant(cls, c_tf: float, i_w: float, eta: float = 0.5) -> "RelaxedLocalEnergy":
        """The partially relaxed local energy; half the cubic term by default."""
        return cls(c_tf, i_w, eta)

    @property
    def cubic_coefficient(self) -> float:
        return (1.0 - self.eta) * self.c_tf

    @property
    def alpha(self) -> float:
        return self.i_w**2 / (4.0 * self.cubic_coefficient)

    @property
    def rho_jump(self) -> float:
        return self.i_w / (2.0 * self.cubic_coefficient)

    def local_energy(self, t: Array) -> Array:
        t = np.asarray(t, dtype=float)
        return self.cubic_coefficient * t**3 - self.i_w * t**2 + self.alpha * t

    def local_energy_derivative(self, t: Array) -> Array:
        t = np.asarray(t, dtype=float)
        return 3.0 * self.cubic_coefficient * t**2 - 2.0 * self.i_w * t + self.alpha

    def relaxed_local_energy(self, t: Array) -> Array:
        t = np.asarray(t, dtype=float)
        return np.where(t >= self.rho_jump, self.local_energy(t), 0.0)

    def active_density(self, u: Array) -> Array:
        """Density of an active point, ``u = lam - (V - alpha) > 0``.

        The root ``t >= rho_jump`` of ``e'(t) = u``, i.e. the larger root of
        ``3 a t^2 - 2 i_w t = lam - V``; it tends to ``rho_jump`` as
        ``u -> 0``. Values are clamped to at least ``rho_jump`` so that
        rounding never puts an active point inside the jump gap.
        """
        a = self.cubic_coefficient
        t = 3.0 * a * u  # the rest in place: this runs on every mass evaluation
        t += 0.25 * self.i_w**2
        np.sqrt(t, out=t)
        t += self.i_w
        t /= 3.0 * a
        return np.maximum(t, self.rho_jump, out=t)


@dataclass
class EnergyBreakdown:
    kinetic_term: float
    potential_term: float
    interaction_term: float

    @property
    def total(self) -> float:
        return self.kinetic_term + self.potential_term + self.interaction_term


@dataclass
class TFSolution:
    """Minimizer record: density, multiplier, energies and certificates."""

    rho: DensityField
    lam: float
    energy: EnergyBreakdown
    el_residual: float
    el_complement_min: float
    mass_gap: float
    c_tf: float
    i_w: float
    eta: float = 0.0
    support_interior_min: float = math.nan


def _energy_terms(grid: SpatialGrid, values: Array, v: Array, c_tf: float, i_w: float) -> EnergyBreakdown:
    kinetic = c_tf * grid.integrate(values ** (1.0 + 2.0 / grid.d))
    return EnergyBreakdown(kinetic, grid.integrate(v * values), -i_w * grid.integrate(values**2))


def tf_energy(rho: DensityField, potential: TrapPotential, constants: TFConstants, i_w: float) -> EnergyBreakdown:
    """Evaluate the three terms of the functional at a density.

    The coupling ``i_w`` is taken as a raw number so that super-critical
    values can be explored; constructors, not this evaluator, enforce the
    2D sub-criticality bound. The interaction term carries its minus sign.
    """
    if potential.d != rho.grid.d:
        raise ValidationError("potential and density dimensions differ")
    if constants.d != rho.grid.d:
        raise ValidationError("constants and density dimensions differ")
    v = np.asarray(potential.evaluate(rho.grid.points()), dtype=float)
    if v.shape != (rho.grid.size,):
        raise ValidationError("potential sampling does not match the density grid")
    return _energy_terms(rho.grid, rho.values, v, constants.c_tf, i_w)


def _ramp(kappa: float):
    """2D activation profile ``g(u) = u / (2 kappa)``."""
    return lambda u: u / (2.0 * kappa)


def _pointwise_density(s: Array, lam: float, profile) -> Array:
    """Grid density at multiplier ``lam``: ``g(lam - s)`` where ``s < lam``, else 0.

    This is the activation rule of the mass map. In 1D (``s = V - alpha``,
    ``g = rel.active_density``) it is the per-point minimizer of
    ``J(t) + (V - alpha - lam) t`` over t >= 0: with ``u = lam - s``, below
    the jump density the tilted energy is ``-u t``, and above it the convex
    branch ``e(t) - u t`` with ``e(rho_jump) = e'(rho_jump) = 0``. So the
    minimum is negative and sits at ``e'(t) = u`` iff ``u > 0``, and is 0 at
    t = 0 otherwise. Exact ties go to 0, which reproduces the jump of the
    continuum minimizer instead of smearing it across a cell.
    """
    out = np.zeros_like(s)
    active = s < lam
    out[active] = profile(lam - s[active])
    return out


def _mass(s: Array, lam: float, profile, volume: float) -> float:
    """Mass ``volume * sum g(lam - s_i)`` over the active ``s_i < lam``; ``s`` is sorted."""
    active = s[: np.searchsorted(s, lam)]
    return volume * float(np.sum(profile(lam - active)))


def _solve_unit_mass(s: Array, profile, volume: float, tol: float, segment_root) -> tuple[float, Array]:
    """The multiplier ``lam`` and density ``_pointwise_density(s, lam, profile)`` of unit mass.

    The mass is nondecreasing in lam and smooth between consecutive sorted
    thresholds (ties, such as symmetric grid pairs, activate together). A
    binary search finds the last threshold ``s_j`` whose mass is below 1.
    Unit mass then lies inside the activation jump at ``s_j``, whose nearer
    end is taken, or on the segment past it, where the active set is fixed
    and ``segment_root(active, lo, hi)`` solves for ``lam``. The density is
    returned when its ``|mass - 1| <= tol``; otherwise a jump raises
    ``MassJumpError`` with the exact jump ``[s_j, nextafter(s_j, inf)]`` and
    the masses at its ends, and a segment ``ConvergenceError``.
    """
    if not np.all(np.isfinite(s)):
        raise ValidationError("potential samples must be finite")
    t = np.sort(s)
    lo, hi = 1, t.size  # the mass at t[0] is 0
    while lo < hi:
        mid = (lo + hi) // 2
        if _mass(t, t[mid], profile, volume) >= 1.0:
            hi = mid
        else:
            lo = mid + 1
    lam_low = float(t[lo - 1])
    lam_high = float(np.nextafter(lam_low, np.inf))
    mass_low = _mass(t, lam_low, profile, volume)
    mass_high = _mass(t, lam_high, profile, volume)
    jump = mass_high >= 1.0
    if jump:
        lam = lam_low if 1.0 - mass_low <= mass_high - 1.0 else lam_high
    elif lo == t.size:
        raise ValidationError(
            "unit mass needs every grid point occupied, so the minimizer support "
            "touches the box boundary; enlarge the grid half_width"
        )
    else:
        lam = segment_root(t[:lo], lam_high, float(t[lo]))
    values = _pointwise_density(s, lam, profile)
    gap = abs(volume * float(np.sum(values)) - 1.0)
    if gap <= tol:
        return lam, values
    if jump:
        raise MassJumpError(
            "no multiplier reaches unit mass within tolerance: the mass jumps from "
            f"{mass_low:.12g} to {mass_high:.12g} where the thresholds at lam = {lam_low!r} "
            f"activate (residual gap {gap:.3g}, tol {tol:.3g})",
            lam_low=lam_low,
            lam_high=lam_high,
            mass_low=mass_low,
            mass_high=mass_high,
        )
    raise ConvergenceError(
        f"tol={tol:.3g} is below the float resolution of the mass: the unit-mass "
        f"multiplier {lam!r} leaves a mass gap of {gap:.3g}"
    )


def _newton_segment_root(active: Array, lo: float, hi: float, rel: RelaxedLocalEnergy, volume: float) -> float:
    """Root in ``[lo, hi]`` of ``volume * sum rel.active_density(lam - active) = 1``.

    The active density is the inverse of the convex ``e'`` on its branch, so
    the mass is increasing and concave in lam, with slope
    ``volume * sum 1 / e''(rho)``. Newton steps from the left end therefore
    never pass the root: they rise monotonically until rounding stops them.
    """
    a = rel.cubic_coefficient
    lam = lo
    for _ in range(_MAX_NEWTON_STEPS):
        rho = rel.active_density(lam - active)
        slope = volume * float(np.sum(1.0 / (6.0 * a * rho - 2.0 * rel.i_w)))
        nxt = min(lam + (1.0 - volume * float(np.sum(rho))) / slope, hi)
        if not nxt > lam:
            break
        lam = nxt
    return lam


def _el_defects(values: Array, s: Array, lam: float, derivative) -> tuple[float, float]:
    """(sup over supp(rho) of ``|derivative(rho) + s - lam|``, min over the complement of ``s - lam``)."""
    supp = values > 0
    supp_residual = float(np.max(np.abs(derivative(values[supp]) + s[supp] - lam))) if supp.any() else 0.0
    comp_min = float(np.min(s[~supp] - lam)) if (~supp).any() else math.inf
    return supp_residual, comp_min


def _check_support_inside(grid: SpatialGrid, values: Array):
    vals = values.reshape(grid.shape)
    if grid.d == 1:
        edge = max(vals[0], vals[-1])
    else:
        edge = max(vals[0, :].max(), vals[-1, :].max(), vals[:, 0].max(), vals[:, -1].max())
    if edge > 0:
        raise ValidationError(
            "minimizer support touches the box boundary; enlarge the grid half_width"
        )


def minimize_2d(
    potential: TrapPotential,
    constants: TFConstants,
    i_w: float,
    grid: SpatialGrid,
    tol: float = 1e-6,
) -> TFSolution:
    """Closed-form 2D minimizer (lam - V)_+ / (2 kappa), kappa = c_tf - i_w.

    The mass is continuous and piecewise linear in lam, with kinks at the
    sorted samples ``V_(i)``; with the k lowest samples active, unit mass
    gives ``lam = (2 kappa / vol + sum_{i<k} V_(i)) / k`` exactly. ``tol`` is
    the largest accepted ``|mass - 1|`` of the returned density; the closed
    form meets any tol above the float resolution of the mass.
    """
    if grid.d != 2:
        raise ValidationError("minimize_2d requires a 2D grid")
    kappa = constants.c_tf - i_w
    if kappa <= 0:
        raise ValidationError(
            f"minimize_2d requires i_w < c_tf, got i_w={i_w} with c_tf={constants.c_tf}"
        )
    v = np.asarray(potential.evaluate(grid.points()), dtype=float)
    volume = grid.cell_volume
    ramp = _ramp(kappa)

    def closed_form(active: Array, lo: float, hi: float) -> float:
        return (2.0 * kappa / volume + float(np.sum(active))) / active.size

    lam, values = _solve_unit_mass(v, ramp, volume, tol, closed_form)
    _check_support_inside(grid, values)
    rho = DensityField(grid, values)
    residual, comp_min = _el_defects(values, v, lam, lambda t: 2.0 * kappa * t)
    supp = values > 0
    return TFSolution(
        rho=rho,
        lam=lam,
        energy=_energy_terms(grid, values, v, constants.c_tf, i_w),
        el_residual=residual,
        el_complement_min=comp_min,
        mass_gap=abs(rho.mass - 1.0),
        c_tf=constants.c_tf,
        i_w=i_w,
        support_interior_min=float(values[supp].min()) if supp.any() else math.nan,
    )


def _support_interior(grid: SpatialGrid, values: Array) -> Array:
    """Mask of support points all of whose grid neighbors are also occupied."""
    pos = (values > 0).reshape(grid.shape)
    interior = pos.copy()
    if grid.d == 1:
        shifted_left = np.concatenate([[False], pos[:-1]])
        shifted_right = np.concatenate([pos[1:], [False]])
        interior &= shifted_left & shifted_right
    else:
        pad = np.pad(pos, 1, constant_values=False)
        interior &= pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:]
    return interior.ravel()


def minimize_1d_relaxed(
    potential: TrapPotential,
    rel: RelaxedLocalEnergy,
    grid: SpatialGrid,
    tol: float = 1e-6,
) -> TFSolution:
    """Minimize the relaxed 1D functional by the pointwise activation rule.

    For each multiplier lam the pointwise rule yields the global minimizer of
    the convex discrete relaxed functional with mass multiplier lam. A point
    activates at ``lam = V - alpha`` with density rho_jump, so the mass map
    jumps by ``rho_jump * h`` per activated point (twice that for a symmetric
    pair) and is smooth in between, where lam is solved exactly. ``tol`` is
    the largest accepted ``|mass - 1|`` of the returned density. If unit mass
    falls inside a jump, the jump end nearer to 1 is returned when it is
    within ``tol``; otherwise a ``MassJumpError`` reports the residual gap,
    the exact jump ``[lam_low, nextafter(lam_low, inf)]`` and the masses at
    its ends, as the tie at the jump is resolved to 0 rather than smeared. A
    tolerance of at least ``rho_jump * h`` cannot fail at a symmetric pair.
    The solution carries the jump certificate ``min(rho) >= rho_jump`` over
    the discrete support interior; every nonzero value is ``>= rho_jump``.
    """
    if grid.d != 1:
        raise ValidationError("minimize_1d_relaxed requires a 1D grid")
    if not potential.flat_spots_null:
        raise ValidationError(
            "the 1D minimizer requires a potential whose level sets are null "
            "(flat_spots_null flag)"
        )
    v = np.asarray(potential.evaluate(grid.points()), dtype=float)
    s = v - rel.alpha
    h = grid.cell_volume
    lam, values = _solve_unit_mass(
        s, rel.active_density, h, tol, lambda active, lo, hi: _newton_segment_root(active, lo, hi, rel, h)
    )
    _check_support_inside(grid, values)
    rho = DensityField(grid, values)
    residual, comp_min = _el_defects(values, s, lam, rel.local_energy_derivative)
    interior = _support_interior(grid, values)
    return TFSolution(
        rho=rho,
        lam=lam,
        energy=_energy_terms(grid, values, v, rel.c_tf, rel.i_w),
        el_residual=residual,
        el_complement_min=comp_min,
        mass_gap=abs(rho.mass - 1.0),
        c_tf=rel.c_tf,
        i_w=rel.i_w,
        eta=rel.eta,
        support_interior_min=float(values[interior].min()) if interior.any() else math.nan,
    )


def sample_minimizer(
    potential: TrapPotential, rel: RelaxedLocalEnergy, grid: SpatialGrid, lam: float
) -> DensityField:
    """Pointwise minimizer profile at a given multiplier, on any grid.

    The selection rule is local, so a multiplier found on a fine grid can be
    resampled onto a coarser one; the coarse mass then deviates from 1 only
    by the coarse quadrature error, bypassing the activation-jump lottery of
    a direct coarse-grid solve.
    """
    v = np.asarray(potential.evaluate(grid.points()), dtype=float)
    return DensityField(grid, _pointwise_density(v - rel.alpha, lam, rel.active_density))


def el_residual(sol: TFSolution, potential: TrapPotential, rel: RelaxedLocalEnergy | None = None):
    """Euler-Lagrange defect of a solution (or of any density in a TFSolution).

    Returns ``(sup-norm of the stationarity defect on supp(rho),
    min over the complement of V - alpha - lam)``. A valid minimizer has the
    first ~ 0 and the second >= -tol. In 2D the stationarity condition is
    ``2 (c_tf - i_w) rho + V = lam`` and alpha plays no role.
    """
    grid = sol.rho.grid
    v = np.asarray(potential.evaluate(grid.points()), dtype=float)
    if grid.d == 2:
        kappa = sol.c_tf - sol.i_w
        return _el_defects(sol.rho.values, v, sol.lam, lambda t: 2.0 * kappa * t)
    if rel is None:
        rel = RelaxedLocalEnergy(sol.c_tf, sol.i_w, sol.eta)
    return _el_defects(sol.rho.values, v - rel.alpha, sol.lam, rel.local_energy_derivative)


@dataclass
class EquivalenceReport:
    relaxed_minimum: float
    tf_energy_at_minimizer: float
    difference: float
    jump_certificate_min: float
    rho_jump: float
    passed: bool


def relaxed_energy(rho: DensityField, potential: TrapPotential, rel: RelaxedLocalEnergy) -> float:
    """Relaxed functional: I(J(rho)) + I(V rho) - alpha * I(rho)."""
    v = np.asarray(potential.evaluate(rho.grid.points()), dtype=float)
    return float(
        rho.grid.integrate(rel.relaxed_local_energy(rho.values))
        + rho.grid.integrate(v * rho.values)
        - rel.alpha * rho.mass
    )


def relaxation_equivalence_check(
    potential: TrapPotential,
    rel: RelaxedLocalEnergy,
    grid: SpatialGrid,
    tol: float = 1e-6,
) -> EquivalenceReport:
    """Check that relaxing the local energy does not move the minimum.

    Solves the relaxed problem, evaluates the un-relaxed functional at the
    relaxed minimizer, and passes iff the two energies agree within ``tol``
    and the minimizer sits above the jump density on its support interior.
    """
    sol = minimize_1d_relaxed(potential, rel, grid, tol=min(tol, 1e-6))
    e_relaxed = relaxed_energy(sol.rho, potential, rel)
    e_tf = sol.energy.total
    interior_min = sol.support_interior_min
    jump_ok = (not math.isfinite(interior_min)) or interior_min >= rel.rho_jump - tol
    diff = abs(e_tf - e_relaxed)
    return EquivalenceReport(
        relaxed_minimum=e_relaxed,
        tf_energy_at_minimizer=e_tf,
        difference=diff,
        jump_certificate_min=interior_min,
        rho_jump=rel.rho_jump,
        passed=bool(diff <= tol and jump_ok),
    )


def mass_curve(
    potential: TrapPotential,
    grid: SpatialGrid,
    rel: RelaxedLocalEnergy | None = None,
    constants: TFConstants | None = None,
    i_w: float = 0.0,
    lam_values: Array | None = None,
) -> tuple[Array, Array]:
    """Lam -> mass samples of the minimizers' mass map, for monotonicity diagnostics."""
    v = np.asarray(potential.evaluate(grid.points()), dtype=float)
    if grid.d == 2:
        if constants is None:
            raise ValidationError("2D mass curve needs constants")
        s, profile = v, _ramp(constants.c_tf - i_w)
    else:
        if rel is None:
            raise ValidationError("1D mass curve needs a RelaxedLocalEnergy")
        s, profile = v - rel.alpha, rel.active_density
    if lam_values is None:
        lam_values = np.linspace(float(v.min()), float(v.min()) + 10.0, 41)
    s = np.sort(s)
    masses = [_mass(s, lam, profile, grid.cell_volume) for lam in lam_values]
    return np.asarray(lam_values, dtype=float), np.asarray(masses)
