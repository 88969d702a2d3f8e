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

A solve holds one grid-sized float array. The thresholds are sampled into it
from the potential (so the evaluator must be pointwise, see
``SpatialGrid.blocks``) and sorted in place, and ``lam`` is found on the
sorted array. One fused pass over the grid's row blocks then re-evaluates the
thresholds and writes the density over the sorted array, taking the
Euler-Lagrange certificates, the smallest support value and the energy sums
on the way. Mass probes run over slices of ``SAMPLE_BLOCK_POINTS`` points, so
the rest of the scratch is O(block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, MassJumpError, ValidationError
from .model import SAMPLE_BLOCK_POINTS, SpatialGrid, TFConstants, TrapPotential

Array = np.ndarray

_MAX_NEWTON_STEPS = 100


def _slices(n: int):
    """Consecutive slices of ``SAMPLE_BLOCK_POINTS`` indices covering ``range(n)``."""
    return (slice(i, min(i + SAMPLE_BLOCK_POINTS, n)) for i in range(0, n, SAMPLE_BLOCK_POINTS))


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
        if self.values.min() < 0:
            raise ValidationError("density values must be nonnegative")

    @property
    def mass(self) -> float:
        return self.grid.integrate(self.values)

    def power_integral(self, p: float) -> float:
        return self.grid.integrate(self.values**p)


@dataclass(frozen=True)
class RelaxedLocalEnergy:
    """Pointwise local energy and its convex relaxation (1D).

    For coupling ``i_w`` and cubic coefficient ``c_tf`` the local energy
    ``e(t) = c_tf t^3 - i_w t^2 + alpha t`` with
    ``alpha = i_w^2 / (4 c_tf)`` has exactly the two minimizers ``t = 0``
    and ``t = rho_jump = i_w / (2 c_tf)``, both at value 0. The relaxation
    ``J(t) = e(t) * [t >= rho_jump]`` is convex and coincides with ``e``
    above the jump density.
    """

    c_tf: float
    i_w: float

    def __post_init__(self):
        if self.c_tf <= 0:
            raise ValidationError("c_tf must be positive")
        if self.i_w < 0:
            raise ValidationError("i_w must be nonnegative")

    @property
    def alpha(self) -> float:
        return self.i_w**2 / (4.0 * self.c_tf)

    @property
    def rho_jump(self) -> float:
        return self.i_w / (2.0 * self.c_tf)

    def local_energy(self, t: Array) -> Array:
        t = np.asarray(t, dtype=float)
        return self.c_tf * t**3 - self.i_w * t**2 + self.alpha * t

    def local_energy_derivative(self, t: Array) -> Array:
        t = np.asarray(t, dtype=float)
        return 3.0 * self.c_tf * t**2 - 2.0 * self.i_w * t + self.alpha

    def relaxed_local_energy(self, t: Array) -> Array:
        t = np.asarray(t, dtype=float)
        return np.where(t >= self.rho_jump, self.local_energy(t), 0.0)

    def active_density(self, u: Array, out: Array | None = None) -> Array:
        """Density of an active point, ``u = lam - (V - alpha) > 0``.

        The root ``t >= rho_jump`` of ``e'(t) = u``, i.e. the larger root of
        ``3 a t^2 - 2 i_w t = lam - V``; it tends to ``rho_jump`` as
        ``u -> 0``. Values are clamped to at least ``rho_jump`` so that
        rounding never puts an active point inside the jump gap. Written
        into ``out`` (which may be ``u``) when given.
        """
        t = np.multiply(3.0 * self.c_tf, u, out=out)  # the rest in place: this runs on every mass evaluation
        t += 0.25 * self.i_w**2
        np.sqrt(t, out=t)
        t += self.i_w
        t /= 3.0 * self.c_tf
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
    """Minimizer record: density, multiplier, energies and certificates.

    ``support_interior_min`` is the smallest value of rho on its support (NaN
    for an empty support), in both dimensions; in 1D every support value is
    ``>= rho_jump``, so it certifies the jump on the support interior too.
    """

    rho: DensityField
    lam: float
    energy: EnergyBreakdown
    el_residual: float
    el_complement_min: float
    mass_gap: float
    c_tf: float
    i_w: float
    support_interior_min: float = math.nan


def _energy_sums(rho: Array, s: Array, p: float) -> Array:
    """``[sum rho^p, sum rho^2, sum s rho]`` over one block; the grid's sums are the blocks' sums added."""
    return np.array([np.sum(rho**p), np.sum(rho**2), np.sum(s * rho)])


def _energy_terms(grid: SpatialGrid, sums: Array, c_tf: float, i_w: float, shift_mass: float = 0.0) -> EnergyBreakdown:
    """The three terms from the grid's ``_energy_sums`` over the thresholds ``s = V - alpha``.

    ``I(V rho) = I(s rho) + alpha I(rho)``, and ``shift_mass`` is ``alpha I(rho)``.
    """
    power, square, linear = sums.tolist()
    h = grid.cell_volume
    return EnergyBreakdown(c_tf * (h * power), h * linear + shift_mass, -i_w * (h * square))


def tf_energy(rho: DensityField, potential: TrapPotential, constants: TFConstants, i_w: float) -> EnergyBreakdown:
    """Evaluate the three terms of the functional at a density.

    The coupling ``i_w`` is taken as a raw number so that super-critical
    values can be explored; constructors, not this evaluator, enforce the
    2D sub-criticality bound. The interaction term carries its minus sign.
    V is read block by block, so no grid-sized array is formed.
    """
    if potential.d != rho.grid.d:
        raise ValidationError("potential and density dimensions differ")
    if constants.d != rho.grid.d:
        raise ValidationError("constants and density dimensions differ")
    p = 1.0 + 2.0 / rho.grid.d
    sums = np.zeros(3)
    for b, v in rho.grid.blocks(potential.evaluate):
        sums += _energy_sums(rho.values[b], v, p)
    return _energy_terms(rho.grid, sums, constants.c_tf, i_w)


def _ramp(kappa: float):
    """2D activation profile ``g(u) = u / (2 kappa)``, written into ``out`` when given."""
    return lambda u, out=None: np.divide(u, 2.0 * kappa, out=out)


def _density_block(s: Array, lam: float, profile, out: Array) -> Array:
    """Density at multiplier ``lam``: ``g(lam - s)`` where ``s < lam``, else 0, written into ``out``.

    This is the activation rule of the mass map. In 1D (``s = V - alpha``,
    ``g = rel.active_density``) it is the per-point minimizer of
    ``J(t) + (V - alpha - lam) t`` over t >= 0: with ``u = lam - s``, below
    the jump density the tilted energy is ``-u t``, and above it the convex
    branch ``e(t) - u t`` with ``e(rho_jump) = e'(rho_jump) = 0``. So the
    minimum is negative and sits at ``e'(t) = u`` iff ``u > 0``, and is 0 at
    t = 0 otherwise. Exact ties go to 0, which reproduces the jump of the
    continuum minimizer instead of smearing it across a cell.

    ``out`` may be ``s``, and ``profile(u, out=u)`` must work in place.
    Distinct floats have a nonzero difference, so ``u = lam - s > 0``
    exactly where ``s < lam``.
    """
    u = np.subtract(lam, s, out=out)
    inactive = u <= 0.0
    np.maximum(u, 0.0, out=u)  # keeps the profile's square root real
    profile(u, out=u)
    u[inactive] = 0.0
    return u


def _mass(s: Array, lam: float, profile, volume: float) -> float:
    """Mass ``volume * sum g(lam - s_i)`` over the active ``s_i < lam``; ``s`` is sorted.

    Summed over slices of the active prefix, so a probe allocates O(block).
    """
    total = 0.0
    for b in _slices(int(np.searchsorted(s, lam))):
        u = np.subtract(lam, s[b])
        total += float(np.sum(profile(u, out=u)))
    return volume * total


def _solve_unit_mass(s: Array, profile, volume: float, segment_root) -> tuple[float, tuple | None]:
    """The multiplier ``lam`` of unit mass and the activation jump it sits in, sorting ``s`` in place.

    The mass is nondecreasing in lam and smooth between consecutive sorted
    thresholds (ties, such as symmetric grid pairs, activate together). A
    binary search finds the last threshold ``s_j`` whose mass is below 1.
    Unit mass then lies either inside the activation jump at ``s_j``, whose
    nearer end is taken and returned beside the jump
    ``(lam_low, lam_high, mass_low, mass_high)``, with the exact jump
    ``[s_j, nextafter(s_j, inf)]`` and the masses at its ends; or on the
    segment past it, where the active set is fixed,
    ``segment_root(active, lo, hi)`` solves for ``lam`` and the jump is None.

    ``s`` is the solve's one grid-sized array: the caller hands it over, it
    is sorted here, and once ``lam`` is known the caller overwrites it with
    the density.
    """
    s.sort()  # NaN sorts last
    if not (np.isfinite(s[0]) and np.isfinite(s[-1])):
        raise ValidationError("potential samples must be finite")
    lo, hi = 1, s.size  # the mass at s[0] is 0
    while lo < hi:
        mid = (lo + hi) // 2
        if _mass(s, s[mid], profile, volume) >= 1.0:
            hi = mid
        else:
            lo = mid + 1
    lam_low = float(s[lo - 1])
    lam_high = float(np.nextafter(lam_low, np.inf))
    mass_low = _mass(s, lam_low, profile, volume)
    mass_high = _mass(s, lam_high, profile, volume)
    if mass_high >= 1.0:
        lam = lam_low if 1.0 - mass_low <= mass_high - 1.0 else lam_high
        return lam, (lam_low, lam_high, mass_low, mass_high)
    if lo == s.size:
        raise ValidationError(
            "unit mass needs every grid point occupied, so the minimizer support "
            "touches the box boundary; enlarge the grid half_width"
        )
    return segment_root(s[:lo], lam_high, float(s[lo])), None


def _newton_segment_root(active: Array, lo: float, hi: float, rel: RelaxedLocalEnergy, volume: float) -> float:
    """Root in ``[lo, hi]`` of ``volume * sum rel.active_density(lam - active) = 1``.

    The active density is the inverse of the convex ``e'`` on its branch, so
    the mass is increasing and concave in lam, with slope
    ``volume * sum 1 / e''(rho)``. Newton steps from the left end therefore
    never pass the root: they rise monotonically until rounding stops them.
    Mass and slope are summed over slices of ``active``.
    """
    lam = lo
    for _ in range(_MAX_NEWTON_STEPS):
        mass = slope = 0.0
        for b in _slices(active.size):
            rho = np.subtract(lam, active[b])
            rel.active_density(rho, out=rho)
            mass += float(np.sum(rho))
            rho *= 6.0 * rel.c_tf
            rho -= 2.0 * rel.i_w
            slope += float(np.sum(np.reciprocal(rho, out=rho)))
        nxt = min(lam + (1.0 - volume * mass) / (volume * slope), hi)
        if not nxt > lam:
            break
        lam = nxt
    return lam


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


def _minimize(grid: SpatialGrid, evaluate, c_tf: float, i_w: float, tol: float) -> TFSolution:
    """The unit-mass minimizer for the activation rule of the grid's dimension, in one grid array.

    In 2D the thresholds are ``s = V`` and the profile is ``_ramp(c_tf - i_w)``
    with the closed-form segment root; in 1D ``s = V - alpha`` and the
    profile is the relaxed local energy's active density with the Newton
    segment root. ``s`` is sampled, then sorted in place and searched by
    ``_solve_unit_mass``. One fused pass over ``grid.blocks(evaluate)`` then
    recomputes ``s`` block by block and writes the density over the sorted
    thresholds, taking on the way the Euler-Lagrange defects (the sup over
    supp(rho) of ``|g^-1(rho) + s - lam|`` and the min of ``s - lam`` over
    the complement), the three energy sums and the smallest support value.
    So the solve holds one grid array plus O(block) scratch. The density
    is returned when its ``|mass - 1| <= tol``; otherwise a jump raises
    ``MassJumpError`` with the jump and the residual gap, and a segment
    ``ConvergenceError``.
    """
    volume = grid.cell_volume
    if grid.d == 2:
        kappa = c_tf - i_w
        shift, profile = 0.0, _ramp(kappa)

        def derivative(t):
            return 2.0 * kappa * t

        def segment_root(active, lo, hi):
            return (2.0 * kappa / volume + float(np.sum(active))) / active.size

    else:
        rel = RelaxedLocalEnergy(c_tf, i_w)
        shift, profile, derivative = rel.alpha, rel.active_density, rel.local_energy_derivative

        def segment_root(active, lo, hi):
            return _newton_segment_root(active, lo, hi, rel, volume)

    values = grid.sample(evaluate)
    if shift:
        values -= shift
    lam, jump = _solve_unit_mass(values, profile, volume, segment_root)
    p = 1.0 + 2.0 / grid.d
    residual, comp_min, supp_min = 0.0, math.inf, math.inf
    sums = np.zeros(3)
    for b, s in grid.blocks(evaluate):
        if shift:
            s -= shift
        rho = _density_block(s, lam, profile, out=values[b])
        supp = rho > 0
        if supp.any():
            r = derivative(rho[supp])
            r += s[supp]
            r -= lam
            residual = max(residual, float(np.max(np.abs(r, out=r))))
            supp_min = min(supp_min, float(np.min(rho, where=supp, initial=math.inf)))
        if not supp.all():
            # rounding is monotone, so the complement's min of s - lam is its min of s, minus lam
            comp_min = min(comp_min, float(np.min(s, where=~supp, initial=math.inf)) - lam)
        sums += _energy_sums(rho, s, p)
    mass = grid.integrate(values)
    gap = abs(mass - 1.0)
    if gap > tol and jump is not None:
        lam_low, lam_high, mass_low, mass_high = jump
        raise MassJumpError(
            "no multiplier reaches unit mass within tolerance: the mass jumps from "
            f"{mass_low:.12g} to {mass_high:.12g} where the thresholds at lam = {lam_low!r} "
            f"activate (residual gap {gap:.3g}, tol {tol:.3g})",
            lam_low=lam_low,
            lam_high=lam_high,
            mass_low=mass_low,
            mass_high=mass_high,
        )
    if gap > tol:
        raise ConvergenceError(
            f"tol={tol:.3g} is below the float resolution of the mass: the unit-mass "
            f"multiplier {lam!r} leaves a mass gap of {gap:.3g}"
        )
    _check_support_inside(grid, values)
    return TFSolution(
        rho=DensityField(grid, values),
        lam=lam,
        energy=_energy_terms(grid, sums, c_tf, i_w, shift * mass),
        el_residual=residual,
        el_complement_min=comp_min,
        mass_gap=gap,
        c_tf=c_tf,
        i_w=i_w,
        support_interior_min=supp_min if supp_min < math.inf else math.nan,
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
    return _minimize(grid, potential.evaluate, constants.c_tf, i_w, tol)


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
    The solution carries the jump certificate: ``support_interior_min``, the
    smallest nonzero value, is ``>= rho_jump`` (``active_density`` clamps it).
    """
    if grid.d != 1:
        raise ValidationError("minimize_1d_relaxed requires a 1D grid")
    return _minimize(grid, potential.evaluate, rel.c_tf, rel.i_w, tol)


def sample_minimizer(
    potential: TrapPotential, rel: RelaxedLocalEnergy, grid: SpatialGrid, lam: float
) -> DensityField:
    """Pointwise minimizer profile at a given multiplier, on any grid.

    The selection rule is local, so a multiplier found on a fine grid can be
    resampled onto a coarser one; the coarse mass then deviates from 1 only
    by the coarse quadrature error, bypassing the activation-jump lottery of
    a direct coarse-grid solve.
    """
    values = np.empty(grid.size)
    for b, s in grid.blocks(potential.evaluate):
        s -= rel.alpha
        _density_block(s, lam, rel.active_density, out=values[b])
    return DensityField(grid, values)


@dataclass
class EquivalenceReport:
    difference: float
    jump_certificate_min: float
    rho_jump: float
    passed: bool


def relaxed_energy(rho: DensityField, potential: TrapPotential, rel: RelaxedLocalEnergy) -> float:
    """Relaxed functional: I(J(rho)) + I(V rho) - alpha * I(rho).

    J vanishes below the jump density, so only the points at or above it are
    summed. V is read block by block, so no grid-sized array is formed.
    """
    local = linear = 0.0
    for b, v in rho.grid.blocks(potential.evaluate):
        t = rho.values[b]
        local += float(np.sum(rel.local_energy(t[t >= rel.rho_jump])))
        linear += float(np.sum(v * t))
    h = rho.grid.cell_volume
    return float(h * local + h * linear - rel.alpha * rho.mass)


def relaxation_equivalence_check(
    potential: TrapPotential,
    rel: RelaxedLocalEnergy,
    grid: SpatialGrid,
    tol: float = 1e-6,
) -> EquivalenceReport:
    """Check that relaxing the local energy does not move the minimum.

    Solves the relaxed problem, evaluates the un-relaxed functional at the
    relaxed minimizer, and passes iff the two energies agree within ``tol``
    and the minimizer sits above the jump density on its support.
    """
    sol = minimize_1d_relaxed(potential, rel, grid, tol=min(tol, 1e-6))
    e_relaxed = relaxed_energy(sol.rho, potential, rel)
    interior_min = sol.support_interior_min
    jump_ok = (not math.isfinite(interior_min)) or interior_min >= rel.rho_jump - tol
    diff = abs(sol.energy.total - e_relaxed)
    return EquivalenceReport(
        difference=diff,
        jump_certificate_min=interior_min,
        rho_jump=rel.rho_jump,
        passed=bool(diff <= tol and jump_ok),
    )

