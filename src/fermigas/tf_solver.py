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

A solve holds two grid-sized float arrays: the thresholds, sampled from the
potential by ``SpatialGrid.sample`` (so the evaluator must be pointwise), and
their sorted copy, which becomes the density once ``lam`` is known. Mass
probes, the density, the Euler-Lagrange certificates and the energies run
over slices of ``SAMPLE_BLOCK_POINTS`` points, so the rest of the scratch is
O(block) plus one boolean mask of the support.
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

    @classmethod
    def from_callable(cls, grid: SpatialGrid, fn) -> "DensityField":
        """Density of a pointwise ``fn``, sampled by ``grid.sample``."""
        return cls(grid, grid.sample(fn))

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

    def active_density(self, u: Array, out: Array | None = None) -> Array:
        """Density of an active point, ``u = lam - (V - alpha) > 0``.

        The root ``t >= rho_jump`` of ``e'(t) = u``, i.e. the larger root of
        ``3 a t^2 - 2 i_w t = lam - V``; it tends to ``rho_jump`` as
        ``u -> 0``. Values are clamped to at least ``rho_jump`` so that
        rounding never puts an active point inside the jump gap. Written
        into ``out`` (which may be ``u``) when given.
        """
        a = self.cubic_coefficient
        t = np.multiply(3.0 * a, u, out=out)  # the rest in place: this runs on every mass evaluation
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


def _energy_terms(
    grid: SpatialGrid, values: Array, s: Array, c_tf: float, i_w: float, alpha: float = 0.0
) -> EnergyBreakdown:
    """The three terms at a density, given the thresholds ``s = V - alpha``.

    ``I(V rho) = I(s rho) + alpha I(rho)``, so a 1D solve never holds V beside
    s. The sums run over slices, so no grid-sized temporary is formed.
    """
    p = 1.0 + 2.0 / grid.d
    power = square = linear = 0.0
    for b in _slices(values.size):
        rho = values[b]
        power += float(np.sum(rho**p))
        square += float(np.sum(rho**2))
        linear += float(np.sum(s[b] * rho))
    h = grid.cell_volume
    return EnergyBreakdown(c_tf * (h * power), h * linear + alpha * grid.integrate(values), -i_w * (h * square))


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
    v = rho.grid.sample(potential.evaluate)
    return _energy_terms(rho.grid, rho.values, v, constants.c_tf, i_w)


def _ramp(kappa: float):
    """2D activation profile ``g(u) = u / (2 kappa)``, written into ``out`` when given."""
    return lambda u, out=None: np.divide(u, 2.0 * kappa, out=out)


def _pointwise_density(s: Array, lam: float, profile, out: Array | None = None) -> Array:
    """Grid density at multiplier ``lam``: ``g(lam - s)`` where ``s < lam``, else 0.

    This is the activation rule of the mass map. In 1D (``s = V - alpha``,
    ``g = rel.active_density``) it is the per-point minimizer of
    ``J(t) + (V - alpha - lam) t`` over t >= 0: with ``u = lam - s``, below
    the jump density the tilted energy is ``-u t``, and above it the convex
    branch ``e(t) - u t`` with ``e(rho_jump) = e'(rho_jump) = 0``. So the
    minimum is negative and sits at ``e'(t) = u`` iff ``u > 0``, and is 0 at
    t = 0 otherwise. Exact ties go to 0, which reproduces the jump of the
    continuum minimizer instead of smearing it across a cell.

    The density is written slice by slice into ``out`` (which may be ``s``);
    ``profile(u, out=u)`` must work in place. Distinct floats have a nonzero
    difference, so ``u = lam - s > 0`` exactly where ``s < lam``.
    """
    if out is None:
        out = np.empty_like(s)
    for b in _slices(s.size):
        u = np.subtract(lam, s[b], out=out[b])
        inactive = u <= 0.0
        np.maximum(u, 0.0, out=u)  # keeps the profile's square root real
        profile(u, out=u)
        u[inactive] = 0.0
    return out


def _mass(s: Array, lam: float, profile, volume: float) -> float:
    """Mass ``volume * sum g(lam - s_i)`` over the active ``s_i < lam``; ``s`` is sorted.

    Summed over slices of the active prefix, so a probe allocates O(block).
    """
    total = 0.0
    for b in _slices(int(np.searchsorted(s, lam))):
        u = np.subtract(lam, s[b])
        total += float(np.sum(profile(u, out=u)))
    return volume * total


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

    The sorted copy of ``s`` is the only grid-sized array this adds: the
    density is written into it once ``lam`` is known.
    """
    t = np.sort(s)  # NaN sorts last
    if not (np.isfinite(t[0]) and np.isfinite(t[-1])):
        raise ValidationError("potential samples must be finite")
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
    values = _pointwise_density(s, lam, profile, out=t)
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
    Mass and slope are summed over slices of ``active``.
    """
    a = rel.cubic_coefficient
    lam = lo
    for _ in range(_MAX_NEWTON_STEPS):
        mass = slope = 0.0
        for b in _slices(active.size):
            rho = np.subtract(lam, active[b])
            rel.active_density(rho, out=rho)
            mass += float(np.sum(rho))
            rho *= 6.0 * a
            rho -= 2.0 * rel.i_w
            slope += float(np.sum(np.reciprocal(rho, out=rho)))
        nxt = min(lam + (1.0 - volume * mass) / (volume * slope), hi)
        if not nxt > lam:
            break
        lam = nxt
    return lam


def _el_defects(values: Array, s: Array, lam: float, derivative) -> tuple[float, float]:
    """(sup over supp(rho) of ``|derivative(rho) + s - lam|``, min over the complement of ``s - lam``).

    Taken slice by slice; rounding is monotone, so the complement's minimum
    of ``s - lam`` is its minimum of ``s``, minus ``lam``.
    """
    supp_residual, comp_min = 0.0, math.inf
    for b in _slices(values.size):
        rho, sb = values[b], s[b]
        supp = rho > 0
        if supp.any():
            r = derivative(rho[supp])
            r += sb[supp]
            r -= lam
            supp_residual = max(supp_residual, float(np.max(np.abs(r, out=r))))
        if not supp.all():
            comp_min = min(comp_min, float(np.min(sb, where=~supp, initial=math.inf)) - lam)
    return supp_residual, comp_min


def _min_where(values: Array, mask: Array) -> float:
    """Smallest value under ``mask``, NaN when the mask is empty."""
    low = float(np.min(values, where=mask, initial=math.inf))
    return low if low < math.inf else math.nan


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
    v = grid.sample(potential.evaluate)
    volume = grid.cell_volume
    ramp = _ramp(kappa)

    def closed_form(active: Array, lo: float, hi: float) -> float:
        return (2.0 * kappa / volume + float(np.sum(active))) / active.size

    lam, values = _solve_unit_mass(v, ramp, volume, tol, closed_form)
    _check_support_inside(grid, values)
    rho = DensityField(grid, values)
    residual, comp_min = _el_defects(values, v, lam, lambda t: 2.0 * kappa * t)
    return TFSolution(
        rho=rho,
        lam=lam,
        energy=_energy_terms(grid, values, v, constants.c_tf, i_w),
        el_residual=residual,
        el_complement_min=comp_min,
        mass_gap=abs(rho.mass - 1.0),
        c_tf=constants.c_tf,
        i_w=i_w,
        support_interior_min=_min_where(values, values > 0),
    )


def _support_interior(grid: SpatialGrid, values: Array) -> Array:
    """Mask of support points all of whose grid neighbors are also occupied."""
    pos = (values > 0).reshape(grid.shape)
    interior = pos.copy()
    for axis in range(grid.d):
        inner, occupied = np.moveaxis(interior, axis, 0), np.moveaxis(pos, axis, 0)
        inner[1:] &= occupied[:-1]
        inner[:-1] &= occupied[1:]
        inner[0] = inner[-1] = False
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
    s = grid.sample(potential.evaluate)
    s -= rel.alpha
    h = grid.cell_volume
    lam, values = _solve_unit_mass(
        s, rel.active_density, h, tol, lambda active, lo, hi: _newton_segment_root(active, lo, hi, rel, h)
    )
    _check_support_inside(grid, values)
    rho = DensityField(grid, values)
    residual, comp_min = _el_defects(values, s, lam, rel.local_energy_derivative)
    interior_min = _min_where(values, _support_interior(grid, values))
    return TFSolution(
        rho=rho,
        lam=lam,
        energy=_energy_terms(grid, values, s, rel.c_tf, rel.i_w, rel.alpha),
        el_residual=residual,
        el_complement_min=comp_min,
        mass_gap=abs(rho.mass - 1.0),
        c_tf=rel.c_tf,
        i_w=rel.i_w,
        eta=rel.eta,
        support_interior_min=interior_min,
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
    s = grid.sample(potential.evaluate)
    s -= rel.alpha
    return DensityField(grid, _pointwise_density(s, lam, rel.active_density, out=s))


def el_residual(sol: TFSolution, potential: TrapPotential, rel: RelaxedLocalEnergy | None = None):
    """Euler-Lagrange defect of a solution (or of any density in a TFSolution).

    Returns ``(sup-norm of the stationarity defect on supp(rho),
    min over the complement of V - alpha - lam)``. A valid minimizer has the
    first ~ 0 and the second >= -tol. In 2D the stationarity condition is
    ``2 (c_tf - i_w) rho + V = lam`` and alpha plays no role.
    """
    grid = sol.rho.grid
    v = grid.sample(potential.evaluate)
    if grid.d == 2:
        kappa = sol.c_tf - sol.i_w
        return _el_defects(sol.rho.values, v, sol.lam, lambda t: 2.0 * kappa * t)
    if rel is None:
        rel = RelaxedLocalEnergy(sol.c_tf, sol.i_w, sol.eta)
    v -= rel.alpha
    return _el_defects(sol.rho.values, v, sol.lam, rel.local_energy_derivative)


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
    v = rho.grid.sample(potential.evaluate)
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
    v = grid.sample(potential.evaluate)
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
