"""Reference Thomas-Fermi solve, kept as the oracle of the one-array fused solve.

This is the two-array path: the thresholds are sampled, a sorted copy is
searched for the unit-mass multiplier, the density is written over the copy,
and the Euler-Lagrange defects and the energies are then recomputed from the
density and the thresholds. ``el_residual`` is the independent recomputation
of a solution's certificates that the solver and the CLI record are checked
against.
"""

import math

import numpy as np

from fermigas import tf_solver
from fermigas.errors import ConvergenceError, MassJumpError, ValidationError
from fermigas.tf_solver import EnergyBreakdown, RelaxedLocalEnergy


def ref_pointwise_density(s, lam, profile):
    """The allocating activation rule: ``g(lam - s)`` where ``s < lam``, else 0."""
    out = np.zeros_like(s)
    active = s < lam
    out[active] = profile(lam - s[active])
    return out


def ref_mass(s, lam, profile, volume):
    """Mass over the whole active prefix of the sorted ``s``, in one sum."""
    active = s[: np.searchsorted(s, lam)]
    return volume * float(np.sum(profile(lam - active)))


def ref_newton_segment_root(active, lo, hi, rel, volume):
    a = rel.c_tf
    lam = lo
    for _ in range(100):
        rho = rel.active_density(lam - active)
        slope = volume * float(np.sum(1.0 / (6.0 * a * rho - 2.0 * rel.i_w)))
        nxt = min(lam + (1.0 - volume * float(np.sum(rho))) / slope, hi)
        if not nxt > lam:
            break
        lam = nxt
    return lam


def ref_solve_unit_mass(s, profile, volume, tol, segment_root, mass=ref_mass):
    """``(lam, density)`` of unit mass from a sorted copy of ``s``, which is left as it was.

    ``mass`` is the mass map the search probes: ``ref_mass`` (whole-prefix
    sums) or the solver's blocked ``tf_solver._mass``.
    """
    if not np.all(np.isfinite(s)):
        raise ValidationError("potential samples must be finite")
    t = np.sort(s)
    lo, hi = 1, t.size
    while lo < hi:
        mid = (lo + hi) // 2
        if mass(t, t[mid], profile, volume) >= 1.0:
            hi = mid
        else:
            lo = mid + 1
    lam_low = float(t[lo - 1])
    lam_high = float(np.nextafter(lam_low, np.inf))
    mass_low = mass(t, lam_low, profile, volume)
    mass_high = mass(t, lam_high, profile, volume)
    jump = mass_high >= 1.0
    if jump:
        lam = lam_low if 1.0 - mass_low <= mass_high - 1.0 else lam_high
    elif lo == t.size:
        raise ValidationError("unit mass needs every grid point occupied")
    else:
        lam = segment_root(t[:lo], lam_high, float(t[lo]))
    values = ref_pointwise_density(s, lam, profile)
    gap = abs(volume * float(np.sum(values)) - 1.0)
    if gap <= tol:
        return lam, values
    if jump:
        raise MassJumpError("jump", lam_low=lam_low, lam_high=lam_high, mass_low=mass_low, mass_high=mass_high)
    raise ConvergenceError("segment")


def ref_el_defects(values, s, lam, derivative):
    """(sup over supp(rho) of ``|derivative(rho) + s - lam|``, min over the complement of ``s - lam``)."""
    supp = values > 0
    r = np.abs(derivative(values[supp]) + s[supp] - lam)
    comp = s[~supp]
    return (float(r.max()) if r.size else 0.0), (float(comp.min()) - lam if comp.size else math.inf)


def ref_energy_terms(grid, values, s, c_tf, i_w, alpha=0.0):
    """The three terms at a density from the thresholds ``s = V - alpha``, summed over the solver's slices."""
    p = 1.0 + 2.0 / grid.d
    power = square = linear = 0.0
    step = tf_solver.SAMPLE_BLOCK_POINTS
    for i in range(0, values.size, step):
        rho, sb = values[i : i + step], s[i : i + step]
        power += float(np.sum(rho**p))
        square += float(np.sum(rho**2))
        linear += float(np.sum(sb * rho))
    h = grid.cell_volume
    return EnergyBreakdown(c_tf * (h * power), h * linear + alpha * grid.integrate(values), -i_w * (h * square))


def activation_rule(d, c_tf, i_w):
    """``(alpha, profile, derivative)`` of the activation rule in dimension ``d``."""
    if d == 2:
        kappa = c_tf - i_w
        return 0.0, tf_solver._ramp(kappa), lambda t: 2.0 * kappa * t
    rel = RelaxedLocalEnergy(c_tf, i_w)
    return rel.alpha, rel.active_density, rel.local_energy_derivative


def el_residual(sol, potential):
    """Euler-Lagrange defect of a solution (or of any density in a TFSolution).

    Returns ``(sup-norm of the stationarity defect on supp(rho),
    min over the complement of V - alpha - lam)``. A valid minimizer has the
    first ~ 0 and the second >= -tol. In 2D the stationarity condition is
    ``2 (c_tf - i_w) rho + V = lam`` and alpha plays no role.
    """
    grid = sol.rho.grid
    alpha, _, derivative = activation_rule(grid.d, sol.c_tf, sol.i_w)
    s = grid.sample(potential.evaluate) - alpha
    return ref_el_defects(sol.rho.values, s, sol.lam, derivative)
