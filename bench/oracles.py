"""Reference values and checks that do not go through the code they check.

Each function here computes its answer from a closed form, a brute-force
enumeration or a different library routine (a dense DFT in place of the
package's per-mode transforms, an assignment solver in place of its LP).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction
from itertools import product

import numpy as np


class CheckFailed(Exception):
    """An output disagreed with its oracle."""


def check(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def close(value, expected, tol: float, what: str):
    check(
        abs(value - expected) <= tol,
        f"{what}: got {value!r}, expected {expected!r} within {tol:g}",
    )


# --- Thomas-Fermi closed forms ----------------------------------------------

# V = |x|^2 in 2D with kappa = c_tf - i_w = 4 pi: rho = (lam - r^2)_+ / (8 pi),
# unit mass gives lam^2 / 16 = 1, and the energy integrates to 8/3.
TF_2D_LAMBDA = 4.0
TF_2D_ENERGY = 8.0 / 3.0
# V = x^2 in 1D, no coupling, c_tf = pi^2: rho = sqrt((lam - x^2)_+ / (3 pi^2)),
# unit mass gives lam = 2 sqrt(3), and the energy is sqrt(3).
TF_1D_FREE_LAMBDA = 2.0 * math.sqrt(3.0)
TF_1D_FREE_ENERGY = math.sqrt(3.0)


def tf_energy_1d(values, v, h, c_tf, i_w) -> float:
    """Density functional c_tf I(rho^3) + I(V rho) - i_w I(rho^2) on a 1D grid."""
    return float(h * np.sum(c_tf * values**3 + v * values - i_w * values**2))


def support_interior_min(values) -> float:
    """Smallest density over support points whose two neighbours are occupied."""
    pos = values > 0
    interior = pos[1:-1] & pos[:-2] & pos[2:]
    inner = values[1:-1][interior]
    return float(inner.min()) if inner.size else math.nan


# --- coherent frames ----------------------------------------------------------


def envelope_gradient_norm_sq() -> float:
    """||f'||^2 / ||f||^2 for the bump exp(-1/(1-u^2)), by Gauss-Legendre on [-1, 1]."""
    u, w = np.polynomial.legendre.leggauss(400)
    bump = np.exp(-1.0 / (1.0 - u**2))
    deriv = bump * (-2.0 * u / (1.0 - u**2) ** 2)
    return float(np.sum(w * deriv**2) / np.sum(w * bump**2))


def lattice_one_body(axis, v, hbar) -> np.ndarray:
    """Dense 3-point -hbar^2 Laplacian (Dirichlet) plus diag(V)."""
    h = axis[1] - axis[0]
    t = hbar**2 / h**2
    m = axis.size
    return np.diag(2.0 * t + v) - t * (np.eye(m, k=1) + np.eye(m, k=-1))


def dual_momentum_axis(axis, hbar) -> np.ndarray:
    """Cell-centred momenta on the lattice-dual cell of half-width pi hbar / h."""
    h = axis[1] - axis[0]
    half = math.pi * hbar / h
    dp = 2.0 * half / axis.size
    return -half + dp * (np.arange(axis.size) + 0.5)


def momentum_density(matrix, axis, hbar) -> np.ndarray:
    """t(p) = h / (2 pi hbar) * e_p^H B e_p for an occupancy-form operator B."""
    h = axis[1] - axis[0]
    p = dual_momentum_axis(axis, hbar)
    e = np.exp(1j * np.outer(axis, p) / hbar)  # (y, p)
    quad = np.einsum("yp,yz,zp->p", e.conj(), matrix, e, optimize=True)
    return np.real(quad) * h / (2.0 * math.pi * hbar)


def window_momentum_profile(window, axis, hbar) -> np.ndarray:
    """|g(p_k)|^2 on the periodic offset lattice k * dp of the dual cell."""
    h = axis[1] - axis[0]
    p = dual_momentum_axis(axis, hbar)
    dp = p[1] - p[0]
    offsets = np.arange(axis.size) * dp
    g = (2.0 * math.pi * hbar) ** -0.5 * h * (np.exp(-1j * np.outer(offsets, axis) / hbar) @ window(axis))
    return np.abs(g) ** 2


def husimi_identities(table, matrix, axis, hbar, n_particles, window, hbar_p) -> dict:
    """Relative defects of the Husimi space, momentum, trace and kinetic identities.

    ``table[x, p]`` is the one-particle Husimi function of the occupancy-form
    operator ``matrix`` on the spatial grid times the dual momentum grid;
    ``window(y)`` is the coherent-state envelope centred at 0.
    """
    h = axis[1] - axis[0]
    p = dual_momentum_axis(axis, hbar)
    dp = p[1] - p[0]
    n = n_particles
    trace = float(np.real(np.trace(matrix)))

    # space: n/(2 pi) * int m dp = |f^h|^2 * rho_gamma (discrete convolution)
    lhs_x = n / (2.0 * math.pi) * table.sum(axis=1) * dp
    rho = np.real(np.diag(matrix)) / h
    m = axis.size
    win2 = window(np.arange(1 - m, m) * h) ** 2  # even in the lattice offset
    rhs_x = np.convolve(rho, win2)[m - 1 : 2 * m - 1] * h
    space = float(np.sum(np.abs(lhs_x - rhs_x)) / np.sum(np.abs(lhs_x)))

    # momentum: n/(2 pi) * int m dx = t_gamma (*) |g|^2, periodic on the dual cell
    lhs_p = n / (2.0 * math.pi) * table.sum(axis=0) * h
    t = momentum_density(matrix, axis, hbar)
    g2 = window_momentum_profile(window, axis, hbar)
    rhs_p = np.real(np.fft.ifft(np.fft.fft(t) * np.fft.fft(g2))) * dp
    momentum = float(np.sum(np.abs(lhs_p - rhs_p)) / np.sum(np.abs(lhs_p)))

    # trace: (2 pi hbar)^-1 * int int m = tr gamma
    phase_space = float(table.sum() * h * dp / (2.0 * math.pi * hbar))
    trace_gap = abs(phase_space - trace) / trace

    # kinetic: Husimi kinetic energy exceeds the spectral one by tr(gamma) hbar_p ||f'||^2
    kin_husimi = float((table @ p**2).sum() * h * dp / (2.0 * math.pi * hbar))
    kin_spectral = float(np.sum(t * p**2) * dp)
    expected = trace * hbar_p * envelope_gradient_norm_sq()
    kinetic = abs(kin_husimi - kin_spectral - expected) / expected
    return {"space": space, "momentum": momentum, "trace": trace_gap, "kinetic": kinetic}


# --- lattice oracle -------------------------------------------------------------


def hopping_nnz(m_sites: int, n_particles: int) -> int:
    """Stored entries of the occupation-basis Hamiltonian: the diagonal plus
    one hop per (bond, configuration with exactly one end of the bond occupied)."""
    dim = math.comb(m_sites, n_particles)
    return dim + 2 * (m_sites - 1) * math.comb(m_sites - 2, n_particles - 1)


# --- exchangeable laws ------------------------------------------------------------


def iid_uniform_tv(n_states: int, n_particles: int, k: int) -> Fraction:
    """Exact TV between the k-marginal of the i.i.d. uniform law on S^N
    (uniform on S^k) and the k-marginal of its Diaconis-Freedman mixture,
    by enumerating all S^N ordered configurations."""
    configs = np.array(list(product(range(n_states), repeat=n_particles)), dtype=np.int64)
    counts = np.stack([(configs == s).sum(axis=1) for s in range(n_states)], axis=1)
    denom = n_states**n_particles * n_particles**k
    exact = Fraction(1, n_states**k)
    tv = Fraction(0)
    for prefix in product(range(n_states), repeat=k):
        weight = np.ones(len(configs), dtype=np.int64)
        for s in prefix:
            weight *= counts[:, s]
        tv += abs(Fraction(int(weight.sum()), denom) - exact)
    return tv


# --- Monte Carlo and transport ------------------------------------------------------

# The benchmark's own acceptance band for a Monte Carlo frequency: the
# exact-p binomial standard deviation times MC_SIGMAS, plus one count.
MC_SIGMAS = 5.0


def binomial_tail(n: int, q: float, k_min: int) -> float:
    """P(Binomial(n, q) >= k_min), summed term by term."""
    return float(sum(math.comb(n, j) * q**j * (1.0 - q) ** (n - j) for j in range(k_min, n + 1)))


def mc_within_band(frequency: float, exact: float, trials: int) -> bool:
    band = MC_SIGMAS * math.sqrt(exact * (1.0 - exact) / trials) + 1.0 / trials
    return abs(frequency - exact) <= band


def uniform_assignment_w1(a_pts, b_pts) -> float:
    """W1 between two uniform n-point clouds: an optimal plan is a permutation."""
    from scipy.optimize import linear_sum_assignment

    cost = np.linalg.norm(a_pts[:, None, :] - b_pts[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / len(a_pts))


# --- CLI artifacts -------------------------------------------------------------------


def check_manifests(out_dir: str):
    """Check every manifest under ``out_dir`` against the files it lists;
    raises on a missing manifest or file, or a checksum mismatch."""
    seen = 0
    for dirpath, _, files in os.walk(out_dir):
        if "manifest.json" not in files:
            continue
        with open(os.path.join(dirpath, "manifest.json")) as fh:
            manifest = json.load(fh)
        for entry in manifest["outputs"]:
            path = os.path.join(dirpath, entry["path"])
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            check(digest == entry["sha256"], f"checksum mismatch for {path}")
        seen += 1
    check(seen > 0, f"no manifest under {out_dir}")
