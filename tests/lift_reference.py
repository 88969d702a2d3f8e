"""Reference quantization of a bath-tub lift, kept as the oracle of the closed-form band sums.

This is the table path: the lift's 0/1 ``values`` table is read whole, one
real FFT over p gives m_hat(x, d) = sum_k m(x, p_k) exp(2 pi i k d / M) for
every lag that is read, and the lag loop is the module's. The hypothesis
checks are left out.
"""

import math

import numpy as np

from fermigas.husimi import _dual_lag_phases, _neighbors, _window


def ref_gamma_from_measure(m, family):
    """``gamma_from_measure``'s matrix from the lift's table and one real M x M FFT."""
    grid = m.grid
    window, r = _window(family, grid)
    size, width = grid.size, window.size
    lags = min(2 * r, size - 1)
    momentum, phases = _dual_lag_phases(grid, family.hbar, m.momentum, lags)
    if not np.any(m.values):
        return np.zeros((size, size))
    coef = grid.spacing**2 * momentum.cell_volume / (2.0 * math.pi * family.hbar)
    # m is real: m_hat(x, d) is the conjugate of rfft bin d for d <= M/2 and
    # rfft bin M - d above
    lag = np.arange(lags + 1)
    low = lag <= size // 2
    m_hat = np.fft.rfft(m.values, axis=1)[:, np.where(low, lag, size - lag)]
    m_hat[:, low] = np.conj(m_hat[:, low])
    out = np.zeros((size, size), dtype=complex)
    for d in range(lags + 1):
        j = np.arange(d, size)
        near = _neighbors(m_hat[:, d], r)[d:, : width - d]
        lower = coef * np.conj(phases[d]) * (near @ (window[d:] * window[: width - d]))
        out[j, j - d] = lower
        out[j - d, j] = np.conj(lower)
    return out
