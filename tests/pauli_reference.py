"""Reference Pauli Monte Carlo, kept as the oracle of the blocked, pooled run.

This is the serial whole-chunk loop: each ``PAULI_CHUNK`` of trials is drawn
at once from its spawned generator, tested with one ``in_cell`` call, and the
chunks run one after another in the calling thread. The interval and the
exact tail are formed as in the module.
"""

import math

import numpy as np
from scipy.special import bdtrc, betaincinv

from fermigas.df_measures import PAULI_CHUNK, TWO_PI, PauliViolationStats


def ref_pauli_violation_stats(sampler, tiling, cell, epsilon, n_particles, n_trials, seed, exact_cell_prob=None):
    threshold_count = math.ceil((1.0 + epsilon) * tiling.cell_volume / TWO_PI**tiling.d * n_particles)
    seeds = np.random.SeedSequence(seed).spawn(max(1, (n_trials + PAULI_CHUNK - 1) // PAULI_CHUNK))
    hits = 0
    done = 0
    for ss in seeds:
        size = min(PAULI_CHUNK, n_trials - done)
        if size <= 0:
            break
        rng = np.random.default_rng(ss)
        counts = tiling.in_cell(sampler(rng, size, n_particles), cell).sum(axis=1)
        hits += int((counts >= threshold_count).sum())
        done += size
    ci_low = float(betaincinv(hits, n_trials - hits + 1, 0.025)) if hits > 0 else 0.0
    ci_high = float(betaincinv(hits + 1, n_trials - hits, 0.975)) if hits < n_trials else 1.0
    exact = None
    if exact_cell_prob is not None:
        exact = float(bdtrc(min(threshold_count - 1, n_particles), n_particles, exact_cell_prob))
    return PauliViolationStats(frequency=hits / n_trials, ci_low=ci_low, ci_high=ci_high, exact_tail=exact)
