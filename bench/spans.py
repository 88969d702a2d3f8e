"""Spans around calls into the package's public functions, kept in memory.

The benchmark opens its own spans (CLI subprocesses, config building) and,
in a traced run, wraps the public functions listed in ``TRACED`` so that
every call into them is a span, including calls one package function makes
into another. A span's self time is its duration minus the time covered by
its child spans. Nothing in the package itself is edited: the wrappers are
installed on the module attributes for the traced pass and removed after.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# layer -> public functions whose self time is a per-layer metric
TRACED = {
    "husimi": (
        "lowest_orbitals",
        "gamma_from_measure",
        "husimi_grid_table",
        "marginal_identity_report",
        "semiclassical_error_decomposition",
        "frame_apply",
        "hartree_energy",
    ),
    "oracle": (
        "ground_state",
        "reduced_densities",
        "apriori_diagnostics",
        "slater_upper_bound",
        "free_fermion_energy",
    ),
    "tf_solver": (
        "minimize_1d_relaxed",
        "minimize_2d",
        "sample_minimizer",
        "relaxation_equivalence_check",
    ),
    "vlasov": ("bathtub_lift", "vlasov_energy", "tf_vlasov_equality_check"),
    "df_measures": ("tv_bound_check", "wasserstein1", "pauli_violation_stats"),
}

# the many-body Hamiltonian is built in the dataclass constructor
HAMILTONIAN_BUILD = "oracle.hamiltonian_build"


class Tracer:
    """Nested spans with self time, aggregated by (name, tag).

    ``tag`` labels the spans opened while it is set, so that one function
    can be timed separately at each size of a ladder.
    """

    def __init__(self):
        self.tag = None
        self._stack: list[list[float]] = []  # [start, child time] per open span
        self.self_time: dict[tuple[str, str | None], float] = {}

    @contextmanager
    def span(self, name: str):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += duration
            key = (name, self.tag)
            self.self_time[key] = self.self_time.get(key, 0.0) + duration - frame[1]

    @contextmanager
    def tagged(self, tag: str):
        previous, self.tag = self.tag, tag
        try:
            yield
        finally:
            self.tag = previous

    def total(self, name: str, tag: str | None = None) -> float:
        """Self time of ``name`` summed over all tags, or under one tag."""
        return sum(
            t for (n, g), t in self.self_time.items() if n == name and (tag is None or g == tag)
        )

    @contextmanager
    def instrument(self):
        """Wrap every function in ``TRACED`` (and the Hamiltonian build) in spans."""
        restore = []
        for layer, names in TRACED.items():
            module = sys.modules[f"fermigas.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapped = self._wrap(f"{layer}.{name}", original)
                # rebind in every package module that imported the function by name
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "fermigas" or mod_name.startswith("fermigas."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapped)
                                restore.append((mod, attr, original))
        ham_cls = sys.modules["fermigas.oracle"].DiscreteHamiltonian
        original_init = ham_cls.__post_init__
        ham_cls.__post_init__ = self._wrap(HAMILTONIAN_BUILD, original_init)
        restore.append((ham_cls, "__post_init__", original_init))
        try:
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class NullTracer:
    """Stand-in for untraced passes: spans and tags cost one no-op call."""

    @contextmanager
    def span(self, name: str):
        yield

    @contextmanager
    def tagged(self, tag: str):
        yield
