"""What the benchmark under ``bench/`` calls in the package.

The benchmark wraps the functions named in ``bench/spans.py`` ``TRACED`` and
calls a few of them with fixed signatures from ``bench/workloads.py``; a
rename or deletion here would otherwise surface only as a failed benchmark
run. ``bench/spans.py`` is loaded read-only, by path. The last two tests
read ``bench/`` and ``src/`` as source text and ask that every public name
of the package, and every public method and property of its public classes,
has a caller there.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from fermigas.husimi import OneBodyOperator, hartree_energy
from fermigas.model import SpatialGrid, bump_profile, harmonic_potential, scaled_interaction
from fermigas.oracle import DiscreteHamiltonian, ground_state


def load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    previous, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache file under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
    return module


TRACED = load_spans().TRACED


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in sorted(TRACED.items()) for name in names]
)
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"fermigas.{layer}")
    assert callable(getattr(module, name, None)), f"fermigas.{layer}.{name}"


def test_hamiltonian_build_runs_in_post_init():
    assert callable(DiscreteHamiltonian.__dict__.get("__post_init__"))


def test_ground_state_accepts_seed():
    assert "seed" in inspect.signature(ground_state).parameters


def test_hartree_energy_returns_its_four_terms():
    grid = SpatialGrid(1, 2.5, 16)
    gamma = OneBodyOperator(grid, np.eye(grid.size) / grid.size)
    w_n = scaled_interaction(bump_profile(1, beta=0.2), 2)
    out = hartree_energy(gamma, harmonic_potential(1), w_n, 2)
    assert set(out) == {"kinetic_term", "potential_term", "interaction_term", "total"}


# Public names that nothing in src/ or bench/ calls, each kept for a reason.
UNCALLED_PUBLIC_NAMES = {
    # the TF functional itself, which the tests compare every minimizer against
    ("tf_solver", "tf_energy"),
    # the pointwise Husimi reference; ROADMAP item 7 tabulates the exact N-body law with it
    ("husimi", "husimi_at_samples"),
    # ROADMAP item 7 samples the oracle's N <= 3 Husimi law with it
    ("df_measures", "exchangeable_law_sampler"),
}

# Public methods and properties that nothing in src/ or bench/ calls, each kept for a reason.
UNCALLED_PUBLIC_MEMBERS = {
    # acceptance 06 builds its law with it
    ("df_measures", "FiniteExchangeableLaw.from_product"),
    # ROADMAP item 7 tabulates the oracle's Husimi weights at cell centres with these two
    ("df_measures", "FiniteExchangeableLaw.from_tensor"),
    ("df_measures", "Tiling.cell_centers"),
    # the definition of J that the tests check relaxed_energy's masked sum against
    ("tf_solver", "RelaxedLocalEnergy.relaxed_local_energy"),
}


def _identifiers(node) -> set[str]:
    """Names, attributes, imported names and identifier-like strings (bench/spans.py names functions by string)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _sources() -> tuple[list[Path], list[Path]]:
    """The package's modules, and those together with the benchmark's."""
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "fermigas").glob("*.py"))
    return package, package + sorted((root / "bench").glob("*.py"))


def test_every_public_name_has_a_caller():
    package, sources = _sources()
    used, public = set(), set()
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            ids = _identifiers(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                ids.discard(node.name)  # a reference inside its own definition is not a caller
                if path in package and not node.name.startswith("_"):
                    public.add((path.stem, node.name))
            used |= ids
    uncalled = {(module, name) for module, name in public if name not in used}
    assert uncalled == UNCALLED_PUBLIC_NAMES


def test_every_public_method_has_a_caller():
    package, sources = _sources()
    used, public = set(), set()
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                used |= _identifiers(node)
                continue
            for member in node.body:
                ids = _identifiers(member)
                if isinstance(member, ast.FunctionDef):
                    ids.discard(member.name)  # a reference inside its own definition is not a caller
                    if path in package and not node.name.startswith("_") and not member.name.startswith("_"):
                        public.add((path.stem, f"{node.name}.{member.name}"))
                used |= ids
    uncalled = {(module, name) for module, name in public if name.partition(".")[2] not in used}
    assert uncalled == UNCALLED_PUBLIC_MEMBERS
