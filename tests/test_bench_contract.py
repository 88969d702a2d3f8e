"""What the benchmark under ``bench/`` calls in the package.

The benchmark wraps the functions named in ``bench/spans.py`` ``TRACED`` and
calls a few of them with fixed signatures from ``bench/workloads.py``; a
rename or deletion here would otherwise surface only as a failed benchmark
run. ``bench/spans.py`` is loaded read-only, by path, and every module
attribute that ``bench/workloads.py`` reads must resolve. The caller-contract
tests read ``bench/`` and ``src/`` as source text and ask that every public
name of the package, every public method and property of its public
classes, and every defaulted parameter has a caller there, and that every
public dataclass field has a reader. The last tests parse the benchmark's
CLI commands and validate its configs, read from ``bench/workloads.py`` as
literals.
"""

import ast
import importlib
import importlib.util
import inspect
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from fermigas.cli import build_parser
from fermigas.husimi import hartree_energy
from fermigas.model import (
    OneBodyOperator,
    SpatialGrid,
    bump_profile,
    config_from_dict,
    harmonic_potential,
    scaled_interaction,
)
from fermigas.oracle import DiscreteHamiltonian, ground_state

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    path = ROOT / "bench" / "spans.py"
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


def _benchmark_attributes() -> set[tuple[str, str]]:
    """Every ``<module>.<name>`` that ``bench/workloads.py`` reads off a module of ``from fermigas import ...``."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fermigas"
        for alias in node.names
    }
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }


def test_benchmark_attributes_resolve():
    # re-exports such as husimi.slater_operator (defined in model) count: the benchmark reads them there
    attributes = _benchmark_attributes()
    assert ("husimi", "slater_operator") in attributes
    missing = {(m, n) for m, n in attributes if not hasattr(importlib.import_module(f"fermigas.{m}"), n)}
    assert not missing, sorted(missing)


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
    # ROADMAP item 7's two-particle Wick check evaluates the k = 2 Husimi function with it
    ("husimi", "husimi_at_samples"),
}

# Public methods and properties that nothing in src/ or bench/ calls, each kept for a reason.
UNCALLED_PUBLIC_MEMBERS = {
    # acceptance 06 builds its law with it
    ("df_measures", "FiniteExchangeableLaw.from_product"),
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
    package = sorted((ROOT / "src" / "fermigas").glob("*.py"))
    return package, package + sorted((ROOT / "bench").glob("*.py"))


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


# Defaulted parameters that no call in src/ or bench/ passes, each kept for a reason.
UNPASSED_DEFAULTS = {
    # the potential families' shape arguments, which potential_from_config fills from a config's "params"
    ("model", "harmonic_potential", "stiffness"),
    ("model", "quartic_potential", "stiffness"),
    ("model", "double_well_potential", "well_radius"),
    ("model", "double_well_potential", "stiffness"),
}

# Public dataclass fields that nothing in src/ or bench/ reads, each kept for a reason.
UNREAD_FIELDS = {
    # acceptance 03 asserts that relaxing the local energy moves the minimum by at most 1e-6
    ("tf_solver", "EquivalenceReport.difference"),
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef):
    """Yield ``(name, in_init, defaulted)`` for each field of a dataclass body."""
    for st in node.body:
        if not (isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)):
            continue
        value, in_init, defaulted = st.value, True, st.value is not None
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            in_init = not (isinstance(keywords.get("init"), ast.Constant) and keywords["init"].value is False)
            defaulted = "default" in keywords or "default_factory" in keywords
        yield st.target.id, in_init, defaulted


def _parameters(fn: ast.FunctionDef, bound: bool):
    """(positional parameter names, defaulted names) of a def; a bound method drops self or cls."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return (positional[1:] if bound else positional), defaulted


def _signatures():
    """Yield ``(module, label, called_as, positional, defaulted)`` for every public callable.

    A constructor is called by its class name; its parameters are those of
    ``__init__``, or a dataclass's init fields. Callables that nothing calls
    (the allowlists above) are left to those rules.
    """
    package, _ = _sources()
    for path in package:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if (path.stem, node.name) in UNCALLED_PUBLIC_NAMES:
                continue
            if isinstance(node, ast.FunctionDef):
                yield (path.stem, node.name, node.name, *_parameters(node, bound=False))
                continue
            if _is_dataclass(node):
                fields = [(name, defaulted) for name, in_init, defaulted in _dataclass_fields(node) if in_init]
                yield path.stem, node.name, node.name, [n for n, _ in fields], [n for n, d in fields if d]
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                if member.name == "__init__":
                    yield (path.stem, node.name, node.name, *_parameters(member, bound=True))
                elif not member.name.startswith("_"):
                    label = f"{node.name}.{member.name}"
                    if (path.stem, label) not in UNCALLED_PUBLIC_MEMBERS:
                        yield (path.stem, label, member.name, *_parameters(member, bound=True))


def _calls() -> dict[str, list[tuple[int, bool, set[str], bool]]]:
    """Per called name, each call's (plain positional count, has *args, keywords, has **kwargs).

    A call is named by its function's name or attribute; ``cls(...)`` inside a
    class body calls that class.
    """
    out: dict[str, list] = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name == "cls" and owner is not None:
                    name = owner
                if name is not None:
                    out.setdefault(name, []).append((
                        sum(not isinstance(a, ast.Starred) for a in child.args),
                        any(isinstance(a, ast.Starred) for a in child.args),
                        {k.arg for k in child.keywords if k.arg is not None},
                        any(k.arg is None for k in child.keywords),
                    ))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    _, sources = _sources()
    for path in sources:
        visit(ast.parse(path.read_text()), None)
    return out


def test_every_defaulted_parameter_is_passed():
    calls = _calls()
    unpassed = set()
    for module, label, called_as, positional, defaulted in _signatures():
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            if not any(
                param in keywords or double_star or (index is not None and (n_positional > index or star))
                for n_positional, star, keywords, double_star in calls.get(called_as, [])
            ):
                unpassed.add((module, label, param))
    assert unpassed == UNPASSED_DEFAULTS


def test_every_public_field_is_read():
    package, sources = _sources()
    read = {
        node.attr
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = set()
    for path in package:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_dataclass(node):
                for name, _, _ in _dataclass_fields(node):
                    if not name.startswith("_") and name not in read:
                        unread.add((path.stem, f"{node.name}.{name}"))
    assert unread == UNREAD_FIELDS


def _workload_literals() -> dict:
    """``CLI_COMMANDS`` and ``CLI_CONFIGS`` of ``bench/workloads.py``, read as literals (nothing is imported)."""
    out = {}
    for node in ast.parse((ROOT / "bench" / "workloads.py").read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("CLI_COMMANDS", "CLI_CONFIGS"):
                out[name] = ast.literal_eval(node.value)
    return out


BENCH_CLI = _workload_literals()


def _parse(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"the CLI rejects {argv}")
    assert hasattr(args, "handler"), argv
    return args


@pytest.mark.parametrize("name, template", BENCH_CLI["CLI_COMMANDS"], ids=[n for n, _ in BENCH_CLI["CLI_COMMANDS"]])
def test_benchmark_commands_parse(name, template):
    fill = {"cfg": "cfg", "out": "out", "root_out": "root_out", "seed": "0"}
    argv = [a.format(**fill) for a in template]
    args = _parse(argv)
    for config in (a for a in argv if a.startswith("cfg/")):
        assert config.removeprefix("cfg/") in BENCH_CLI["CLI_CONFIGS"], config
    if argv[0] == "sweep":
        # each child's argv as _cmd_sweep builds it (the sweep's --subcommand is now args.subcommand)
        for value in args.values.split(","):
            _parse([args.subcommand, "--out", "out"] + shlex.split(args.args) + [f"--{args.param}", value])


@pytest.mark.parametrize("name", sorted(BENCH_CLI["CLI_CONFIGS"]))
def test_benchmark_configs_validate(name):
    config_from_dict(BENCH_CLI["CLI_CONFIGS"][name])
