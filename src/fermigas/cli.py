"""Command-line entry point.

Subcommands wire JSON configs into the computational modules and emit
machine-readable artifacts (JSON for records, CSV for anything plotted),
each run sealed by a manifest written last. Exit codes: 0 success, 2 config
or validation failure, 3 numeric failure, 4 cap violation; errors are
reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shlex
import sys
import time

if __name__ == "__main__":
    # BLAS fixes its thread count when numpy loads it, so cap it first
    from .__main__ import apply_thread_cap

    apply_thread_cap(sys.argv[1:])

import numpy as np

from . import __version__
from .__main__ import thread_cap
from .errors import CapExceededError, ConfigError, FermigasError, NumericError, ValidationError
from .model import (
    ConstantsSource,
    ModelConfig,
    SpatialGrid,
    audit_constants,
    config_from_dict,
    load_config,
    read_config,
    scaled_interaction,
    slater_operator,
    theorem_beta_limit,
)

SCHEMA_VERSION = 1

_SUMMARY_ARTIFACT = {
    "tf-minimize": "solution.json",
    "vlasov-lift": "vlasov_report.json",
    "husimi": "husimi_summary.json",
    "semiclassics-check": "semiclassics.json",
    "oracle": "oracle.json",
    "df-experiment": "df_stats.json",
    "constants-audit": "constants_audit.json",
}


def _atomic_write(path: str, data: bytes):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp.{os.getpid()}.{os.path.basename(path)}")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n"


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


class RunWriter:
    """Collects artifacts for one run and seals them with a manifest."""

    def __init__(self, out_dir: str, subcommand: str, config_payload, seed=None, constants=None):
        self.out_dir = out_dir
        self.subcommand = subcommand
        self.seed = seed
        self.constants = constants
        self.started = time.monotonic()
        self.outputs: list[tuple[str, str]] = []
        canon = json.dumps(config_payload, sort_keys=True, separators=(",", ":"), default=str)
        self.config_hash = hashlib.sha256(canon.encode()).hexdigest()

    def write(self, name: str, data: bytes):
        _atomic_write(os.path.join(self.out_dir, name), data)
        self.outputs.append((name, hashlib.sha256(data).hexdigest()))

    def write_json(self, name: str, payload: dict):
        payload = dict(payload)
        payload.setdefault("schema_version", SCHEMA_VERSION)
        self.write(name, _json_bytes(payload))

    def write_csv(self, name: str, header: list[str], rows: list[list]):
        self.write(name, _csv_bytes(header, rows))

    def seal(self):
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "subcommand": self.subcommand,
            "package_version": __version__,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "constants": self.constants,
            "wall_clock_s": round(time.monotonic() - self.started, 6),
            "outputs": [{"path": p, "sha256": h} for p, h in self.outputs],
        }
        _atomic_write(os.path.join(self.out_dir, "manifest.json"), _json_bytes(manifest))


def _load_model(args) -> ModelConfig:
    if getattr(args, "config", None) is None:
        raise ConfigError("this subcommand requires --config")
    return _warned(load_config(args.config))


def _warned(cfg: ModelConfig) -> ModelConfig:
    """Print a stderr line for paper-literal constants and for beta outside the theorem range."""
    if cfg.constants.source is ConstantsSource.PAPER_LITERAL:
        print(
            "warning: paper-literal kinetic constants selected; phase-space/density "
            "cross-identities will disagree by the audited factor",
            file=sys.stderr,
        )
    if cfg.interaction is not None and cfg.beta >= theorem_beta_limit(cfg.d):
        print(
            f"warning: beta = {cfg.beta:g} is at or above 2/(d(2d+1)) = {theorem_beta_limit(cfg.d):.6g} "
            f"in d = {cfg.d}, outside the two-sided energy theorem's range; only the upper bound applies",
            file=sys.stderr,
        )
    return cfg


def _grid_rows(grid: SpatialGrid, values) -> tuple[list[str], list[list]]:
    pts = grid.points()
    if grid.d == 1:
        return ["x", "rho"], [[float(x), float(v)] for (x,), v in zip(pts, values)]
    return ["x", "y", "rho"], [[float(x), float(y), float(v)] for (x, y), v in zip(pts, values)]


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_constants_audit(args) -> int:
    report = audit_constants(args.d)
    writer = RunWriter(args.out, "constants-audit", {"d": args.d})
    writer.write_json("constants_audit.json", report)
    writer.seal()
    print(json.dumps(report["conventions"], indent=2, sort_keys=True))
    return 0


def _cmd_tf_minimize(args) -> int:
    from .tf_solver import (
        RelaxedLocalEnergy,
        minimize_1d_relaxed,
        minimize_2d,
        relaxed_energy,
    )

    cfg = _load_model(args)
    i_w = cfg.interaction.i_w if cfg.interaction is not None else 0.0
    relaxation = None
    if cfg.d == 2:
        sol = minimize_2d(cfg.potential, cfg.constants, i_w, cfg.grid, tol=args.tol)
    else:
        rel = RelaxedLocalEnergy(cfg.constants.c_tf, i_w)
        sol = minimize_1d_relaxed(cfg.potential, rel, cfg.grid, tol=args.tol)
        relaxation = relaxed_energy(sol.rho, cfg.potential, rel)
    record = {
        "lambda": sol.lam,
        "energy": {
            "kinetic_term": sol.energy.kinetic_term,
            "potential_term": sol.energy.potential_term,
            "interaction_term": sol.energy.interaction_term,
            "total": sol.energy.total,
        },
        "el_residual": sol.el_residual,
        "el_complement_min": sol.el_complement_min,
        "mass_gap": sol.mass_gap,
        "support_interior_min": sol.support_interior_min,
        "relaxed_energy": relaxation,
        "relaxation_gap": None if relaxation is None else abs(sol.energy.total - relaxation),
        "c_tf": sol.c_tf,
        "i_w": sol.i_w,
        "d": cfg.d,
        "grid": {"half_width": cfg.grid.half_width, "points_per_axis": cfg.grid.points_per_axis},
    }
    writer = RunWriter(args.out, "tf-minimize", cfg.raw, constants=cfg.constants.source.value)
    writer.write_json("solution.json", record)
    header, rows = _grid_rows(cfg.grid, sol.rho.values)
    writer.write_csv("density.csv", header, rows)
    writer.seal()
    print(f"lambda = {sol.lam:.10g}   E = {sol.energy.total:.10g}   mass gap = {sol.mass_gap:.3g}")
    return 0


def _read_density_csv(path: str, grid: SpatialGrid):
    from .tf_solver import DensityField

    try:
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]  # below the header
    except FileNotFoundError:
        raise ConfigError(f"density file not found: {path}") from None
    if len(rows) != grid.size:
        raise ConfigError(f"density file has {len(rows)} rows for a grid of size {grid.size}")
    try:
        table = np.array([[float(v) for v in r] for r in rows])
    except ValueError as exc:  # a non-numeric entry, or rows of unequal length
        raise ConfigError(f"density file is not a numeric table: {exc}") from None
    if table.shape[1] != grid.d + 1:
        raise ConfigError(f"density file has {table.shape[1]} columns, not {grid.d + 1}, for a {grid.d}D grid")
    # the coordinate columns must be the grid's own points (tf-minimize writes them exactly)
    if not np.all(np.abs(table[:, :-1] - grid.points()) <= 1e-9 * grid.spacing):
        raise ConfigError(f"density file's coordinates are not the config grid's points: {path}")
    return DensityField(grid, table[:, -1])


def _cmd_vlasov_lift(args) -> int:
    from .vlasov import bathtub_lift, vlasov_energy

    cfg = _load_model(args)
    rho = _read_density_csv(args.density, cfg.grid)
    # the lift's energies are closed-form ball integrals, so of the momentum
    # grid only its half-width is read, to check that it covers the Fermi radius
    p_max = 1.1 * cfg.constants.c_d * float(rho.values.max()) ** (1.0 / cfg.d) + 1e-9
    momentum = SpatialGrid(cfg.d, p_max, 128)
    lift = bathtub_lift(rho, cfg.constants, momentum)
    i_w = cfg.interaction.i_w if cfg.interaction is not None else 0.0
    report = vlasov_energy(lift, cfg.potential, i_w)
    record = {
        "kinetic_term": report.kinetic_term,
        "potential_term": report.potential_term,
        "interaction_term": report.interaction_term,
        "total": report.total,
        "normalization": report.normalization,
        "mode": report.mode,
        "pauli_bound_ok": True,  # a lift is a 0/1 indicator by construction
    }
    if cfg.interaction is not None and cfg.n_particles:
        scaled = scaled_interaction(cfg.interaction, cfg.n_particles)
        record["scaled_interaction_term"] = vlasov_energy(
            lift, cfg.potential, i_w, w_n=scaled
        ).interaction_term
    writer = RunWriter(args.out, "vlasov-lift", cfg.raw, constants=cfg.constants.source.value)
    writer.write_json("vlasov_report.json", record)
    writer.seal()
    print(f"E^V = {report.total:.10g}   normalization = {report.normalization:.10g}")
    return 0


def _slater_model(cfg: ModelConfig, args, what: str):
    """The coherent family of a config and the Slater operator of its N lowest orbitals (1D only)."""
    from .husimi import CoherentFamily, lowest_orbitals

    if cfg.d != 1:
        raise ConfigError(f"{what} are desk-scale 1D only")
    if cfg.n_particles is None:
        raise ConfigError("this subcommand needs 'n_particles' in the config")
    beta = cfg.beta if cfg.beta is not None else 0.0
    family = CoherentFamily.default(cfg.n_particles, beta, hbar_x=args.hbar_x)
    orbitals = lowest_orbitals(cfg.grid, cfg.potential, cfg.n_particles, family.hbar)
    return family, slater_operator(orbitals, cfg.grid)


def _cmd_husimi(args) -> int:
    from .husimi import husimi_grid_table

    cfg = _load_model(args)
    family, gamma = _slater_model(cfg, args, "husimi tables")
    table = husimi_grid_table(gamma, family)
    rows = []
    for ix, x in enumerate(table.x_axis):
        for ip, p in enumerate(table.p_axis):
            rows.append([float(x), float(p), float(table.values[ix, ip])])
    writer = RunWriter(
        args.out, "husimi", {"config": cfg.raw, "hbar_x": family.hbar_x}, constants=cfg.constants.source.value
    )
    writer.write_csv("husimi.csv", ["x", "p", "m1"], rows)
    writer.write_json(
        "husimi_summary.json",
        {
            "n_particles": cfg.n_particles,
            "hbar_x": family.hbar_x,
            "hbar_p": family.hbar_p,
            "max_m1": float(table.values.max()),
            "pauli_ok": bool(table.values.max() <= 1.0 + 1e-6),
        },
    )
    writer.seal()
    print(f"husimi table written ({len(rows)} rows), max m1 = {table.values.max():.6f}")
    return 0


def _cmd_semiclassics_check(args) -> int:
    from .husimi import marginal_identity_report, semiclassical_error_decomposition

    cfg = _load_model(args)
    if args.smear_hbar_x is not None and cfg.interaction is None:
        raise ConfigError("--smear-hbar-x sets the scale of the kernel blur and needs an interaction in the config")
    family, gamma = _slater_model(cfg, args, "semiclassics checks")
    w_n = None
    if cfg.interaction is not None:
        w_n = scaled_interaction(cfg.interaction, cfg.n_particles)
    # the smearing scale is swept independently of the frame scale: the
    # smearing convolutions run on their own fine mesh and stay resolved at
    # values far below what the operator grid could support
    if args.smear_hbar_x is not None:
        hbar_x_values = (args.smear_hbar_x,)
    else:
        hbar_x_values = (1e-2, 1e-3, 1e-4)
    report = semiclassical_error_decomposition(
        gamma, family, cfg.potential, w_n=w_n, hbar_x_values=hbar_x_values
    )
    marginals = marginal_identity_report(gamma, family)
    record = {
        "hbar_x": family.hbar_x,
        "hbar_p": family.hbar_p,
        "kinetic_husimi": report.kinetic_husimi,
        "kinetic_spectral": report.kinetic_spectral,
        "measured_correction": report.measured_correction,
        "expected_correction": report.expected_correction,
        "correction_gap": abs(report.measured_correction - report.expected_correction),
        "potential_gap": report.potential_gap,
        "potential_gap_scale": report.potential_gap_scale,
        "marginal_space_l1": marginals["space_l1_gap"],
        "marginal_momentum_l1": marginals["momentum_l1_gap"],
        "smearing": report.smearing,
    }
    writer = RunWriter(
        args.out,
        "semiclassics-check",
        {"config": cfg.raw, "hbar_x": family.hbar_x, "smear_hbar_x": list(hbar_x_values)},
        constants=cfg.constants.source.value,
    )
    writer.write_json("semiclassics.json", record)
    writer.seal()
    print(
        f"kinetic correction {report.measured_correction:.8f} vs {report.expected_correction:.8f}"
    )
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import (
        ORACLE_MEMORY_CAP,
        DiscreteHamiltonian,
        apriori_diagnostics,
        free_fermion_energy,
        ground_state,
        oracle_memory_bytes,
        reduced_densities,
    )

    # the config's dict, or a 1D harmonic default, with each flag given replacing its key
    raw = read_config(args.config) if args.config is not None else {
        "d": 1, "potential": {"family": "harmonic"}, "grid": {"half_width": 2.5, "points_per_axis": 40}
    }
    if args.N is not None:
        raw["n_particles"] = args.N
    grid_flags = {"points_per_axis": args.M, "half_width": args.half_width}
    raw["grid"] = {**raw.get("grid", {}), **{k: v for k, v in grid_flags.items() if v is not None}}
    if args.potential is not None:
        raw["potential"] = {"family": args.potential}
    if args.beta is not None:
        raw["beta"] = args.beta
    if args.interaction is not None:
        raw["interaction"] = {"family": args.interaction}
    cfg = _warned(config_from_dict(raw))
    grid, n_particles = cfg.grid, cfg.n_particles
    if n_particles is None:
        raise ConfigError("oracle needs --N or n_particles in the config")
    w_n = scaled_interaction(cfg.interaction, n_particles) if cfg.interaction is not None else None

    cap = ORACLE_MEMORY_CAP if args.memory_cap is None else args.memory_cap << 20
    ham = DiscreteHamiltonian(grid, cfg.potential, n_particles, w_n=w_n, memory_cap=cap)
    energy, state = ground_state(ham, tol=args.tol)
    red = reduced_densities(state)
    apriori = apriori_diagnostics(state)
    record = {
        "energy": energy,
        "energy_per_particle": energy / n_particles,
        "n_particles": n_particles,
        "m_points": grid.points_per_axis,
        "basis_dim": ham.dim,
        "nnz": ham.matrix.nnz,
        "memory_estimate_mib": oracle_memory_bytes(grid.points_per_axis, n_particles) / 2**20,
        "occupations": [float(v) for v in sorted(red.occupations(), reverse=True)],
        "free_filling_energy": free_fermion_energy(ham),
        "kinetic_potential": apriori.kinetic_potential,
        "interaction_integral": apriori.interaction_integral,
    }
    writer = RunWriter(args.out, "oracle", raw)
    writer.write_json("oracle.json", record)
    header, rows = _grid_rows(grid, red.rho1)
    writer.write_csv("density1.csv", header, rows)
    mid = grid.points_per_axis // 2
    writer.write_csv(
        "rho2_slice.csv",
        ["x", "rho2_mid"],
        [[float(x), float(v)] for (x,), v in zip(grid.points(), red.rho2[mid])],
    )
    writer.seal()
    print(f"E({n_particles}) = {energy:.10g}   dim = {ham.dim}")
    return 0


# df-experiment flags that set one preset's tiling: dest -> (flag, the preset that reads it)
_PRESET_FLAGS = {
    "beta": ("--beta", "paper-scaling"),
    "n_boxes": ("--n-boxes", "paper-scaling"),
    "cells": ("--cells", "custom"),
    "half_width": ("--half-width", "custom"),
}


def _cmd_df_experiment(args) -> int:
    from .df_measures import (
        Tiling,
        decay_fit,
        paper_scaling,
        pauli_violation_stats,
        uniform_box_sampler,
    )

    for dest, (flag, reader) in _PRESET_FLAGS.items():
        if getattr(args, dest) is not None and args.preset != reader:
            raise ConfigError(f"{flag} sets the {reader!r} tiling; the {args.preset!r} preset does not read it")
    beta = args.beta
    if args.preset == "paper-scaling":
        beta = 0.2 if beta is None else beta
        preset = paper_scaling(args.N, 1, beta, 2.0, n_boxes=args.n_boxes)
        tiling = preset["tiling"]
        delta = preset["delta"]
    else:
        # default custom box has |S_L| = 2 pi so the Pauli level sits at mass 1
        half = args.half_width if args.half_width is not None else 0.5 * math.sqrt(2.0 * math.pi)
        tiling = Tiling.square(1, half, 2 if args.cells is None else args.cells)
        delta = 1.0 / 20.0
    exact_identities = None
    if args.exact_laws:
        exact_identities = _exact_law_checks()
    sampler = uniform_box_sampler(tiling)
    q = tiling.cell_volume / tiling.box_volume
    stats = pauli_violation_stats(
        sampler,
        tiling,
        cell=args.cell,
        epsilon=args.epsilon,
        n_particles=args.N,
        n_trials=args.trials,
        seed=args.seed,
        exact_cell_prob=q,
    )
    sweep_rows = []
    freqs, ns = [], []
    for n in args.sweep:
        # the same arguments and seed as the run above give the same result
        st = stats if n == args.N else pauli_violation_stats(
            sampler, tiling, args.cell, args.epsilon, n, args.trials, seed=args.seed, exact_cell_prob=q
        )
        sweep_rows.append([n, st.frequency, st.exact_tail])
        if st.frequency > 0:
            ns.append(n)
            freqs.append(st.frequency)
    fit = decay_fit(ns, freqs, args.epsilon, delta) if len(ns) >= 2 else None
    tiling_record = {
        "half_width": tiling.half_width,
        "cells_x": tiling.cells_x,
        "cells_p": tiling.cells_p,
        "cell_volume": tiling.cell_volume,
    }
    record = {
        "tiling": tiling_record,
        "epsilon": args.epsilon,
        "n_particles": args.N,
        "trials": args.trials,
        "frequency": stats.frequency,
        "ci": [stats.ci_low, stats.ci_high],
        "exact_tail": stats.exact_tail,
        "matches_exact": stats.matches_exact,
        "decay_fit": fit,
        "exact_identities": exact_identities,
        "ground_metric": "euclidean",
    }
    writer = RunWriter(
        args.out,
        "df-experiment",
        {"preset": args.preset, "N": args.N, "epsilon": args.epsilon, "trials": args.trials, "beta": beta,
         "tiling": tiling_record, "cell": args.cell, "sweep": args.sweep, "exact_laws": args.exact_laws},
        seed=args.seed,
    )
    writer.write_json("df_stats.json", record)
    writer.write_csv("decay.csv", ["N", "frequency", "exact_tail"], sweep_rows)
    writer.seal()
    print(
        f"P(violation) = {stats.frequency:.5f} (exact {stats.exact_tail:.5f}), "
        f"CI = [{stats.ci_low:.5f}, {stats.ci_high:.5f}]"
    )
    return 0


def _exact_law_checks() -> dict:
    """Exact rational identity table over small exchangeable laws."""
    from .df_measures import FiniteExchangeableLaw, tv_bound_check

    results = []
    for s_states, n in ((2, 2), (3, 3), (4, 4), (6, 5)):
        law = FiniteExchangeableLaw.uniform(s_states, n)
        first_exact = all(a == b for a, b in zip(law.marginal(1), law.mixture_marginal(1)))
        check = tv_bound_check(law, 2)
        results.append(
            {
                "states": s_states,
                "n_particles": n,
                "first_marginal_exact": bool(first_exact),
                "tv": float(check.tv),
                "bound": float(check.bound),
                "passed": bool(check.passed and first_exact),
            }
        )
    return {"laws": results, "all_passed": all(r["passed"] for r in results)}


def _flatten_scalars(payload, prefix="") -> dict[str, float]:
    out = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            out.update(_flatten_scalars(value, f"{prefix}{key}."))
    elif isinstance(payload, list):
        for idx, value in enumerate(payload):
            out.update(_flatten_scalars(value, f"{prefix}{idx}."))
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        out[prefix[:-1]] = float(payload)
    return out


def _cmd_sweep(args) -> int:
    sub = args.subcommand
    if sub not in _SUMMARY_ARTIFACT:
        raise ConfigError(f"sweep does not support subcommand {sub!r}")
    values = [v for v in (args.values.split(",") if args.values else []) if v != ""]
    forwarded = shlex.split(args.args) if args.args else []
    rows = []
    keys: list[str] = []
    for idx, raw_value in enumerate(values):
        child_out = os.path.join(args.out, f"sweep_{idx:03d}")
        argv = [sub, "--out", child_out] + forwarded
        argv += [f"--{args.param}", raw_value]
        code = main(argv)
        row = {"value": raw_value, "exit_code": code}
        if code == 0:
            with open(os.path.join(child_out, _SUMMARY_ARTIFACT[sub])) as fh:
                summary = _flatten_scalars(json.load(fh))
            row.update(summary)
            for key in summary:
                if key not in keys:
                    keys.append(key)
        rows.append(row)
    header = ["value", "exit_code"] + keys
    table = [[row.get(k, "") for k in header] for row in rows]
    writer = RunWriter(
        args.out, "sweep", {"subcommand": sub, "param": args.param, "values": values, "args": forwarded}
    )
    writer.write_csv("sweep.csv", header, table)
    writer.seal()
    print(f"sweep over {len(values)} values written to sweep.csv")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermigas",
        description="Thomas-Fermi / phase-space / semiclassical laboratory for trapped Fermi gases",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS/OpenMP threads and Monte Carlo workers (default: "
                             "FERMIGAS_THREADS, else the BLAS default and one worker per CPU); "
                             "applied before numpy loads, so it takes effect only as a process "
                             "argument, not in a call of main()")
    sub = parser.add_subparsers(dest="subcommand")

    def common(p):
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("constants-audit", help="compare the kinetic-coefficient conventions")
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_constants_audit)

    p = sub.add_parser("tf-minimize", help="minimize the density functional")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="largest accepted |mass - 1| of the returned density; exit 3 when no "
                        "multiplier meets it (unit mass inside a 1D activation jump whose ends are "
                        "both farther away, or tol below the float resolution of the mass)")
    common(p)
    p.set_defaults(handler=_cmd_tf_minimize)

    p = sub.add_parser("vlasov-lift", help="bath-tub lift of a density profile")
    p.add_argument("--config", required=True)
    p.add_argument("--density", required=True, help="density CSV (from tf-minimize)")
    common(p)
    p.set_defaults(handler=_cmd_vlasov_lift)

    p = sub.add_parser("husimi", help="one-particle Husimi table of a Slater state")
    p.add_argument("--config", required=True)
    p.add_argument("--hbar-x", dest="hbar_x", type=float, default=None)
    common(p)
    p.set_defaults(handler=_cmd_husimi)

    p = sub.add_parser("semiclassics-check", help="semiclassical error decomposition")
    p.add_argument("--config", required=True)
    p.add_argument("--hbar-x", dest="hbar_x", type=float, default=None,
                   help="squeezing scale of the coherent frame")
    p.add_argument("--smear-hbar-x", dest="smear_hbar_x", type=float, default=None,
                   help="single smearing scale for the kernel-blur table (needs an interaction)")
    common(p)
    p.set_defaults(handler=_cmd_semiclassics_check)

    p = sub.add_parser("oracle", help="exact small-N lattice ground state")
    p.add_argument("--config", default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--potential", default=None, help="potential family override")
    p.add_argument("--interaction", default=None, help="interaction family override")
    p.add_argument("--half-width", dest="half_width", type=float, default=None,
                   help="half-width of the lattice box [-L, L] (default: the config's, else 2.5)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="absolute bound on the ground-state residual ||Hx - Ex||, which also "
                        "sets where the iterative eigensolver stops; exit 3 when it is "
                        "exceeded or the iterative eigensolver does not converge")
    p.add_argument("--memory-cap", dest="memory_cap", type=int, default=None,
                   help="cap in MiB on the oracle's estimated peak memory (default: the "
                        "library's ORACLE_MEMORY_CAP); exit 4 above it")
    common(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("df-experiment", help="Pauli-violation statistics on a tiling")
    p.add_argument("--preset", choices=["paper-scaling", "custom"], default="custom")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--beta", type=float, default=None,
                   help="interaction exponent of the paper-scaling tiling (default 0.2); "
                        "exit 2 with the custom preset, which does not read it")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--cells", type=int, default=None,
                   help="cells per phase-space axis of the custom tiling (default 2); "
                        "exit 2 with the paper-scaling preset, which does not read it")
    p.add_argument("--cell", type=int, default=0)
    p.add_argument("--half-width", dest="half_width", type=float, default=None,
                   help="half-width of the custom tiling's box (default sqrt(2 pi) / 2, area 2 pi); "
                        "exit 2 with the paper-scaling preset, which does not read it")
    p.add_argument("--n-boxes", dest="n_boxes", type=int, default=None,
                   help="box count of the paper-scaling tiling (default set by N and --beta); "
                        "exit 2 with the custom preset, which does not read it")
    p.add_argument("--sweep", type=int, nargs="*", default=[16, 64, 256])
    p.add_argument("--exact-laws", dest="exact_laws", action="store_true",
                   help="also run the exact rational mixture-identity checks")
    common(p)
    p.set_defaults(handler=_cmd_df_experiment)

    p = sub.add_parser("sweep", help="run a subcommand over a list of parameter values")
    p.add_argument("--subcommand", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--values", default="", help="comma-separated values")
    p.add_argument("--args", default="", help="extra arguments forwarded to the subcommand")
    common(p)
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        thread_cap()
    except ValidationError as exc:
        parser.error(str(exc))
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (ConfigError, ValidationError) as exc:
        _report_error(exc)
        return 2
    except NumericError as exc:
        _report_error(exc)
        return 3
    except CapExceededError as exc:
        _report_error(exc)
        return 4
    except FermigasError as exc:
        _report_error(exc)
        return 3


def _report_error(exc: Exception):
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
