"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
that ``setup_s`` times) and runs its tasks in ``run_pass``. Tasks run one
after another in one process (closed loop, one client); every task's output
goes through an oracle from ``oracles.py``, and a task fails on an
unexpected exception or a failed check. ``rec`` counts tasks and failures
and collects the counters a traced run reports.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import traceback
from fractions import Fraction

import numpy as np

import oracles
from oracles import check, close


class Recorder:
    """Task outcomes and counters of one pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, float] = {}
        self.cli: dict[str, dict] = {}

    def task(self, name: str, fn):
        """Run one task; a failure is counted and the pass goes on."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a benchmark task boundary: record and continue
            self.failed += 1
            print(f"task {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def checks(self):
        """Span for the benchmark's own oracle work, kept apart from the package's."""
        return self.tracer.span("bench.checks")

    def add(self, name: str, value: float):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float):
        self.counts[name] = max(self.counts.get(name, value), value)


def _complex_vectors(rng, axis, count):
    decay = np.exp(-2.0 * axis**2)  # vanish at the box edge, as the frame identity needs
    return [(rng.standard_normal(axis.size) + 1j * rng.standard_normal(axis.size)) * decay for _ in range(count)]


class PhaseSpace:
    """Semiclassical bridge in 1D: TF density -> bath-tub lift -> quantized
    operator -> Husimi table, plus the Slater-state identities, at M = 256, 512."""

    name = "phase_space"
    N = 32
    SIZES = (256, 512)
    HALF_WIDTH = 2.5
    FINE_POINTS = 1 << 20
    FRAME_VECTORS = 2

    def __init__(self, seed: int, workdir: str, tracer):
        from fermigas import husimi, model, tf_solver

        rng = np.random.default_rng(seed)
        with tracer.span("model.config_build"):
            self.potential = model.harmonic_potential(1)
            self.constants = model.TFConstants.bathtub_consistent(1)
            bump = model.bump_profile(1, beta=0.2, radius=1.0, height=2.0)
            plateau = model.plateau_profile(beta=0.25, radius=0.5, edge_width=1e-3, height=1.0)
            self.w_bump = model.scaled_interaction(bump, self.N)
            self.w_plateau = model.scaled_interaction(plateau, self.N)
            self.fine_grid = model.SpatialGrid(1, self.HALF_WIDTH, self.FINE_POINTS)
            self.grids = {m: model.SpatialGrid(1, self.HALF_WIDTH, m) for m in self.SIZES}
        self.rel = tf_solver.RelaxedLocalEnergy(self.constants.c_tf, bump.i_w)
        # unsqueezed frame, hbar_x = hbar_p = hbar = 1/N
        self.family = husimi.CoherentFamily.default(self.N, 0.0)
        husimi.envelope_gradient_norm_sq()  # envelope constants are cached on first use
        self.vectors = {m: _complex_vectors(rng, g.axis(), self.FRAME_VECTORS) for m, g in self.grids.items()}
        self.v = {m: np.asarray(self.potential.evaluate(g.points()), dtype=float) for m, g in self.grids.items()}

    def run_pass(self, rec: Recorder):
        from fermigas import husimi, tf_solver, vlasov

        fam, n = self.family, self.N

        def fine_solve():
            sol = tf_solver.minimize_1d_relaxed(self.potential, self.rel, self.fine_grid, tol=1e-5)
            with rec.checks():
                check(sol.mass_gap <= 1e-5, f"fine solve mass gap {sol.mass_gap}")
                check(sol.support_interior_min >= self.rel.rho_jump, "jump certificate fails on the fine grid")
            return sol

        fine = rec.task("fine_tf_solve", fine_solve)
        for m, grid in self.grids.items():
            with rec.tracer.tagged(f"M={m}"):
                self._chain(rec, fine, m, grid, fam, n, husimi, tf_solver, vlasov)

    def _chain(self, rec, fine, m, grid, fam, n, husimi, tf_solver, vlasov):
        axis, v, h = grid.axis(), self.v[m], grid.spacing
        window = lambda y: fam.envelope_at(y, 0.0)  # noqa: E731

        def sample():
            rho = tf_solver.sample_minimizer(self.potential, self.rel, grid, fine.lam)
            with rec.checks():
                close(rho.mass, 1.0, 0.02, f"coarse mass at M={m}")
                vals = rho.values
                check(np.all((vals == 0) | (vals >= self.rel.rho_jump)), "density inside the jump gap")
            return rho

        rho = rec.task(f"sample_minimizer[{m}]", sample)
        momentum = vlasov.brillouin_momentum_grid(grid, fam.hbar)

        def lift():
            out = vlasov.bathtub_lift(rho, self.constants, momentum)
            with rec.checks():
                radius = math.pi * rho.values  # c_1 = pi
                inside = np.abs(momentum.axis())[None, :] <= radius[:, None]
                check(np.array_equal(out.values, inside.astype(float)), "lift is not the Fermi-ball indicator")
            rec.peak("vlasov.lift_table_mb", out.values.nbytes / 2**20)
            return out

        lifted = rec.task(f"bathtub_lift[{m}]", lift)

        def quantize():
            gamma = husimi.gamma_from_measure(lifted, fam)
            with rec.checks():
                occ = np.linalg.eigvalsh(gamma.matrix)
                check(occ.min() >= -1e-9 and occ.max() <= 1.0 + 1e-6, f"occupations in [{occ.min()}, {occ.max()}]")
                close(gamma.trace, n * lifted.normalization(), 1e-2 * n, f"trace of gamma at M={m}")
            rec.add("husimi.gamma_from_measure.occupied_cols", int(np.count_nonzero(lifted.values.any(axis=0))))
            return gamma

        gamma = rec.task(f"gamma_from_measure[{m}]", quantize)

        def round_trip_table():
            table = husimi.husimi_grid_table(gamma, fam, momentum)
            with rec.checks():
                gaps = oracles.husimi_identities(
                    table.values, gamma.matrix, axis, fam.hbar, n, window, fam.hbar_p
                )
                check(gaps["space"] <= 1e-10, f"space marginal defect {gaps['space']}")
                check(gaps["momentum"] <= 1e-3, f"momentum marginal defect {gaps['momentum']}")
                check(gaps["trace"] <= 1e-3, f"trace defect {gaps['trace']}")
                check(gaps["kinetic"] <= 1e-2, f"kinetic identity defect {gaps['kinetic']}")
                check(table.values.max() <= 1.0 + 1e-6, "Husimi table exceeds the Pauli bound")
                occupied = np.linalg.eigvalsh(0.5 * (gamma.matrix + gamma.matrix.conj().T)) > 1e-12
            rec.add("husimi.husimi_grid_table.modes", int(occupied.sum()))
            return table

        rec.task(f"husimi_grid_table[{m}]", round_trip_table)

        def orbitals():
            u = husimi.lowest_orbitals(grid, self.potential, n, fam.hbar)
            with rec.checks():
                t_mat = oracles.lattice_one_body(axis, v, fam.hbar)
                ritz = np.einsum("ia,ij,ja->a", u, t_mat, u)
                residual = np.linalg.norm(t_mat @ u - u * ritz, axis=0).max()
                check(residual <= 1e-8, f"orbital eigen-residual {residual}")
                check(np.allclose(u.T @ u, np.eye(n), atol=1e-10), "orbitals not orthonormal")
                exact = np.linalg.eigvalsh(t_mat)[:n]
                check(np.allclose(np.sort(ritz), exact, atol=1e-9), "orbitals are not the lowest N")
            return husimi.slater_operator(u, grid)

        slater = rec.task(f"lowest_orbitals[{m}]", orbitals)

        def marginals():
            report = husimi.marginal_identity_report(slater, fam)
            with rec.checks():
                check(report["space_l1_gap"] <= 1e-10 * n, f"reported space gap {report['space_l1_gap']}")
                check(report["momentum_l1_gap"] <= 1e-3 * n, f"reported momentum gap {report['momentum_l1_gap']}")
                close(report["trace_normalized"], 1.0, 1e-3, "reported trace")

        rec.task(f"marginal_identity_report[{m}]", marginals)

        def decomposition():
            report = husimi.semiclassical_error_decomposition(slater, fam, self.potential, w_n=self.w_plateau)
            with rec.checks():
                expected = fam.hbar_p * oracles.envelope_gradient_norm_sq()
                close(report.expected_correction, expected, 1e-9 * expected, "expected kinetic correction")
                close(report.measured_correction, expected, 1e-2 * expected, "measured kinetic correction")
                close(report.potential_operator, float(v @ np.diag(slater.matrix)), 1e-9, "operator potential energy")
                ratios = [r["ratio_double"] for r in report.smearing]
                check(len(ratios) == 3 and max(ratios) <= 2.0 * min(ratios), f"smearing ratios {ratios}")

        rec.task(f"semiclassical_error_decomposition[{m}]", decomposition)

        target = 2.0 * math.pi * fam.hbar
        for idx, psi in enumerate(self.vectors[m]):

            def frame(psi=psi):
                out = husimi.frame_apply(psi, fam, grid)
                with rec.checks():
                    err = np.linalg.norm(out - target * psi) / (target * np.linalg.norm(psi))
                    check(err <= 1e-3, f"frame identity defect {err}")

            rec.task(f"frame_apply[{m}.{idx}]", frame)

        def hartree():
            out = husimi.hartree_energy(gamma, self.potential, self.w_bump, n)
            with rec.checks():
                b = np.real(gamma.matrix)
                one_body = float(np.sum(oracles.lattice_one_body(axis, v, 1.0 / n) * b.T))
                dens = np.real(np.diag(gamma.matrix)) / h
                seps = np.abs(np.subtract.outer(axis, axis)).reshape(-1, 1)
                w_full = np.asarray(self.w_bump.evaluate(seps), dtype=float).reshape(m, m)
                inter = -float(dens @ w_full @ dens) * h * h / n
                close(out["kinetic_term"] + out["potential_term"], one_body, 1e-9 * abs(one_body), "tr(T gamma)")
                close(out["interaction_term"], inter, 1e-9 * abs(inter), "Hartree interaction")

        rec.task(f"hartree_energy[{m}]", hartree)


class VariationalChain:
    """Acceptance-08 shape: lifted TF measure -> coherent operator -> Slater
    trial against the exact lattice ground state, at M = 48 and N = 2, 3, 4."""

    name = "variational_chain"
    M = 48
    PARTICLES = (2, 3, 4)

    def __init__(self, seed: int, workdir: str, tracer):
        from fermigas import husimi, model, tf_solver

        with tracer.span("model.config_build"):
            self.potential = model.harmonic_potential(1)
            self.constants = model.TFConstants.bathtub_consistent(1)
            self.profile = model.bump_profile(1, beta=0.2, radius=1.0, height=2.0)
            self.grid = model.SpatialGrid(1, 2.5, self.M)
            self.w_n = {n: model.scaled_interaction(self.profile, n) for n in self.PARTICLES}
        self.rel = tf_solver.RelaxedLocalEnergy(self.constants.c_tf, self.profile.i_w)
        self.families = {n: husimi.CoherentFamily.default(n, 0.1) for n in self.PARTICLES}
        husimi.envelope_gradient_norm_sq()
        v = np.asarray(self.potential.evaluate(self.grid.points()), dtype=float)
        self.one_body = {n: oracles.lattice_one_body(self.grid.axis(), v, 1.0 / n) for n in self.PARTICLES}
        self.lanczos_seed = int(np.random.default_rng(seed).integers(0, 2**31 - 1))

    def run_pass(self, rec: Recorder):
        from fermigas import husimi, oracle, tf_solver, vlasov

        grid, m = self.grid, self.M

        def density():
            fine = tf_solver.minimize_1d_relaxed(self.potential, self.rel, grid.refine(16), tol=1e-3)
            rho = tf_solver.sample_minimizer(self.potential, self.rel, grid, fine.lam)
            with rec.checks():
                close(rho.mass, 1.0, 0.05, "coarse TF mass")
            return rho

        rho = rec.task("tf_density", density)
        for n in self.PARTICLES:
            with rec.tracer.tagged(f"N={n}"):
                self._particles(rec, n, rho, grid, m, husimi, oracle, vlasov)

    def _particles(self, rec, n, rho, grid, m, husimi, oracle, vlasov):
        fam = self.families[n]

        def trial_operator():
            momentum = vlasov.brillouin_momentum_grid(grid, fam.hbar)
            lift = vlasov.bathtub_lift(rho, self.constants, momentum)
            gamma = husimi.gamma_from_measure(lift, fam)
            with rec.checks():
                occ = np.linalg.eigvalsh(gamma.matrix)
                check(occ.min() >= -1e-9 and occ.max() <= 1.0 + 1e-6, f"occupations in [{occ.min()}, {occ.max()}]")
            rec.add("husimi.gamma_from_measure.occupied_cols", int(np.count_nonzero(lift.values.any(axis=0))))
            return gamma

        gamma = rec.task(f"gamma_from_measure[N={n}]", trial_operator)

        def build():
            ham = oracle.DiscreteHamiltonian(grid, self.potential, n, w_n=self.w_n[n])
            with rec.checks():
                check(ham.dim == math.comb(m, n), f"basis dim {ham.dim}")
                check(ham.matrix.nnz == oracles.hopping_nnz(m, n), f"nnz {ham.matrix.nnz}")
            rec.add("oracle.basis_dim", ham.dim)
            rec.add("oracle.nnz", ham.matrix.nnz)
            return ham

        ham = rec.task(f"hamiltonian[N={n}]", build)

        def solve():
            energy, state = oracle.ground_state(ham, seed=self.lanczos_seed)
            with rec.checks():
                x = state.coefficients
                residual = float(np.linalg.norm(ham.matrix @ x - energy * x))
                check(residual <= 1e-6, f"ground-state residual {residual}")
            rec.peak("oracle.ground_state.residual_max", residual)
            return energy, state

        solved = rec.task(f"ground_state[N={n}]", solve)
        energy, state = solved if solved is not None else (None, None)

        def densities():
            red = oracle.reduced_densities(state)
            with rec.checks():
                h = grid.spacing
                close(red.rho1.sum() * h, n, 1e-9, "integral of rho1")
                close(red.rho2.sum() * h * h, math.comb(n, 2), 1e-9, "integral of rho2")
                check(np.all(np.diag(red.rho2) == 0.0), "pair density on the diagonal")
                close(np.trace(red.gamma1), n, 1e-9, "trace of gamma1")
                occ = red.occupations()
                check(occ.min() >= -1e-9 and occ.max() <= 1.0 + 1e-9, "natural occupations outside [0, 1]")
            return red

        red = rec.task(f"reduced_densities[N={n}]", densities)

        def apriori():
            report = oracle.apriori_diagnostics(state)
            with rec.checks():
                t_mat = self.one_body[n]
                close(report.kinetic_potential, float(np.sum(t_mat * red.gamma1.T)), 1e-9, "kinetic+potential")
                check(report.interaction_integral >= 0.0, "negative interaction integral")

        rec.task(f"apriori_diagnostics[N={n}]", apriori)

        def free():
            e_free = oracle.free_fermion_energy(ham)
            with rec.checks():
                exact = float(np.sum(np.linalg.eigvalsh(self.one_body[n])[:n]))
                close(e_free, exact, 1e-9, "free filling energy")
                check(energy <= e_free + 1e-12, "attractive ground energy above the free one")

        rec.task(f"free_fermion_energy[N={n}]", free)

        def slater_bound():
            bound = oracle.slater_upper_bound(ham, gamma.matrix, ground_energy=energy, tol=1e-10)
            with rec.checks():
                check(energy <= bound.trial_energy + 1e-10, f"E0 {energy} above the Slater trial {bound.trial_energy}")
                check(bound.satisfied, "slater_upper_bound reports a violation")

        rec.task(f"slater_upper_bound[N={n}]", slater_bound)


class DensityFunctional:
    """Mass solves, the 2D closed form, the TF/Vlasov equality, exact
    mixture identities, transport LPs and the Pauli Monte Carlo run."""

    name = "density_functional"
    LADDER = (1 << 18, 1 << 19, 1 << 20)
    SIZES_2D = (1024, 2048)
    TRANSPORT_SIZES = (40, 80)
    PAULI_N = (16, 64, 256)
    PAULI_TRIALS = 100_000
    LIFT_MOMENTUM_POINTS = 64  # tf_vlasov_equality_check's default momentum grid

    def __init__(self, seed: int, workdir: str, tracer):
        from fermigas import df_measures, model, tf_solver

        rng = np.random.default_rng(seed)
        self.seed = seed
        with tracer.span("model.config_build"):
            self.pot1 = model.harmonic_potential(1)
            self.pot2 = model.harmonic_potential(2)
            self.literal1 = model.TFConstants.paper_literal(1)
            self.literal2 = model.TFConstants.paper_literal(2)
            self.bathtub1 = model.TFConstants.bathtub_consistent(1)
            self.bathtub2 = model.TFConstants.bathtub_consistent(2)
            self.ladder = {m: model.SpatialGrid(1, 3.0, m) for m in self.LADDER}
            self.grids_2d = {m: model.SpatialGrid(2, 2.5, m) for m in self.SIZES_2D}
            self.jump_grid = model.SpatialGrid(1, 3.0, 1 << 18)
            self.small_grid = model.SpatialGrid(1, 3.0, 4096)
            self.lift_1d = model.SpatialGrid(1, 3.0, 1 << 18)
            self.lift_2d = model.SpatialGrid(2, 3.0, 160)
        self.free = tf_solver.RelaxedLocalEnergy(self.literal1.c_tf, 0.0)
        self.coupled = tf_solver.RelaxedLocalEnergy(self.bathtub1.c_tf, 2.0)
        self.laws = {(s, n): df_measures.FiniteExchangeableLaw.uniform(s, n) for s, n in ((6, 5), (6, 6))}
        self.clouds = {
            n: (rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(-1.0, 1.0, (n, 2)) + rng.uniform(-0.5, 0.5, 2))
            for n in self.TRANSPORT_SIZES
        }
        self.tiling = df_measures.Tiling.square(1, 0.5 * math.sqrt(2.0 * math.pi), 2)
        self.sampler = df_measures.uniform_box_sampler(self.tiling)
        self.v_ladder = {m: np.asarray(self.pot1.evaluate(g.points()), dtype=float) for m, g in self.ladder.items()}

    def run_pass(self, rec: Recorder):
        from fermigas import df_measures, errors, tf_solver, vlasov

        for m, grid in self.ladder.items():

            def free_solve(grid=grid, m=m):
                sol = tf_solver.minimize_1d_relaxed(self.pot1, self.free, grid, tol=1e-9)
                with rec.checks():
                    close(sol.lam, oracles.TF_1D_FREE_LAMBDA, 1e-6, f"free 1D multiplier at M={m}")
                    close(sol.energy.total, oracles.TF_1D_FREE_ENERGY, 1e-6, f"free 1D energy at M={m}")
                    own = oracles.tf_energy_1d(sol.rho.values, self.v_ladder[m], grid.spacing, self.free.c_tf, 0.0)
                    close(sol.energy.total, own, 1e-12, "reported energy vs quadrature")

            with rec.tracer.tagged(f"ladder M={m}"):
                rec.task(f"minimize_1d_relaxed[{m}]", free_solve)

        def jump_case():
            # tol below 2 rho_jump h: unit mass falls inside an activation jump
            tol = 1e-9
            check(tol < 2.0 * self.coupled.rho_jump * self.jump_grid.spacing, "jump case needs a tight tol")
            try:
                tf_solver.minimize_1d_relaxed(self.pot1, self.coupled, self.jump_grid, tol=tol)
            except errors.MassJumpError as exc:
                with rec.checks():
                    check(exc.mass_low < 1.0 < exc.mass_high, f"bracket [{exc.mass_low}, {exc.mass_high}]")
                    check(exc.lam_low < exc.lam_high, "empty multiplier bracket")
                rec.add("tf_solver.mass_jump_raised", 1)
                return
            raise oracles.CheckFailed("expected MassJumpError was not raised")

        rec.task("mass_jump_error", jump_case)

        def relaxation():
            report = tf_solver.relaxation_equivalence_check(self.pot1, self.coupled, self.small_grid, tol=1e-6)
            with rec.checks():
                check(report.passed, "relaxation equivalence failed")
                check(report.jump_certificate_min >= 2.0 / (2.0 * self.bathtub1.c_tf), "jump certificate fails")

        rec.task("relaxation_equivalence_check", relaxation)

        for m, grid in self.grids_2d.items():

            def closed_form(grid=grid, m=m):
                i_w = self.literal2.c_tf - 4.0 * math.pi
                sol = tf_solver.minimize_2d(self.pot2, self.literal2, i_w, grid, tol=1e-9)
                with rec.checks():
                    close(sol.lam, oracles.TF_2D_LAMBDA, 1e-5, f"2D multiplier at {m}^2")
                    close(sol.energy.total, oracles.TF_2D_ENERGY, 1e-5, f"2D energy at {m}^2")

            rec.task(f"minimize_2d[{m}]", closed_form)

        for grid, constants, i_w, pot in (
            (self.lift_1d, self.bathtub1, 1.0, self.pot1),
            (self.lift_2d, self.bathtub2, math.pi, self.pot2),
        ):

            def equality(grid=grid, constants=constants, i_w=i_w, pot=pot):
                out = vlasov.tf_vlasov_equality_check(pot, constants, i_w, grid, tol=1e-3)
                with rec.checks():
                    check(out.passed, f"TF/Vlasov gap {out.relative_difference}")
                    close(out.vlasov_total, out.tf_total, 1e-3 * abs(out.tf_total), "TF vs Vlasov energy")
                    values = out.tf_solution.rho.values
                    if grid.d == 1:
                        v = np.asarray(pot.evaluate(grid.points()), dtype=float)
                        own = oracles.tf_energy_1d(values, v, grid.spacing, constants.c_tf, i_w)
                        close(out.tf_total, own, 1e-10 * abs(own), "TF energy vs quadrature")
                        interior = oracles.support_interior_min(values)
                        check(interior >= i_w / (2.0 * constants.c_tf), f"jump certificate {interior}")
                cells = grid.size * self.LIFT_MOMENTUM_POINTS**grid.d
                rec.peak("vlasov.lift_table_mb", cells * 8 / 2**20)

            rec.task(f"tf_vlasov_equality_check[d={grid.d}]", equality)

        for (s, n), law in self.laws.items():
            for k in (2, 3):

                def exact_tv(law=law, s=s, n=n, k=k):
                    report = df_measures.tv_bound_check(law, k)
                    with rec.checks():
                        tv = oracles.iid_uniform_tv(s, n, k)
                        check(report.tv == tv, f"TV {report.tv} != exact {tv}")
                        check(tv <= Fraction(2 * k * (k - 1), n), "TV above 2k(k-1)/N")
                        check(report.passed, "tv_bound_check reports a failure")

                rec.task(f"tv_bound_check[{s},{n},k={k}]", exact_tv)

        for n, (a_pts, b_pts) in self.clouds.items():

            def transport(n=n, a_pts=a_pts, b_pts=b_pts):
                w = np.full(n, 1.0 / n)
                res = df_measures.wasserstein1((a_pts, w), (b_pts, w))
                with rec.checks():
                    close(res.distance, oracles.uniform_assignment_w1(a_pts, b_pts), 1e-9, f"W1 at n={n}")
                rec.add("df_measures.wasserstein1.certified", int(res.certified))

            rec.task(f"wasserstein1[{n}]", transport)

        q = self.tiling.cell_volume / self.tiling.box_volume
        for n in self.PAULI_N:

            def pauli(n=n):
                stats = df_measures.pauli_violation_stats(
                    self.sampler, self.tiling, 0, 0.5, n, self.PAULI_TRIALS, seed=self.seed, exact_cell_prob=q
                )
                with rec.checks():
                    k_min = math.ceil(1.5 * self.tiling.cell_volume / (2.0 * math.pi) * n)
                    exact = oracles.binomial_tail(n, q, k_min)
                    close(stats.exact_tail, exact, 1e-9 * exact + 1e-15, f"exact tail at N={n}")
                    check(
                        oracles.mc_within_band(stats.frequency, exact, self.PAULI_TRIALS),
                        f"MC frequency {stats.frequency} vs exact {exact} at N={n}",
                    )
                # known defect: the Wald interval collapses when no trial hits
                rec.add("df_measures.pauli.ci_miss", int(not stats.matches_exact))

            rec.task(f"pauli_violation_stats[{n}]", pauli)


# The README's reproduction guide, one subprocess per command.
CLI_COMMANDS = (
    ("c01_tf_minimize_2d", ["tf-minimize", "--config", "{cfg}/harmonic2d.json", "--out", "{out}"]),
    ("c02_tf_minimize_1d_free", ["tf-minimize", "--config", "{cfg}/free1d.json", "--out", "{out}"]),
    ("c03_tf_minimize_1d_coupled", ["tf-minimize", "--config", "{cfg}/coupled1d.json", "--tol", "2e-3", "--out", "{out}"]),
    ("c04_vlasov_lift", [
        "vlasov-lift", "--config", "{cfg}/coupled1d.json",
        "--density", "{root_out}/c03_tf_minimize_1d_coupled/density.csv", "--out", "{out}",
    ]),
    ("c05_semiclassics_check", ["semiclassics-check", "--config", "{cfg}/sc.json", "--hbar-x", "0.12", "--out", "{out}"]),
    ("c06_df_exact_laws", ["df-experiment", "--exact-laws", "--seed", "{seed}", "--out", "{out}"]),
    ("c07_oracle", [
        "oracle", "--N", "4", "--M", "40", "--beta", "0.2", "--potential", "harmonic",
        "--interaction", "bump", "--out", "{out}",
    ]),
    ("c08_sweep_oracle", [
        "sweep", "--subcommand", "oracle", "--param", "N", "--values", "2,3,4",
        "--args", "--M 40 --beta 0.2 --interaction bump", "--out", "{out}",
    ]),
    ("c09_sweep_smearing", [
        "sweep", "--subcommand", "semiclassics-check", "--param", "smear-hbar-x",
        "--values", "1e-2,1e-3,1e-4", "--args", "--config {cfg}/sc.json", "--out", "{out}",
    ]),
    ("c10_df_pauli", [
        "df-experiment", "--seed", "{seed}", "--N", "64", "--epsilon", "0.5", "--trials", "10000", "--out", "{out}",
    ]),
)

CLI_CONFIGS = {
    "harmonic2d.json": {
        "schema_version": 1, "d": 2, "constants": "paper_literal",
        "potential": {"family": "harmonic", "params": {}}, "beta": 0.2,
        # box of radius 1 and height 4: I_w = 4 pi, so kappa = 8 pi - 4 pi = 4 pi
        "interaction": {"family": "box", "params": {"radius": 1.0, "height": 4.0}},
        "grid": {"half_width": 2.5, "points_per_axis": 128},
    },
    "free1d.json": {
        "schema_version": 1, "d": 1, "constants": "paper_literal",
        "potential": {"family": "harmonic", "params": {}},
        "grid": {"half_width": 3.0, "points_per_axis": 4096},
    },
    "coupled1d.json": {
        "schema_version": 1, "d": 1, "constants": "bathtub_consistent",
        "potential": {"family": "harmonic", "params": {}}, "beta": 0.2,
        "interaction": {"family": "bump", "params": {"radius": 1.0, "height": 2.0}},
        "n_particles": 8, "grid": {"half_width": 3.0, "points_per_axis": 4096},
    },
    "sc.json": {
        "schema_version": 1, "d": 1, "constants": "bathtub_consistent",
        "potential": {"family": "harmonic", "params": {}}, "beta": 0.25,
        "interaction": {"family": "plateau", "params": {"radius": 0.5, "edge_width": 1e-3, "height": 1.0}},
        "n_particles": 8, "grid": {"half_width": 2.2, "points_per_axis": 256},
    },
}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path) as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    return [dict(zip(header, row)) for row in rows]


class CliReproduction:
    """The README's ten reproduction commands, each its own CLI process,
    one after another, plus a bare import of the CLI module."""

    name = "cli_reproduction"

    def __init__(self, seed: int, workdir: str, tracer):
        from fermigas import model

        self.seed = seed
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.cfg_dir = os.path.join(workdir, "configs")
        self.out_dir = os.path.join(workdir, "cli_out")
        os.makedirs(self.cfg_dir, exist_ok=True)
        with tracer.span("model.config_build"):
            for name, raw in CLI_CONFIGS.items():
                model.config_from_dict(raw)  # the configs must validate before any run
                with open(os.path.join(self.cfg_dir, name), "w") as fh:
                    json.dump(raw, fh, indent=2)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))

    def _spawn(self, argv, log_path) -> dict:
        """Run one child to completion through the launcher; its figures as a dict."""
        launcher = [sys.executable, "-S", os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")]
        done = subprocess.run(launcher + [log_path] + argv, cwd=self.root, env=self.env, capture_output=True, check=True)
        return json.loads(done.stdout)

    def run_pass(self, rec: Recorder):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)

        def bare_import():
            run = self._spawn([sys.executable, "-c", "import fermigas.cli"], os.path.join(self.out_dir, "import.log"))
            check(run["exit_code"] == 0, f"import exited {run['exit_code']}")
            rec.cli["import"] = run

        rec.task("cli.import", bare_import)

        for name, template in CLI_COMMANDS:
            out = os.path.join(self.out_dir, name)
            fill = {"cfg": self.cfg_dir, "out": out, "root_out": self.out_dir, "seed": str(self.seed)}
            argv = [sys.executable, "-m", "fermigas.cli"] + [a.format(**fill) for a in template]

            def command(name=name, argv=argv, out=out):
                run = self._spawn(argv, out + ".log")
                rec.cli[name] = run
                with rec.checks():
                    check(run["exit_code"] == 0, f"{name} exited {run['exit_code']}")
                    oracles.check_manifests(out)
                    getattr(self, "_check_" + name)(out)
                    rec.add("cli.bytes_written", _artifact_bytes(out))

            rec.task(name, command)

    # one content check per command, against the README's closed forms

    def _check_c01_tf_minimize_2d(self, out):
        sol = _read_json(os.path.join(out, "solution.json"))
        close(sol["lambda"], oracles.TF_2D_LAMBDA, 1e-4, "2D multiplier")
        close(sol["energy"]["total"], oracles.TF_2D_ENERGY, 1e-3, "2D energy")

    def _check_c02_tf_minimize_1d_free(self, out):
        sol = _read_json(os.path.join(out, "solution.json"))
        close(sol["lambda"], oracles.TF_1D_FREE_LAMBDA, 1e-3, "1D free multiplier")
        close(sol["energy"]["total"], oracles.TF_1D_FREE_ENERGY, 1e-3, "1D free energy")

    def _check_c03_tf_minimize_1d_coupled(self, out):
        sol = _read_json(os.path.join(out, "solution.json"))
        check(sol["support_interior_min"] >= sol["i_w"] / (2.0 * sol["c_tf"]), "jump certificate")
        check(sol["relaxation_gap"] <= 1e-9, f"relaxation gap {sol['relaxation_gap']}")

    def _check_c04_vlasov_lift(self, out):
        report = _read_json(os.path.join(out, "vlasov_report.json"))
        sol = _read_json(os.path.join(self.out_dir, "c03_tf_minimize_1d_coupled", "solution.json"))
        tf_total = sol["energy"]["total"]
        close(report["total"], tf_total, 1e-3 * abs(tf_total), "TF vs Vlasov energy")
        check(report["pauli_bound_ok"], "lift exceeds the Pauli bound")

    def _check_c05_semiclassics_check(self, out):
        report = _read_json(os.path.join(out, "semiclassics.json"))
        expected = report["hbar_p"] * oracles.envelope_gradient_norm_sq()
        close(report["measured_correction"], expected, 1e-4, "kinetic correction")
        check(report["marginal_space_l1"] <= 1e-4, "space marginal gap")
        check(report["marginal_momentum_l1"] <= 1e-4, "momentum marginal gap")

    def _check_c06_df_exact_laws(self, out):
        stats = _read_json(os.path.join(out, "df_stats.json"))
        laws = stats["exact_identities"]["laws"]
        check(stats["exact_identities"]["all_passed"] and len(laws) == 4, "exact identities")
        for law in laws:
            exact = oracles.iid_uniform_tv(law["states"], law["n_particles"], 2)
            close(law["tv"], float(exact), 1e-15, f"TV of the ({law['states']}, {law['n_particles']}) law")

    def _check_c07_oracle(self, out):
        report = _read_json(os.path.join(out, "oracle.json"))
        check(report["basis_dim"] == math.comb(40, 4), "basis dimension")
        check(report["energy"] <= report["free_filling_energy"] + 1e-12, "E0 above the free filling")
        check(max(report["occupations"]) <= 1.0 + 1e-8, "occupation above 1")
        close(sum(report["occupations"]), 4.0, 1e-8, "sum of occupations")

    def _check_c08_sweep_oracle(self, out):
        rows = _read_csv(os.path.join(out, "sweep.csv"))
        check([r["value"] for r in rows] == ["2", "3", "4"], "sweep values")
        for row in rows:
            check(row["exit_code"] == "0", f"sweep child N={row['value']} failed")
            check(int(float(row["basis_dim"])) == math.comb(40, int(row["value"])), "basis dimension")
            check(float(row["energy"]) <= float(row["free_filling_energy"]) + 1e-12, "E0 above free filling")

    def _check_c09_sweep_smearing(self, out):
        rows = _read_csv(os.path.join(out, "sweep.csv"))
        check(all(r["exit_code"] == "0" for r in rows) and len(rows) == 3, "sweep children")
        scale = np.log([float(r["value"]) for r in rows])
        err = np.log([float(r["smearing.0.error_single"]) for r in rows])
        slope = float(np.polyfit(scale, err, 1)[0])
        check(abs(slope - 0.5) <= 0.1, f"smearing power {slope}, expected 1/2")

    def _check_c10_df_pauli(self, out):
        stats = _read_json(os.path.join(out, "df_stats.json"))
        tiling = stats["tiling"]
        q = 1.0 / (tiling["cells_x"] * tiling["cells_p"])
        k_min = math.ceil(1.5 * tiling["cell_volume"] / (2.0 * math.pi) * 64)
        exact = oracles.binomial_tail(64, q, k_min)
        close(stats["exact_tail"], exact, 1e-9 * exact, "exact binomial tail")
        check(oracles.mc_within_band(stats["frequency"], exact, 10_000), "MC frequency outside the band")
        check(len(_read_csv(os.path.join(out, "decay.csv"))) == 3, "decay sweep rows")


def _artifact_bytes(out_dir: str) -> int:
    """Bytes of the artifacts a command wrote; manifests hold a wall clock and are left out."""
    total = 0
    for dirpath, _, files in os.walk(out_dir):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files if f != "manifest.json")
    return total


WORKLOADS = {w.name: w for w in (PhaseSpace, VariationalChain, DensityFunctional, CliReproduction)}
