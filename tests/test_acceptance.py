"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines; every criterion
asserts both its tolerance and its runtime budget.
"""

import math
import time

import numpy as np

from phaseq import fock, report, spin
from phaseq import madelung as md
from phaseq import phasespace as ps
from phaseq import schrodinger as sc
from phaseq import wigner as wg

PAR = ps.NATURAL


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _conclude(index, name, ok, budget, timer, detail):
    status = "PASS" if ok and timer.elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {index:02d} {status} {name}: {detail} "
          f"[runtime {timer.elapsed:.2f}s / budget {budget:g}s]")
    assert ok, f"{name}: {detail}"
    assert timer.elapsed < budget, f"{name} exceeded runtime budget"


def test_criterion_01_spectrum():
    with _Timer() as timer:
        spectrum = fock.ho_spectrum(64, PAR)
        n = np.arange(64)
        deviation = np.abs(spectrum.energies[:-1] - PAR.hbar * PAR.omega * (n[:-1] + 0.5)).max()
        eigen_dev = max(
            abs(fock.bargmann_apply("hamiltonian", fock.monomial(k), PAR).coeffs[k]
                - PAR.hbar * PAR.omega * (k + 0.5))
            for k in range(41)
        )
    ok = deviation < 1e-12 and eigen_dev < 1e-12
    _conclude(1, "ladder spectrum", ok, 1.0, timer,
              f"matrix deviation {deviation:.2e}, polynomial deviation {eigen_dev:.2e}")


def test_criterion_02_transformed_hamiltonian():
    from phaseq import canonical as cn

    rng = np.random.default_rng(101)
    with _Timer() as timer:
        worst = 0.0
        for _ in range(1000):
            pt = ps.PhasePoint(*rng.normal(scale=2.0, size=2))
            energy = cn.transformed_hamiltonian(cn.to_normal_modes(pt, PAR), PAR)
            worst = max(worst, abs(energy - ps.hamiltonian(pt.q, pt.p, PAR)))
    _conclude(2, "transformed Hamiltonian identity", worst < 1e-12, 0.1, timer,
              f"max |hw q1 p1 - H| = {worst:.2e}")


def test_criterion_03_classical_quantum_equivalence():
    period = 2.0 * np.pi / PAR.omega
    with _Timer() as timer:
        reports = {}
        for n in (128, 256):
            grid = ps.default_grid(8.0, n)
            line = ps.PositionGrid(-8.0, 8.0, n)
            state = sc.coherent_state(line, PAR, 1.0, 0.0)
            reports[n] = sc.equivalence_report(state, period, PAR, grid)
    fine = reports[256]
    ratio = reports[128].l2_distance / fine.l2_distance
    ok = fine.l2_distance < 1e-3 and fine.n_steps == 512 and ratio >= 3.0
    _conclude(3, "classical-quantum equivalence", ok, 60.0, timer,
              f"L2 {fine.l2_distance:.2e} at 256^2/{fine.n_steps} steps, "
              f"refinement ratio {ratio:.2f}")


def test_criterion_04_transform_pair():
    with _Timer() as timer:
        grid = ps.default_grid(8.0, 256)
        density = ps.gaussian_density(grid, PAR, q0=1.0, p0=-0.3)
        rho = wg.wigner_forward(density, PAR)
        back = wg.wigner_inverse(rho)
        roundtrip = float(np.abs(back.values - density.values).max())
        left = np.sum(density.values ** 2) * grid.dq * grid.dp
        right = np.sum(np.abs(rho.values) ** 2) * grid.dq * rho.delta_step / (2 * np.pi * PAR.hbar)
        parseval = abs(left - right) / left
    ok = roundtrip < 1e-10 and parseval < 1e-8
    _conclude(4, "offset transform pair", ok, 1.0, timer,
              f"roundtrip {roundtrip:.2e}, energy identity {parseval:.2e}")


def test_criterion_05_fluid_residuals():
    grid = ps.PositionGrid(-10.0, 10.0, 512)
    with _Timer() as timer:
        worst = 0.0
        dt = 0.05
        for n in (0, 1, 2):
            state = sc.hermite_eigenstate(n, grid, PAR)
            energy = PAR.hbar * PAR.omega * (n + 0.5)
            later = sc.WaveFunction(grid, state.values * np.exp(-1j * energy * dt / PAR.hbar), dt)
            pair = md.decompose(state, PAR)
            cont = md.continuity_residual(pair, md.decompose(later, PAR), dt, PAR)
            hj = md.qhj_residual(pair, -energy, PAR)
            for res in (cont, hj):
                window = res.mask & (np.abs(grid.q) <= 4.0)
                worst = max(worst, float(np.abs(res.values[window]).max()))
    _conclude(5, "fluid-form residuals", worst < 1e-5, 1.0, timer,
              f"max residual over n=0..2: {worst:.2e}")


def test_criterion_06_sphere_constraint():
    rng = np.random.default_rng(102)
    with _Timer() as timer:
        worst = 0.0
        for _ in range(1000):
            s = spin.spin_functions(spin.Phase4Point(*map(float, rng.normal(scale=1.5, size=4))),
                                    PAR)
            worst = max(worst, abs(s.s1 ** 2 + s.s2 ** 2 + s.s3 ** 2 - 0.25 * s.s0 ** 2))
    _conclude(6, "sphere constraint", worst < 1e-12, 0.1, timer,
              f"max |S1^2+S2^2+S3^2 - S0^2/4| = {worst:.2e}")


def test_criterion_07_bracket_closure():
    rng = np.random.default_rng(103)
    cyclic = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    with _Timer() as timer:
        worst = 0.0
        funcs = [
            lambda *xy, i=i: getattr(spin.spin_functions(spin.Phase4Point(*xy), PAR), f"s{i}")
            for i in range(4)
        ]
        for _ in range(100):
            pt = spin.Phase4Point(*map(float, rng.normal(scale=1.5, size=4)))
            values = spin.spin_functions(pt, PAR)
            table = np.array([[ps.poisson_bracket(f, g, pt) for g in funcs] for f in funcs])
            for i, j, k in cyclic:
                worst = max(worst, abs(table[i, j] + getattr(values, f"s{k}")))
            worst = max(worst, float(np.abs(table[0, 1:]).max()))
    _conclude(7, "bracket closure", worst < 5e-6, 1.0, timer,
              f"max closure/centre residual {worst:.2e}")


def test_criterion_08_joint_spin_spectra():
    with _Timer() as timer:
        dim = 8
        rows = spin.spin_spectrum(dim)
        worst = 0.0
        counts_ok = True
        for sector in range(dim):
            members = sorted(r.m for r in rows if r.sector == sector)
            expected = [(2 * n1 - sector) / 2.0 for n1 in range(sector + 1)]
            counts_ok = counts_ok and len(members) == sector + 1
            worst = max(worst, float(np.abs(np.array(members) - np.array(expected)).max()))
            s_squared = (sector / 2.0) * (sector / 2.0 + 1.0)
            worst = max(worst, max(abs(r.s_squared - s_squared) for r in rows if r.sector == sector))
        half_integral = sorted(r.m for r in rows if r.sector == 1)
    ok = counts_ok and worst < 1e-9 and half_integral == [-0.5, 0.5]
    _conclude(8, "joint spin spectra", ok, 5.0, timer,
              f"max eigenvalue deviation {worst:.2e}, multiplicities exact: {counts_ok}")


def test_criterion_09_circle_action():
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    with _Timer() as timer:
        create_dev = max(fock.phase_circle_action(n, theta).create_deviation
                         for n in range(11))
        vacuum_dev = fock.phase_circle_action(0, theta).annihilate_deviation
    ok = create_dev < 1e-12 and vacuum_dev == 0.0
    _conclude(9, "circle-wave ladder action", ok, 0.1, timer,
              f"create deviation {create_dev:.2e}, vacuum annihilation {vacuum_dev:.2e}")


def test_criterion_10_pure_state_factorisation():
    grid = ps.PositionGrid(-10.0, 10.0, 256)
    rng = np.random.default_rng(104)
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dq)
    with _Timer() as timer:
        worst_fid = 1.0
        worst_purity = 0.0
        for _ in range(20):
            spectrum = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
            values = np.fft.ifft(spectrum * np.exp(-(k / 4.0) ** 2)) * np.exp(-grid.q ** 2 / 4.0)
            state = sc.WaveFunction(grid, values, 0.0)
            state.values = state.values / state.norm()
            result = wg.factorize_pure(wg.endpoint_matrix([state]))
            worst_fid = min(worst_fid, result.state.fidelity(state))
            worst_purity = max(worst_purity, abs(result.purity - 1.0))
        mixture = wg.factorize_pure(wg.endpoint_matrix([
            sc.hermite_eigenstate(0, grid, PAR), sc.hermite_eigenstate(1, grid, PAR)
        ]))
    ok = (worst_fid > 1.0 - 1e-10 and worst_purity < 1e-8
          and abs(mixture.purity - 0.5) < 1e-6)
    _conclude(10, "pure-state factorisation", ok, 5.0, timer,
              f"min fidelity deficit {1.0 - worst_fid:.2e}, purity drift {worst_purity:.2e}, "
              f"mixture purity {mixture.purity:.6f}")


def test_criterion_11_report_documents_written_conventions():
    with _Timer() as timer:
        entries = report.run_suite(report.SuiteConfig())
        by_id = {entry.equation_id: entry for entry in entries}
        required = ("Eq.16", "Eq.21", "Eq.23-literal", "Eq.25-literal", "Eq.48-literal")
        reported_ok = all(
            by_id[eq].status == report.REPORTED and math.isfinite(by_id[eq].residual)
            for eq in required
        )
        no_threshold_failures = report.suite_passed(entries)
    ok = reported_ok and no_threshold_failures
    _conclude(11, "written-convention documentation", ok, 60.0, timer,
              f"reported entries present: {reported_ok}, thresholded suite passes: "
              f"{no_threshold_failures}")
