"""Eigenstates, split-step evolution, energies, and the equivalence report."""

import sys
import threading
import time

import numpy as np
import pytest

from phaseq import _spectral
from phaseq import phasespace as ps
from phaseq import schrodinger as sc
from phaseq import wigner as wg
from phaseq.errors import BoundaryLeak, GridTooNarrow

PAR = ps.NATURAL
GRID = ps.PositionGrid(10.0, 512)


def test_ground_state_peak_value():
    state = sc.hermite_eigenstate(0, GRID, PAR)
    at_zero = state.values[np.argmin(np.abs(GRID.q))]
    assert at_zero.real == pytest.approx(np.pi ** -0.25, abs=1e-9)
    assert at_zero.imag == 0.0


def test_orthonormality():
    # quadrature oracle: the discrete inner product at this resolution is the
    # integral to spectral accuracy
    states = [sc.hermite_eigenstate(n, GRID, PAR) for n in range(11)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            expected = 1.0 if i == j else 0.0
            assert abs(a.inner(b) - expected) < 1e-8


def test_sign_changes_count_matches_index():
    for n in range(9):
        state = sc.hermite_eigenstate(n, GRID, PAR)
        real = state.values.real
        core = np.abs(real) > 1e-8 * np.abs(real).max()
        signs = np.sign(real[core])
        assert int(np.sum(signs[1:] != signs[:-1])) == n


def test_narrow_grid_rejected():
    narrow = ps.PositionGrid(5.0, 128)
    with pytest.raises(GridTooNarrow):
        sc.hermite_eigenstate(20, narrow, PAR)


def test_eigenstate_evolution_is_a_phase():
    n = 1
    state = sc.hermite_eigenstate(n, GRID, PAR)
    period = 2.0 * np.pi / PAR.omega
    evolved = sc.split_step_evolve(state, period, 2048, PAR)
    energy = PAR.hbar * PAR.omega * (n + 0.5)
    reference = sc.WaveFunction(GRID, state.values * np.exp(-1j * energy * period / PAR.hbar), 0.0)
    assert evolved.fidelity(reference) > 1.0 - 1e-8


def test_eigenstate_phase_advance():
    period = 2.0 * np.pi / PAR.omega
    for n in range(6):
        state = sc.hermite_eigenstate(n, GRID, PAR)
        evolved = sc.split_step_evolve(state, 0.35 * period, 2048, PAR)
        energy = PAR.hbar * PAR.omega * (n + 0.5)
        expected = -energy * 0.35 * period / PAR.hbar
        measured = np.angle(state.inner(evolved))
        assert abs(np.angle(np.exp(1j * (measured - expected)))) < 1e-6


def test_coherent_state_returns_after_period():
    state = sc.coherent_state(GRID, PAR, q0=1.0, p0=0.0)
    evolved = sc.split_step_evolve(state, 2.0 * np.pi / PAR.omega, 2048, PAR)
    assert evolved.fidelity(state) > 1.0 - 1e-6


def test_step_floor_enforced():
    state = sc.hermite_eigenstate(0, GRID, PAR)
    with pytest.raises(ValueError):
        sc.split_step_evolve(state, 2.0 * np.pi, 10, PAR)


def test_norm_preserved_over_many_steps():
    state = sc.coherent_state(GRID, PAR, q0=1.0, p0=0.5)
    evolved = sc.split_step_evolve(state, 10.0 * np.pi, 10000, PAR)
    assert abs(evolved.norm() - 1.0) < 1e-10


def test_wall_crash_raises():
    state = sc.coherent_state(ps.PositionGrid(8.0, 256), PAR, q0=0.0, p0=6.5)
    with pytest.raises(BoundaryLeak):
        sc.split_step_evolve(state, np.pi / 2.0, 256, PAR)


def _energy_expectation(phi, par):
    """<phi| kinetic + potential |phi> with a spectral second derivative."""
    grid = phi.grid
    second = _spectral.derivative(phi.values, grid.length, order=2)
    h_phi = (
        -(par.hbar ** 2) / (2.0 * par.m) * second
        + 0.5 * par.m * par.omega ** 2 * grid.q ** 2 * phi.values
    )
    return float(np.real(np.sum(np.conj(phi.values) * h_phi)) * grid.dq)


def test_energy_expectation_eigenstates():
    for n, expected in ((0, 0.5), (1, 1.5)):
        state = sc.hermite_eigenstate(n, GRID, PAR)
        assert _energy_expectation(state, PAR) == pytest.approx(expected, abs=1e-7)


def test_energy_expectation_is_linear():
    a = sc.hermite_eigenstate(0, GRID, PAR)
    b = sc.hermite_eigenstate(1, GRID, PAR)
    mix = sc.WaveFunction(GRID, (a.values + b.values) / np.sqrt(2.0), 0.0)
    assert _energy_expectation(mix, PAR) == pytest.approx(1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# equivalence of the two transport routes
# ---------------------------------------------------------------------------

def _equivalence(n, state_builder, t):
    grid = ps.default_grid(8.0, n, PAR)
    line = ps.PositionGrid(8.0, n)
    return sc.equivalence_report(state_builder(line), t, PAR, grid)


def test_equivalence_zero_time():
    report = _equivalence(128, lambda line: sc.coherent_state(line, PAR, 1.0, 0.0), 0.0)
    assert report.l2_distance < 1e-12


def test_equivalence_coherent_period():
    report = _equivalence(
        128, lambda line: sc.coherent_state(line, PAR, 1.0, 0.0), 2.0 * np.pi / PAR.omega
    )
    assert report.l2_distance < 1e-3


def test_equivalence_eigenstate_stationary():
    grid = ps.default_grid(8.0, 256, PAR)
    line = ps.PositionGrid(8.0, 256)
    state = sc.hermite_eigenstate(1, line, PAR)
    report = sc.equivalence_report(state, 1.7, PAR, grid)
    assert report.l2_distance < 1e-3
    # both transported marginals stay put for an eigenstate
    from phaseq.wigner import wavefunction_to_density

    density = wavefunction_to_density(state, grid, PAR)
    moved = ps.liouville_propagate(density, 1.7, PAR)
    for axis in (0, 1):
        before = density.values.sum(axis=axis) * grid.dq
        after = moved.values.sum(axis=axis) * grid.dq
        assert np.abs(after - before).max() < 1e-5


def test_equivalence_refinement_order():
    period = 2.0 * np.pi / PAR.omega
    distances = [
        _equivalence(n, lambda line: sc.coherent_state(line, PAR, 1.0, 0.0), period).l2_distance
        for n in (64, 128, 256)
    ]
    orders = np.log2(np.array(distances[:-1]) / np.array(distances[1:]))
    assert np.all(orders >= 1.8)


# ---------------------------------------------------------------------------
# the two routes on two threads
# ---------------------------------------------------------------------------

def _serial_equivalence(phi0, t, grid):
    """The routes one after the other, as equivalence_report ran them before
    route B moved to a worker thread."""
    n_steps = sc.default_steps(grid.n, t, PAR.omega)
    f0 = wg.wavefunction_to_density(phi0, grid, PAR)
    phi_t = phi0 if t == 0.0 else sc.split_step_evolve(phi0, t, n_steps, PAR)
    quantum = wg.wavefunction_to_density(phi_t, grid, PAR)
    classical = ps.liouville_propagate(f0, t, PAR)
    diff = quantum.values - classical.values
    l2 = float(np.sqrt(np.sum(diff ** 2) * grid.dq * grid.dp))
    return f0, phi_t, classical, l2, float(np.abs(diff).max())


STATES = {
    "coherent": lambda line: sc.coherent_state(line, PAR, 1.0, -0.5),
    "eigenstate": lambda line: sc.hermite_eigenstate(2, line, PAR),
}


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("t", [0.0, 1.234, 2.0 * np.pi])
@pytest.mark.parametrize("state", sorted(STATES))
def test_equivalence_equals_the_serial_routes(n, t, state):
    grid = ps.default_grid(8.0, n, PAR)
    phi0 = STATES[state](ps.PositionGrid(8.0, n))
    report = sc.equivalence_report(phi0, t, PAR, grid)
    f0, phi_t, classical, l2, max_distance = _serial_equivalence(phi0, t, grid)
    assert np.array_equal(report.initial.values, f0.values)
    assert np.array_equal(report.evolved.values, phi_t.values)
    assert np.array_equal(report.transported.values, classical.values)
    assert (report.l2_distance, report.max_distance) == (l2, max_distance)
    assert report.n_steps == sc.default_steps(n, t, PAR.omega)


class _Transform(Exception):
    pass


class _RouteA(Exception):
    pass


class _Transport(Exception):
    pass


def _failing(error, delay=0.0):
    def fail(*args, **kwargs):
        time.sleep(delay)
        raise error("patched to fail")

    return fail


def _run_small():
    grid = ps.default_grid(8.0, 64, PAR)
    phi0 = sc.coherent_state(ps.PositionGrid(8.0, 64), PAR, 1.0, 0.0)
    return sc.equivalence_report(phi0, 1.234, PAR, grid)


@pytest.mark.parametrize("late", ["worker", "main"])
def test_initial_transform_error_wins_over_route_a(monkeypatch, late):
    # serially the initial state's transform runs first, so its error is the
    # one raised, whichever thread fails first
    entry = threading.active_count()
    monkeypatch.setattr(wg, "wavefunction_to_density",
                        _failing(_Transform, 0.05 if late == "worker" else 0.0))
    monkeypatch.setattr(sc, "split_step_evolve",
                        _failing(_RouteA, 0.05 if late == "main" else 0.0))
    with pytest.raises(_Transform):
        _run_small()
    assert threading.active_count() == entry


@pytest.mark.parametrize("late", ["worker", "main"])
def test_route_a_error_wins_over_the_transport(monkeypatch, late):
    entry = threading.active_count()
    monkeypatch.setattr(sc, "liouville_propagate",
                        _failing(_Transport, 0.05 if late == "worker" else 0.0))
    monkeypatch.setattr(sc, "split_step_evolve",
                        _failing(_RouteA, 0.05 if late == "main" else 0.0))
    with pytest.raises(_RouteA):
        _run_small()
    assert threading.active_count() == entry


def test_transport_error_is_raised_after_route_a(monkeypatch):
    entry = threading.active_count()
    monkeypatch.setattr(sc, "liouville_propagate", _failing(_Transport))
    with pytest.raises(_Transport):
        _run_small()
    assert threading.active_count() == entry


def test_worker_is_joined_on_return():
    entry = threading.active_count()
    _run_small()
    assert threading.active_count() == entry


def test_concurrent_reports_match_the_serial_routes():
    # more callers than cores, switching threads often: every report still
    # equals the serial composition, so the routes share no mutable state
    grid = ps.default_grid(8.0, 64, PAR)
    phi0 = sc.coherent_state(ps.PositionGrid(8.0, 64), PAR, 1.0, 0.5)
    expected = _serial_equivalence(phi0, 2.9, grid)
    reports = [None] * 6

    def run(i):
        reports[i] = sc.equivalence_report(phi0, 2.9, PAR, grid)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(reports))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for report in reports:
        assert np.array_equal(report.transported.values, expected[2].values)
        assert (report.l2_distance, report.max_distance) == expected[3:]


@pytest.mark.parametrize("extent, n, par, t", [
    (8.0, 256, PAR, 2.0 * np.pi),
    (10.0, 64, ps.PhysParams(2.54, 0.41, 0.28), 40.0),
    (1e-3, 1024, ps.PhysParams(0.3, 3.0, 2.0), 0.1),
    (1e154, 64, PAR, 100.0),
])
def test_step_phase_bound_covers_the_evolver(extent, n, par, t):
    # the phases split_step_evolve forms at the largest step the floor admits
    grid = ps.PositionGrid(extent, n)
    dt = t / sc.minimum_steps(t, par.omega)
    k = _spectral.wavenumbers(n, grid.length)
    potential = np.abs(0.25 * par.m * par.omega ** 2 * grid.q ** 2 * dt / par.hbar).max()
    kinetic = np.abs(0.5 * par.hbar * k ** 2 * dt / par.m).max()
    bound = sc.step_phase_bound(extent, n, par)
    assert max(potential, kinetic) <= bound <= sc.PHASE_LIMIT
