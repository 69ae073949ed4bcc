"""Eigenstates, split-step evolution, energies, and the equivalence report."""

import numpy as np
import pytest

from phaseq import _spectral
from phaseq import phasespace as ps
from phaseq import schrodinger as sc
from phaseq.errors import BoundaryLeak, GridTooNarrow

PAR = ps.NATURAL
GRID = sc.default_position_grid()


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
    narrow = sc.PositionGrid(-5.0, 5.0, 128)
    with pytest.raises(GridTooNarrow):
        sc.hermite_eigenstate(20, narrow, PAR)


def test_eigenstate_evolution_is_a_phase():
    n = 1
    state = sc.hermite_eigenstate(n, GRID, PAR)
    period = 2.0 * np.pi / PAR.omega
    evolved = sc.split_step_evolve(state, period, 2048, PAR)
    energy = PAR.hbar * PAR.omega * (n + 0.5)
    reference = sc.WaveFunction(GRID, state.values * np.exp(-1j * energy * period / PAR.hbar))
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
    state = sc.coherent_state(GRID, PAR, q0=1.0)
    evolved = sc.split_step_evolve(state, 2.0 * np.pi / PAR.omega, 2048, PAR)
    assert evolved.fidelity(state) > 1.0 - 1e-6


def test_zero_time_identity():
    state = sc.coherent_state(GRID, PAR, q0=1.0)
    same = sc.split_step_evolve(state, 0.0, 0, PAR)
    assert np.array_equal(same.values, state.values)


def test_step_floor_enforced():
    state = sc.hermite_eigenstate(0, GRID, PAR)
    with pytest.raises(ValueError):
        sc.split_step_evolve(state, 2.0 * np.pi, 10, PAR)


def test_norm_preserved_over_many_steps():
    state = sc.coherent_state(GRID, PAR, q0=1.0, p0=0.5)
    evolved = sc.split_step_evolve(state, 10.0 * np.pi, 10000, PAR)
    assert abs(evolved.norm() - 1.0) < 1e-10


def test_wall_crash_raises():
    state = sc.coherent_state(sc.PositionGrid(-8.0, 8.0, 256), PAR, q0=0.0, p0=6.5)
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
    mix = sc.WaveFunction(GRID, (a.values + b.values) / np.sqrt(2.0))
    assert _energy_expectation(mix, PAR) == pytest.approx(1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# equivalence of the two transport routes
# ---------------------------------------------------------------------------

def _equivalence(n, state_builder, t):
    grid = ps.default_grid(8.0, n)
    line = sc.PositionGrid(-8.0, 8.0, n)
    return sc.equivalence_report(state_builder(line), t, PAR, grid)


def test_equivalence_zero_time():
    report = _equivalence(128, lambda line: sc.coherent_state(line, PAR, 1.0), 0.0)
    assert report.l2_distance < 1e-12


def test_equivalence_coherent_period():
    report = _equivalence(
        128, lambda line: sc.coherent_state(line, PAR, 1.0), 2.0 * np.pi / PAR.omega
    )
    assert report.l2_distance < 1e-3


def test_equivalence_eigenstate_stationary():
    grid = ps.default_grid(8.0, 256)
    line = sc.PositionGrid(-8.0, 8.0, 256)
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
        _equivalence(n, lambda line: sc.coherent_state(line, PAR, 1.0), period).l2_distance
        for n in (64, 128, 256)
    ]
    orders = np.log2(np.array(distances[:-1]) / np.array(distances[1:]))
    assert np.all(orders >= 1.8)


@pytest.mark.parametrize("extent, n, par, t", [
    (8.0, 256, PAR, 2.0 * np.pi),
    (10.0, 64, ps.PhysParams(2.54, 0.41, 0.28), 40.0),
    (1e-3, 1024, ps.PhysParams(0.3, 3.0, 2.0), 0.1),
    (1e154, 64, PAR, 100.0),
])
def test_step_phase_bound_covers_the_evolver(extent, n, par, t):
    # the phases split_step_evolve forms at the largest step the floor admits
    grid = sc.PositionGrid(-extent, extent, n)
    dt = t / sc.minimum_steps(t, par.omega)
    k = _spectral.wavenumbers(n, grid.length)
    potential = np.abs(0.25 * par.m * par.omega ** 2 * grid.q ** 2 * dt / par.hbar).max()
    kinetic = np.abs(0.5 * par.hbar * k ** 2 * dt / par.m).max()
    bound = sc.step_phase_bound(extent, n, par)
    assert max(potential, kinetic) <= bound <= sc.PHASE_LIMIT
