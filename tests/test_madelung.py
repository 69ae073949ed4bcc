"""Amplitude-action splitting and the fluid-form residual evaluators."""

import numpy as np
import pytest

from phaseq import _spectral, fock
from phaseq import madelung as md
from phaseq import phasespace as ps
from phaseq import schrodinger as sc
from phaseq.errors import AllZero, GridMismatch

PAR = ps.NATURAL
GRID = ps.PositionGrid(10.0, 512)


def _masked_max(res):
    """Largest residual magnitude where the residual is meaningful."""
    return float(np.abs(res.values[res.mask]).max())


def _coherent_snapshot(t, q0=1.0, p0=0.0):
    """Closed-form coherent state at time t; the global phase is irrelevant
    for amplitude/action residuals."""
    center = ps.hamilton_flow(ps.PhasePoint(q0, p0), t, PAR)
    return sc.coherent_state(GRID, PAR, center.q, center.p)


# ---------------------------------------------------------------------------
# decompose / compose
# ---------------------------------------------------------------------------

def test_plane_wave_split():
    values = np.exp(1j * GRID.q) * np.exp(-GRID.q ** 2 / 50.0)
    # wide envelope keeps the state well interior; action must be hbar * q + const
    phi = sc.WaveFunction(GRID, values, 0.0)
    pair = md.decompose(phi, PAR)
    mask = pair.valid_mask() & (np.abs(GRID.q) < 6.0)
    action = pair.action[mask] - PAR.hbar * GRID.q[mask]
    assert np.abs(action - action[0]).max() < 1e-10


def test_real_positive_state_has_zero_action():
    state = sc.hermite_eigenstate(0, GRID, PAR)
    pair = md.decompose(state, PAR)
    assert np.abs(pair.action[pair.valid_mask()]).max() == 0.0


def test_round_trip_fidelity():
    rng = np.random.default_rng(31)
    k = 2.0 * np.pi * np.fft.fftfreq(GRID.n, d=GRID.dq)
    for _ in range(50):
        spectrum = rng.normal(size=GRID.n) + 1j * rng.normal(size=GRID.n)
        values = np.fft.ifft(spectrum * np.exp(-(k / 4.0) ** 2)) * np.exp(-GRID.q ** 2 / 4.0)
        phi = sc.WaveFunction(GRID, values, 0.0)
        phi.values = phi.values / phi.norm()
        pair = md.decompose(phi, PAR)
        assert phi.fidelity(md.compose(pair, PAR)) > 1.0 - 1e-12


def test_zero_state_rejected():
    with pytest.raises(AllZero):
        md.decompose(sc.WaveFunction(GRID, np.zeros(GRID.n, dtype=complex), 0.0), PAR)


def test_action_is_continuous_between_nodes():
    state = sc.hermite_eigenstate(2, GRID, PAR)
    phase = np.exp(1j * 0.8)  # global phase exercises the unwrap path
    pair = md.decompose(sc.WaveFunction(GRID, state.values * phase, 0.0), PAR)
    mask = pair.valid_mask()
    jumps = np.abs(np.diff(pair.action[mask]))
    # continuity within segments; the pi jumps at the two nodes remain
    assert int(np.sum(jumps > 1.0)) == 2


# ---------------------------------------------------------------------------
# continuity residual
# ---------------------------------------------------------------------------

def test_stationary_eigenstates_satisfy_continuity():
    dt = 0.05
    for n in (0, 1, 2):
        state = sc.hermite_eigenstate(n, GRID, PAR)
        energy = PAR.hbar * PAR.omega * (n + 0.5)
        later = sc.WaveFunction(GRID, state.values * np.exp(-1j * energy * dt / PAR.hbar), dt)
        res = md.continuity_residual(md.decompose(state, PAR), md.decompose(later, PAR), dt, PAR)
        assert _masked_max(res) < 1e-8


def test_coherent_state_continuity():
    dt = 1e-3
    res = md.continuity_residual(
        md.decompose(_coherent_snapshot(0.0), PAR),
        md.decompose(_coherent_snapshot(dt), PAR),
        dt,
        PAR,
    )
    window = res.mask & (np.abs(GRID.q) <= 4.0)
    assert np.abs(res.values[window]).max() < 1e-5


def test_uniform_fields_give_zero():
    ring = ps.PositionGrid(np.pi, 128)
    pair = md.MadelungPair(ring, np.ones(128), np.zeros(128))
    res = md.continuity_residual(pair, pair, 0.1, PAR)
    assert _masked_max(res) == 0.0


@pytest.mark.parametrize("amplitude, action, message", [
    (np.nan, 0.0, "amplitude must be finite"),
    (1.0, np.inf, "action must be finite"),
    (-1.0, 0.0, "amplitude must be nonnegative"),
], ids=["nan-amplitude", "infinite-action", "negative-amplitude"])
def test_pair_admits_only_finite_fields_and_a_nonnegative_amplitude(amplitude, action, message):
    ring = ps.PositionGrid(np.pi, 128)
    amplitudes, actions = np.ones(128), np.zeros(128)
    amplitudes[7], actions[7] = amplitude, action
    with pytest.raises(ValueError, match=message):
        md.MadelungPair(ring, amplitudes, actions)
    with pytest.raises(ValueError, match="does not match grid"):
        md.MadelungPair(ring, np.ones(127), np.zeros(128))


def test_grid_mismatch_rejected():
    other = ps.PositionGrid(8.0, 256)
    a = md.decompose(sc.hermite_eigenstate(0, GRID, PAR), PAR)
    b = md.decompose(sc.hermite_eigenstate(0, other, PAR), PAR)
    with pytest.raises(GridMismatch):
        md.continuity_residual(a, b, 0.1, PAR)


def _schrodinger_form_rate(phi, par):
    """(2/hbar) Im(conj(phi) * H phi): the density rate in operator form.

    An independent route to the continuity residual: the flux divergence
    equals the negative of this field for any state.
    """
    grid = phi.grid
    second = _spectral.derivative(phi.values, grid.length, order=2)
    h_phi = (
        -(par.hbar ** 2) / (2.0 * par.m) * second
        + 0.5 * par.m * par.omega ** 2 * grid.q ** 2 * phi.values
    )
    return 2.0 / par.hbar * np.imag(np.conj(phi.values) * h_phi)


def test_residual_matches_operator_form():
    # the flux divergence must equal minus the operator-form density rate
    state = _coherent_snapshot(0.0, q0=0.8, p0=0.6)
    pair = md.decompose(state, PAR)
    res = md.continuity_residual(pair, pair, 1.0, PAR)  # equal snapshots: pure divergence
    operator_rate = _schrodinger_form_rate(state, PAR)
    mask = res.mask
    assert np.abs(res.values[mask] + operator_rate[mask]).max() < 1e-8


# ---------------------------------------------------------------------------
# quantum Hamilton-Jacobi residual
# ---------------------------------------------------------------------------

def test_ground_state_balance():
    state = sc.hermite_eigenstate(0, GRID, PAR)
    pair = md.decompose(state, PAR)
    res = md.qhj_residual(pair, -0.5 * PAR.hbar * PAR.omega, PAR)
    window = res.mask & (np.abs(GRID.q) <= 4.0)
    assert np.abs(res.values[window]).max() < 1e-6


def test_quantum_potential_at_origin():
    # curvature of the Gaussian gives the value 1/2 at the origin
    state = sc.hermite_eigenstate(0, GRID, PAR)
    pair = md.decompose(state, PAR)
    potential = md.quantum_potential(pair, PAR)
    assert potential[np.argmin(np.abs(GRID.q))] == pytest.approx(0.5, abs=1e-6)


def test_first_excited_balance_excluding_node():
    state = sc.hermite_eigenstate(1, GRID, PAR)
    pair = md.decompose(state, PAR)
    res = md.qhj_residual(pair, -1.5 * PAR.hbar * PAR.omega, PAR)
    window = res.mask & (np.abs(GRID.q) <= 4.0)
    assert np.abs(res.values[window]).max() < 1e-5


@pytest.mark.parametrize("n", [0, 1, 2])
def test_eigenstate_residuals_meet_tolerance(n):
    state = sc.hermite_eigenstate(n, GRID, PAR)
    pair = md.decompose(state, PAR)
    energy = PAR.hbar * PAR.omega * (n + 0.5)
    res = md.qhj_residual(pair, -energy, PAR)
    window = res.mask & (np.abs(GRID.q) <= 4.0)
    assert np.abs(res.values[window]).max() < 1e-5


# ---------------------------------------------------------------------------
# transformed-coordinate pair
# ---------------------------------------------------------------------------

def test_monomial_phase_residual_vanishes():
    for n in (0, 1, 3):
        res = md.transformed_pair_residuals(fock.monomial(n), 0.6, PAR)
        assert np.abs(res.phase_residual).max() < 1e-10


def test_monomial_density_residual_value():
    # the written source sign leaves (2n+1) * hbar * omega * q^(2n) standing
    for n in (0, 1, 2):
        res = md.transformed_pair_residuals(fock.monomial(n), 0.3, PAR)
        expected = (2 * n + 1) * PAR.hbar * PAR.omega * res.positions ** (2 * n)
        assert np.abs(res.density_residual - expected).max() < 1e-10 * expected.max()


def test_zero_amplitude_guarded():
    with pytest.raises(AllZero):
        md.transformed_pair_residuals(fock.BargmannPoly([0.0]), 0.0, PAR)


def test_manufactured_advection_solutions():
    axis = np.linspace(-2.0, 2.0, 21)
    qq, pp = np.meshgrid(axis, axis, indexing="ij")
    assert np.abs(md.transformed_liouville_residual(qq, pp, 0.4, PAR)).max() < 1e-12
    assert np.abs(md.transformed_slice_residual(qq, pp, 0.4, PAR)).max() < 1e-12
