"""Offset transform pair, two-point products, and pure-state factorisation."""

import numpy as np
import pytest

from phaseq import _spectral
from phaseq import phasespace as ps
from phaseq import schrodinger as sc
from phaseq import wigner as wg
from phaseq.errors import GridMismatch, NonHermitianInput

PAR = ps.NATURAL
GRID = ps.default_grid(8.0, 256)
LINE = sc.PositionGrid(-8.0, 8.0, 256)


def test_forward_value_for_ground_gaussian():
    density = ps.gaussian_density(GRID, PAR)
    rho = wg.wigner_forward(density, PAR)
    center = rho.values[128, 128]
    assert center.real == pytest.approx(np.sqrt(1.0 / np.pi), abs=1e-6)
    assert abs(center.imag) < 1e-12


def test_forward_output_is_hermitian():
    rng = np.random.default_rng(21)
    raw = rng.random((64, 64))
    raw /= raw.sum() * (16.0 / 64) ** 2
    density = ps.PhaseDensity(ps.default_grid(8.0, 64), raw)
    rho = wg.wigner_forward(density, PAR)
    assert wg.hermiticity_defect(rho) < 1e-12


def test_round_trip_is_exact():
    density = ps.gaussian_density(GRID, PAR, q0=1.0, p0=-0.3)
    back = wg.wigner_inverse(wg.wigner_forward(density, PAR))
    assert np.abs(back.values - density.values).max() < 1e-10


def test_parseval():
    density = ps.gaussian_density(GRID, PAR, q0=0.7)
    rho = wg.wigner_forward(density, PAR)
    left = np.sum(density.values ** 2) * GRID.dq * GRID.dp
    right = np.sum(np.abs(rho.values) ** 2) * GRID.dq * rho.delta_step / (2.0 * np.pi * PAR.hbar)
    assert left == pytest.approx(right, rel=1e-8)


def test_inverse_rejects_non_hermitian_input():
    density = ps.gaussian_density(GRID, PAR)
    rho = wg.wigner_forward(density, PAR)
    broken = wg.DensitySlice(GRID, rho.values + 0.01j * np.ones_like(rho.values), 0.0, PAR.hbar)
    with pytest.raises(NonHermitianInput):
        wg.wigner_inverse(broken)


def test_inverse_of_first_excited_slice():
    # oracle: trapezoid quadrature of the inversion integral at the origin.
    # rho(0, d) = -psi1(d/2)^2 for the (odd, real) first excited state, so
    # F(0,0) = -(1/pi) integral psi1(u)^2 du ... = -1/pi.
    state = sc.hermite_eigenstate(1, LINE, PAR)
    rho = wg.wavefunction_to_slice(state, GRID, PAR)
    quad = np.trapezoid(rho.values[128, :], dx=rho.delta_step) / (2.0 * np.pi * PAR.hbar)
    assert quad.real == pytest.approx(-1.0 / np.pi, abs=1e-6)
    density = wg.wigner_inverse(rho)
    assert density.values[128, 128] == pytest.approx(-1.0 / (np.pi * PAR.hbar), abs=1e-4)


def test_offset_independent_slice_concentrates_at_zero_momentum():
    profile = np.exp(-GRID.q ** 2)
    values = np.repeat(profile[:, None], GRID.n_p, axis=1).astype(complex)
    rho = wg.DensitySlice(GRID, values, 0.0, PAR.hbar)
    density = wg.wigner_inverse(rho)
    zero_col = GRID.n_p // 2
    others = np.delete(density.values, zero_col, axis=1)
    assert np.abs(others).max() < 1e-12 * np.abs(density.values).max()


def test_slice_of_ground_state_matches_closed_form():
    state = sc.hermite_eigenstate(0, LINE, PAR)
    rho = wg.wavefunction_to_slice(state, GRID, PAR)
    qs = GRID.q[:, None]
    ds = rho.delta[None, :]
    closed = np.sqrt(1.0 / np.pi) * np.exp(-(qs ** 2) - ds ** 2 / 4.0)
    assert np.abs(rho.values - closed).max() < 1e-8


def test_slice_diagonal_is_probability_density():
    state = sc.coherent_state(LINE, PAR, q0=1.0, p0=0.4)
    rho = wg.wavefunction_to_slice(state, GRID, PAR)
    diag = rho.values[:, GRID.n_p // 2]
    # conj(phi) * phi cell by cell: zero imaginary part up to FMA contraction
    assert np.abs(diag.imag).max() < 1e-16
    assert np.abs(diag.real - np.abs(state.values) ** 2).max() < 1e-15
    assert np.trapezoid(diag.real, dx=GRID.dq) == pytest.approx(1.0, abs=1e-8)


def test_slice_grid_must_match_state():
    state = sc.hermite_eigenstate(0, sc.PositionGrid(-10.0, 10.0, 512), PAR)
    with pytest.raises(GridMismatch):
        wg.wavefunction_to_slice(state, GRID, PAR)


def test_slice_satisfies_invariants():
    state = sc.coherent_state(LINE, PAR, q0=0.5, p0=1.0)
    rho = wg.wavefunction_to_slice(state, GRID, PAR)
    assert wg.hermiticity_defect(rho) <= 1e-10
    # the diagonal rho(q, 0) is real and nonnegative
    scale = float(np.abs(rho.values).max())
    diag = rho.values[:, GRID.n_p // 2]
    assert np.abs(diag.imag).max() <= 1e-10 * scale
    assert diag.real.min() >= -1e-10 * scale


def test_shift_past_an_edge_does_not_wrap():
    line = sc.PositionGrid(-8.0, 8.0, 256)
    packet = np.exp(-8.0 * (line.q - 5.0) ** 2)
    moved = _spectral.shifted(packet, line.length, [-6.0, 2.0])
    # the packet at q = 5 lands at 11, beyond the top edge; a periodic
    # shift would bring it back in at -5
    assert np.abs(moved[0, line.q < -2.0]).max() <= 1e-12
    assert np.abs(moved[1] - np.exp(-8.0 * (line.q - 3.0) ** 2)).max() < 1e-12


def _two_call_slice(phi, grid, par):
    """The slice as first built: two periodic shifts, each masked in q."""
    n = grid.n_p
    step = 2.0 * np.pi * par.hbar / (n * grid.dp)
    shifts = (np.arange(n) - n // 2) * step / 2.0
    k = _spectral.wavenumbers(phi.grid.n, phi.grid.length)
    spectrum = np.fft.fft(phi.values)

    def translates(s):
        out = np.fft.ifft(spectrum[None, :] * np.exp(1j * np.outer(s, k)), axis=1)
        out[n // 2] = phi.values
        x = phi.grid.q[None, :] + s[:, None]
        return np.where((x >= grid.q_min) & (x < grid.q_max), out, 0.0)

    return np.ascontiguousarray((np.conj(translates(-shifts)) * translates(shifts)).T)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("par", [PAR, ps.PhysParams(2.54, 0.41, 0.28)])
def test_slice_matches_two_call_construction_bit_for_bit(n, par):
    grid = ps.default_grid(8.0, n)
    line = sc.PositionGrid(-8.0, 8.0, n)
    for state in (sc.coherent_state(line, par, q0=1.0, p0=0.5),
                  sc.hermite_eigenstate(3, line, par)):
        rho = wg.wavefunction_to_slice(state, grid, par)
        assert rho.values.tobytes() == _two_call_slice(state, grid, par).tobytes()


# ---------------------------------------------------------------------------
# endpoint matrices and factorisation
# ---------------------------------------------------------------------------

def _random_state(rng, grid=LINE):
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dq)
    spectrum = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    values = np.fft.ifft(spectrum * np.exp(-(k / 4.0) ** 2)) * np.exp(-grid.q ** 2 / 4.0)
    phi = sc.WaveFunction(grid, values)
    phi.values = phi.values / phi.norm()
    return phi


def test_pure_state_recovery():
    rng = np.random.default_rng(22)
    for _ in range(5):
        state = _random_state(rng)
        result = wg.factorize_pure(wg.endpoint_matrix([state]))
        assert result.purity == pytest.approx(1.0, abs=1e-8)
        assert result.state is not None
        assert result.state.fidelity(state) > 1.0 - 1e-10
        assert result.reconstruction_error < 1e-8


def test_recovered_phase_convention():
    rng = np.random.default_rng(23)
    state = _random_state(rng)
    recovered = wg.factorize_pure(wg.endpoint_matrix([state])).state
    top = recovered.values[int(np.argmax(np.abs(recovered.values)))]
    assert abs(top.imag) < 1e-12 * abs(top)
    assert top.real > 0.0


def test_equal_mixture_purity():
    ground = sc.hermite_eigenstate(0, LINE, PAR)
    excited = sc.hermite_eigenstate(1, LINE, PAR)
    result = wg.factorize_pure(wg.endpoint_matrix([ground, excited]))
    assert result.purity == pytest.approx(0.5, abs=1e-6)
    assert result.state is None and result.reconstruction_error is None


def test_single_cell_state_is_pure():
    values = np.zeros(LINE.n, dtype=complex)
    values[100] = 1.0 / np.sqrt(LINE.dq)
    spike = sc.WaveFunction(LINE, values)
    result = wg.factorize_pure(wg.endpoint_matrix([spike]))
    assert result.purity == pytest.approx(1.0, abs=1e-10)


def test_endpoint_matrix_invariants():
    state = sc.coherent_state(LINE, PAR, q0=1.0, p0=0.3)
    em = wg.endpoint_matrix([state])
    scale = float(np.abs(em.values).max())
    assert np.abs(em.values - np.conj(em.values.T)).max() <= 1e-10 * scale
    assert float(np.real(np.trace(em.values))) * LINE.dq == pytest.approx(1.0, abs=1e-8)
