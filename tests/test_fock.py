"""Ladder matrices, spectra, the polynomial picture, and the phase circle."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from phaseq import fock
from phaseq import phasespace as ps
from phaseq.errors import DegreeOverflow, OutOfTruncation

PAR = ps.NATURAL


# ---------------------------------------------------------------------------
# ladder matrices and number states
# ---------------------------------------------------------------------------

def test_creation_on_vacuum():
    _, adag = fock.ladder_matrices(8)
    vacuum = np.zeros(8)
    vacuum[0] = 1.0
    raised = adag @ vacuum
    expected = np.zeros(8)
    expected[1] = 1.0
    assert np.abs(raised - expected).max() < 1e-15


def test_commutator_and_corner():
    dim = 12
    a, adag = fock.ladder_matrices(dim)
    commutator = a @ adag - adag @ a
    body = commutator[: dim - 1, : dim - 1]
    assert np.abs(body - np.eye(dim - 1)).max() < 1e-12
    assert commutator[dim - 1, dim - 1] == pytest.approx(1 - dim, abs=1e-12)
    off = commutator - np.diag(np.diag(commutator))
    assert np.abs(off).max() == 0.0


def test_number_operator_diagonal():
    a, adag = fock.ladder_matrices(9)
    assert np.abs(adag @ a - np.diag(np.arange(9.0))).max() < 1e-12


def test_ladder_matrices_hold_the_ladder_elements():
    a, adag = fock.ladder_matrices(6)
    assert np.array_equal(np.diag(a, 1), np.sqrt(np.arange(1, 6)))
    assert np.array_equal(adag, a.conj().T)
    assert np.array_equal(a, np.diag(np.diag(a, 1), 1))


def test_number_state_components():
    state = fock.number_state(2, 8)
    assert state[2] == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert np.abs(np.delete(state, 2)).max() == 0.0


def test_number_states_orthogonal():
    states = [fock.number_state(n, 8) / math.sqrt(math.factorial(n)) for n in range(6)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            overlap = np.vdot(a, b)
            assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-12


def test_truncation_guard():
    with pytest.raises(OutOfTruncation):
        fock.number_state(8, 8)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_first_levels():
    spectrum = fock.ho_spectrum(16, PAR)
    assert spectrum.energies[0] == pytest.approx(0.5, abs=1e-13)
    assert spectrum.energies[1] == pytest.approx(1.5, abs=1e-13)


def test_uniform_spacing_on_trusted_block():
    spectrum = fock.ho_spectrum(64, PAR)
    trusted = spectrum.energies[spectrum.trusted]
    gaps = np.diff(trusted)
    assert np.abs(gaps - PAR.hbar * PAR.omega).max() < 1e-12


def test_smallest_truncation():
    spectrum = fock.ho_spectrum(2, PAR)
    assert spectrum.trusted.tolist() == [True, False]
    assert spectrum.energies[0] == pytest.approx(0.5, abs=1e-14)


def test_artifact_is_last_entry():
    spectrum = fock.ho_spectrum(32, PAR)
    assert spectrum.energies[-1] > spectrum.energies[-2]
    assert not spectrum.trusted[-1]


def _spectrum_by_eigensolve(dim, par):
    """Reference construction: eigvalsh of the dense hbar*omega*(a+ a + P/2)."""
    a, adag = fock.ladder_matrices(dim)
    below_edge = np.eye(dim)
    below_edge[-1, -1] = 0.0
    return np.linalg.eigvalsh(par.hbar * par.omega * (adag @ a + 0.5 * below_edge))


@pytest.mark.parametrize(
    "par", [PAR, ps.PhysParams(2.54, 0.41, 0.28), ps.PhysParams(1.61, 1.48, 2.05)]
)
@pytest.mark.parametrize("dim", [2, 3, 16, 64, 256])
def test_spectrum_equals_the_dense_eigensolve(dim, par):
    # equal within the oracle's own roundoff: its diagonal holds sqrt(n) sqrt(n)
    energies = fock.ho_spectrum(dim, par).energies
    reference = _spectrum_by_eigensolve(dim, par)
    assert np.all(np.abs(energies - reference) <= 2 * np.spacing(energies))


@pytest.mark.parametrize("dim", [2, 3, 64, 2048])
def test_levels_are_exact_at_natural_units(dim):
    spectrum = fock.ho_spectrum(dim, PAR)
    assert np.array_equal(spectrum.energies[spectrum.trusted] - 0.5, np.arange(dim - 1))
    assert spectrum.energies[-1] == dim - 1


# ---------------------------------------------------------------------------
# polynomial picture
# ---------------------------------------------------------------------------

def test_create_shifts_coefficients():
    raised = fock.bargmann_apply("create", fock.BargmannPoly([1.0]), PAR)
    assert np.array_equal(raised.coeffs, np.array([0.0, 1.0], dtype=complex))


def test_annihilate_differentiates():
    lowered = fock.bargmann_apply("annihilate", fock.monomial(2), PAR)
    assert np.array_equal(lowered.coeffs, np.array([0.0, 2.0], dtype=complex))


def test_annihilate_kills_vacuum():
    lowered = fock.bargmann_apply("annihilate", fock.BargmannPoly([1.0]), PAR)
    assert lowered.is_zero


def test_energy_action_on_monomials():
    for n in range(0, 41):
        applied = fock.bargmann_apply("hamiltonian", fock.monomial(n), PAR)
        assert applied.coeffs[n] == pytest.approx(PAR.hbar * PAR.omega * (n + 0.5), abs=1e-12)


def test_degree_overflow_guard():
    with pytest.raises(DegreeOverflow):
        fock.bargmann_apply("create", fock.monomial(fock.MAX_DEGREE), PAR)


def test_number_state_holds_the_largest_degree_and_refuses_the_next():
    assert fock.number_state(128, 129)[128] == math.sqrt(math.factorial(128))
    with pytest.raises(DegreeOverflow):
        fock.number_state(fock.MAX_DEGREE + 1, fock.MAX_DEGREE + 2)
    # 171! no longer converts to a float
    with pytest.raises(DegreeOverflow):
        fock.fock_state_from_poly(fock.monomial(171), 172)


def test_evolution_phase_on_monomials():
    t = 0.8
    for n in (0, 2, 5):
        evolved = fock.bargmann_evolve(fock.monomial(n), t, PAR)
        expected = np.exp(-1j * PAR.omega * (n + 0.5) * t)
        assert abs(evolved.coeffs[n] - expected) < 1e-14


def test_evolution_zero_time_identity():
    poly = fock.BargmannPoly([0.2, 1.0, 0.5j])
    evolved = fock.bargmann_evolve(poly, 0.0, PAR)
    assert np.array_equal(evolved.coeffs, poly.coeffs)


def test_evolution_matches_matrix_exponential():
    # independent oracle: expm of the truncated generator at dim 32
    dim = 32
    a, adag = fock.ladder_matrices(dim)
    h = PAR.hbar * PAR.omega * (adag @ a + 0.5 * np.eye(dim))
    t = 1.3
    propagator = expm(-1j * h * t / PAR.hbar)
    poly = fock.BargmannPoly([0.4, 1.0, 0.0, 0.3j, 0.1])
    direct = fock.fock_state_from_poly(fock.bargmann_evolve(poly, t, PAR), dim)
    via_matrix = propagator @ fock.fock_state_from_poly(poly, dim)
    assert np.abs(direct - via_matrix).max() < 1e-10


def test_pictures_are_isomorphic():
    dim = 16
    a, adag = fock.ladder_matrices(dim)
    actions = {
        "create": adag,
        "annihilate": a,
        "hamiltonian": PAR.hbar * PAR.omega * (adag @ a + 0.5 * np.eye(dim)),
    }
    for n in range(dim - 1):
        poly = fock.BargmannPoly([0.0] * n + [0.7 - 0.2j])
        for which, matrix in actions.items():
            applied = fock.bargmann_apply(which, poly, PAR)
            via_poly = fock.fock_state_from_poly(applied, dim)
            via_matrix = matrix @ fock.fock_state_from_poly(poly, dim)
            scale = max(1.0, np.abs(via_matrix).max())
            assert np.abs(via_poly - via_matrix).max() < 1e-12 * scale


def test_canonical_form_trims_trailing_zeros():
    poly = fock.BargmannPoly([1.0, 2.0, 0.0, 0.0])
    assert poly.degree == 1


# ---------------------------------------------------------------------------
# phase circle
# ---------------------------------------------------------------------------

THETA = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)


def test_create_on_circle_waves():
    for n in range(0, 11):
        report = fock.phase_circle_action(n, THETA)
        assert report.create_deviation < 1e-12


def test_annihilate_vacuum_on_circle():
    report = fock.phase_circle_action(0, THETA)
    assert report.annihilate_deviation == 0.0


def test_circle_wave_orthogonality():
    for m in range(0, 6):
        for n in range(0, 6):
            inner = np.sum(np.conj(np.exp(1j * m * THETA)) * np.exp(1j * n * THETA))
            inner *= 2.0 * np.pi / THETA.size
            expected = 2.0 * np.pi if m == n else 0.0
            assert abs(inner - expected) < 1e-10


def test_written_convention_commutator():
    # the -i*hbar derivative convention misses the unit commutator
    poly = fock.monomial(3)
    raised_then_lowered = fock.annihilate_written_convention(
        fock.bargmann_apply("create", poly, PAR), PAR
    )
    lowered_then_raised = fock.bargmann_apply(
        "create", fock.annihilate_written_convention(poly, PAR), PAR
    )
    commutator = (raised_then_lowered.coeffs[3] - lowered_then_raised.coeffs[3]) / poly.coeffs[3]
    assert commutator == pytest.approx(-1j * PAR.hbar, abs=1e-14)
