"""Scaling covariance: the oscillator has one dimensionless form.

On grids scaled by the oscillator length lq = sqrt(hbar / m omega) and momentum
lp = hbar / lq, and for times scaled by 1 / omega, each layer at (m, omega, hbar)
equals its natural-unit result times a known power of the scales.  The phase
grids are ``default_grid(8 lq, n, par)``, whose p window, m omega times the q
window, is 8 lp.  The relation needs no closed form, and it sees unit
placements that natural units cannot.
"""

import math

import numpy as np
import pytest

from phaseq import fock
from phaseq import phasespace as ps
from phaseq import schrodinger as sc
from phaseq import wigner as wg

PARAMS = [
    pytest.param(ps.PhysParams(2.54, 0.41, 0.28), id="2.54,0.41,0.28"),
    pytest.param(ps.PhysParams(0.5, 2.0, 3.0), id="0.5,2,3"),
]


def _scales(par):
    length = math.sqrt(par.hbar / (par.m * par.omega))
    return length, par.hbar / length


def _assert_close(scaled, natural):
    assert np.abs(scaled - natural).max() <= 1e-12 * np.abs(natural).max()


def _evolved_coherent_state(par, length, momentum):
    grid = ps.PositionGrid(8.0 * length, 128)
    phi = sc.coherent_state(grid, par, 0.7 * length, -1.1 * momentum)
    return sc.split_step_evolve(phi, 1.234 / par.omega, 64, par).values


@pytest.mark.parametrize("par", PARAMS)
def test_split_step_evolve_scales_as_the_inverse_root_of_the_length(par):
    length, momentum = _scales(par)
    natural = _evolved_coherent_state(ps.NATURAL, 1.0, 1.0)
    _assert_close(_evolved_coherent_state(par, length, momentum), natural / math.sqrt(length))


@pytest.mark.parametrize("par", PARAMS)
def test_hamiltonian_gaussian_scales_as_the_inverse_action(par):
    length, _ = _scales(par)
    natural = ps.hamiltonian_gaussian(ps.default_grid(8.0, 64, ps.NATURAL), ps.NATURAL, width=0.8)
    scaled = ps.hamiltonian_gaussian(ps.default_grid(8.0 * length, 64, par), par, width=0.8)
    _assert_close(scaled.values, natural.values / par.hbar)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("par", PARAMS)
def test_hermite_eigenstate_scales_as_the_inverse_root_of_the_length(par, n):
    length, _ = _scales(par)
    natural = sc.hermite_eigenstate(n, ps.PositionGrid(8.0, 128), ps.NATURAL).values
    scaled = sc.hermite_eigenstate(n, ps.PositionGrid(8.0 * length, 128), par).values
    _assert_close(scaled, natural / math.sqrt(length))


@pytest.mark.parametrize("omega_t", [0.3, 1.234, 3.0, -2.5])
@pytest.mark.parametrize("par", PARAMS)
def test_hamilton_flow_scales_with_the_length_and_the_momentum(par, omega_t):
    length, momentum = _scales(par)
    for q, p in [(0.7, -1.1), (-2.3, 0.4)]:
        natural = ps.hamilton_flow(ps.PhasePoint(q, p), omega_t, ps.NATURAL)
        scaled = ps.hamilton_flow(ps.PhasePoint(q * length, p * momentum), omega_t / par.omega, par)
        _assert_close(np.array([scaled.q / length, scaled.p / momentum]),
                      np.array([natural.q, natural.p]))


def _coherent(par):
    length, momentum = _scales(par)
    grid = ps.default_grid(8.0 * length, 128, par)
    return sc.coherent_state(grid.line, par, 0.7 * length, -1.1 * momentum), grid


def _coherent_density(par):
    phi, grid = _coherent(par)
    return wg.wavefunction_to_density(phi, grid, par)


def _coherent_slice(par):
    phi, grid = _coherent(par)
    return wg.wavefunction_to_slice(phi, grid, par)


@pytest.mark.parametrize("par", PARAMS)
def test_wavefunction_to_slice_scales_as_the_inverse_length(par):
    length, _ = _scales(par)
    natural = _coherent_slice(ps.NATURAL).values
    _assert_close(_coherent_slice(par).values, natural / length)


@pytest.mark.parametrize("par", PARAMS)
def test_wigner_inverse_alone_scales_as_the_inverse_action(par):
    # the scaled slice is the natural one scaled by hand, so only the inverse runs at par
    length, _ = _scales(par)
    natural = _coherent_slice(ps.NATURAL)
    grid = ps.default_grid(8.0 * length, 128, par)
    scaled = wg.DensitySlice(grid, natural.values / length, 0.0, par.hbar)
    _assert_close(wg.wigner_inverse(scaled).values, wg.wigner_inverse(natural).values / par.hbar)


@pytest.mark.parametrize("par", PARAMS)
def test_wavefunction_to_density_scales_as_the_inverse_action(par):
    natural = _coherent_density(ps.NATURAL).values
    _assert_close(_coherent_density(par).values, natural / par.hbar)


@pytest.mark.parametrize("omega_t", [0.3, 1.234, 3.0, -2.5])
@pytest.mark.parametrize("par", PARAMS)
def test_liouville_propagate_scales_as_the_inverse_action(par, omega_t):
    natural = ps.liouville_propagate(_coherent_density(ps.NATURAL), omega_t, ps.NATURAL)
    scaled = ps.liouville_propagate(_coherent_density(par), omega_t / par.omega, par)
    _assert_close(scaled.values, natural.values / par.hbar)


@pytest.mark.parametrize("par", PARAMS)
def test_ho_spectrum_scales_as_the_quantum(par):
    natural = fock.ho_spectrum(64, ps.NATURAL)
    scaled = fock.ho_spectrum(64, par)
    _assert_close(scaled.energies, par.hbar * par.omega * natural.energies)
    assert np.array_equal(scaled.trusted, natural.trusted)


def _equivalence(par):
    phi, grid = _coherent(par)
    return sc.equivalence_report(phi, 1.234 / par.omega, par, grid)


@pytest.mark.parametrize("par", PARAMS)
def test_equivalence_report_scales_field_by_field(par):
    length, _ = _scales(par)
    natural, scaled = _equivalence(ps.NATURAL), _equivalence(par)
    assert scaled.n_steps == natural.n_steps
    _assert_close(scaled.initial.values, natural.initial.values / par.hbar)
    _assert_close(scaled.transported.values, natural.transported.values / par.hbar)
    _assert_close(scaled.evolved.values, natural.evolved.values / math.sqrt(length))
    # The routes' gap cancels to ~1e-6 of the fields, so the distances are gated
    # against the fields' own scale: sup norm and L2 norm of the natural density.
    field = natural.transported
    peak = np.abs(field.values).max()
    norm = math.sqrt(np.sum(field.values ** 2) * field.grid.dq * field.grid.dp)
    assert abs(scaled.max_distance * par.hbar - natural.max_distance) <= 1e-12 * peak
    assert abs(scaled.l2_distance * math.sqrt(par.hbar) - natural.l2_distance) <= 1e-12 * norm
