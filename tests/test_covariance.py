"""Scaling covariance: the oscillator has one dimensionless form.

On grids scaled by the oscillator length lq = sqrt(hbar / m omega) and momentum
lp = hbar / lq, and for times scaled by 1 / omega, each layer at (m, omega, hbar)
equals its natural-unit result times a known power of the scales.  The relation
needs no closed form, and it sees unit placements that natural units cannot.
"""

import math

import numpy as np
import pytest

from phaseq import fock
from phaseq import phasespace as ps
from phaseq import schrodinger as sc

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
    grid = ps.PositionGrid(-8.0 * length, 8.0 * length, 128)
    phi = sc.coherent_state(grid, par, 0.7 * length, -1.1 * momentum)
    return sc.split_step_evolve(phi, 1.234 / par.omega, 64, par).values


@pytest.mark.parametrize("par", PARAMS)
def test_split_step_evolve_scales_as_the_inverse_root_of_the_length(par):
    length, momentum = _scales(par)
    natural = _evolved_coherent_state(ps.NATURAL, 1.0, 1.0)
    _assert_close(_evolved_coherent_state(par, length, momentum), natural / math.sqrt(length))


@pytest.mark.parametrize("par", PARAMS)
def test_hamiltonian_gaussian_scales_as_the_inverse_action(par):
    length, momentum = _scales(par)
    grid = ps.PhaseGrid(-8.0 * length, 8.0 * length, -8.0 * momentum, 8.0 * momentum, 64, 64)
    natural = ps.hamiltonian_gaussian(ps.default_grid(8.0, 64), ps.NATURAL, width=0.8).values
    _assert_close(ps.hamiltonian_gaussian(grid, par, width=0.8).values, natural / par.hbar)


@pytest.mark.parametrize("par", PARAMS)
def test_ho_spectrum_scales_as_the_quantum(par):
    natural = fock.ho_spectrum(64, ps.NATURAL)
    scaled = fock.ho_spectrum(64, par)
    _assert_close(scaled.energies, par.hbar * par.omega * natural.energies)
    assert np.array_equal(scaled.trusted, natural.trusted)
