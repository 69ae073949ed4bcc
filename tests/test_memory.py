"""Transient memory of the transform and transport kernels, and of the spin spectrum.

The kernels work in place and in blocks of lines, so what they allocate
beyond their result stays a fraction of one field.  Peaks are traced by
tracemalloc, which sees every numpy array, and counted in fields: one real
n x n array of float64.  At n = 512 the whole-array kernels these replaced
peaked at 8.1 fields (the density of a state) and 6.3 fields (transport).
The spin spectrum and the oscillator spectrum are read off ladder elements,
with no matrix; at dim 32 the dense d^2 x d^2 spin construction peaked at
96 MiB, and at truncation 2048 the dense oscillator Hamiltonian alone takes
64 MiB.
"""

import tracemalloc

import numpy as np
import pytest

from phaseq import fock
from phaseq import phasespace as ps
from phaseq import schrodinger as sc
from phaseq import spin
from phaseq import wigner as wg

PAR = ps.NATURAL
N = 512
GRID = ps.default_grid(10.0, N, PAR)
LINE = ps.PositionGrid(10.0, N)
FIELD = N * N * 8

# The complex slice (2 fields) and the density (1) are the results; the
# rest is blocks and masks.
DENSITY_PEAK_FIELDS = 4.0
# The copy that is transported (1), turned into place by whole quarter turns;
# the shears hold only the small factor tables of their ramps and work on
# blocks of lines, forming each block's ramp rows and mask as they go.
TRANSPORT_PEAK_FIELDS = 2.0


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_density_of_a_state_peaks_under_four_fields():
    phi = sc.coherent_state(LINE, PAR, 0.7, -1.1)
    peak = _traced_peak(lambda: wg.wavefunction_to_density(phi, GRID, PAR))
    assert peak < DENSITY_PEAK_FIELDS * FIELD


@pytest.mark.parametrize("t", [0.3, 1.234, 3.0, np.pi / 2.0, -2.5])
def test_transport_peaks_under_four_fields(t):
    density = wg.wavefunction_to_density(sc.coherent_state(LINE, PAR, 1.2, 0.4), GRID, PAR)
    peak = _traced_peak(lambda: ps.liouville_propagate(density, t, PAR))
    assert peak < TRANSPORT_PEAK_FIELDS * FIELD


def test_inverse_owns_a_contiguous_real_density():
    # a real view of the complex field would keep the field alive
    rho = wg.wavefunction_to_slice(sc.coherent_state(LINE, PAR, 0.5, 1.0), GRID, PAR)
    values = wg.wigner_inverse(rho).values
    assert values.dtype == np.float64 and values.flags.c_contiguous
    assert values.base is None or values.flags.owndata


def test_spin_spectrum_builds_no_two_mode_matrix():
    # one complex 1024 x 1024 two-mode matrix alone would take 16 MiB
    assert _traced_peak(lambda: spin.spin_spectrum(32)) < 1 << 20


def test_oscillator_spectrum_builds_no_matrix():
    # one complex 2048 x 2048 matrix alone would take 64 MiB
    assert _traced_peak(lambda: fock.ho_spectrum(2048, PAR)) < 1 << 20
