"""The transform between phase-space densities and two-point density fields.

The forward map integrates F(q, p) against exp(+i p dq / hbar) along the
momentum axis; the inverse carries the opposite kernel sign and the
1/(2 pi hbar) normalisation.  The offset axis is tied to the momentum grid
by the reciprocity relation L_delta = 2 pi hbar / dp, which makes the
discrete pair exactly unitary.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _spectral
from .errors import GridMismatch, NonHermitianInput
from .phasespace import PhaseDensity, PhaseGrid, PhysParams, PositionGrid, field_values
from .schrodinger import WaveFunction

PURITY_THRESHOLD = 0.999


@dataclass
class DensitySlice:
    """Complex field rho(q, dq) on the reciprocal (q, offset) grid.

    Column k corresponds to offset (k - n//2) * delta_step, the offset
    step fixed by the underlying grid.
    """

    grid: PhaseGrid
    values: np.ndarray
    time: float
    hbar: float

    def __post_init__(self):
        self.values = field_values(
            self.values, np.complex128, (self.grid.n, self.grid.n), "slice values"
        )

    @property
    def delta_step(self) -> float:
        return _offset_step(self.grid, self.hbar)

    @property
    def delta(self) -> np.ndarray:
        return (np.arange(self.grid.n) - self.grid.n // 2) * self.delta_step


def _offset_step(grid: PhaseGrid, hbar: float) -> float:
    """The offset spacing 2 pi hbar / (n dp) that reciprocity ties to the momentum grid."""
    return 2.0 * np.pi * hbar / (grid.n * grid.dp)


def _transform_phases(n: int):
    """The kernel's phases exp(i j dp delta_0 / hbar) and exp(-i p_max delta_k / hbar).

    On the centred window, with delta_k = (k - n/2) 2 pi hbar / (n dp) and
    p_max = n dp / 2, both are exact signs: (-1)^j and (-1)^(k - n/2).
    """
    inner = np.where(np.arange(n) % 2, -1.0, 1.0)
    return inner, (-1.0) ** (n // 2) * inner


def wigner_forward(f: PhaseDensity, par: PhysParams) -> DensitySlice:
    """Integrate F against exp(+i p dq / hbar) dp along the momentum axis."""
    grid = f.grid
    inner, outer = _transform_phases(grid.n)
    spectra = np.fft.ifft(f.values * inner[None, :], axis=1)
    values = grid.dp * grid.n * outer[None, :] * spectra
    return DensitySlice(grid, values, f.time, par.hbar)


def wigner_inverse(rho: DensitySlice) -> PhaseDensity:
    """Inverse transform with the -i kernel and 1/(2 pi hbar) normalisation.

    The slice must be Hermitian, rho(q, -dq) = conj(rho(q, dq)), to within
    1e-6 of its peak.  Rows are checked and transformed BLOCK at a time, so
    the only full-size array made is the real density returned.
    """
    grid = rho.grid
    inner, outer = _transform_phases(grid.n)
    kernel = outer[None, :]  # real signs, their own conjugates
    weight = (rho.delta_step / (2.0 * np.pi * rho.hbar)) * inner[None, :]
    mirror = -np.arange(grid.n) % grid.n  # column j <- column -j mod n
    density = np.empty((grid.n, grid.n))
    peak = gap = scale = residue = 0.0
    for start in range(0, grid.n, _spectral.BLOCK):
        rows = slice(start, start + _spectral.BLOCK)
        block = rho.values[rows]
        peak = max(peak, np.abs(block).max())
        gap = max(gap, np.abs(block - np.conj(block[:, mirror])).max())
        field = block * kernel
        np.fft.fft(field, axis=1, out=field)
        np.multiply(weight, field, out=field)
        residue = max(residue, np.abs(field.imag).max())
        scale = max(scale, np.abs(field.real).max())
        density[rows] = field.real
    defect = float(gap / (float(peak) or 1.0))
    if defect > 1e-6:
        raise NonHermitianInput(f"Hermitian mirror defect {defect:.3e} exceeds 1e-6")
    residue, scale = float(residue), float(scale) or 1.0
    if residue > 1e-10 * scale:
        print(f"discarding imaginary residue {residue:.3e} after inversion", file=sys.stderr)
    return PhaseDensity(grid, density, rho.time)


def wavefunction_to_slice(
    phi: WaveFunction, grid: PhaseGrid, par: PhysParams
) -> DensitySlice:
    """Two-point product conj(phi(q - dq/2)) * phi(q + dq/2).

    The state is resampled at the half-offsets by band-limited interpolation
    and treated as zero outside its own grid window, which kills the periodic
    ghost copies the Fourier shift would otherwise create at large offsets.
    The offsets are integer multiples of the half step, so -shifts[j] is
    shifts[n - j] exactly: columns j and n - j are products of the same two
    translates.  The columns are built in such mirrored pairs, BLOCK pairs at
    a time, so each translate is made once and no table of them is held.
    """
    if phi.grid != grid.line:
        raise GridMismatch("phase grid q axis must match the wavefunction grid")
    n = grid.n
    half = n // 2
    shifts = (np.arange(n + 1) - half) * _offset_step(grid, par.hbar) / 2.0
    values = np.empty((n, n), dtype=np.complex128)
    for start in range(0, half + 1, _spectral.BLOCK):
        stop = min(start + _spectral.BLOCK, half + 1)
        j = np.arange(start, stop)
        rows = np.append(j, n - j)
        translates = _spectral.shifted(phi.values, phi.grid.length, shifts[rows])
        translates[rows == half] = phi.values  # the zero shift, exact rather than round-tripped
        plus, minus = translates[: stop - start], translates[stop - start:]
        values[:, start:stop] = (np.conj(minus) * plus).T
        # columns n - j for 0 < j < half, in descending j
        low, high = max(start, 1), min(stop, half)
        if low < high:
            pairs = slice(low - start, high - start)
            values[:, n - high + 1 : n - low + 1] = (np.conj(plus[pairs]) * minus[pairs])[::-1].T
    return DensitySlice(grid, values, phi.time, par.hbar)


def wavefunction_to_density(
    phi: WaveFunction, grid: PhaseGrid, par: PhysParams
) -> PhaseDensity:
    """Phase-space density of a pure state (slice followed by inversion)."""
    return wigner_inverse(wavefunction_to_slice(phi, grid, par))


# ---------------------------------------------------------------------------
# endpoint matrices and pure-state factorisation
# ---------------------------------------------------------------------------

@dataclass
class EndpointMatrix:
    """Two-point field rho(x, x') as a matrix over a common position grid.

    Element [i, j] holds conj(phi(x_i)) * phi(x_j) (summed over the mixture),
    so the matrix is Hermitian and its weighted diagonal sum is the total
    probability.
    """

    grid: PositionGrid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.values = field_values(self.values, np.complex128, (n, n), "endpoint matrix")


def endpoint_matrix(states: Sequence[WaveFunction], weights=None) -> EndpointMatrix:
    """Mixture sum_k w_k conj(phi_k(x)) phi_k(x') over a shared grid."""
    if not states:
        raise ValueError("at least one state is required")
    grid = states[0].grid
    for state in states[1:]:
        if state.grid != grid:
            raise GridMismatch("mixture states live on different grids")
    if weights is None:
        weights = np.full(len(states), 1.0 / len(states))
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(states),):
        raise ValueError("one weight per state is required")
    values = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for w, state in zip(weights, states):
        values += w * np.outer(np.conj(state.values), state.values)
    return EndpointMatrix(grid, values)


@dataclass(frozen=True)
class PurityResult:
    purity: float
    state: Optional[WaveFunction]
    reconstruction_error: Optional[float]


def factorize_pure(em: EndpointMatrix) -> PurityResult:
    """Purity tr(rho^2) and, for nearly pure input, the factoring state.

    Above the 0.999 purity threshold the dominant eigenvector is returned
    with its global phase fixed so the largest-magnitude component is real
    positive, together with the Frobenius reconstruction error.
    """
    dq = em.grid.dq
    op = em.values * dq
    purity = float(np.real(np.sum(op * np.conj(op))))
    if purity <= PURITY_THRESHOLD:
        return PurityResult(purity, None, None)
    _, vectors = np.linalg.eigh(op)
    # element [i, j] = conj(phi_i) phi_j means the dominant eigenvector is
    # the conjugate of the discrete state
    amplitude = np.conj(vectors[:, -1]) / np.sqrt(dq)
    idx = int(np.argmax(np.abs(amplitude)))
    amplitude = amplitude * (abs(amplitude[idx]) / amplitude[idx])
    reconstruction = np.outer(np.conj(amplitude), amplitude)
    error = float(np.linalg.norm(em.values - reconstruction) * dq)
    return PurityResult(purity, WaveFunction(em.grid, amplitude, 0.0), error)
