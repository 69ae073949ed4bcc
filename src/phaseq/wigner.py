"""The transform between phase-space densities and two-point density fields.

The forward map integrates F(q, p) against exp(+i p dq / hbar) along the
momentum axis; the inverse carries the opposite kernel sign and the
1/(2 pi hbar) normalisation.  The offset axis is tied to the momentum grid
by the reciprocity relation L_delta = 2 pi hbar / dp, which makes the
discrete pair exactly unitary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _spectral
from .errors import GridMismatch, NonHermitianInput
from .phasespace import PhaseDensity, PhaseGrid, PhysParams
from .schrodinger import PositionGrid, WaveFunction

logger = logging.getLogger(__name__)

PURITY_THRESHOLD = 0.999


@dataclass
class DensitySlice:
    """Complex field rho(q, dq) on the reciprocal (q, offset) grid.

    Column k corresponds to offset (k - n_p//2) * delta_step, with
    delta_step = 2 pi hbar / (n_p * dp) fixed by the underlying grid.
    """

    grid: PhaseGrid
    values: np.ndarray
    time: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.n_q, self.grid.n_p):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_q}, {self.grid.n_p})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("slice values must be finite")

    @property
    def delta_step(self) -> float:
        return 2.0 * np.pi * self.hbar / (self.grid.n_p * self.grid.dp)

    @property
    def delta(self) -> np.ndarray:
        n = self.grid.n_p
        return (np.arange(n) - n // 2) * self.delta_step


def hermiticity_defect(rho: DensitySlice) -> float:
    """Scaled max deviation from rho(q, -dq) = conj(rho(q, dq))."""
    values = rho.values
    mirrored = np.conj(np.roll(values[:, ::-1], 1, axis=1))  # column j <- column -j mod n
    scale = float(np.abs(values).max()) or 1.0
    return float(np.abs(values - mirrored).max() / scale)


def _transform_phases(grid: PhaseGrid, delta: np.ndarray, hbar: float):
    j = np.arange(grid.n_p)
    inner = np.exp(1j * j * grid.dp * delta[0] / hbar)
    outer = np.exp(1j * grid.p_min * delta / hbar)
    return inner, outer


def wigner_forward(f: PhaseDensity, par: PhysParams) -> DensitySlice:
    """Integrate F against exp(+i p dq / hbar) dp along the momentum axis."""
    grid = f.grid
    n = grid.n_p
    step = 2.0 * np.pi * par.hbar / (n * grid.dp)
    delta = (np.arange(n) - n // 2) * step
    inner, outer = _transform_phases(grid, delta, par.hbar)
    spectra = np.fft.ifft(f.values * inner[None, :], axis=1)
    values = grid.dp * n * outer[None, :] * spectra
    return DensitySlice(grid, values, f.time, par.hbar)


def wigner_inverse(rho: DensitySlice) -> PhaseDensity:
    """Inverse transform with the -i kernel and 1/(2 pi hbar) normalisation."""
    defect = hermiticity_defect(rho)
    if defect > 1e-6:
        raise NonHermitianInput(f"Hermitian mirror defect {defect:.3e} exceeds 1e-6")
    grid = rho.grid
    delta = rho.delta
    inner, outer = _transform_phases(grid, delta, rho.hbar)
    spectra = np.fft.fft(rho.values * np.conj(outer)[None, :], axis=1)
    complex_field = (rho.delta_step / (2.0 * np.pi * rho.hbar)) * np.conj(inner)[None, :] * spectra
    residue = float(np.abs(complex_field.imag).max())
    scale = float(np.abs(complex_field.real).max()) or 1.0
    if residue > 1e-10 * scale:
        logger.warning("discarding imaginary residue %.3e after inversion", residue)
    else:
        logger.debug("imaginary residue after inversion: %.3e", residue)
    return PhaseDensity(grid, complex_field.real, rho.time)


def wavefunction_to_slice(
    phi: WaveFunction, grid: PhaseGrid, par: PhysParams
) -> DensitySlice:
    """Two-point product conj(phi(q - dq/2)) * phi(q + dq/2).

    The state is resampled at the half-offsets by band-limited interpolation
    and treated as zero outside its own grid window, which kills the periodic
    ghost copies the Fourier shift would otherwise create at large offsets.
    The offsets are integer multiples of the half step, so -shifts[k] is
    shifts[n - k] exactly and one set of translates serves both factors.
    """
    if (grid.n_q, grid.q_min, grid.q_max) != (phi.grid.n, phi.grid.q_min, phi.grid.q_max):
        raise GridMismatch("phase grid q axis must match the wavefunction grid")
    n_delta = grid.n_p
    step = 2.0 * np.pi * par.hbar / (n_delta * grid.dp)
    shifts = (np.arange(n_delta) - n_delta // 2) * step / 2.0
    translates = _spectral.shifted(phi.values, phi.grid.length, np.append(shifts, -shifts[0]))
    translates[n_delta // 2] = phi.values
    plus = translates[:n_delta]
    minus = translates[n_delta - np.arange(n_delta)]
    values = (np.conj(minus) * plus).T
    return DensitySlice(grid, np.ascontiguousarray(values), phi.time, par.hbar)


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
        self.values = np.asarray(self.values, dtype=np.complex128)
        n = self.grid.n
        if self.values.shape != (n, n):
            raise ValueError(f"values shape {self.values.shape} does not match grid ({n}, {n})")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("endpoint matrix must be finite")


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
