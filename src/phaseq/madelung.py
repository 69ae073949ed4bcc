"""Amplitude-phase splitting of wavefunctions and the fluid-form residuals.

A state factors as amplitude * exp(i * action / hbar) with both factors
real; the evolution then splits into a probability continuity equation and a
Hamilton-Jacobi equation carrying the curvature (quantum-potential) term.
Residual evaluators for both are provided, plus the transformed-coordinate
pair evaluated on polynomial amplitudes.

Derivatives that involve the phase are computed from the recomposed complex
field via the identities

    amplitude^2 * dS/dq      = hbar * Im(conj(phi) * phi')
    amplitude''/amplitude    = Re(conj(phi) * phi'') / amplitude^2 + (S'/hbar)^2

which are exact where the amplitude is above the node cutoff and avoid the
spectral ringing a direct derivative of S (which jumps by pi across nodes)
or of |phi| (which kinks there) would produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _spectral, fock
from .errors import AllZero, GridMismatch
from .phasespace import PhysParams, PositionGrid, field_values, hamiltonian
from .schrodinger import WaveFunction

NODE_EPSILON_FACTOR = 1e-3


@dataclass
class MadelungPair:
    """Real amplitude and action fields of a wavefunction on a 1D grid."""

    grid: PositionGrid
    amplitude: np.ndarray
    action: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n,)
        self.amplitude = field_values(self.amplitude, np.float64, shape, "amplitude")
        self.action = field_values(self.action, np.float64, shape, "action")
        if self.amplitude.min() < 0.0:
            raise ValueError("amplitude must be nonnegative")

    def node_epsilon(self) -> float:
        return NODE_EPSILON_FACTOR * float(self.amplitude.max())

    def valid_mask(self) -> np.ndarray:
        return self.amplitude > self.node_epsilon()


def decompose(phi: WaveFunction, par: PhysParams) -> MadelungPair:
    """Split a state into amplitude and unwrapped action.

    Unwrapping runs left to right within each contiguous run of cells whose
    amplitude exceeds the node cutoff; continuity restarts after each node.
    Sub-cutoff cells keep their raw pointwise angle (meaningless but
    harmless: unwrapping only ever adds full turns, so recomposition is
    exact everywhere).  The additive constant is fixed by zero action at the
    amplitude peak.
    """
    amplitude = np.abs(phi.values)
    peak = float(amplitude.max())
    if peak == 0.0:
        raise AllZero("cannot decompose the zero wavefunction")
    valid = amplitude > NODE_EPSILON_FACTOR * peak
    raw = np.angle(phi.values)
    unwrapped = raw.copy()
    last = -1
    for i in range(raw.size):
        if not valid[i]:
            last = -1
            continue
        if last >= 0:
            jump = raw[i] - raw[last]
            jump -= 2.0 * math.pi * round(jump / (2.0 * math.pi))
            unwrapped[i] = unwrapped[last] + jump
        last = i
    unwrapped -= unwrapped[int(np.argmax(amplitude))]
    return MadelungPair(phi.grid, amplitude, par.hbar * unwrapped)


def compose(pair: MadelungPair, par: PhysParams) -> WaveFunction:
    """Rebuild amplitude * exp(i * action / hbar)."""
    values = pair.amplitude * np.exp(1j * pair.action / par.hbar)
    return WaveFunction(pair.grid, values, 0.0)


@dataclass
class ResidualField:
    """A residual sampled over a 1D grid, meaningful only where mask is True."""

    grid: PositionGrid
    values: np.ndarray
    mask: np.ndarray


def _masked_ratio(numerator: np.ndarray, squared_amplitude: np.ndarray, mask: np.ndarray):
    out = np.zeros_like(numerator)
    np.divide(numerator, squared_amplitude, out=out, where=mask)
    return out


def _current(pair: MadelungPair, par: PhysParams) -> np.ndarray:
    """imag(conj(phi) dphi/dq) of the recomposed field, the current in units of hbar/m."""
    phi = compose(pair, par).values
    return np.imag(np.conj(phi) * _spectral.derivative(phi, pair.grid.length))


def phase_gradient(pair: MadelungPair, par: PhysParams) -> np.ndarray:
    """dS/dq from the recomposed field; zero on sub-cutoff cells."""
    current = par.hbar * _current(pair, par)
    return _masked_ratio(current, pair.amplitude ** 2, pair.valid_mask())


def quantum_potential(pair: MadelungPair, par: PhysParams) -> np.ndarray:
    """-(hbar^2 / 2m) * amplitude''/amplitude, zero on sub-cutoff cells."""
    phi = compose(pair, par).values
    second = _spectral.derivative(phi, pair.grid.length, order=2)
    mask = pair.valid_mask()
    curvature = _masked_ratio(np.real(np.conj(phi) * second), pair.amplitude ** 2, mask)
    s_grad = phase_gradient(pair, par)
    ratio = curvature + (s_grad / par.hbar) ** 2
    return -(par.hbar ** 2) / (2.0 * par.m) * ratio


def continuity_residual(
    pair_t0: MadelungPair, pair_t1: MadelungPair, dt: float, par: PhysParams
) -> ResidualField:
    """d(amplitude^2)/dt + d/dq(amplitude^2 * (dS/dq) / m) between two snapshots.

    The time derivative is the centred two-snapshot difference; the flux is
    averaged over the snapshots and differentiated spectrally.
    """
    if pair_t0.grid != pair_t1.grid:
        raise GridMismatch("snapshots live on different grids")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    grid = pair_t0.grid
    density_rate = (pair_t1.amplitude ** 2 - pair_t0.amplitude ** 2) / dt
    flux = 0.5 * (par.hbar / par.m * _current(pair_t0, par)
                  + par.hbar / par.m * _current(pair_t1, par))
    divergence = np.real(_spectral.derivative(flux, grid.length))
    mask = pair_t0.valid_mask() & pair_t1.valid_mask()
    return ResidualField(grid, density_rate + divergence, mask)


def qhj_residual(pair: MadelungPair, dSdt, par: PhysParams) -> ResidualField:
    """dS/dt + (dS/dq)^2/2m + quantum potential + m w^2 q^2 / 2.

    dS/dt is supplied by the caller (a scalar such as -E for an eigenstate,
    or a field).
    """
    grid = pair.grid
    s_grad = phase_gradient(pair, par)
    potential = hamiltonian(grid.q, 0.0, par)
    rate = np.broadcast_to(np.asarray(dSdt, dtype=np.float64), (grid.n,))
    values = rate + s_grad ** 2 / (2.0 * par.m) + quantum_potential(pair, par) + potential
    return ResidualField(grid, values, pair.valid_mask())


# ---------------------------------------------------------------------------
# transformed-coordinate pair on polynomial amplitudes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformedPairResiduals:
    """Literal residuals of the transformed fluid pair on a real segment.

    density_residual carries the written source sign (+hbar*omega*R^2);
    density_residual_flipped carries the opposite sign.  Neither is asserted
    to vanish: for the separable polynomial solutions the written equation
    leaves the source term (2n+1)*hbar*omega*R^2 standing, and both sign
    conventions are reported.  phase_residual does vanish for monomials.
    """

    positions: np.ndarray
    density_residual: np.ndarray
    density_residual_flipped: np.ndarray
    phase_residual: np.ndarray


def transformed_pair_residuals(poly: fock.BargmannPoly, t: float, par: PhysParams) -> TransformedPairResiduals:
    """Evaluate the transformed continuity/phase pair for a polynomial state.

    The amplitude is evolved mode-by-mode, sampled at 512 points of the real
    segment [0.1, 4], split into amplitude and action there, and substituted
    into the literal pair of transformed equations with analytic derivatives.
    """
    if poly.is_zero:
        raise AllZero("cannot evaluate residuals for the zero amplitude")
    positions = np.linspace(0.1, 4.0, 512)
    evolved = fock.bargmann_evolve(poly, t, par)
    value = fock.bargmann_eval(evolved, positions)
    evolved_dot = -1j / par.hbar * fock.bargmann_apply("hamiltonian", evolved, par).coeffs
    value_dot = fock.bargmann_eval(fock.BargmannPoly(evolved_dot), positions)
    value_dq = fock.bargmann_eval(fock.bargmann_apply("annihilate", evolved), positions)
    hw = par.hbar * par.omega
    density = np.abs(value) ** 2
    density_dot = 2.0 * np.real(np.conj(value) * value_dot)
    density_dq = 2.0 * np.real(np.conj(value) * value_dq)
    transport = density_dot + hw * positions * density_dq
    density_residual = transport + hw * density
    density_residual_flipped = transport - hw * density
    with np.errstate(divide="ignore", invalid="ignore"):
        action_dot = par.hbar * np.imag(np.conj(value) * value_dot) / density
        action_dq = par.hbar * np.imag(np.conj(value) * value_dq) / density
    bracket = action_dot + hw * positions * action_dq
    phase_residual = np.gradient(bracket, positions)
    return TransformedPairResiduals(
        positions, density_residual, density_residual_flipped, phase_residual
    )


# ---------------------------------------------------------------------------
# literal transformed advection equations on manufactured solutions
# ---------------------------------------------------------------------------

def _bump(u, v):
    g = np.exp(-((u - 1.0) ** 2) - (v - 2.0) ** 2)
    du = -2.0 * (u - 1.0) * g
    dv = -2.0 * (v - 2.0) * g
    return g, du, dv


def transformed_liouville_residual(q1, p1, t: float, par: PhysParams) -> np.ndarray:
    """Residual of the literal transformed advection equation.

    The test solution F = g(q1 * e^{-hw t}, p1 * e^{hw t}) rides the written
    characteristics exactly, so dF/dt + hw q1 dF/dq1 - hw p1 dF/dp1 vanishes
    analytically; the returned values are pure roundoff.
    """
    hw = par.hbar * par.omega
    q1 = np.asarray(q1, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    u = q1 * np.exp(-hw * t)
    v = p1 * np.exp(hw * t)
    _, du, dv = _bump(u, v)
    f_t = du * (-hw * u) + dv * (hw * v)
    f_q1 = du * np.exp(-hw * t)
    f_p1 = dv * np.exp(hw * t)
    return f_t + hw * q1 * f_q1 - hw * p1 * f_p1


def transformed_slice_residual(q1, offset, t: float, par: PhysParams) -> np.ndarray:
    """Residual of the literal transformed two-point equation.

    The manufactured solution rho = e^{hw t} g(q1 e^{-hw t}, d e^{hw t})
    satisfies d rho/dt + hw q1 d rho/dq1 - hw d/d(offset)(offset * rho) = 0
    analytically.
    """
    hw = par.hbar * par.omega
    q1 = np.asarray(q1, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    grow = np.exp(hw * t)
    u = q1 / grow
    v = offset * grow
    g, du, dv = _bump(u, v)
    rho_t = hw * grow * g + grow * (du * (-hw * u) + dv * (hw * v))
    rho_q1 = grow * du / grow
    rho_offset = grow * dv * grow
    return rho_t + hw * q1 * rho_q1 - hw * (grow * g + offset * rho_offset)
