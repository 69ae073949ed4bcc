"""Position-space states, oscillator eigenstates, and split-step evolution.

The evolver is Strang-split with a spectral kinetic factor, so the norm is
preserved to roundoff and the global error is O(dt^2).  Eigenstates come
from the stable three-term recurrence for Hermite functions.  States live on
``phasespace.PositionGrid``, the line grid that sits beside the phase grid.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import _spectral
from .errors import BoundaryLeak, DomainError, GridMismatch, GridTooNarrow, NormDrift
from .phasespace import (PhaseDensity, PhaseGrid, PhysParams, PositionGrid, field_values,
                         hamiltonian, liouville_propagate)

# Edge-to-peak guard used by constructors and the evolver.  The 64-point
# reference configuration puts a legitimate coherent state at edge ratio
# 1.3e-10, so the guard leaves two decades of headroom above 1e-10.
BOUNDARY_GUARD = 1e-8
NORM_DRIFT_LIMIT = 1e-8


@dataclass
class WaveFunction:
    grid: PositionGrid
    values: np.ndarray
    time: float

    def __post_init__(self):
        self.values = field_values(
            self.values, np.complex128, (self.grid.n,), "wavefunction values"
        )

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dq))

    def boundary_ratio(self) -> float:
        peak = float(np.abs(self.values).max())
        if peak == 0.0:
            return 0.0
        edge = max(abs(self.values[0]), abs(self.values[-1]))
        return float(edge / peak)

    def inner(self, other: "WaveFunction") -> complex:
        if self.grid != other.grid:
            raise GridMismatch("wavefunctions live on different grids")
        return complex(np.sum(np.conj(self.values) * other.values) * self.grid.dq)

    def fidelity(self, other: "WaveFunction") -> float:
        return abs(self.inner(other))


def _normalised(grid: PositionGrid, values: np.ndarray, time: float) -> WaveFunction:
    phi = WaveFunction(grid, values, time)
    norm = phi.norm()
    if not (norm > 0.0 and math.isfinite(norm)):
        raise DomainError(f"the state has norm {norm:.3g} on the grid and cannot be normalised")
    phi.values = phi.values / norm
    if phi.boundary_ratio() > BOUNDARY_GUARD:
        raise GridTooNarrow(
            f"boundary magnitude {phi.boundary_ratio():.3e} of peak exceeds "
            f"{BOUNDARY_GUARD}"
        )
    return phi


def hermite_eigenstate(n: int, grid: PositionGrid, par: PhysParams) -> WaveFunction:
    """Normalised oscillator eigenstate built by the stable recurrence.

    Uses the orthonormal-function recurrence (not raw Hermite polynomials),
    which is well conditioned up to the supported n <= 40.
    """
    if not 0 <= n <= 40:
        raise ValueError("eigenstate index must satisfy 0 <= n <= 40")
    x = np.sqrt(par.m * par.omega / par.hbar) * grid.q
    prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        values = prev
    else:
        cur = math.sqrt(2.0) * x * prev
        for k in range(2, n + 1):
            prev, cur = cur, math.sqrt(2.0 / k) * x * cur - math.sqrt((k - 1.0) / k) * prev
        values = cur
    values = values * (par.m * par.omega / par.hbar) ** 0.25
    return _normalised(grid, values.astype(np.complex128), 0.0)


def minimum_steps(t: float, omega: float) -> int:
    """Accuracy floor for the evolver: 40 steps per oscillation period."""
    return max(1, math.ceil(40.0 * omega * abs(t) / (2.0 * math.pi)))


# Largest step phase a configuration may imply: half the float range, so
# that rounding in the step count cannot tip the evolver's product over.
PHASE_LIMIT = sys.float_info.max / 2


def step_phase_bound(extent: float, n: int, par: PhysParams) -> float:
    """Largest phase split_step_evolve can form on [-extent, extent) with n points.

    At the floor's largest step, a fortieth of a period, the evolver takes half
    a step of the potential and a whole step of the kinetic energy.  Both are
    formed in float64, so a term that overflows reads inf or nan, never raises.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        par = PhysParams(*(np.float64(v) for v in (par.m, par.omega, par.hbar)))
        potential, kinetic = hamiltonian_terms(PositionGrid(-extent, extent, n), par)
        dt = 2.0 * np.pi / (40.0 * par.omega)
        return float(np.maximum(0.5 * potential.max(), kinetic.max()) * dt / par.hbar)


def hamiltonian_terms(grid: PositionGrid, par: PhysParams):
    """The Strang split's terms: the potential on grid.q, the kinetic energy on its wavenumbers."""
    k = _spectral.wavenumbers(grid.n, grid.length)
    return hamiltonian(grid.q, 0.0, par), hamiltonian(0.0, par.hbar * k, par)


def coherent_state(grid: PositionGrid, par: PhysParams, q0: float, p0: float) -> WaveFunction:
    """Displaced ground state: a Gaussian with linear phase, centred at (q0, p0)."""
    mw = par.m * par.omega
    q = grid.q
    # far off the grid (q - q0)^2 overflows to a state of norm 0, which _normalised refuses
    with np.errstate(over="ignore"):
        values = (mw / (np.pi * par.hbar)) ** 0.25 * np.exp(
            -mw * (q - q0) ** 2 / (2.0 * par.hbar) + 1j * p0 * (q - q0) / par.hbar
        )
    return _normalised(grid, values, 0.0)


def split_step_evolve(
    phi: WaveFunction, t: float, n_steps: int, par: PhysParams
) -> WaveFunction:
    """Strang-split evolution for time t in n_steps steps.

    Requires at least 40 steps per oscillation period; the boundary guard is
    checked every step and the final norm drift must stay below 1e-8.
    """
    required = minimum_steps(t, par.omega)
    if n_steps < required:
        raise ValueError(f"n_steps={n_steps} below the accuracy floor {required} for t={t}")
    grid = phi.grid
    dt = t / n_steps
    potential, kinetic = hamiltonian_terms(grid, par)
    half_potential = np.exp(-0.5j * potential * dt / par.hbar)
    kinetic = np.exp(-1j * kinetic * dt / par.hbar)
    values = phi.values.copy()
    initial_norm = np.sqrt(np.sum(np.abs(values) ** 2))
    for _ in range(n_steps):
        values *= half_potential
        values = np.fft.ifft(kinetic * np.fft.fft(values))
        values *= half_potential
        peak = np.abs(values).max()
        edge = max(abs(values[0]), abs(values[-1]))
        if edge > BOUNDARY_GUARD * peak:
            raise BoundaryLeak(
                f"boundary magnitude reached {edge / peak:.3e} of peak during evolution"
            )
    drift = abs(float(np.sqrt(np.sum(np.abs(values) ** 2)) / initial_norm) - 1.0)
    if drift > NORM_DRIFT_LIMIT:
        raise NormDrift(f"norm drifted by {drift:.3e}")
    return WaveFunction(grid, values, phi.time + t)


@dataclass(frozen=True)
class EquivalenceReport:
    """Distances between the quantum-evolved and classically-evolved densities.

    It keeps the fields it computed, for callers that export them.
    """

    l2_distance: float
    max_distance: float
    n_steps: int
    initial: PhaseDensity
    evolved: WaveFunction
    transported: PhaseDensity


def default_steps(grid_points: int, t: float, omega: float) -> int:
    """Step count for the equivalence run: refine time with the grid.

    Two steps per grid point makes the O(dt^2) splitting error shrink under
    grid refinement; the spectral transport has no step error of its own.
    """
    return max(2 * grid_points, minimum_steps(t, omega))


def equivalence_report(
    phi0: WaveFunction, t: float, par: PhysParams, grid: PhaseGrid
) -> EquivalenceReport:
    """Compare Liouville transport against split-step evolution through the transform.

    Route A evolves the state and maps it to a phase-space density; route B
    maps the initial state first and transports the density classically.  For
    the quadratic Hamiltonian the two agree up to discretisation error.

    Route B runs on a worker thread while this thread runs route A; their
    FFTs and array arithmetic release the interpreter lock.  The worker is
    joined before this function returns or raises, and an error is raised
    as the routes run in series would: the transform of the initial state
    first, then route A, then the transport.
    """
    from . import wigner  # deferred: wigner imports this module's types

    n_steps = default_steps(grid.n_q, t, par.omega)
    route_b = {}

    def transport():
        try:
            route_b["initial"] = wigner.wavefunction_to_density(phi0, grid, par)
            route_b["transported"] = liouville_propagate(route_b["initial"], t, par)
        except BaseException as exc:  # raised on the calling thread after the join
            route_b["error"] = exc

    worker = threading.Thread(target=transport, name="phaseq-transport")
    worker.start()
    try:
        phi_t = phi0 if t == 0.0 else split_step_evolve(phi0, t, n_steps, par)
        quantum = wigner.wavefunction_to_density(phi_t, grid, par)
    except BaseException:
        worker.join()
        if "initial" not in route_b:
            raise route_b["error"] from None
        raise
    worker.join()
    if "error" in route_b:
        raise route_b["error"]
    f0, classical = route_b["initial"], route_b["transported"]
    gap = np.subtract(quantum.values, classical.values, out=quantum.values)
    max_distance = float(np.abs(gap, out=gap).max())
    l2 = float(np.sqrt(np.sum(np.square(gap, out=gap)) * grid.dq * grid.dp))
    return EquivalenceReport(
        l2_distance=l2,
        max_distance=max_distance,
        n_steps=n_steps,
        initial=f0,
        evolved=phi_t,
        transported=classical,
    )
