"""Phase-space grids, the classical oscillator flow, and Liouville transport.

Both grids live here, with power-of-two point counts so the transform
modules can run exact discrete Fourier pairs on the same data.  Densities
live on a rectangular (q, p) PhaseGrid and states on a 1D PositionGrid; a
state pairs with the densities of the phase grid whose q axis it samples,
``PhaseGrid.line``.

For the oscillator, Liouville transport is a rigid rotation of (q, p/m w).
Propagation factors that rotation into shears, and each shear translates
every grid line by a Fourier phase ramp: there is no time-stepping error,
and the transport is exact for band-limited densities.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import _spectral
from .errors import BoundaryLeak


@dataclass(frozen=True)
class PhysParams:
    """Oscillator constants: mass, angular frequency, and action quantum."""

    m: float
    omega: float
    hbar: float

    def __post_init__(self):
        for name in ("m", "omega", "hbar"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


NATURAL = PhysParams(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class PhasePoint:
    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise ValueError("phase-space coordinates must be finite")


def _is_power_of_two(n) -> bool:
    return isinstance(n, (int, np.integer)) and n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PositionGrid:
    """Uniform 1D grid over [q_min, q_max) with a power-of-two point count."""

    q_min: float
    q_max: float
    n: int

    def __post_init__(self):
        if not _is_power_of_two(self.n):
            raise ValueError("n must be a power of two (spectral transforms)")
        if not self.q_max > self.q_min:
            raise ValueError("grid extent must be strictly ordered")

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n

    @property
    def length(self) -> float:
        return self.q_max - self.q_min

    @property
    def q(self) -> np.ndarray:
        return self.q_min + self.dq * np.arange(self.n)


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform rectangular grid over [q_min, q_max) x [p_min, p_max)."""

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    n_q: int
    n_p: int

    def __post_init__(self):
        if not (_is_power_of_two(self.n_q) and _is_power_of_two(self.n_p)):
            raise ValueError("n_q and n_p must be powers of two (spectral transforms)")
        if not (self.q_max > self.q_min and self.p_max > self.p_min):
            raise ValueError("grid extents must be strictly ordered")

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_q

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_p

    @property
    def q(self) -> np.ndarray:
        return self.q_min + self.dq * np.arange(self.n_q)

    @property
    def p(self) -> np.ndarray:
        return self.p_min + self.dp * np.arange(self.n_p)

    @property
    def line(self) -> PositionGrid:
        """The q axis as a PositionGrid, the grid of the states paired with this grid."""
        return PositionGrid(self.q_min, self.q_max, self.n_q)

    def meshes(self):
        return np.meshgrid(self.q, self.p, indexing="ij")


def default_grid(extent: float, n: int) -> PhaseGrid:
    """Square grid [-extent, extent) in both coordinates."""
    return PhaseGrid(-extent, extent, -extent, extent, n, n)


def field_values(values, dtype, shape: tuple, what: str) -> np.ndarray:
    """The samples of a field on a grid as a dtype array, admitted only when
    they have the grid's shape and are all finite."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != shape:
        raise ValueError(f"values shape {values.shape} does not match grid {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    return values


@dataclass
class PhaseDensity:
    """Real distribution F(q, p) sampled on a PhaseGrid.

    Construction checks shape and finiteness only: transform images of
    excited quantum states are legitimate quasi-densities with negative
    regions, so nonnegativity and unit mass are not imposed.
    """

    grid: PhaseGrid
    values: np.ndarray
    time: float

    def __post_init__(self):
        self.values = field_values(
            self.values, np.float64, (self.grid.n_q, self.grid.n_p), "density values"
        )

    def mass(self) -> float:
        inner = np.trapezoid(self.values, dx=self.grid.dp, axis=1)
        return float(np.trapezoid(inner, dx=self.grid.dq))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def hamiltonian(q, p, par: PhysParams):
    """Quadratic oscillator energy p^2/2m + m w^2 q^2 / 2 at scalars or arrays."""
    return p ** 2 / (2.0 * par.m) + 0.5 * par.m * par.omega ** 2 * q ** 2


def hamilton_flow(pt: PhasePoint, t: float, par: PhysParams) -> PhasePoint:
    """Exact phase-space rotation of the oscillator flow (not an integrator)."""
    c = math.cos(par.omega * t)
    s = math.sin(par.omega * t)
    mw = par.m * par.omega
    return PhasePoint(pt.q * c + (pt.p / mw) * s, pt.p * c - mw * pt.q * s)


FRAME_CELLS = 2
FRAME_MASS_LIMIT = 1e-4


def frame_mass(density: PhaseDensity) -> float:
    """Absolute mass in the outer two-cell frame of the grid."""
    v = np.abs(density.values)
    k = FRAME_CELLS
    total = v[:k, :].sum() + v[-k:, :].sum() + v[k:-k, :k].sum() + v[k:-k, -k:].sum()
    return float(total * density.grid.dq * density.grid.dp)


def liouville_propagate(f: PhaseDensity, t: float, par: PhysParams) -> PhaseDensity:
    """Transport a density along the flow for time t.

    The flow turns (q, v = p/m w) clockwise by the angle w t, reduced to
    [-pi, pi] so that whole periods are the identity.  The angle is split
    into equal sub-rotations a of at most pi/4, each the product of three
    shears (Paeth 1986): q += tan(a/2) v, then v -= sin(a) q, then
    q += tan(a/2) v again.  Every shear translates each grid line by a
    spectral phase ramp, exact for band-limited densities; content pushed
    out of the window is dropped rather than wrapped, so the density stays
    zero outside its grid.
    """
    grid = f.grid
    theta = math.remainder(par.omega * t, 2.0 * math.pi)
    turns = math.ceil(abs(theta) / (math.pi / 4.0))
    new_values = np.array(f.values)
    if turns:
        a = theta / turns
        mw = par.m * par.omega
        # a shear moving q by b v samples the density at q - b v
        shear_q = _spectral.shear(
            grid.n_q, grid.q_max - grid.q_min, -math.tan(0.5 * a) * grid.p / mw, axis=0
        )
        shear_p = _spectral.shear(
            grid.n_p, grid.p_max - grid.p_min, math.sin(a) * mw * grid.q, axis=1
        )
        for _ in range(turns):
            shear_q(shear_p(shear_q(new_values)))  # each shear works in place
        del shear_q, shear_p  # free the ramps before frame_mass takes |values|
    result = PhaseDensity(grid, new_values, f.time + t)
    leaked = frame_mass(result)
    if leaked > FRAME_MASS_LIMIT:
        raise BoundaryLeak(
            f"{leaked:.3e} of mass in the outer {FRAME_CELLS}-cell frame after transport"
        )
    return result


def poisson_bracket(f, g, pt):
    """Central-difference {f, g} at a point; observables may be complex valued.

    pt is a point dataclass whose fields are the positions, then their
    momenta in the same order: PhasePoint (q, p) or the planar
    (x, y, px, py).  f and g are callables taking those coordinates.  The
    stencil step is 1e-5 * max(1, |coordinate|) per axis, balancing
    truncation against roundoff for the O(h^2) stencil.
    """
    coords = astuple(pt)
    half = len(coords) // 2

    def partial(func, axis):
        h = 1e-5 * max(1.0, abs(coords[axis]))
        fwd = list(coords)
        bwd = list(coords)
        fwd[axis] += h
        bwd[axis] -= h
        return (func(*fwd) - func(*bwd)) / (2.0 * h)

    df = [partial(f, axis) for axis in range(len(coords))]
    dg = [partial(g, axis) for axis in range(len(coords))]
    value = df[0] * dg[half] - df[half] * dg[0]
    for i in range(1, half):
        value = value + df[i] * dg[half + i] - df[half + i] * dg[i]
    return value


# ---------------------------------------------------------------------------
# density constructors
# ---------------------------------------------------------------------------

def gaussian_density(grid: PhaseGrid, par: PhysParams, q0: float, p0: float = 0.0) -> PhaseDensity:
    """Minimum-uncertainty Gaussian centred at (q0, p0), discretely normalised."""
    qm, pm = grid.meshes()
    mw = par.m * par.omega
    values = np.exp(-(mw * (qm - q0) ** 2 + (pm - p0) ** 2 / mw) / par.hbar)
    density = PhaseDensity(grid, values, 0.0)
    return PhaseDensity(grid, values / density.mass(), 0.0)


def hamiltonian_gaussian(grid: PhaseGrid, par: PhysParams, width: float = 1.0) -> PhaseDensity:
    """Stationary density proportional to exp(-H / (width * hbar * omega))."""
    h = hamiltonian(*grid.meshes(), par)
    values = np.exp(-h / (width * par.hbar * par.omega))
    density = PhaseDensity(grid, values, 0.0)
    return PhaseDensity(grid, values / density.mass(), 0.0)
