"""Phase-space grids, the classical oscillator flow, and Liouville transport.

Both grids live here, with power-of-two point counts so the transform
modules can run exact discrete Fourier pairs on the same data.  Both are
centred windows set by half-widths: densities live on an n x n PhaseGrid over
[-q_max, q_max) x [-p_max, p_max) and states on a PositionGrid over its q axis,
``PhaseGrid.line``, which pairs each state with the densities of its grid.

For the oscillator, Liouville transport is a rigid rotation of (q, p/m w)
on the square lattice of ``default_grid``.  Whole quarter turns are index
maps; the rest is factored into shears, each translating every grid line by
a Fourier phase ramp: there is no time-stepping error, and the transport is
exact for band-limited densities.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import _spectral
from .errors import BoundaryLeak, GridMismatch


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


def _check_half_width(name: str, value) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite half-width, got {value!r}")


@dataclass(frozen=True)
class PositionGrid:
    """Uniform 1D grid over the centred window [-q_max, q_max), n a power of two."""

    q_max: float
    n: int

    def __post_init__(self):
        if not _is_power_of_two(self.n):
            raise ValueError("n must be a power of two (spectral transforms)")
        _check_half_width("q_max", self.q_max)

    @property
    def length(self) -> float:
        return 2.0 * self.q_max

    @property
    def dq(self) -> float:
        return self.length / self.n

    @property
    def q(self) -> np.ndarray:
        return -self.q_max + self.dq * np.arange(self.n)


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform n x n grid over the centred window [-q_max, q_max) x [-p_max, p_max)."""

    q_max: float
    p_max: float
    n: int

    def __post_init__(self):
        self.line  # a PositionGrid, so q_max and n are checked as for states
        _check_half_width("p_max", self.p_max)

    @property
    def line(self) -> PositionGrid:
        """The q axis as a PositionGrid, the grid of the states paired with this grid."""
        return PositionGrid(self.q_max, self.n)

    @property
    def dq(self) -> float:
        return self.line.dq

    @property
    def dp(self) -> float:
        return 2.0 * self.p_max / self.n

    @property
    def q(self) -> np.ndarray:
        return self.line.q

    @property
    def p(self) -> np.ndarray:
        return -self.p_max + self.dp * np.arange(self.n)

    def meshes(self):
        return np.meshgrid(self.q, self.p, indexing="ij")


def default_grid(extent: float, n: int, par: PhysParams) -> PhaseGrid:
    """The square (q, p/m w) lattice: q on [-extent, extent), p on m w times that."""
    return PhaseGrid(extent, par.m * par.omega * extent, n)


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
            self.values, np.float64, (self.grid.n, self.grid.n), "density values"
        )

    def mass(self) -> float:
        inner = np.trapezoid(self.values, dx=self.grid.dp, axis=1)
        return float(np.trapezoid(inner, dx=self.grid.dq))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def hamiltonian(q, p, par: PhysParams):
    """Quadratic oscillator energy p^2/2m + m w^2 q^2 / 2 at scalars or arrays;
    p (p/2m) has no p^2 to overflow on a p window m w times the q window."""
    return p * (p / (2.0 * par.m)) + 0.5 * par.m * par.omega ** 2 * q ** 2


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
    v = density.values
    k = FRAME_CELLS
    strips = (v[:k, :], v[-k:, :], v[k:-k, :k], v[k:-k, -k:])
    total = sum(np.abs(strip).sum() for strip in strips)
    return float(total * density.grid.dq * density.grid.dp)


def _quarter_turned(values: np.ndarray, quarters: int) -> np.ndarray:
    """A copy of values on a square lattice turned clockwise by whole quarter turns.

    Index i on either axis sits at -L + i d, so a turn maps it to n - i:
    the line at -L lands on +L, just outside the window, and the line
    that would come from there is zeroed, as a shear masks it.
    """
    quarters %= 4
    if quarters == 0:
        return np.array(values)
    out = np.empty(values.shape)
    if quarters == 1:  # the image at (q, v) is the density at (-v, q)
        out[:, 0] = 0.0
        out[:, 1:] = values[:0:-1, :].T
    elif quarters == 2:  # ... at (-q, -v)
        out[0, :] = 0.0
        out[1:, 0] = 0.0
        out[1:, 1:] = values[:0:-1, :0:-1]
    else:  # ... at (v, -q)
        out[0, :] = 0.0
        out[1:, :] = values[:, :0:-1].T
    return out


def liouville_propagate(f: PhaseDensity, t: float, par: PhysParams) -> PhaseDensity:
    """Transport a density along the flow for time t.

    The flow turns (q, v = p/m w) clockwise by the angle w t, reduced to
    [-pi, pi] so that whole periods are the identity.  The density must live
    on the square lattice of ``default_grid``, where p_max == m w q_max in
    exact float equality, so that q and v span one window [-L, L) that a
    quarter turn maps onto itself; a grid built for another m w raises
    GridMismatch.  The nearest whole quarter turns are an index map, and the
    remaining |a| <= pi/4 is one sub-rotation of three shears (Paeth 1986):
    q += tan(a/2) v, then v -= sin(a) q, then q += tan(a/2) v again.  Every
    shear translates each grid line by a spectral phase ramp, exact for
    band-limited densities; content pushed out of the window is dropped
    rather than wrapped.
    """
    grid = f.grid
    mw = par.m * par.omega
    if grid.p_max != mw * grid.q_max:
        raise GridMismatch("transport needs the square (q, p/m omega) lattice of default_grid")
    theta = math.remainder(par.omega * t, 2.0 * math.pi)
    quarters = round(theta / (math.pi / 2.0))
    a = theta - quarters * (math.pi / 2.0)
    new_values = _quarter_turned(f.values, quarters)
    if a:
        # a shear moving q by b v samples the density at q - b v
        b = math.tan(0.5 * a)
        shear_q = _spectral.shear(grid.n, 2.0 * grid.q_max, -b * grid.p / mw, axis=0)
        shear_p = _spectral.shear(grid.n, 2.0 * grid.p_max, math.sin(a) * mw * grid.q, axis=1)
        shear_q(shear_p(shear_q(new_values)))  # each shear works in place
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
    with np.errstate(over="ignore"):  # an exponent past the float range: exp(-inf) = 0
        values = np.exp(-mw * ((qm - q0) ** 2 + ((pm - p0) / mw) ** 2) / par.hbar)
    density = PhaseDensity(grid, values, 0.0)
    return PhaseDensity(grid, values / density.mass(), 0.0)


def hamiltonian_gaussian(grid: PhaseGrid, par: PhysParams, width: float = 1.0) -> PhaseDensity:
    """Stationary density proportional to exp(-H / (width * hbar * omega))."""
    h = hamiltonian(*grid.meshes(), par)
    values = np.exp(-h / (width * par.hbar * par.omega))
    density = PhaseDensity(grid, values, 0.0)
    return PhaseDensity(grid, values / density.mass(), 0.0)
