"""Classical flow, Liouville transport, brackets, and expectations."""

import numpy as np
import pytest

from phaseq import phasespace as ps
from phaseq.errors import BoundaryLeak

PAR = ps.NATURAL


# ---------------------------------------------------------------------------
# hamiltonian and flow
# ---------------------------------------------------------------------------

def test_hamiltonian_minimum():
    assert ps.hamiltonian(0.0, 0.0, PAR) == 0.0


def test_hamiltonian_unit_point():
    assert ps.hamiltonian(1.0, 1.0, PAR) == pytest.approx(1.0, abs=1e-15)


def test_hamiltonian_scales_with_frequency():
    par = ps.PhysParams(1.0, 2.0, 1.0)
    assert ps.hamiltonian(2.0, 0.0, par) == pytest.approx(8.0, abs=1e-12)


def test_flow_quarter_period():
    pt = ps.hamilton_flow(ps.PhasePoint(0.0, 1.0), np.pi / 2.0, PAR)
    assert pt.q == pytest.approx(1.0, abs=1e-15)
    assert pt.p == pytest.approx(0.0, abs=1e-15)


def test_flow_full_period_returns_start():
    rng = np.random.default_rng(3)
    for _ in range(10):
        q, p = rng.normal(size=2)
        pt = ps.hamilton_flow(ps.PhasePoint(q, p), 2.0 * np.pi / PAR.omega, PAR)
        assert pt.q == pytest.approx(q, abs=1e-12)
        assert pt.p == pytest.approx(p, abs=1e-12)


def test_flow_conserves_energy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        q, p, t = rng.normal(size=3)
        pt = ps.PhasePoint(q, p)
        moved = ps.hamilton_flow(pt, t, PAR)
        assert ps.hamiltonian(moved.q, moved.p, PAR) == pytest.approx(ps.hamiltonian(q, p, PAR), abs=1e-13)


def test_flow_group_action():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q, p, t1, t2 = rng.normal(size=4)
        pt = ps.PhasePoint(q, p)
        chained = ps.hamilton_flow(ps.hamilton_flow(pt, t1, PAR), t2, PAR)
        direct = ps.hamilton_flow(pt, t1 + t2, PAR)
        assert chained.q == pytest.approx(direct.q, abs=1e-12)
        assert chained.p == pytest.approx(direct.p, abs=1e-12)


# ---------------------------------------------------------------------------
# grids and densities
# ---------------------------------------------------------------------------

def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        ps.PhaseGrid(-8.0, 8.0, -8.0, 8.0, 100, 128)


def test_grid_requires_ordered_extents():
    with pytest.raises(ValueError):
        ps.PhaseGrid(8.0, -8.0, -8.0, 8.0, 128, 128)


@pytest.mark.parametrize("args, message", [
    ((-8.0, 8.0, 100), "n must be a power of two"),
    ((-8.0, 8.0, 1), "n must be a power of two"),
    ((8.0, -8.0, 64), "grid extent must be strictly ordered"),
    ((8.0, 8.0, 64), "grid extent must be strictly ordered"),
])
def test_position_grid_validation(args, message):
    with pytest.raises(ValueError, match=message):
        ps.PositionGrid(*args)


def test_line_is_the_q_axis():
    grid = ps.PhaseGrid(-8.0, 6.0, -3.0, 3.0, 64, 128)
    line = grid.line
    assert line == ps.PositionGrid(-8.0, 6.0, 64)
    assert line.dq == grid.dq
    assert line.length == grid.q_max - grid.q_min
    assert np.array_equal(line.q, grid.q)


def test_density_shape_checked():
    grid = ps.default_grid(8.0, 64)
    with pytest.raises(ValueError):
        ps.PhaseDensity(grid, np.zeros((64, 32)), 0.0)


def test_gaussian_density_is_classical():
    grid = ps.default_grid(8.0, 256)
    density = ps.gaussian_density(grid, PAR, q0=1.0)
    assert density.values.min() >= -1e-12
    assert abs(density.mass() - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# liouville transport
# ---------------------------------------------------------------------------

def test_stationary_gaussian_unchanged():
    grid = ps.default_grid(8.0, 256)
    density = ps.hamiltonian_gaussian(grid, PAR)
    for t in (0.7, 2.9):
        moved = ps.liouville_propagate(density, t, PAR)
        assert np.abs(moved.values - density.values).max() < 1e-6


NON_NATURAL = ps.PhysParams(0.4, 0.73, 0.26)


@pytest.mark.parametrize(
    "par, t",
    [
        (PAR, 0.6),
        (PAR, 2.0),
        (PAR, 3.6),
        (PAR, 5.3),
        (PAR, -2.4),
        (PAR, 2.0 * np.pi + 1.1),
        (NON_NATURAL, 1.7 / NON_NATURAL.omega),
    ],
    ids=["q1", "q2", "q3", "q4", "negative", "beyond-period", "non-natural"],
)
def test_moving_gaussian_tracks_flow(par, t):
    # the minimum-uncertainty Gaussian rotates rigidly onto the flowed centre
    mw = par.m * par.omega
    grid = ps.PhaseGrid(-8.0, 8.0, -8.0 * mw, 8.0 * mw, 256, 256)
    start = ps.PhasePoint(1.0, 0.5 * mw)
    moved = ps.liouville_propagate(ps.gaussian_density(grid, par, start.q, start.p), t, par)
    target = ps.hamilton_flow(start, t, par)
    exact = ps.gaussian_density(grid, par, target.q, target.p)
    assert np.abs(moved.values - exact.values).max() <= 1e-10


def test_zero_time_is_identity():
    grid = ps.default_grid(8.0, 128)
    density = ps.gaussian_density(grid, PAR, q0=0.5)
    moved = ps.liouville_propagate(density, 0.0, PAR)
    assert np.abs(moved.values - density.values).max() < 1e-13


def test_mass_conserved():
    grid = ps.default_grid(8.0, 256)
    density = ps.gaussian_density(grid, PAR, q0=1.5, p0=-0.5)
    moved = ps.liouville_propagate(density, 2.3, PAR)
    assert abs(moved.mass() - density.mass()) < 1e-6


def test_energy_functionals_conserved():
    # any function of H is transported onto itself
    grid = ps.default_grid(8.0, 256)
    density = ps.gaussian_density(grid, PAR, q0=1.0)
    moved = ps.liouville_propagate(density, 0.7, PAR)
    h = lambda Q, P: 0.5 * (Q ** 2 + P ** 2)
    for obs in (h, lambda Q, P: np.exp(-h(Q, P))):
        assert abs(_expectation(moved, obs) - _expectation(density, obs)) < 1e-5


def test_boundary_leak_detected():
    grid = ps.default_grid(8.0, 256)
    density = ps.gaussian_density(grid, PAR, q0=6.9)
    with pytest.raises(BoundaryLeak):
        ps.liouville_propagate(density, 0.4, PAR)


def test_no_ghost_at_opposite_edge():
    # a narrow packet is carried out through the top momentum edge; a
    # periodic shift would bring it back in at the bottom edge
    par = ps.PhysParams(1.0, 1.0, 0.05)
    grid = ps.default_grid(8.0, 512)
    density = ps.gaussian_density(grid, par, q0=-6.0, p0=6.5)
    moved = ps.liouville_propagate(density, 0.7, par)
    assert ps.hamilton_flow(ps.PhasePoint(-6.0, 6.5), 0.7, par).p > grid.p_max
    bottom = grid.p < grid.p_min + 2.0
    assert np.abs(moved.values[:, bottom]).max() <= 1e-12


# ---------------------------------------------------------------------------
# poisson bracket
# ---------------------------------------------------------------------------

def test_canonical_pair_bracket():
    value = ps.poisson_bracket(lambda q, p: q, lambda q, p: p, ps.PhasePoint(0.3, -1.2))
    assert value == pytest.approx(1.0, abs=1e-8)


def test_bracket_of_function_with_itself():
    h = lambda q, p: 0.5 * (p ** 2 + q ** 2)
    assert ps.poisson_bracket(h, h, ps.PhasePoint(1.1, 0.4)) == pytest.approx(0.0, abs=1e-8)


def test_bracket_antisymmetry_is_exact():
    rng = np.random.default_rng(6)
    f = lambda q, p: np.sin(q) * p ** 2
    g = lambda q, p: np.cos(p) + q ** 3
    for _ in range(10):
        pt = ps.PhasePoint(*rng.normal(size=2))
        assert ps.poisson_bracket(f, g, pt) == -ps.poisson_bracket(g, f, pt)


def test_bracket_supports_complex_observables():
    # {p + iq, p - iq} = i*1 - 1*(-i) = 2i
    f = lambda q, p: p + 1j * q
    g = lambda q, p: p - 1j * q
    value = ps.poisson_bracket(f, g, ps.PhasePoint(0.7, 0.2))
    assert value == pytest.approx(2j, abs=1e-8)


# ---------------------------------------------------------------------------
# expectation
# ---------------------------------------------------------------------------

def _expectation(density, obs):
    """Trapezoidal integral of obs * F; obs is a scalar or callable(Q, P)."""
    field = obs(*density.grid.meshes()) if callable(obs) else obs
    integrand = np.broadcast_to(field, density.values.shape) * density.values
    inner = np.trapezoid(integrand, dx=density.grid.dp, axis=1)
    return float(np.trapezoid(inner, dx=density.grid.dq))


def test_expectation_of_one_is_mass():
    grid = ps.default_grid(8.0, 256)
    density = ps.gaussian_density(grid, PAR, q0=0.0)
    assert _expectation(density, 1.0) == pytest.approx(1.0, abs=1e-6)


def test_expectation_of_odd_observable_vanishes():
    grid = ps.default_grid(8.0, 256)
    density = ps.gaussian_density(grid, PAR, q0=0.0)
    assert _expectation(density, lambda Q, P: Q) == pytest.approx(0.0, abs=1e-8)


def test_mean_energy_of_minimum_gaussian():
    # second moments of exp(-(q^2 + p^2)) give <H> = hbar*omega/2
    grid = ps.default_grid(8.0, 256)
    density = ps.gaussian_density(grid, PAR, q0=0.0)
    h = lambda Q, P: 0.5 * (P ** 2 + Q ** 2)
    assert _expectation(density, h) == pytest.approx(0.5, abs=1e-5)
