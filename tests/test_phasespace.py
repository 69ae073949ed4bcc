"""Classical flow, Liouville transport, brackets, and expectations."""

import math

import numpy as np
import pytest

from phaseq import _spectral
from phaseq import phasespace as ps
from phaseq.errors import BoundaryLeak, GridMismatch

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
        ps.PhaseGrid(8.0, 8.0, 100)


def test_grid_requires_ordered_extents():
    # a negative half-width is the window [8, -8)
    with pytest.raises(ValueError):
        ps.PhaseGrid(-8.0, 8.0, 128)


HALF_WIDTH = "q_max must be a positive finite half-width"


@pytest.mark.parametrize("args, message", [
    ((8.0, 100), "n must be a power of two"),
    ((8.0, 1), "n must be a power of two"),
    ((-8.0, 64), HALF_WIDTH),
    ((0.0, 64), HALF_WIDTH),
    ((math.inf, 64), HALF_WIDTH),
    ((math.nan, 64), HALF_WIDTH),
])
def test_position_grid_validation(args, message):
    with pytest.raises(ValueError, match=message):
        ps.PositionGrid(*args)


@pytest.mark.parametrize("args, message", [
    ((math.inf, 8.0, 64), HALF_WIDTH),
    ((8.0, math.inf, 64), "p_max must be a positive finite half-width"),
    ((8.0, 0.0, 64), "p_max must be a positive finite half-width"),
])
def test_phase_grid_validation(args, message):
    with pytest.raises(ValueError, match=message):
        ps.PhaseGrid(*args)


def test_line_is_the_q_axis():
    grid = ps.PhaseGrid(8.0, 3.0, 64)
    line = grid.line
    assert line == ps.PositionGrid(8.0, 64)
    assert line.dq == grid.dq == 0.25
    assert line.length == 16.0
    assert np.array_equal(line.q, grid.q)
    assert (grid.q[0], grid.p[0], grid.dp) == (-8.0, -3.0, 6.0 / 64)


def test_density_shape_checked():
    grid = ps.default_grid(8.0, 64, PAR)
    with pytest.raises(ValueError):
        ps.PhaseDensity(grid, np.zeros((64, 32)), 0.0)


def test_gaussian_density_is_classical():
    grid = ps.default_grid(8.0, 256, PAR)
    density = ps.gaussian_density(grid, PAR, q0=1.0)
    assert density.values.min() >= -1e-12
    assert abs(density.mass() - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# liouville transport
# ---------------------------------------------------------------------------

def test_stationary_gaussian_unchanged():
    grid = ps.default_grid(8.0, 256, PAR)
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
        (PAR, np.pi / 2.0),
        (PAR, np.pi),
        (PAR, -np.pi / 2.0),
        (NON_NATURAL, 3.0 / NON_NATURAL.omega),
    ],
    ids=["q1", "q2", "q3", "q4", "negative", "beyond-period", "non-natural",
         "quarter-turn", "half-turn", "negative-quarter-turn", "non-natural-q2"],
)
def test_moving_gaussian_tracks_flow(par, t):
    # the minimum-uncertainty Gaussian rotates rigidly onto the flowed centre
    grid = ps.default_grid(8.0, 256, par)
    start = ps.PhasePoint(1.0, 0.5 * par.m * par.omega)
    moved = ps.liouville_propagate(ps.gaussian_density(grid, par, start.q, start.p), t, par)
    target = ps.hamilton_flow(start, t, par)
    exact = ps.gaussian_density(grid, par, target.q, target.p)
    assert np.abs(moved.values - exact.values).max() <= 1e-10


def _turned_once(values):
    # the lattice index i sits at -L + i d: a clockwise quarter turn of
    # (q, v) moves the -L row to +L, outside the window, and brings in zeros
    turned = np.roll(np.rot90(values, -1), 1, axis=1)
    turned[:, 0] = 0.0
    return turned


def _counting_shears(monkeypatch):
    count = [0]
    shear = _spectral.shear

    def counted(*args, **kwargs):
        apply = shear(*args, **kwargs)

        def applied(values):
            count[0] += 1
            return apply(values)

        return applied

    monkeypatch.setattr(_spectral, "shear", counted)
    return count


def test_quarter_turn_is_the_index_map(monkeypatch):
    shears = _counting_shears(monkeypatch)
    density = ps.gaussian_density(ps.default_grid(8.0, 256, PAR), PAR, q0=1.0, p0=0.5)
    moved = ps.liouville_propagate(density, math.pi / 2.0, PAR)
    assert shears[0] == 0
    assert np.array_equal(moved.values, _turned_once(density.values))


def test_four_quarter_turns_return_the_density():
    density = ps.gaussian_density(ps.default_grid(8.0, 256, PAR), PAR, q0=1.0, p0=0.5)
    moved = density
    for _ in range(4):
        moved = ps.liouville_propagate(moved, math.pi / 2.0, PAR)
    expected = density.values.copy()
    expected[0, :] = 0.0
    expected[:, 0] = 0.0
    assert np.array_equal(moved.values, expected)
    assert moved.time == 2.0 * math.pi


ANGLES = [0.3, 1.234, 3.0, -2.5, 5.3, 2.0 * math.pi + 1.1]


@pytest.mark.parametrize("angle, par", [
    *(pytest.param(angle, PAR, id=str(angle)) for angle in ANGLES),
    *(pytest.param(angle, NON_NATURAL, id=f"non-natural-{angle}") for angle in ANGLES),
])
def test_square_lattice_shears_one_sub_rotation_at_most(monkeypatch, angle, par):
    shears = _counting_shears(monkeypatch)
    grid = ps.default_grid(8.0, 256, par)
    density = ps.gaussian_density(grid, par, q0=1.0, p0=0.5 * par.m * par.omega)
    ps.liouville_propagate(density, angle / par.omega, par)
    assert 1 <= shears[0] <= 3


@pytest.mark.parametrize("par, grid", [
    (NON_NATURAL, ps.PhaseGrid(8.0, 8.0, 256)),
    (PAR, ps.PhaseGrid(8.0, 4.0, 256)),
], ids=["non-natural", "rectangular"])
def test_other_lattices_are_refused(par, grid):
    density = ps.gaussian_density(grid, par, q0=0.0)
    with pytest.raises(GridMismatch, match="square"):
        ps.liouville_propagate(density, 0.3 / par.omega, par)


def test_zero_time_is_identity():
    grid = ps.default_grid(8.0, 128, PAR)
    density = ps.gaussian_density(grid, PAR, q0=0.5)
    moved = ps.liouville_propagate(density, 0.0, PAR)
    assert np.abs(moved.values - density.values).max() < 1e-13


def test_mass_conserved():
    grid = ps.default_grid(8.0, 256, PAR)
    density = ps.gaussian_density(grid, PAR, q0=1.5, p0=-0.5)
    moved = ps.liouville_propagate(density, 2.3, PAR)
    assert abs(moved.mass() - density.mass()) < 1e-6


def test_energy_functionals_conserved():
    # any function of H is transported onto itself
    grid = ps.default_grid(8.0, 256, PAR)
    density = ps.gaussian_density(grid, PAR, q0=1.0)
    moved = ps.liouville_propagate(density, 0.7, PAR)
    h = lambda Q, P: 0.5 * (Q ** 2 + P ** 2)
    for obs in (h, lambda Q, P: np.exp(-h(Q, P))):
        assert abs(_expectation(moved, obs) - _expectation(density, obs)) < 1e-5


def test_boundary_leak_detected():
    grid = ps.default_grid(8.0, 256, PAR)
    density = ps.gaussian_density(grid, PAR, q0=6.9)
    with pytest.raises(BoundaryLeak):
        ps.liouville_propagate(density, 0.4, PAR)


def test_no_ghost_at_opposite_edge():
    # a narrow packet is carried out through the top momentum edge; a
    # periodic shift would bring it back in at the bottom edge
    par = ps.PhysParams(1.0, 1.0, 0.05)
    grid = ps.default_grid(8.0, 512, par)
    density = ps.gaussian_density(grid, par, q0=-6.0, p0=6.5)
    moved = ps.liouville_propagate(density, 0.7, par)
    assert ps.hamilton_flow(ps.PhasePoint(-6.0, 6.5), 0.7, par).p > grid.p_max
    bottom = grid.p < -grid.p_max + 2.0
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
    grid = ps.default_grid(8.0, 256, PAR)
    density = ps.gaussian_density(grid, PAR, q0=0.0)
    assert _expectation(density, 1.0) == pytest.approx(1.0, abs=1e-6)


def test_expectation_of_odd_observable_vanishes():
    grid = ps.default_grid(8.0, 256, PAR)
    density = ps.gaussian_density(grid, PAR, q0=0.0)
    assert _expectation(density, lambda Q, P: Q) == pytest.approx(0.0, abs=1e-8)


def test_mean_energy_of_minimum_gaussian():
    # second moments of exp(-(q^2 + p^2)) give <H> = hbar*omega/2
    grid = ps.default_grid(8.0, 256, PAR)
    density = ps.gaussian_density(grid, PAR, q0=0.0)
    h = lambda Q, P: 0.5 * (P ** 2 + Q ** 2)
    assert _expectation(density, h) == pytest.approx(0.5, abs=1e-5)
