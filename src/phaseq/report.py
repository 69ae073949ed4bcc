"""The equation-by-equation verification suite behind the verify subcommand.

Every numbered equation of the audited derivation chain gets exactly one
entry, declared once: the ``@_check`` decorator names its equation id,
threshold, the ``module.operation`` it audits, a detail line and its
convention, and registers the function below it.  The function returns the
residual, or ``(residual, detail)`` when the detail quotes a measured value.
``run_suite`` applies the one status rule: a ``None`` threshold makes the
entry "reported", otherwise it passes when the residual is below the
threshold.  "Reported" entries carry a measured residual for written
conventions that are internally inconsistent, and make no zero assertion.
Entries with a -literal suffix measure the written convention where the main
entry uses the repaired one.

Definition order is the run order and the report order.  Each entry takes
the shared fixtures and its own random generator, seeded by the configured
seed and its equation id, so no entry's inputs depend on another entry or on
where it stands in the suite.

The equivalence entry follows the configured grid so refinement behaviour
can be measured from the command line; entries with grid-pinned tolerances
run at their fixed reference resolutions regardless of the configuration.
"""

from __future__ import annotations

import functools
import math
import sys
import zlib
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import canonical, fock, madelung, phasespace, schrodinger, spin, wigner
from ._spectral import derivative as spectral_derivative, wavenumbers
from .errors import ConfigError
from .phasespace import NATURAL, PhasePoint, PhysParams

PASS = "pass"
FAIL = "fail"
REPORTED = "reported"

LITERAL = "paper-literal"
REPAIRED = "repaired"

# Largest single dense complex array (16 B per element) a grid may imply: the
# n x n slice of the transforms.  It admits grids up to 2048.
MAX_DENSE_BYTES = 64 * 2 ** 20

# Largest truncation of the suite and the spectrum export.  Their spectra are
# the integer levels, so this states a range; it prices no memory.
MAX_TRUNCATION = 2048

# Truncation of each mode of the two-mode spin operators the spin entries share.
SPIN_DIM = 8


def bound_truncation(what: str, value: int) -> None:
    """Refuse a truncation outside the stated range before any work."""
    if not 2 <= value <= MAX_TRUNCATION:
        raise ConfigError(f"{what} {value} is outside the admitted truncations 2..{MAX_TRUNCATION}")


def _object(value, what: str, known: set[str]) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(value) - known
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return value


def _number(section: dict, key: str, default, integral: bool = False):
    value = section.get(key, default)
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    # exact for ints of any size, and false for nan and inf
    if not (numeric and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if not integral:
        return float(value)
    if value != int(value):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SuiteConfig:
    params: PhysParams = NATURAL
    grid_extent: float = 8.0
    grid_points: int = 256
    truncation: int = 64
    seed: int = 20260810

    @staticmethod
    def from_mapping(data) -> "SuiteConfig":
        _object(data, "configuration", {"params", "grid", "truncation", "seed"})
        raw_params = _object(data.get("params", {}), "params", {"m", "omega", "hbar"})
        raw_grid = _object(data.get("grid", {}), "grid", {"extent", "n"})
        try:
            params = PhysParams(*(_number(raw_params, key, getattr(SuiteConfig.params, key))
                                  for key in ("m", "omega", "hbar")))
        except ValueError as exc:
            raise ConfigError(f"invalid configuration value: {exc}") from exc
        extent = _number(raw_grid, "extent", SuiteConfig.grid_extent)
        points = _number(raw_grid, "n", SuiteConfig.grid_points, integral=True)
        truncation = _number(data, "truncation", SuiteConfig.truncation, integral=True)
        seed = _number(data, "seed", SuiteConfig.seed, integral=True)
        if extent <= 0:
            raise ConfigError("grid extent must be positive")
        if points < 4 or points & (points - 1):
            raise ConfigError("grid point count must be a power of two >= 4")
        if 16 * points ** 2 > MAX_DENSE_BYTES:
            raise ConfigError(
                f"grid point count {points} needs a dense complex array above the "
                f"{MAX_DENSE_BYTES >> 20} MiB limit"
            )
        bound_truncation("truncation", truncation)
        if seed < 0:
            raise ConfigError("seed must be nonnegative")
        return SuiteConfig(params, extent, points, truncation, seed)

    def grid(self) -> phasespace.PhaseGrid:
        """The configured phase grid, refused where the split-step phase overflows
        or where an oscillator scale, or the grid in those scales, is not a
        normal float64: zero, subnormal or infinite scales make fields that
        are not finite.

        Only verify and evolve build the grid, so only they make these checks."""
        extent, points, par = self.grid_extent, self.grid_points, self.params
        if not schrodinger.step_phase_bound(extent, points, par) <= schrodinger.PHASE_LIMIT:
            raise ConfigError(
                f"grid extent {extent:g} at n {points} overflows the split-step phase "
                f"for m {par.m:g}, omega {par.omega:g}, hbar {par.hbar:g}"
            )
        with np.errstate(all="ignore"):  # a zero or infinite scale is refused below
            hbar, mw = np.float64(par.hbar), np.float64(par.m) * par.omega
            length, momentum = np.sqrt(hbar / mw), np.sqrt(hbar * mw)
            scales = {
                "hbar omega": hbar * par.omega,
                "hbar/(m omega)": hbar / mw,
                "hbar m omega": hbar * mw,
                "oscillator length": length,
                "oscillator momentum": momentum,
                "extent/length": extent / length,
                "m omega extent": mw * extent,
            }
        for name, value in scales.items():
            if not sys.float_info.min <= value <= sys.float_info.max:
                raise ConfigError(
                    f"{name} is {value:g}, not a normal float64, for m {par.m:g}, "
                    f"omega {par.omega:g}, hbar {par.hbar:g} and grid extent {extent:g}"
                )
        return phasespace.default_grid(extent, points, par)

    def as_dict(self) -> dict:
        return {
            "params": {"m": self.params.m, "omega": self.params.omega, "hbar": self.params.hbar},
            "grid": {"extent": self.grid_extent, "n": self.grid_points},
            "truncation": self.truncation,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ReportEntry:
    equation_id: str
    convention: str
    residual: float
    threshold: float | None
    status: str
    module: str
    operation: str
    detail: str

    def as_dict(self) -> dict:
        return asdict(self)


class _Context:
    """Shared fixtures; the spin operators are built on first use only."""

    def __init__(self, config: SuiteConfig):
        self.grid = config.grid()  # refuses the config before any check runs
        self.config = config
        self.par = config.params
        # fixed 256^2 grid for entries with grid-pinned tolerances
        self.reference_grid = phasespace.default_grid(8.0, 256, self.par)
        self.line_grid = phasespace.PositionGrid(10.0, 512)

    @functools.cached_property
    def spin_ops(self) -> spin.TwoModeOperators:
        return spin.two_mode_operators(SPIN_DIM, self.par)


def _random_points(rng, count):
    return rng.normal(scale=2.0, size=(count, 2))


@dataclass(frozen=True)
class _Check:
    equation_id: str
    threshold: float | None
    module: str
    operation: str
    detail: str
    convention: str
    measure: Callable[[_Context, np.random.Generator], object]

    def run(self, ctx: _Context):
        """Measure the entry on its own stream, keyed by a checksum of its id."""
        key = zlib.crc32(self.equation_id.encode())
        seeds = np.random.SeedSequence(ctx.config.seed, spawn_key=(key,))
        return self.measure(ctx, np.random.default_rng(seeds))


_CHECKS: list[_Check] = []


def _check(equation_id, threshold, target, detail="", convention=LITERAL):
    """Register the decorated function as the entry of one equation."""
    module, operation = target.split(".")

    def register(measure):
        _CHECKS.append(_Check(equation_id, threshold, module, operation, detail, convention, measure))
        return measure

    return register


# ---------------------------------------------------------------------------
# classical flow and transport
# ---------------------------------------------------------------------------

@_check("Eq.1", 1e-12, "phasespace.hamiltonian",
        "quadratic form evaluated against direct substitution")
def _check_hamiltonian(ctx: _Context, rng):
    par = ctx.par
    expected = 1.0 / (2.0 * par.m) + 0.5 * par.m * par.omega ** 2
    residual = abs(phasespace.hamiltonian(1.0, 1.0, par) - expected)
    return max(residual, abs(phasespace.hamiltonian(0.0, 0.0, par)))


@_check("Eq.2", 1e-6, "phasespace.liouville_propagate",
        "total probability conserved along characteristics")
def _check_mass_conservation(ctx: _Context, rng):
    par = ctx.par
    grid = ctx.reference_grid
    density = phasespace.gaussian_density(grid, par, q0=1.0)
    moved = phasespace.liouville_propagate(density, 1.0 / par.omega, par)
    return abs(moved.mass() - density.mass())


@_check("Eq.3", 1e-8, "phasespace.hamilton_flow",
        "flow derivative matches the canonical equations of motion")
def _check_hamilton_equations(ctx: _Context, rng):
    par = ctx.par
    h = 1e-5 / par.omega
    worst = 0.0
    for qp in _random_points(rng, 20):
        pt = PhasePoint(float(qp[0]), float(qp[1]))
        t0 = 0.37 / par.omega
        ahead = phasespace.hamilton_flow(pt, t0 + h, par)
        behind = phasespace.hamilton_flow(pt, t0 - h, par)
        here = phasespace.hamilton_flow(pt, t0, par)
        dq_dt = (ahead.q - behind.q) / (2.0 * h)
        dp_dt = (ahead.p - behind.p) / (2.0 * h)
        worst = max(worst, abs(dq_dt - here.p / par.m),
                    abs(dp_dt + par.m * par.omega ** 2 * here.q))
    return worst


@_check("Eq.4", 1e-6, "phasespace.liouville_propagate",
        "an energy-functional density is a fixed point of transport")
def _check_stationary_density(ctx: _Context, rng):
    par = ctx.par
    grid = ctx.reference_grid
    density = phasespace.hamiltonian_gaussian(grid, par)
    moved = phasespace.liouville_propagate(density, 1.234 / par.omega, par)
    return float(np.abs(moved.values - density.values).max())


@_check("Eq.5", 1e-10, "wigner.wigner_forward",
        "forward/inverse offset transform is an exact discrete pair")
def _check_transform_pair(ctx: _Context, rng):
    par = ctx.par
    grid = ctx.reference_grid
    density = phasespace.gaussian_density(grid, par, q0=1.0)
    back = wigner.wigner_inverse(wigner.wigner_forward(density, par))
    return float(np.abs(back.values - density.values).max())


def _coherent_on_grid(ctx: _Context, t: float):
    par = ctx.par
    grid = ctx.reference_grid
    center = phasespace.hamilton_flow(PhasePoint(1.0, 0.0), t, par)
    state = schrodinger.coherent_state(grid.line, par, center.q, center.p)
    return wigner.wavefunction_to_slice(state, grid, par)


@_check("Eq.6", 1e-4, "wigner.wavefunction_to_slice",
        "transformed transport equation on analytic coherent slices "
        "(time derivative by central difference)")
def _check_slice_equation(ctx: _Context, rng):
    par = ctx.par
    grid = ctx.reference_grid
    t0 = 0.3 / par.omega
    dt = 1e-3 / par.omega
    ahead = _coherent_on_grid(ctx, t0 + dt)
    behind = _coherent_on_grid(ctx, t0 - dt)
    here = _coherent_on_grid(ctx, t0)
    rho_t = (ahead.values - behind.values) / (2.0 * dt)
    length_d = here.delta_step * grid.n
    mixed = spectral_derivative(spectral_derivative(here.values.T, grid.line.length).T, length_d)
    qs = grid.q[:, None]
    ds = here.delta[None, :]
    residual_field = (
        -1j * par.hbar * rho_t
        - par.hbar ** 2 / par.m * mixed
        + par.m * par.omega ** 2 * qs * ds * here.values
    )
    return float(np.abs(residual_field).max())


@_check("Eq.7", 1e-8, "wigner.wavefunction_to_slice",
        "two-point product of the ground state matches the closed form")
def _check_product_form(ctx: _Context, rng):
    par = ctx.par
    grid = ctx.reference_grid
    state = schrodinger.hermite_eigenstate(0, grid.line, par)
    rho = wigner.wavefunction_to_slice(state, grid, par)
    mw = par.m * par.omega
    qs = grid.q[:, None]
    ds = rho.delta[None, :]
    closed = np.sqrt(mw / (np.pi * par.hbar)) * np.exp(-mw * (qs ** 2 + ds ** 2 / 4.0) / par.hbar)
    return float(np.abs(rho.values - closed).max())


def _random_state(ctx: _Context, rng) -> schrodinger.WaveFunction:
    grid = ctx.line_grid
    k = wavenumbers(grid.n, grid.length)
    spectrum = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    spectrum *= np.exp(-(k / 4.0) ** 2)
    values = np.fft.ifft(spectrum) * np.exp(-grid.q ** 2 / 4.0)
    phi = schrodinger.WaveFunction(grid, values, 0.0)
    phi.values = phi.values / phi.norm()
    return phi


@_check("Eq.8", 1e-12, "madelung.decompose",
        "amplitude-action split recomposes to the state up to global phase")
def _check_polar_split(ctx: _Context, rng):
    par = ctx.par
    phi = _random_state(ctx, rng)
    pair = madelung.decompose(phi, par)
    back = madelung.compose(pair, par)
    return abs(1.0 - phi.fidelity(back))


@_check("Eq.9", 1e-8, "madelung.phase_gradient",
        "first-order offset term carries the probability current "
        "(cells above the node cutoff)")
def _check_first_order_structure(ctx: _Context, rng):
    par = ctx.par
    grid = ctx.reference_grid
    state = schrodinger.coherent_state(grid.line, par, 1.0, 0.7)
    rho = wigner.wavefunction_to_slice(state, grid, par)
    length_d = rho.delta_step * grid.n
    d_offset = spectral_derivative(rho.values, length_d)[:, grid.n // 2]
    pair = madelung.decompose(state, par)
    expected = 1j / par.hbar * pair.amplitude ** 2 * madelung.phase_gradient(pair, par)
    mask = pair.valid_mask()
    return float(np.abs(d_offset[mask] - expected[mask]).max())


def _eigen_pairs(ctx: _Context, n: int, dt: float):
    par = ctx.par
    grid = ctx.line_grid
    state = schrodinger.hermite_eigenstate(n, grid, par)
    energy = par.hbar * par.omega * (n + 0.5)
    later = schrodinger.WaveFunction(
        grid, state.values * np.exp(-1j * energy * dt / par.hbar), dt
    )
    return madelung.decompose(state, par), madelung.decompose(later, par), state


@_check("Eq.10", 1e-5, "madelung.continuity_residual",
        "probability continuity on stationary eigenstate snapshots, n = 0..2")
def _check_continuity(ctx: _Context, rng):
    par = ctx.par
    dt = 0.05 / par.omega
    worst = 0.0
    for n in (0, 1, 2):
        first, second, state = _eigen_pairs(ctx, n, dt)
        res = madelung.continuity_residual(first, second, dt, par)
        window = res.mask & (np.abs(res.grid.q) <= 4.0)
        worst = max(worst, float(np.abs(res.values[window]).max()))
    return worst


@_check("Eq.11", 1e-5, "madelung.qhj_residual",
        "phase equation with the curvature term, eigenstates n = 0..2")
def _check_quantum_hj(ctx: _Context, rng):
    par = ctx.par
    worst = 0.0
    for n in (0, 1, 2):
        grid = ctx.line_grid
        state = schrodinger.hermite_eigenstate(n, grid, par)
        pair = madelung.decompose(state, par)
        res = madelung.qhj_residual(pair, -par.hbar * par.omega * (n + 0.5), par)
        window = res.mask & (np.abs(grid.q) <= 4.0)
        worst = max(worst, float(np.abs(res.values[window]).max()))
    return worst


@_check("Eq.12", 1e-3, "schrodinger.equivalence_report")
def _check_equivalence(ctx: _Context, rng):
    par = ctx.par
    grid = ctx.grid
    state = schrodinger.coherent_state(grid.line, par, 1.0, 0.0)
    period = 2.0 * np.pi / par.omega
    report = schrodinger.equivalence_report(state, period, par, grid)
    return report.l2_distance, (
        f"L2 distance between transport routes at {grid.n}^2, "
        f"{report.n_steps} steps; max distance {report.max_distance:.3e}"
    )


# ---------------------------------------------------------------------------
# normal modes and the phase circle
# ---------------------------------------------------------------------------

def _mode_fields(par: PhysParams):
    modes = lambda q, p: canonical.to_normal_modes(PhasePoint(q, p), par)
    return (lambda q, p: modes(q, p).q1), (lambda q, p: modes(q, p).p1)


@_check("Eq.13", 1e-6, "phasespace.poisson_bracket",
        "finite-difference bracket of the mode pair equals i/hbar")
def _check_mode_bracket(ctx: _Context, rng):
    par = ctx.par
    q1, p1 = _mode_fields(par)
    worst = 0.0
    for qp in _random_points(rng, 10):
        pt = PhasePoint(float(qp[0]), float(qp[1]))
        value = phasespace.poisson_bracket(q1, p1, pt)
        worst = max(worst, abs(value - 1j / par.hbar))
    return worst


@_check("Eq.14", 1e-12, "canonical.transformed_hamiltonian",
        "hbar*omega*q1*p1 equals the oscillator energy pointwise")
def _check_transformed_hamiltonian(ctx: _Context, rng):
    par = ctx.par
    worst = 0.0
    for qp in _random_points(rng, 1000):
        pt = PhasePoint(float(qp[0]), float(qp[1]))
        energy = canonical.transformed_hamiltonian(canonical.to_normal_modes(pt, par), par)
        worst = max(worst, abs(energy - phasespace.hamiltonian(pt.q, pt.p, par)))
    return worst


@_check("Eq.15", 1e-12, "madelung.transformed_liouville_residual",
        "written advection equation on its own characteristic solution")
def _check_transformed_liouville(ctx: _Context, rng):
    par = ctx.par
    axis = np.linspace(-2.0, 2.0, 41)
    qq, pp = np.meshgrid(axis, axis, indexing="ij")
    t = 0.3 / (par.hbar * par.omega)
    return float(np.abs(madelung.transformed_liouville_residual(qq, pp, t, par)).max())


@_check("Eq.16", None, "canonical.literal_rate_residual",
        "written real rate vs the chain-rule rotation i*omega*q1 at |q1| = 1; "
        "the module implements the rotation")
def _check_mode_rate(ctx: _Context, rng):
    return canonical.literal_rate_residual(np.exp(0.3j), ctx.par)


@_check("Eq.17", 1e-10, "wigner.wigner_forward",
        "the transformed-coordinate definition reuses the same exact discrete pair")
def _check_transformed_transform(ctx: _Context, rng):
    par = ctx.par
    grid = ctx.reference_grid
    density = phasespace.hamiltonian_gaussian(grid, par, width=0.8)
    back = wigner.wigner_inverse(wigner.wigner_forward(density, par))
    return float(np.abs(back.values - density.values).max())


@_check("Eq.18", 1e-12, "madelung.transformed_slice_residual",
        "written two-point transport equation on a manufactured solution")
def _check_transformed_slice_equation(ctx: _Context, rng):
    par = ctx.par
    axis = np.linspace(-2.0, 2.0, 41)
    qq, dd = np.meshgrid(axis, axis, indexing="ij")
    t = 0.25 / (par.hbar * par.omega)
    return float(np.abs(madelung.transformed_slice_residual(qq, dd, t, par)).max())


def _segment_poly_values(poly: fock.BargmannPoly, positions, offsets):
    a = np.asarray(positions)[:, None] - np.asarray(offsets)[None, :] / 2.0
    b = np.asarray(positions)[:, None] + np.asarray(offsets)[None, :] / 2.0
    return np.conj(fock.bargmann_eval(poly, a)) * fock.bargmann_eval(poly, b)


@_check("Eq.19", 1e-12, "fock.bargmann_eval",
        "two-point product in the transformed coordinate has the Hermitian mirror")
def _check_transformed_product_form(ctx: _Context, rng):
    poly = fock.BargmannPoly([0.3 + 0.1j, 1.0, 0.0, 0.25j])
    positions = np.linspace(0.1, 4.0, 65)
    offsets = np.linspace(-1.5, 1.5, 31)
    rho = _segment_poly_values(poly, positions, offsets)
    mirrored = np.conj(_segment_poly_values(poly, positions, -offsets))
    return float(np.abs(rho - mirrored).max())


@_check("Eq.20", 1e-12, "fock.bargmann_eval",
        "amplitude-action form reconstructs the polynomial amplitude on the segment")
def _check_transformed_polar_form(ctx: _Context, rng):
    par = ctx.par
    poly = fock.BargmannPoly([0.5, 1.0, 0.2j])
    positions = np.linspace(0.1, 4.0, 257)
    values = fock.bargmann_eval(poly, positions)
    amplitude = np.abs(values)
    action = par.hbar * np.unwrap(np.angle(values))
    rebuilt = amplitude * np.exp(1j * action / par.hbar)
    return float(np.abs(rebuilt - values).max())


@_check("Eq.21", None, "madelung.transformed_pair_residuals")
def _check_transformed_continuity(ctx: _Context, rng):
    par = ctx.par
    res = madelung.transformed_pair_residuals(fock.monomial(0), 0.4 / par.omega, par)
    residual = float(np.abs(res.density_residual).max())
    flipped = float(np.abs(res.density_residual_flipped).max())
    return residual, (
        f"written source sign leaves (2n+1)*hbar*omega*R^2 standing on the "
        f"vacuum amplitude; flipped sign leaves {flipped:.3e}"
    )


@_check("Eq.22", 1e-10, "madelung.transformed_pair_residuals",
        "phase equation vanishes for separable polynomial amplitudes")
def _check_transformed_phase(ctx: _Context, rng):
    par = ctx.par
    res = madelung.transformed_pair_residuals(fock.monomial(2), 0.4 / par.omega, par)
    return float(np.abs(res.phase_residual).max())


@_check("Eq.23", 1e-6, "fock.bargmann_evolve",
        "consistent transformed evolution equation along the mode-by-mode flow "
        "(time derivative by central difference)",
        convention=REPAIRED)
def _check_transformed_schrodinger(ctx: _Context, rng):
    par = ctx.par
    poly = fock.BargmannPoly([0.6, 1.0, 0.0, 0.4j])
    positions = np.linspace(0.1, 4.0, 257)
    t0 = 0.7 / par.omega
    h = 1e-5 / par.omega
    now = fock.bargmann_evolve(poly, t0, par)
    ahead = fock.bargmann_evolve(poly, t0 + h, par)
    behind = fock.bargmann_evolve(poly, t0 - h, par)
    values = fock.bargmann_eval(now, positions)
    slope = fock.bargmann_eval(fock.bargmann_apply("annihilate", now), positions)
    time_rate = (fock.bargmann_eval(ahead, positions) - fock.bargmann_eval(behind, positions)) / (2.0 * h)
    lhs = par.hbar * par.omega * (positions * slope + 0.5 * values)
    return float(np.abs(lhs - 1j * par.hbar * time_rate).max())


@_check("Eq.23-literal", None, "fock.bargmann_evolve",
        "written -i*hbar derivative convention against the oscillating solution; "
        "its literal solution would have the real rate hbar*omega*(1/2 - n)")
def _check_transformed_schrodinger_literal(ctx: _Context, rng):
    par = ctx.par
    positions = np.linspace(0.1, 4.0, 257)
    worst = 0.0
    for n in (0, 1):
        poly = fock.bargmann_evolve(fock.monomial(n), 0.7 / par.omega, par)
        values = fock.bargmann_eval(poly, positions)
        slope = fock.bargmann_eval(fock.bargmann_apply("annihilate", poly), positions)
        lhs = par.hbar * par.omega * (-1j * par.hbar * positions * slope + 0.5j * par.hbar * values)
        rhs = par.hbar * par.omega * (n + 0.5) * values
        worst = max(worst, float(np.abs(lhs - rhs).max() / np.abs(values).max()))
    return worst


@_check("Eq.24", 1e-6, "fock.ladder_matrices",
        "matrix form with the commutator term drives the evolved state "
        "(time derivative by central difference)")
def _check_operator_equation(ctx: _Context, rng):
    par = ctx.par
    dim = 16
    a, adag = fock.ladder_matrices(dim)
    commutator = a @ adag - adag @ a
    h = par.hbar * par.omega * (adag @ a + 0.5 * commutator)
    poly = fock.BargmannPoly([0.6, 1.0, 0.0, 0.4j])
    t0 = 0.7 / par.omega
    step = 1e-4 / par.omega
    vec = lambda t: fock.fock_state_from_poly(fock.bargmann_evolve(poly, t, par), dim)
    time_rate = (vec(t0 + step) - vec(t0 - step)) / (2.0 * step)
    return float(np.abs(1j * par.hbar * time_rate - h @ vec(t0)).max())


@_check("Eq.25", 1e-12, "fock.bargmann_apply",
        "creation as coordinate multiplication, annihilation as the derivative: "
        "unit commutator on the polynomial basis",
        convention=REPAIRED)
def _check_ladder_identification(ctx: _Context, rng):
    par = ctx.par
    worst = 0.0
    for n in range(0, 11):
        poly = fock.monomial(n)
        raised_lowered = fock.bargmann_apply("annihilate", fock.bargmann_apply("create", poly, par), par)
        lowered_raised = (
            fock.BargmannPoly(np.zeros(1))
            if n == 0
            else fock.bargmann_apply("create", fock.bargmann_apply("annihilate", poly, par), par)
        )
        size = max(raised_lowered.coeffs.size, lowered_raised.coeffs.size, poly.coeffs.size)
        pad = lambda c: np.pad(c, (0, size - c.size))
        diff = pad(raised_lowered.coeffs) - pad(lowered_raised.coeffs) - pad(poly.coeffs)
        worst = max(worst, float(np.abs(diff).max()))
    return worst


def _written_commutator(par: PhysParams) -> complex:
    """[a, a+] on z^3 with annihilation written as the -i*hbar derivative."""
    poly = fock.monomial(3)
    raised_lowered = fock.annihilate_written_convention(fock.bargmann_apply("create", poly, par), par)
    lowered_raised = fock.bargmann_apply("create", fock.annihilate_written_convention(poly, par), par)
    diff = raised_lowered.coeffs[: poly.coeffs.size] - lowered_raised.coeffs[: poly.coeffs.size]
    return diff[poly.degree] / poly.coeffs[poly.degree]


@_check("Eq.25-literal", None, "fock.annihilate_written_convention")
def _check_ladder_identification_literal(ctx: _Context, rng):
    commutator = _written_commutator(ctx.par)
    return abs(commutator - 1.0), f"written convention gives commutator {commutator:.3f} instead of 1"


@_check("Eq.26", 1e-12, "fock.bargmann_apply",
        "monomial amplitudes are energy eigenfunctions of the transformed operator",
        convention=REPAIRED)
def _check_solution_form(ctx: _Context, rng):
    par = ctx.par
    worst = 0.0
    for n in range(0, 41):
        applied = fock.bargmann_apply("hamiltonian", fock.monomial(n), par)
        expected = par.hbar * par.omega * (n + 0.5)
        worst = max(worst, float(abs(applied.coeffs[n] - expected)))
    return worst


@_check("Eq.27", 1e-12, "fock.ho_spectrum", convention=REPAIRED)
def _check_spectrum(ctx: _Context, rng):
    # The levels against the eigenvalues of the terms split_step_evolve exponentiates,
    # on a Fourier grid (Kosloff & Kosloff 1983), in units of hbar*omega.  128 points
    # over 14 oscillator lengths each way hold 63 levels to ~4e-13; 256 over 16 do not.
    par = ctx.par
    truncation = ctx.config.truncation
    count = min(truncation - 1, 63)
    length = math.sqrt(par.hbar / (par.m * par.omega))
    grid = phasespace.PositionGrid(14.0 * length, 128)
    potential, kinetic = schrodinger.hamiltonian_terms(grid, par)
    quantum = par.hbar * par.omega
    # the kinetic operator is the circulant matrix diagonal in the Fourier basis
    row = np.fft.ifft(kinetic / quantum).real
    index = np.arange(grid.n)
    matrix = row[(index[:, None] - index) % grid.n] + np.diag(potential / quantum)
    levels = np.linalg.eigvalsh(matrix)[:count]
    exported = fock.ho_spectrum(truncation, par).energies[:count] / quantum
    residual = float(np.abs(exported - levels).max())
    return residual, f"lowest {count} levels against the Fourier-grid Hamiltonian of the evolver"


@_check("Eq.28", 1e-12, "fock.number_state",
        "repeated creation on the vacuum: single component sqrt(n!) "
        "(relative deviation)")
def _check_number_states(ctx: _Context, rng):
    worst = 0.0
    dim = 16
    _, adag = fock.ladder_matrices(dim)
    created = np.zeros(dim, dtype=np.complex128)
    created[0] = 1.0
    for n in range(0, 13):
        state = fock.number_state(n, dim)
        worst = max(worst, abs(created[n] / state[n] - 1.0))
        worst = max(worst, float(np.abs(np.delete(created - state, n)).max()))
        created = adag @ created
    return worst


@_check("Eq.29", 1e-12, "canonical.phase_angle",
        "cosine/sine split is consistent on the unit energy shell")
def _check_angle_definition(ctx: _Context, rng):
    par = ctx.par
    worst = 0.0
    for theta in np.linspace(-3.0, 3.0, 13):
        pt = canonical.shell_point(theta, par)
        cos_term = pt.p / math.sqrt(2.0 * par.hbar * par.m * par.omega)
        sin_term = math.sqrt(par.m * par.omega / (2.0 * par.hbar)) * pt.q
        worst = max(worst, abs(cos_term ** 2 + sin_term ** 2 - 1.0))
        worst = max(worst, abs(canonical.phase_angle(pt, par) - theta))
    return worst


@_check("Eq.30", 1e-10, "canonical.phase_angle",
        "tangent of the resolved angle reproduces m*omega*q/p")
def _check_tangent(ctx: _Context, rng):
    par = ctx.par
    worst = 0.0
    for qp in _random_points(rng, 50):
        pt = PhasePoint(float(qp[0]), float(qp[1]) + 3.0)  # keep p away from zero
        theta = canonical.phase_angle(pt, par)
        worst = max(worst, abs(math.tan(theta) * pt.p - par.m * par.omega * pt.q) / max(1.0, abs(pt.p)))
    return worst


@_check("Eq.30a", 1e-12, "phasespace.hamilton_flow",
        "closed-form flow matches the amplitude-phase solution")
def _check_classical_solution(ctx: _Context, rng):
    par = ctx.par
    worst = 0.0
    for _ in range(20):
        energy = float(rng.uniform(0.2, 4.0))
        theta = float(rng.uniform(-np.pi, np.pi))
        t = float(rng.uniform(0.0, 7.0))
        amp_p = math.sqrt(2.0 * par.m * energy)
        amp_q = math.sqrt(2.0 * energy / (par.m * par.omega ** 2))
        start = PhasePoint(amp_q * math.sin(theta), amp_p * math.cos(theta))
        moved = phasespace.hamilton_flow(start, t, par)
        worst = max(worst, abs(moved.q - amp_q * math.sin(par.omega * t + theta)),
                    abs(moved.p - amp_p * math.cos(par.omega * t + theta)))
    return worst


@_check("Eq.31", 1e-12, "canonical.to_normal_modes",
        "the mode coordinate is the unit phase factor on the shell")
def _check_shell_value(ctx: _Context, rng):
    par = ctx.par
    worst = 0.0
    for theta in np.linspace(-3.0, 3.0, 13):
        pt = canonical.shell_point(theta, par)
        q1 = canonical.to_normal_modes(pt, par).q1
        worst = max(worst, abs(q1 - np.exp(1j * theta)))
    return worst


@_check("Eq.32", 1e-12, "fock.bargmann_eval",
        "monomial amplitudes restrict to circle waves e^{i n theta}")
def _check_circle_waves(ctx: _Context, rng):
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    worst = 0.0
    for n in range(0, 11):
        values = fock.bargmann_eval(fock.monomial(n), np.exp(1j * theta))
        worst = max(worst, float(np.abs(values - np.exp(1j * n * theta)).max()))
    return worst


@_check("Eq.33", 1e-12, "fock.phase_circle_action",
        "raising/lowering shifts the circle wave index by one "
        "(integer lowering factor divided out)")
def _check_circle_ladder(ctx: _Context, rng):
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    worst = 0.0
    for n in range(0, 11):
        report = fock.phase_circle_action(n, theta)
        worst = max(worst, report.create_deviation, report.annihilate_deviation)
    return worst


# ---------------------------------------------------------------------------
# planar spin functions and two-mode operators
# ---------------------------------------------------------------------------

@_check("Eq.34", 1e-12, "spin.spin_functions",
        "quadratic spin functions evaluated against direct substitution")
def _check_spin_definitions(ctx: _Context, rng):
    par = ctx.par
    values = spin.spin_functions(spin.Phase4Point(1.0, 0.0, 0.0, 1.0), PhysParams(1.0, 1.0, par.hbar))
    worst = max(abs(values.s0 - 1.0), abs(values.s1), abs(values.s2), abs(values.s3 - 0.5))
    origin = spin.spin_functions(spin.Phase4Point(0.0, 0.0, 0.0, 0.0), par)
    return max(worst, abs(origin.s0), abs(origin.s1), abs(origin.s2), abs(origin.s3))


@_check("Eq.35", 1e-12, "spin.spin_functions",
        "sphere constraint S1^2+S2^2+S3^2 = S0^2/4 at 1000 random points")
def _check_casimir(ctx: _Context, rng):
    par = ctx.par
    pts = rng.normal(scale=1.5, size=(1000, 4))
    worst = 0.0
    for row in pts:
        s = spin.spin_functions(spin.Phase4Point(*map(float, row)), par)
        worst = max(worst, abs(s.s1 ** 2 + s.s2 ** 2 + s.s3 ** 2 - 0.25 * s.s0 ** 2))
    return worst


@_check("Eq.36", None, "spin.spin_functions",
        "the combination sqrt(alpha/beta) = m*omega is adopted as the "
        "definition of the mass-frequency scale; the separate symbols are "
        "not exposed by this artifact")
def _check_scale_definition(ctx: _Context, rng):
    return 0.0


def _spin_diag(ctx: _Context):
    """Two-mode operators, hbar, modes' dimension, and the number and S0' diagonals."""
    ops = ctx.spin_ops
    diagonal = lambda op: np.real(np.diag(op))
    return ops, ctx.par.hbar, SPIN_DIM, diagonal(ops.number), diagonal(ops.s0)


@_check("Eq.37", 1e-12, "spin.two_mode_operators",
        "the total-intensity operator is diagonal with integer hbar multiples")
def _check_s0_eigenproblem(ctx: _Context, rng):
    ops, hb, _, _, s0_diag = _spin_diag(ctx)
    off = ops.s0 - np.diag(np.diag(ops.s0))
    lam = s0_diag / hb
    return max(float(np.abs(off).max()), float(np.abs(lam - np.round(lam)).max()))


def _squared_spin(ops, hb):
    s_prime_sq = ops.s0 @ ops.s0 / 4.0
    return s_prime_sq - hb ** 2 / 4.0 * np.eye(ops.s0.shape[0])


@_check("Eq.38", 1e-12, "spin.two_mode_operators",
        "squared spin carries ((lambda-1)/2)((lambda+1)/2) on each eigenvector")
def _check_lambda_eigenvalue(ctx: _Context, rng):
    ops, hb, _, _, s0_diag = _spin_diag(ctx)
    s_sq = _squared_spin(ops, hb)
    lam = s0_diag / hb
    expected = hb ** 2 * ((lam - 1.0) / 2.0) * ((lam + 1.0) / 2.0)
    return float(np.abs(np.real(np.diag(s_sq)) - expected).max())


@_check("Eq.38a", 1e-12, "spin.two_mode_operators",
        "quarter-square shift identity between the primed and unprimed squares")
def _check_shift_identity(ctx: _Context, rng):
    ops, hb, _, n_diag, _ = _spin_diag(ctx)
    s_sq = _squared_spin(ops, hb)
    expected = hb ** 2 * (n_diag / 2.0) * (n_diag / 2.0 + 1.0)
    return float(np.abs(np.real(np.diag(s_sq)) - expected).max())


@_check("Eq.39", 1e-12, "spin.two_mode_operators",
        "squared-spin law hbar^2 (N/2)(N/2+1) across complete sectors")
def _check_number_eigenvalue_law(ctx: _Context, rng):
    ops, hb, _, n_diag, _ = _spin_diag(ctx)
    s_sq = _squared_spin(ops, hb)
    residual = 0.0
    for n in range(0, 8):
        members = np.where(np.abs(n_diag - n) < 1e-9)[0]
        expected = hb ** 2 * (n / 2.0) * (n / 2.0 + 1.0)
        residual = max(residual, float(np.abs(np.real(np.diag(s_sq))[members] - expected).max()))
    return residual


@_check("Eq.40", 1e-12, "spin.lambda_relation", "N = lambda - 1 relabelling is exact")
def _check_lambda_shift(ctx: _Context, rng):
    par = ctx.par
    worst = 0.0
    for lam in range(1, 9):
        value = spin.lambda_relation(float(lam), par)
        n = lam - 1
        expected = par.hbar ** 2 * (n / 2.0) * (n / 2.0 + 1.0)
        worst = max(worst, abs(value - expected))
    return worst


def _mode4_fields(par: PhysParams):
    """The four mode coordinates (q1, p1, q2, p2) as functions of (x, y, px, py)."""
    modes = lambda *xy: spin.two_mode_transform(spin.Phase4Point(*xy), par)
    return tuple((lambda *xy, k=k: modes(*xy)[k]) for k in range(4))


@_check("Eq.41", 1e-6, "spin.two_mode_transform",
        "first-axis mode pair has bracket i/hbar (finite differences)")
def _check_mode1_transform(ctx: _Context, rng):
    par = ctx.par
    q1, p1, _, _ = _mode4_fields(par)
    pt = spin.Phase4Point(0.4, -0.3, 0.8, 0.5)
    return abs(phasespace.poisson_bracket(q1, p1, pt) - 1j / par.hbar)


@_check("Eq.42", 1e-6, "spin.two_mode_transform",
        "second-axis pair has bracket i/hbar and the axes decouple")
def _check_mode2_transform(ctx: _Context, rng):
    par = ctx.par
    q1, _, q2, p2 = _mode4_fields(par)
    pt = spin.Phase4Point(-0.6, 0.2, 0.1, 0.9)
    residual = abs(phasespace.poisson_bracket(q2, p2, pt) - 1j / par.hbar)
    return max(residual, abs(phasespace.poisson_bracket(q1, q2, pt)))


def _transformed_samples(ctx: _Context, rng):
    par = ctx.par
    pts = rng.normal(scale=1.5, size=(100, 4))
    for row in pts:
        pt = spin.Phase4Point(*map(float, row))
        original = spin.spin_functions(pt, par)
        transformed = spin.transformed_spin_functions(*spin.two_mode_transform(pt, par), par)
        yield original, transformed


@_check("Eq.43", 1e-10, "spin.transformed_spin_functions",
        "total intensity is preserved by the per-axis mode map")
def _check_s0_transform(ctx: _Context, rng):
    return max(abs(t.s0 - o.s0) for o, t in _transformed_samples(ctx, rng))


@_check("Eq.44", 1e-10, "spin.transformed_spin_functions",
        "the mode-difference clause holds; the written same-mode-squares "
        "clause is measured by Eq.44-literal")
def _check_s2_transform(ctx: _Context, rng):
    return max(abs(t.s2 - o.s2) for o, t in _transformed_samples(ctx, rng))


@_check("Eq.44-literal", None, "spin.transformed_spin_functions")
def _check_s1_transform_literal(ctx: _Context, rng):
    worst_written = 0.0
    worst_cross = 0.0
    for o, t in _transformed_samples(ctx, rng):
        worst_written = max(worst_written, abs(t.s1_written - o.s1))
        worst_cross = max(worst_cross, abs(t.s1_cross - o.s1))
    written_defect, cross_defect = spin.su2_closure_defects(6, ctx.par)
    return worst_written, (
        f"written same-mode-squares form is pure imaginary for real points and "
        f"misses the first spin function; the cross-mode form "
        f"(hbar/2)(q1 p2 + q2 p1) matches it to {worst_cross:.3e}. Quantized "
        f"closure defect on the valid subspace: written set {written_defect:.3e}, "
        f"cross set {cross_defect:.3e}"
    )


@_check("Eq.45", 1e-10, "spin.transformed_spin_functions",
        "the cross-mode third component survives the transform")
def _check_s3_transform(ctx: _Context, rng):
    return max(abs(t.s3 - o.s3) for o, t in _transformed_samples(ctx, rng))


@_check("Eq.46", 1e-10, "spin.transformed_spin_functions",
        "the chosen commuting pair (S2', S0') matches the original functions")
def _check_diagonal_pair(ctx: _Context, rng):
    worst = 0.0
    for o, t in _transformed_samples(ctx, rng):
        worst = max(worst, abs(t.s2 - o.s2), abs(t.s0 - o.s0))
    return worst


@_check("Eq.47", 1e-12, "spin.two_mode_operators",
        "mode-difference and total-intensity operators act as printed, "
        "including the vacuum term")
def _check_quantized_pair(ctx: _Context, rng):
    ops, hb, dim, _, _ = _spin_diag(ctx)
    one_zero = spin.spin_eigenvector(1, 0, dim)
    vacuum = spin.spin_eigenvector(0, 0, dim)
    residual = float(np.abs(ops.s2 @ one_zero - 0.5 * hb * one_zero).max())
    return max(residual, float(np.abs(ops.s0 @ vacuum - hb * vacuum).max()))


@_check("Eq.48", 1e-12, "fock.ladder_matrices",
        "unit commutators per mode on the valid subspace, cross-mode terms vanish",
        convention=REPAIRED)
def _check_two_mode_commutators(ctx: _Context, rng):
    dim = SPIN_DIM
    a1, c1, a2, c2 = spin.mode_matrices(dim)
    eye = np.eye(dim * dim)
    block = spin.valid_block(dim)
    residual = float(np.abs((a1 @ c1 - c1 @ a1 - eye)[block]).max())
    residual = max(residual, float(np.abs((a2 @ c2 - c2 @ a2 - eye)[block]).max()))
    return max(residual, float(np.abs(a1 @ c2 - c2 @ a1).max()))


@_check("Eq.48-literal", None, "fock.annihilate_written_convention",
        "the written -i*hbar derivative convention gives per-mode commutator "
        "-i*hbar instead of 1")
def _check_two_mode_commutators_literal(ctx: _Context, rng):
    return abs(_written_commutator(ctx.par) - 1.0)


@_check("Eq.49", 1e-12, "spin.two_mode_operators",
        "total number operator kept dimensionless (the written form carries a "
        "stray hbar); integer spectrum",
        convention=REPAIRED)
def _check_number_operator(ctx: _Context, rng):
    ops, _, _, n_diag, _ = _spin_diag(ctx)
    off = ops.number - np.diag(np.diag(ops.number))
    return max(float(np.abs(off).max()), float(np.abs(n_diag - np.round(n_diag)).max()))


@_check("Eq.50", 1e-12, "spin.two_mode_operators", "N = lambda - 1 at the operator level")
def _check_lambda_operator_shift(ctx: _Context, rng):
    ops, hb, _, n_diag, s0_diag = _spin_diag(ctx)
    return float(np.abs((s0_diag / hb - 1.0) - n_diag).max())


@_check("Eq.51", 1e-9, "spin.spin_spectrum",
        "joint (number, S2') spectra match the sector enumeration at "
        "truncation 8, half-integral rows included",
        convention=REPAIRED)
def _check_joint_spectrum(ctx: _Context, rng):
    dim = SPIN_DIM
    rows = spin.spin_spectrum(dim)
    residual = 0.0
    for sector in range(0, dim):
        got = [r.m for r in rows if r.sector == sector]
        expected = [(2 * n1 - sector) / 2.0 for n1 in range(sector + 1)]
        if len(got) != len(expected):
            residual = math.inf
            break
        residual = max(residual, max(abs(g - e) for g, e in zip(got, expected)))
        s_squared = (sector / 2.0) * (sector / 2.0 + 1.0)
        residual = max(residual, max(abs(r.s_squared - s_squared) for r in rows if r.sector == sector))
    return residual


@_check("Eq.52", 1e-9, "spin.spin_eigenvector",
        "repeated creation builds the joint eigenvectors with sqrt(n1! n2!) weight")
def _check_tensor_eigenvectors(ctx: _Context, rng):
    ops, hb, dim, _, _ = _spin_diag(ctx)
    state = spin.spin_eigenvector(2, 1, dim)
    index = 2 * dim + 1
    residual = abs(state[index] - math.sqrt(2.0))
    residual = max(residual, float(np.abs(np.delete(state, index)).max()))
    residual = max(residual, float(np.abs(ops.number @ state - 3.0 * state).max()))
    return max(residual, float(np.abs(ops.s2 @ state - 0.5 * hb * state).max()))


def run_suite(config: SuiteConfig) -> list[ReportEntry]:
    """Run every check in definition order, which is also the report order."""
    ctx = _Context(config)
    entries = []
    for check in _CHECKS:
        result = check.run(ctx)
        residual, detail = result if isinstance(result, tuple) else (result, check.detail)
        residual = float(residual)
        if check.threshold is None:
            status = REPORTED
        else:
            status = PASS if residual < check.threshold else FAIL
        entries.append(ReportEntry(check.equation_id, check.convention, residual,
                                   check.threshold, status, check.module, check.operation,
                                   detail))
    return entries


def suite_passed(entries: list[ReportEntry]) -> bool:
    return all(entry.status != FAIL for entry in entries)


def report_payload(entries, config: SuiteConfig) -> dict:
    return {
        "config": config.as_dict(),
        "entries": [entry.as_dict() for entry in entries],
        "passed": suite_passed(entries),
    }
