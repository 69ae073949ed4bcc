"""Truncated ladder matrices, the holomorphic polynomial picture, and spectra.

Spectra are formed from the integer levels n of the number operator, not from
products of the ladder elements sqrt(n).  The polynomial (holomorphic) picture
uses the consistent convention in which creation multiplies by the complex
coordinate and annihilation differentiates with respect to it, giving a unit
commutator.  The written convention carries a factor -i*hbar on the
derivative; its commutator and evolution rate are computed by the report
helpers here but never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeOverflow, OutOfTruncation
from .phasespace import NATURAL, PhysParams

MAX_DEGREE = 128


def ladder_matrices(dim: int):
    """Annihilation and creation matrices truncated at dim."""
    if dim < 2:
        raise ValueError("truncation must be at least 2")
    a = np.diag(np.sqrt(np.arange(1, dim)).astype(np.complex128), 1)
    return a, a.conj().T


def number_state(n: int, dim: int) -> np.ndarray:
    """(creation)^n applied to the vacuum; component sqrt(n!) at index n."""
    if not 0 <= n < dim:
        raise OutOfTruncation(f"excitation {n} does not fit in truncation {dim}")
    _, adag = ladder_matrices(dim)
    vec = np.zeros(dim, dtype=np.complex128)
    vec[0] = 1.0
    for _ in range(n):
        vec = adag @ vec
    return vec


@dataclass(frozen=True)
class SpectrumResult:
    energies: np.ndarray
    trusted: np.ndarray


def ho_spectrum(dim: int, par: PhysParams) -> SpectrumResult:
    """Eigenvalues of hbar*omega*(N + P/2), read off its diagonal in ascending order.

    N = a+ a is diagonal in the number basis, with the integer entries n.  P
    projects onto excitations below the truncation edge, which detaches the
    single corrupted corner eigenvalue cleanly above the trusted band; the last
    entry is the truncation artifact, so P is also the trusted mask.
    """
    n = np.arange(dim)
    below_edge = n < dim - 1
    energies = par.hbar * par.omega * (n + 0.5 * below_edge)
    return SpectrumResult(energies, trusted=below_edge)


# ---------------------------------------------------------------------------
# holomorphic polynomial picture
# ---------------------------------------------------------------------------

@dataclass
class BargmannPoly:
    """Polynomial amplitude sum_n c_n z^n in the holomorphic coordinate.

    Coefficients are stored in ascending degree and trimmed to canonical form
    (nonzero trailing coefficient); the zero amplitude is represented as the
    single coefficient [0].
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if c.size == 0:
            c = np.zeros(1, dtype=np.complex128)
        last = c.size
        while last > 1 and c[last - 1] == 0.0:
            last -= 1
        self.coeffs = np.ascontiguousarray(c[:last])
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("polynomial coefficients must be finite")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0


def monomial(n: int) -> BargmannPoly:
    c = np.zeros(n + 1, dtype=np.complex128)
    c[n] = 1.0
    return BargmannPoly(c)


def bargmann_apply(which: str, poly: BargmannPoly, par: PhysParams = NATURAL) -> BargmannPoly:
    """Apply create (multiply by z), annihilate (d/dz), or the energy operator."""
    c = poly.coeffs
    if which == "create":
        if poly.degree + 1 > MAX_DEGREE:
            raise DegreeOverflow(f"degree {poly.degree + 1} exceeds maximum {MAX_DEGREE}")
        return BargmannPoly(np.concatenate([np.zeros(1, dtype=np.complex128), c]))
    if which == "annihilate":
        if c.size == 1:
            return BargmannPoly(np.zeros(1, dtype=np.complex128))
        return BargmannPoly(c[1:] * np.arange(1, c.size))
    if which == "hamiltonian":
        n = np.arange(c.size)
        return BargmannPoly(par.hbar * par.omega * (n + 0.5) * c)
    raise ValueError(f"unknown action {which!r}")


def annihilate_written_convention(poly: BargmannPoly, par: PhysParams) -> BargmannPoly:
    """Annihilation as literally written, -i*hbar d/dz (report helper only)."""
    c = poly.coeffs
    if c.size == 1:
        return BargmannPoly(np.zeros(1, dtype=np.complex128))
    return BargmannPoly(-1j * par.hbar * c[1:] * np.arange(1, c.size))


def bargmann_evolve(poly: BargmannPoly, t: float, par: PhysParams) -> BargmannPoly:
    """Mode-by-mode evolution: degree n picks up exp(-i*omega*(n + 1/2)*t)."""
    n = np.arange(poly.coeffs.size)
    return BargmannPoly(poly.coeffs * np.exp(-1j * par.omega * (n + 0.5) * t))


def bargmann_eval(poly: BargmannPoly, z) -> np.ndarray:
    """Evaluate the polynomial amplitude at complex points."""
    return np.polynomial.polynomial.polyval(np.asarray(z, dtype=np.complex128), poly.coeffs)


def fock_state_from_poly(poly: BargmannPoly, dim: int) -> np.ndarray:
    """Natural isomorphism: the degree-n monomial maps to sqrt(n!) at index n."""
    if poly.degree >= dim:
        raise OutOfTruncation(f"degree {poly.degree} does not fit in truncation {dim}")
    vec = np.zeros(dim, dtype=np.complex128)
    for n, c in enumerate(poly.coeffs):
        vec[n] = c * math.sqrt(math.factorial(n))
    return vec


@dataclass(frozen=True)
class PhaseCircleReport:
    """Pointwise deviations of the ladder actions on the unit phase circle."""

    create_deviation: float
    annihilate_deviation: float


def phase_circle_action(n: int, theta: np.ndarray) -> PhaseCircleReport:
    """Check the ladder actions on circle waves exp(i n theta).

    Creation must map exp(i n theta) to exp(i (n+1) theta) exactly (it is
    multiplication by the circle coordinate); annihilation lands on
    n * exp(i (n-1) theta), i.e. the lowered wave up to its integer factor,
    and kills the vacuum.
    """
    if n < 0:
        raise ValueError("mode index must be nonnegative")
    theta = np.asarray(theta, dtype=np.float64)
    circle = np.exp(1j * theta)
    base = monomial(n)
    raised = bargmann_eval(bargmann_apply("create", base), circle)
    create_dev = float(np.abs(raised - np.exp(1j * (n + 1) * theta)).max())
    lowered = bargmann_eval(bargmann_apply("annihilate", base), circle)
    if n == 0:
        annihilate_dev = float(np.abs(lowered).max())
    else:
        annihilate_dev = float(np.abs(lowered - n * np.exp(1j * (n - 1) * theta)).max())
    return PhaseCircleReport(create_dev, annihilate_dev)
