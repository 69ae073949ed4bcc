"""Classical spin functions of the planar oscillator and their two-mode operators.

The four quadratic functions close under Poisson brackets with structure
{S_i, S_j} = -eps_ijk S_k, satisfy the sphere constraint
S1^2 + S2^2 + S3^2 = S0^2 / 4, and quantise through the per-axis normal-mode
map into two coupled ladder modes.  Joint spectra of the commuting pair
(number, S2') realise integral and half-integral multiplets: total number N
carries spin N/2, with projections hbar (n1 - n2) / 2 from integer occupations.

One written transformed function does not survive scrutiny: the same-mode
squares form of the first spin component evaluates to a pure imaginary for
real phase points and cannot equal the (real) original.  The cross-mode form
(hbar/2)(q1 p2 + q2 p1) does.  Both are computed; equality is asserted only
for the components where it holds, and the verification report carries the
residual of the written form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .canonical import to_normal_modes
from .errors import DomainError, OutOfTruncation
from .phasespace import PhasePoint, PhysParams


@dataclass(frozen=True)
class Phase4Point:
    x: float
    y: float
    px: float
    py: float

    def __post_init__(self):
        for value in (self.x, self.y, self.px, self.py):
            if not math.isfinite(value):
                raise ValueError("phase-space coordinates must be finite")


@dataclass(frozen=True)
class SpinValues:
    s0: float
    s1: float
    s2: float
    s3: float

    def casimir_residual(self) -> float:
        return abs(self.s1 ** 2 + self.s2 ** 2 + self.s3 ** 2 - 0.25 * self.s0 ** 2)


def spin_functions(pt: Phase4Point, par: PhysParams) -> SpinValues:
    """The four quadratic constants of the planar oscillator."""
    m, w = par.m, par.omega
    s1 = (pt.px * pt.py / m + m * w ** 2 * pt.x * pt.y) / (2.0 * w)
    s2 = (m * w ** 2 * (pt.x ** 2 - pt.y ** 2) + (pt.px ** 2 - pt.py ** 2) / m) / (4.0 * w)
    s3 = 0.5 * (pt.x * pt.py - pt.y * pt.px)
    s0 = ((pt.px ** 2 + pt.py ** 2) / m + m * w ** 2 * (pt.x ** 2 + pt.y ** 2)) / (2.0 * w)
    return SpinValues(s0, s1, s2, s3)


def two_mode_transform(pt: Phase4Point, par: PhysParams):
    """Per-axis normal-mode map: (x, px) -> (q1, p1) and (y, py) -> (q2, p2)."""
    first = to_normal_modes(PhasePoint(pt.x, pt.px), par)
    second = to_normal_modes(PhasePoint(pt.y, pt.py), par)
    return first.q1, first.p1, second.q1, second.p1


@dataclass(frozen=True)
class TransformedSpin:
    """Spin functions written in the transformed coordinates.

    s1_written is the same-mode squares form as printed; it is pure imaginary
    for real phase points and does not reproduce s1.  s1_cross is the
    cross-mode form that does.
    """

    s0: complex
    s1_written: complex
    s1_cross: complex
    s2: complex
    s3: complex


def transformed_spin_functions(q1, p1, q2, p2, par: PhysParams) -> TransformedSpin:
    hb = par.hbar
    return TransformedSpin(
        s0=hb * (q1 * p1 + q2 * p2),
        s1_written=hb / 2j * ((q1 ** 2 - q2 ** 2) + (p1 ** 2 - p2 ** 2)),
        s1_cross=hb / 2.0 * (q1 * p2 + q2 * p1),
        s2=hb / 2.0 * (q1 * p1 - q2 * p2),
        s3=hb / 2j * (q1 * p2 - q2 * p1),
    )


# ---------------------------------------------------------------------------
# two-mode operators and spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoModeOperators:
    """Matrices on two modes truncated at dim each; basis index n1 * dim + n2."""

    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    number: np.ndarray


def mode_matrices(dim: int):
    """Annihilation and creation on each of two modes: (a1, a1+, a2, a2+)."""
    a, adag = fock.ladder_matrices(dim)
    eye = np.eye(dim, dtype=np.complex128)
    return (
        np.kron(a, eye),
        np.kron(adag, eye),
        np.kron(eye, a),
        np.kron(eye, adag),
    )


def valid_block(dim: int):
    """Rows and columns of the states whose occupations both stay below dim - 1.

    Only there do the truncated ladder matrices obey the untruncated algebra.
    """
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    valid = (n1 <= dim - 2) & (n2 <= dim - 2)
    return np.ix_(valid, valid)


def two_mode_operators(dim: int, par: PhysParams) -> TwoModeOperators:
    """Second-quantised spin operators on two modes truncated at dim each.

    s0, s2, and the dimensionless number operator take their standard normal
    forms; s1 and s3 come from substituting creation for coordinates and
    annihilation for momenta in the transformed functions (no same-mode
    ordering ambiguity arises in either).  s1, like its classical written
    form, is anti-Hermitian; its algebra is reported, not asserted.
    """
    a1, c1, a2, c2 = mode_matrices(dim)
    hb = par.hbar
    eye = np.eye(dim * dim, dtype=np.complex128)
    s0 = hb * (c1 @ a1 + c2 @ a2 + eye)
    s2 = 0.5 * hb * (c1 @ a1 - c2 @ a2)
    s1 = hb / 2j * ((c1 @ c1 - c2 @ c2) + (a1 @ a1 - a2 @ a2))
    s3 = hb / 2j * (c1 @ a2 - c2 @ a1)
    return TwoModeOperators(s0, s1, s2, s3, c1 @ a1 + c2 @ a2)


def su2_closure_defects(dim: int, par: PhysParams) -> tuple[float, float]:
    """Commutator-closure defects of the quantized spin triples (reported only).

    Measures max |[S_i, S_j] + i*hbar*eps_ijk*S_k| over the cyclic triples,
    matching the sign of the classical bracket table, for two choices of the
    first component: the written same-mode-squares operator and the cross-mode
    operator (hbar/2)(a1+ a2 + a2+ a1).  The written set does not close; the
    cross set does.
    """
    ops = two_mode_operators(dim, par)
    a1, c1, a2, c2 = mode_matrices(dim)
    cross = par.hbar / 2.0 * (c1 @ a2 + c2 @ a1)
    block = valid_block(dim)

    def defect(first):
        triple = (first, ops.s2, ops.s3)
        worst = 0.0
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            commutator = triple[i] @ triple[j] - triple[j] @ triple[i]
            worst = max(
                worst, float(np.abs((commutator + 1j * par.hbar * triple[k])[block]).max())
            )
        return worst

    return defect(ops.s1), defect(cross)


@dataclass(frozen=True)
class SpinSpectrumRow:
    sector: int        # total excitation number N
    projection: float  # S2' eigenvalue m
    casimir: float     # hbar^2 (N/2)(N/2 + 1)


def spin_spectrum(dim: int, par: PhysParams) -> list[SpinSpectrumRow]:
    """Joint spectrum of the commuting pair (number, S2'), sectors 0 to dim - 1.

    Sector N holds |n1, N - n1> for n1 = 0..N, the full spin-N/2 multiplet.
    S2' is diagonal there, with entries (hbar/2)(n1 - n2) from the integer
    occupations, which ascend in n1, so they are its eigenvalues in order; no
    matrix is formed.
    """
    rows: list[SpinSpectrumRow] = []
    for sector in range(dim):
        n1 = np.arange(sector + 1)
        projections = 0.5 * par.hbar * (n1 - (sector - n1))
        casimir = par.hbar ** 2 * (sector / 2.0) * (sector / 2.0 + 1.0)
        for m in projections:
            rows.append(SpinSpectrumRow(sector, float(m), casimir))
    return rows


def lambda_relation(lam: float, par: PhysParams) -> float:
    """Squared-spin eigenvalue hbar^2 ((lam-1)/2)((lam+1)/2) for lam >= 1.

    Identical to hbar^2 (N/2)(N/2 + 1) at N = lam - 1; both forms are
    evaluated and compared as a guard against transcription drift.
    """
    if lam < 1.0:
        raise DomainError(f"lambda must be at least 1, got {lam!r}")
    hb2 = par.hbar ** 2
    value = hb2 * ((lam - 1.0) / 2.0) * ((lam + 1.0) / 2.0)
    n = lam - 1.0
    alt = hb2 * (n / 2.0) * (n / 2.0 + 1.0)
    if abs(value - alt) > 1e-12 * max(1.0, abs(value)):
        raise AssertionError("eigenvalue identity violated beyond roundoff")
    return value


def spin_eigenvector(n1: int, n2: int, dim: int) -> np.ndarray:
    """Repeated creation on the two-mode vacuum: component sqrt(n1! n2!).

    The result is the unnormalised joint eigenvector of the number operator
    (eigenvalue n1 + n2) and S2' (eigenvalue hbar (n1 - n2) / 2).
    """
    if not (0 <= n1 < dim and 0 <= n2 < dim):
        raise OutOfTruncation(f"occupations ({n1}, {n2}) do not fit in truncation {dim}")
    a1, c1, a2, c2 = mode_matrices(dim)
    vec = np.zeros(dim * dim, dtype=np.complex128)
    vec[0] = 1.0
    for _ in range(n1):
        vec = c1 @ vec
    for _ in range(n2):
        vec = c2 @ vec
    return vec
