"""The complex normal-mode map (q, p) -> (q1, p1) and the phase-angle picture.

For real phase points the pair satisfies p1 = conj(q1), the product q1*p1 is
H/(hbar*omega) exactly, and the flow pulls back to a rigid rotation of q1 on
the complex plane.  The written transformed equation of motion assigns q1 a
real growth rate instead of that rotation; this module implements the
chain-rule rotation (which reproduces the phase-angle picture), and the
verification report surfaces the literal-rate residual without asserting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OriginUndefined
from .phasespace import PhasePoint, PhysParams, hamiltonian


@dataclass(frozen=True)
class NormalModePoint:
    """Complex normal coordinates; images of real points obey p1 = conj(q1)."""

    q1: complex
    p1: complex


def to_normal_modes(pt: PhasePoint, par: PhysParams) -> NormalModePoint:
    """Map (q, p) to the dimensionless complex pair (q1, p1)."""
    a = pt.p / math.sqrt(2.0 * par.hbar * par.m * par.omega)
    b = math.sqrt(par.m * par.omega / (2.0 * par.hbar)) * pt.q
    return NormalModePoint(complex(a, b), complex(a, -b))


def transformed_hamiltonian(nm: NormalModePoint, par: PhysParams) -> complex:
    """hbar * omega * q1 * p1; exactly real and equal to H for physical points."""
    return par.hbar * par.omega * nm.q1 * nm.p1


def literal_rate_residual(q1: complex, par: PhysParams) -> float:
    """|written rate - chain-rule rate| for dq1/dt at a point.

    The written equation of motion assigns dq1/dt = hbar*omega*q1 (a real,
    hyperbolic rate); the chain rule through the flow gives i*omega*q1.  The
    difference is reported, never asserted away.
    """
    written = par.hbar * par.omega * q1
    chain = 1j * par.omega * q1
    return float(abs(written - chain))


def phase_angle(pt: PhasePoint, par: PhysParams) -> float:
    """Angle theta with tan(theta) = m*omega*q / p, quadrant-resolved, in (-pi, pi]."""
    if pt.q == 0.0 and pt.p == 0.0:
        raise OriginUndefined("phase angle is undefined at the origin")
    theta = math.atan2(par.m * par.omega * pt.q, pt.p)
    if theta <= -math.pi:
        theta = math.pi
    return theta


def shell_point(theta: float, par: PhysParams) -> PhasePoint:
    """The phase point with angle theta on the energy shell H = hbar * omega."""
    p = math.sqrt(2.0 * par.hbar * par.m * par.omega) * math.cos(theta)
    q = math.sin(theta) / math.sqrt(par.m * par.omega / (2.0 * par.hbar))
    return PhasePoint(q, p)


def energy_check(pt: PhasePoint, par: PhysParams) -> float:
    """|hbar*omega*q1*p1 - H| at a point (the transformed-Hamiltonian identity)."""
    nm = to_normal_modes(pt, par)
    return abs(transformed_hamiltonian(nm, par) - hamiltonian(pt, par))
