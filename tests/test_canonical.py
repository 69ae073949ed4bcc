"""Normal-mode map, transformed Hamiltonian, mode flow, and phase angles."""

import math

import numpy as np
import pytest

from phaseq import canonical as cn
from phaseq import phasespace as ps
from phaseq.errors import OriginUndefined

PAR = ps.NATURAL


def test_map_of_momentum_only_point():
    nm = cn.to_normal_modes(ps.PhasePoint(0.0, np.sqrt(2.0)), PAR)
    assert nm.q1 == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert nm.p1 == pytest.approx(1.0 - 0.0j, abs=1e-15)


def test_origin_maps_to_origin():
    nm = cn.to_normal_modes(ps.PhasePoint(0.0, 0.0), PAR)
    assert nm.q1 == 0.0 and nm.p1 == 0.0


def test_conjugate_structure_for_real_points():
    rng = np.random.default_rng(10)
    for _ in range(10):
        pt = ps.PhasePoint(*rng.normal(size=2))
        nm = cn.to_normal_modes(pt, PAR)
        assert nm.p1 == np.conj(nm.q1)


def _from_normal_modes(nm, par):
    """Inverse of the normal-mode map for physical (conjugate-pair) points."""
    a = 0.5 * (nm.q1 + nm.p1)
    b = (nm.q1 - nm.p1) / 2j
    p = a.real * math.sqrt(2.0 * par.hbar * par.m * par.omega)
    q = b.real / math.sqrt(par.m * par.omega / (2.0 * par.hbar))
    return ps.PhasePoint(q, p)


def test_round_trip_through_normal_modes():
    par = ps.PhysParams(1.3, 0.7, 2.0)
    pt = ps.PhasePoint(0.8, -1.4)
    back = _from_normal_modes(cn.to_normal_modes(pt, par), par)
    assert back.q == pytest.approx(pt.q, abs=1e-14)
    assert back.p == pytest.approx(pt.p, abs=1e-14)


def test_transformed_hamiltonian_identity():
    rng = np.random.default_rng(11)
    for par in (PAR, ps.PhysParams(1.7, 0.4, 0.9)):
        for _ in range(1000):
            pt = ps.PhasePoint(*rng.normal(scale=2.0, size=2))
            assert cn.energy_check(pt, par) < 1e-12


def test_transformed_hamiltonian_example_values():
    assert cn.transformed_hamiltonian(
        cn.to_normal_modes(ps.PhasePoint(1.0, 1.0), PAR), PAR
    ) == pytest.approx(1.0, abs=1e-14)
    assert cn.transformed_hamiltonian(
        cn.to_normal_modes(ps.PhasePoint(0.0, 0.0), PAR), PAR
    ) == 0.0


def test_flow_commutes_with_the_map():
    rng = np.random.default_rng(13)
    for _ in range(30):
        pt = ps.PhasePoint(*rng.normal(size=2))
        t = float(rng.uniform(-5.0, 5.0))
        direct = cn.to_normal_modes(ps.hamilton_flow(pt, t, PAR), PAR).q1
        # the flow pulls back to a rigid rotation of q1
        rotated = np.exp(1j * PAR.omega * t) * cn.to_normal_modes(pt, PAR).q1
        assert abs(direct - rotated) < 1e-10


def test_mode_bracket_value():
    q1 = lambda q, p: cn.to_normal_modes(ps.PhasePoint(q, p), PAR).q1
    p1 = lambda q, p: cn.to_normal_modes(ps.PhasePoint(q, p), PAR).p1
    rng = np.random.default_rng(14)
    for _ in range(10):
        pt = ps.PhasePoint(*rng.normal(size=2))
        assert abs(ps.poisson_bracket(q1, p1, pt) - 1j / PAR.hbar) < 1e-6


# ---------------------------------------------------------------------------
# phase angle
# ---------------------------------------------------------------------------

def test_angle_zero_on_positive_momentum_axis():
    assert cn.phase_angle(ps.PhasePoint(0.0, 2.0), PAR) == 0.0


def test_angle_quarter_on_diagonal():
    assert cn.phase_angle(ps.PhasePoint(1.0, 1.0), PAR) == pytest.approx(np.pi / 4)


def test_angle_undefined_at_origin():
    with pytest.raises(OriginUndefined):
        cn.phase_angle(ps.PhasePoint(0.0, 0.0), PAR)


def test_angle_range_half_open():
    theta = cn.phase_angle(ps.PhasePoint(-0.0, -1.0), PAR)
    assert -np.pi < theta <= np.pi


def test_shell_coordinate_is_unit_phase():
    for theta in np.linspace(-3.0, 3.0, 15):
        pt = cn.shell_point(theta, PAR)
        assert ps.hamiltonian(pt, PAR) == pytest.approx(PAR.hbar * PAR.omega, abs=1e-14)
        q1 = cn.to_normal_modes(pt, PAR).q1
        assert abs(q1 - np.exp(1j * theta)) < 1e-12


def test_phase_additivity_under_flow():
    rng = np.random.default_rng(15)
    for _ in range(25):
        pt = ps.PhasePoint(*(rng.normal(size=2) + 0.5))
        t = float(rng.uniform(0.0, 6.0))
        before = cn.phase_angle(pt, PAR)
        after = cn.phase_angle(ps.hamilton_flow(pt, t, PAR), PAR)
        wrapped = np.angle(np.exp(1j * (before + PAR.omega * t)))
        assert abs(np.angle(np.exp(1j * (after - wrapped)))) < 1e-8


def test_literal_rate_residual_is_reported_scale():
    # |hbar*omega - i*omega| * |q1| = omega * sqrt(1 + hbar^2) at |q1| = 1
    assert cn.literal_rate_residual(np.exp(0.2j), PAR) == pytest.approx(np.sqrt(2.0), abs=1e-12)
