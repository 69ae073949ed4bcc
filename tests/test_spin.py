"""Planar spin functions, bracket algebra, two-mode operators, and spectra."""

import math

import numpy as np
import pytest

from phaseq import phasespace as ps
from phaseq import spin
from phaseq.errors import DomainError, OutOfTruncation

PAR = ps.NATURAL


def _random_points(count, seed=41, scale=1.5):
    rng = np.random.default_rng(seed)
    for row in rng.normal(scale=scale, size=(count, 4)):
        yield spin.Phase4Point(*map(float, row))


def _bracket_table(pt):
    """4x4 table of {S_i, S_j} at a point, indices ordered S0..S3."""
    funcs = [
        lambda *xy, i=i: getattr(spin.spin_functions(spin.Phase4Point(*xy), PAR), f"s{i}")
        for i in range(4)
    ]
    return np.array([[ps.poisson_bracket(f, g, pt) for g in funcs] for f in funcs])


# ---------------------------------------------------------------------------
# classical functions
# ---------------------------------------------------------------------------

def test_spot_values():
    values = spin.spin_functions(spin.Phase4Point(1.0, 0.0, 0.0, 1.0), PAR)
    assert (values.s0, values.s1, values.s2, values.s3) == (1.0, 0.0, 0.0, 0.5)


def test_origin_maps_to_zero():
    values = spin.spin_functions(spin.Phase4Point(0.0, 0.0, 0.0, 0.0), PAR)
    assert (values.s0, values.s1, values.s2, values.s3) == (0.0, 0.0, 0.0, 0.0)


def test_sphere_constraint():
    for pt in _random_points(1000):
        assert spin.spin_functions(pt, PAR).casimir_residual() < 1e-12


def test_bracket_closure():
    # sign convention from the symbolic oracle: {S_i, S_j} = -eps_ijk S_k
    cyclic = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    for pt in _random_points(20, seed=42):
        values = spin.spin_functions(pt, PAR)
        table = _bracket_table(pt)
        for i, j, k in cyclic:
            target = -getattr(values, f"s{k}")
            assert abs(table[i, j] - target) < 5e-6
            assert abs(table[j, i] + target) < 5e-6


def test_total_intensity_commutes():
    for pt in _random_points(100, seed=43):
        table = _bracket_table(pt)
        assert np.abs(table[0, 1:]).max() < 5e-6


def test_bracket_diagonal_exactly_zero():
    pt = spin.Phase4Point(0.7, -0.4, 1.1, 0.2)
    table = _bracket_table(pt)
    assert np.abs(np.diag(table)).max() == 0.0


# ---------------------------------------------------------------------------
# two-mode transform
# ---------------------------------------------------------------------------

def test_transform_preserves_total_intensity():
    for pt in _random_points(100, seed=44):
        original = spin.spin_functions(pt, PAR)
        modes = spin.two_mode_transform(pt, PAR)
        transformed = spin.transformed_spin_functions(*modes, PAR)
        assert abs(transformed.s0 - original.s0) < 1e-10


def test_transform_preserves_mode_difference():
    for pt in _random_points(100, seed=45):
        original = spin.spin_functions(pt, PAR)
        transformed = spin.transformed_spin_functions(*spin.two_mode_transform(pt, PAR), PAR)
        assert abs(transformed.s2 - original.s2) < 1e-10


def test_transform_preserves_cross_component():
    for pt in _random_points(100, seed=46):
        original = spin.spin_functions(pt, PAR)
        transformed = spin.transformed_spin_functions(*spin.two_mode_transform(pt, PAR), PAR)
        assert abs(transformed.s3 - original.s3) < 1e-10


def test_written_first_component_is_imaginary():
    # the written same-mode-squares form cannot equal the real function; the
    # cross-mode form does
    for pt in _random_points(20, seed=47):
        original = spin.spin_functions(pt, PAR)
        transformed = spin.transformed_spin_functions(*spin.two_mode_transform(pt, PAR), PAR)
        assert abs(transformed.s1_written.real) < 1e-12
        assert abs(transformed.s1_cross - original.s1) < 1e-10


def test_origin_transforms_to_zero():
    transformed = spin.transformed_spin_functions(
        *spin.two_mode_transform(spin.Phase4Point(0.0, 0.0, 0.0, 0.0), PAR), PAR
    )
    assert transformed.s0 == 0.0 and transformed.s2 == 0.0 and transformed.s3 == 0.0


def test_mode_brackets():
    pt = spin.Phase4Point(0.4, -0.6, 0.9, 0.3)

    def component(index):
        def field(x, y, px, py):
            return spin.two_mode_transform(spin.Phase4Point(x, y, px, py), PAR)[index]

        return field

    q1, p1, q2, p2 = (component(i) for i in range(4))
    assert abs(ps.poisson_bracket(q1, p1, pt) - 1j / PAR.hbar) < 1e-6
    assert abs(ps.poisson_bracket(q2, p2, pt) - 1j / PAR.hbar) < 1e-6
    assert abs(ps.poisson_bracket(q1, p2, pt)) < 1e-6


def test_planar_bracket_of_one_axis_matches_the_1d_bracket():
    # functions of (x, px) alone: the y pair adds exact zeros
    f = lambda q, p: np.sin(q) * p ** 2 + 1j * q
    g = lambda q, p: np.cos(p) + q ** 3
    planar_f = lambda x, y, px, py: f(x, px)
    planar_g = lambda x, y, px, py: g(x, px)
    for pt in _random_points(10, seed=8):
        expected = ps.poisson_bracket(f, g, ps.PhasePoint(pt.x, pt.px))
        assert ps.poisson_bracket(planar_f, planar_g, pt) == expected


# ---------------------------------------------------------------------------
# two-mode operators
# ---------------------------------------------------------------------------

DIM = 6
OPS = spin.two_mode_operators(DIM, PAR)


def test_mode_difference_action():
    one_zero = spin.spin_eigenvector(1, 0, DIM)
    assert np.abs(OPS.s2 @ one_zero - 0.5 * PAR.hbar * one_zero).max() < 1e-14


def test_vacuum_intensity_shift():
    vacuum = spin.spin_eigenvector(0, 0, DIM)
    assert np.abs(OPS.s0 @ vacuum - PAR.hbar * vacuum).max() < 1e-14


def test_commuting_pair():
    commutator = OPS.s0 @ OPS.s2 - OPS.s2 @ OPS.s0
    assert np.abs(commutator).max() == 0.0


def _hermiticity_defect(matrix):
    return float(np.abs(matrix - np.conj(matrix.T)).max())


def test_observables_are_hermitian():
    assert _hermiticity_defect(OPS.s0) < 1e-12
    assert _hermiticity_defect(OPS.s2) < 1e-12
    assert _hermiticity_defect(OPS.number) < 1e-12


def test_written_first_operator_is_anti_hermitian():
    adjoint = np.conj(OPS.s1.T)
    assert np.abs(adjoint + OPS.s1).max() < 1e-12


def test_third_operator_is_hermitian():
    assert _hermiticity_defect(OPS.s3) < 1e-12


def test_closure_defects_separate_the_two_sets():
    # reported diagnostic: the written first component breaks the algebra,
    # the cross-mode one closes on the valid subspace
    written, cross = spin.su2_closure_defects(DIM, PAR)
    assert cross < 1e-12
    assert written > 1.0


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_half_integral_sector():
    rows = [r for r in spin.spin_spectrum(8, PAR) if r.sector == 1]
    assert len(rows) == 2
    assert sorted(r.projection for r in rows) == pytest.approx([-0.5, 0.5], abs=1e-12)
    assert rows[0].casimir == pytest.approx(0.75, abs=1e-12)


def test_vacuum_sector():
    rows = [r for r in spin.spin_spectrum(4, PAR) if r.sector == 0]
    assert len(rows) == 1
    assert rows[0].projection == pytest.approx(0.0, abs=1e-12)
    assert rows[0].casimir == 0.0


def test_sector_sizes_and_multiplicity():
    dim = 8
    rows = spin.spin_spectrum(dim, PAR)
    for sector in range(dim):
        members = sorted(r.projection for r in rows if r.sector == sector)
        expected = [PAR.hbar * (2 * n1 - sector) / 2.0 for n1 in range(sector + 1)]
        assert len(members) == sector + 1
        assert np.abs(np.array(members) - np.array(expected)).max() < 1e-9


@pytest.mark.parametrize("dim", [1, 2, 4, 45])
def test_spectrum_holds_only_the_complete_sectors(dim):
    sectors = [r.sector for r in spin.spin_spectrum(dim, PAR)]
    assert sectors == [sector for sector in range(dim) for _ in range(sector + 1)]
    assert len(sectors) == sum(n + 1 for n in range(dim))


def _spectrum_by_number_eigensolve(dim, par):
    """Reference construction: sectors below dim from an eigensolve of the
    number operator, and S2' projected onto each sector's eigenvectors."""
    ops = spin.two_mode_operators(dim, par)
    numbers, vectors = np.linalg.eigh(ops.number)
    rows = []
    for sector in range(dim):
        members = np.where(np.abs(numbers - sector) < 1e-6)[0]
        basis = vectors[:, members]
        projections = np.linalg.eigvalsh(np.conj(basis.T) @ ops.s2 @ basis)
        casimir = par.hbar ** 2 * (sector / 2.0) * (sector / 2.0 + 1.0)
        rows.extend(spin.SpinSpectrumRow(sector, float(m), casimir) for m in projections)
    return rows


@pytest.mark.parametrize(
    "par", [PAR, ps.PhysParams(2.54, 0.41, 0.28), ps.PhysParams(1.61, 1.48, 2.05)]
)
@pytest.mark.parametrize("dim", [2, 3, 8, 16, 24])
def test_spectrum_rows_equal_the_number_eigensolve(dim, par):
    # equal within the oracle's own roundoff: its occupations are sqrt(n) sqrt(n)
    rows = spin.spin_spectrum(dim, par)
    reference = _spectrum_by_number_eigensolve(dim, par)
    assert [(r.sector, r.casimir) for r in rows] == [(r.sector, r.casimir) for r in reference]
    gap = np.array([r.projection for r in rows]) - [r.projection for r in reference]
    assert np.abs(gap).max() <= par.hbar * np.spacing(float(dim))


@pytest.mark.parametrize("dim", [2, 3, 32, 45])
def test_projections_are_exact_half_integers_at_natural_units(dim):
    rows = spin.spin_spectrum(dim, PAR)
    expected = [(sector, 2 * n1 - sector) for sector in range(dim) for n1 in range(sector + 1)]
    assert [(r.sector, 2 * r.projection) for r in rows] == expected


def test_eigenvalue_relabelling():
    assert spin.lambda_relation(2.0, PAR) == pytest.approx(0.75, abs=1e-14)
    assert spin.lambda_relation(1.0, PAR) == 0.0
    assert spin.lambda_relation(3.0, PAR) == pytest.approx(2.0, abs=1e-14)


def test_relabelling_domain():
    with pytest.raises(DomainError):
        spin.lambda_relation(0.5, PAR)


def test_eigenvector_components():
    state = spin.spin_eigenvector(2, 1, DIM)
    index = 2 * DIM + 1
    assert state[index] == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert np.abs(np.delete(state, index)).max() == 0.0
    assert np.abs(OPS.number @ state - 3.0 * state).max() < 1e-13


def test_eigenvector_truncation_guard():
    with pytest.raises(OutOfTruncation):
        spin.spin_eigenvector(DIM, 0, DIM)


def test_vacuum_eigenvector():
    state = spin.spin_eigenvector(0, 0, DIM)
    assert state[0] == 1.0
    assert np.abs(state[1:]).max() == 0.0
