"""Round trips and format contracts for the CSV/JSON exports."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseq import fock, io
from phaseq import phasespace as ps
from phaseq import schrodinger as sc
from phaseq import spin
from phaseq.cli import main

PAR = ps.NATURAL
ODD = ps.PhysParams(2.54, 0.41, 0.28)


def test_phase_density_round_trip(tmp_path):
    grid = ps.default_grid(4.0, 32)
    density = ps.gaussian_density(grid, PAR, q0=0.5, p0=-0.25)
    io.save_phase_density(density, tmp_path / "field")
    loaded = io.load_phase_density(tmp_path / "field")
    assert loaded.grid == grid
    assert np.array_equal(loaded.values, density.values)
    meta = json.loads((tmp_path / "field.json").read_text())
    assert set(meta) == {"q_min", "q_max", "p_min", "p_max", "n_q", "n_p", "time"}


def test_wavefunction_round_trip(tmp_path):
    grid = ps.PositionGrid(-8.0, 8.0, 64)
    state = sc.coherent_state(grid, PAR, q0=0.5, p0=1.0)
    io.save_wavefunction(state, tmp_path / "state")
    loaded = io.load_wavefunction(tmp_path / "state")
    assert loaded.grid == grid
    assert np.array_equal(loaded.values, state.values)
    header = (tmp_path / "state.csv").read_text().splitlines()[0]
    assert header == "q,re,im"
    meta = json.loads((tmp_path / "state.json").read_text())
    assert set(meta) == {"q_min", "q_max", "n", "time"}


def test_spectrum_csv_contract(tmp_path):
    path = io.save_spectrum_csv(tmp_path / "spectrum.csv", fock.ho_spectrum(4, PAR))
    lines = path.read_text().splitlines()
    assert lines[0] == "index,energy,trusted"
    rows = [line.split(",") for line in lines[1:]]
    values = [float(r[1]) for r in rows[:3]]
    assert np.abs(np.array(values) - [0.5, 1.5, 2.5]).max() < 1e-12
    assert [r[2] for r in rows] == ["1", "1", "1", "0"]


def test_spin_csv_contract(tmp_path):
    rows = spin.spin_spectrum(2)
    path = io.save_spin_csv(tmp_path / "spin.csv", rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "N,two_s,m_over_hbar,s_squared_over_hbar2,complete_flag"
    assert len(lines) == 1 + 3  # N=0 once, N=1 twice
    first = lines[1].split(",")
    assert first[0] == "0" and first[4] == "1"


def _csv_text(tmp_dir, values):
    """What the writer gives for ``values`` as one column, one line per value."""
    path = tmp_dir / "column.csv"
    io._write_csv(path, np.asarray(values, dtype=np.float64).reshape(-1, 1))
    return path.read_text().splitlines()


# exact ties at the 17th significant digit
_TIES = [804716931479497.625, -804716931479497.625, 100000000000000.125,
         1000000000000000.25, 2.0 ** -25, 3 * 2.0 ** -25]
# 10**16 times this value has the fraction 1/2 - 2**-36, inside the margin
# where the fast path defers to Python.
_NEAR_TIE = 1.0000062106173428
_MIN_SUBNORMAL = 5e-324
_MAX = np.finfo(np.float64).max
_EDGES = [
    0.0, -0.0, _MIN_SUBNORMAL, -_MIN_SUBNORMAL, _MAX, -_MAX, 2.2250738585072014e-308,
    1e16, 1e17, 9999999999999998.0, 99999999999999984.0, 1.0000000000000002e17,
    1e-5, 1e-4, np.nextafter(1e-5, 0), np.nextafter(1e-4, 0), np.nextafter(1e-4, 1),
    np.nextafter(1e16, 0), np.nextafter(1e17, 0), np.nextafter(1e17, np.inf),
    1e100, -1e-100, 1.2345678901234567e-300, 1e280, 1e-280, 1e281, 1e-281,
    np.nextafter(1e280, np.inf), np.nextafter(1e-280, 0), 1.5e300, -3e-310,
    *_TIES, _NEAR_TIE, -_NEAR_TIE,
    1.0, -1.0, 0.1, 0.5, 123456.0, 2.0 ** 60, 1e23, np.nan, np.inf, -np.inf,
]


def test_writer_formats_edge_values_and_powers_of_ten_as_python_does(tmp_path):
    powers = np.array([s * 10.0 ** k for k in range(-323, 309) for s in (1, -1)])
    away = np.copysign(np.inf, powers)
    values = [*_EDGES, *powers, *np.nextafter(powers, 0), *np.nextafter(powers, away)]
    assert _csv_text(tmp_path, values) == ["%.17g" % v for v in values]


_FINITE_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
).filter(np.isfinite)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.one_of(_FINITE_BITS, st.floats(allow_nan=False)), min_size=1, max_size=64))
def test_writer_matches_python_on_float64_bit_patterns(tmp_path_factory, values):
    tmp_dir = tmp_path_factory.getbasetemp()
    assert _csv_text(tmp_dir, values) == ["%.17g" % v for v in values]


def test_fast_path_settles_nearly_every_density_cell():
    grid = ps.default_grid(8.0, 128)
    values = ps.gaussian_density(grid, PAR, q0=0.7, p0=-1.1).values.ravel()
    _, _, certain = io._decimal_digits(values, io._tables())
    assert certain[values != 0].mean() > 0.999
    _, _, certain = io._decimal_digits(np.array([*_TIES, _NEAR_TIE]), io._tables())
    assert not certain.any()


@pytest.mark.parametrize("block_cells", [1, 7, 64, io._BLOCK_CELLS])
def test_writer_blocks_join_into_savetxt_bytes(tmp_path, monkeypatch, block_cells):
    monkeypatch.setattr(io, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(3)
    table = rng.normal(size=(37, 11)) * 10.0 ** rng.integers(-30, 30, size=(37, 11))
    table[::5, ::3] = 0.0
    io._write_csv(tmp_path / "ours.csv", table, header="a,b")
    np.savetxt(tmp_path / "oracle.csv", table, fmt="%.17g", delimiter=",", header="a,b",
               comments="")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# np.savetxt is the reference each file must match byte for byte.

@pytest.mark.parametrize("par", [PAR, ODD], ids=["natural", "odd"])
def test_phase_density_bytes_match_savetxt(tmp_path, par):
    grid = ps.default_grid(6.0, 64)
    density = ps.gaussian_density(grid, par, q0=0.7, p0=-1.1)
    csv_path, _ = io.save_phase_density(density, tmp_path / "field")
    np.savetxt(tmp_path / "oracle.csv", density.values, delimiter=",", fmt="%.17g")
    assert csv_path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("par", [PAR, ODD], ids=["natural", "odd"])
def test_wavefunction_bytes_match_savetxt(tmp_path, par):
    grid = ps.PositionGrid(-8.0, 8.0, 64)
    state = sc.coherent_state(grid, par, q0=0.5, p0=1.0)
    csv_path, _ = io.save_wavefunction(state, tmp_path / "state")
    table = np.column_stack([grid.q, state.values.real, state.values.imag])
    np.savetxt(tmp_path / "oracle.csv", table, delimiter=",", fmt="%.17g", header="q,re,im",
               comments="")
    assert csv_path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("par", [PAR, ODD], ids=["natural", "odd"])
def test_spectrum_csv_bytes_match_savetxt(tmp_path, par):
    spectrum = fock.ho_spectrum(16, par)
    path = io.save_spectrum_csv(tmp_path / "spectrum.csv", spectrum)
    table = np.column_stack([np.arange(16), spectrum.energies, spectrum.trusted])
    np.savetxt(tmp_path / "oracle.csv", table, delimiter=",", fmt=["%d", "%.17g", "%d"],
               header="index,energy,trusted", comments="")
    assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("par", [PAR, ODD], ids=["natural", "odd"])
def test_spin_csv_bytes_match_savetxt(tmp_path, par):
    # The rows are in units of hbar, so the file the spin command writes under
    # any (m, omega, hbar) is savetxt of the same parameter-free rows.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": {"m": par.m, "omega": par.omega, "hbar": par.hbar}}))
    path = tmp_path / "spin.csv"
    assert main(["spin", "--config", str(config), "--n-max", "4", "--out", str(path)]) == 0
    rows = spin.spin_spectrum(5)
    table = np.array([[r.sector, r.sector, r.m, r.s_squared, 1] for r in rows])
    np.savetxt(tmp_path / "oracle.csv", table, delimiter=",",
               fmt=["%d", "%d", "%.17g", "%.17g", "%d"],
               header="N,two_s,m_over_hbar,s_squared_over_hbar2,complete_flag", comments="")
    assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
