"""Round trips and format contracts for the CSV/JSON exports."""

import json

import numpy as np

from phaseq import fock, io
from phaseq import phasespace as ps
from phaseq import schrodinger as sc
from phaseq import spin

PAR = ps.NATURAL


def test_phase_density_round_trip(tmp_path):
    grid = ps.default_grid(4.0, 32)
    density = ps.gaussian_density(grid, PAR, q0=0.5, p0=-0.25)
    io.save_phase_density(density, tmp_path / "field")
    loaded = io.load_phase_density(tmp_path / "field")
    assert loaded.grid == grid
    assert np.abs(loaded.values - density.values).max() < 1e-15
    meta = json.loads((tmp_path / "field.json").read_text())
    assert set(meta) == {"q_min", "q_max", "p_min", "p_max", "n_q", "n_p", "time"}


def test_wavefunction_round_trip(tmp_path):
    grid = sc.PositionGrid(-8.0, 8.0, 64)
    state = sc.coherent_state(grid, PAR, q0=0.5, p0=1.0)
    io.save_wavefunction(state, tmp_path / "state")
    loaded = io.load_wavefunction(tmp_path / "state")
    assert loaded.grid == grid
    assert np.abs(loaded.values - state.values).max() < 1e-15
    header = (tmp_path / "state.csv").read_text().splitlines()[0]
    assert header == "q,re,im"


def test_spectrum_csv_contract(tmp_path):
    path = io.save_spectrum_csv(tmp_path / "spectrum.csv", fock.ho_spectrum(4, PAR))
    lines = path.read_text().splitlines()
    assert lines[0] == "index,energy,trusted"
    rows = [line.split(",") for line in lines[1:]]
    values = [float(r[1]) for r in rows[:3]]
    assert np.abs(np.array(values) - [0.5, 1.5, 2.5]).max() < 1e-12
    assert [r[2] for r in rows] == ["1", "1", "1", "0"]


def test_spin_csv_contract(tmp_path):
    rows = [r for r in spin.spin_spectrum(2, PAR) if r.sector <= 1]
    path = io.save_spin_csv(tmp_path / "spin.csv", rows, PAR.hbar)
    lines = path.read_text().splitlines()
    assert lines[0] == "N,two_s,m_over_hbar,s_squared_over_hbar2,complete_flag"
    assert len(lines) == 1 + 3  # N=0 once, N=1 twice
    first = lines[1].split(",")
    assert first[0] == "0" and first[4] == "1"
