"""CSV/JSON serialisation of fields and spectra.

Matrix fields go to plain CSV (rows follow the q index ascending, columns
the second index ascending) with a JSON sidecar carrying the grid and time;
1D fields go to column CSV with the same sidecar convention.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .fock import SpectrumResult
from .phasespace import PhaseDensity, PhaseGrid
from .schrodinger import PositionGrid, WaveFunction
from .spin import SpinSpectrumRow

_FLOAT = "%.17g"


def _sidecar_path(stem: Path) -> Path:
    return stem.with_suffix(".json")


def _grid_header(grid: PhaseGrid, time: float) -> dict:
    return {
        "q_min": grid.q_min,
        "q_max": grid.q_max,
        "p_min": grid.p_min,
        "p_max": grid.p_max,
        "n_q": grid.n_q,
        "n_p": grid.n_p,
        "time": time,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_phase_density(density: PhaseDensity, stem) -> tuple[Path, Path]:
    stem = Path(stem)
    csv_path = stem.with_suffix(".csv")
    np.savetxt(csv_path, density.values, delimiter=",", fmt=_FLOAT)
    json_path = _sidecar_path(stem)
    _write_json(json_path, _grid_header(density.grid, density.time))
    return csv_path, json_path


def load_phase_density(stem) -> PhaseDensity:
    stem = Path(stem)
    meta = json.loads(_sidecar_path(stem).read_text())
    grid = PhaseGrid(
        meta["q_min"], meta["q_max"], meta["p_min"], meta["p_max"],
        int(meta["n_q"]), int(meta["n_p"]),
    )
    values = np.loadtxt(stem.with_suffix(".csv"), delimiter=",").reshape(grid.n_q, grid.n_p)
    return PhaseDensity(grid, values, meta["time"])


def save_wavefunction(phi: WaveFunction, stem) -> tuple[Path, Path]:
    stem = Path(stem)
    csv_path = stem.with_suffix(".csv")
    table = np.column_stack([phi.grid.q, phi.values.real, phi.values.imag])
    np.savetxt(csv_path, table, delimiter=",", fmt=_FLOAT, header="q,re,im", comments="")
    json_path = _sidecar_path(stem)
    _write_json(
        json_path,
        {"q_min": phi.grid.q_min, "q_max": phi.grid.q_max, "n": phi.grid.n, "time": phi.time},
    )
    return csv_path, json_path


def load_wavefunction(stem) -> WaveFunction:
    stem = Path(stem)
    meta = json.loads(_sidecar_path(stem).read_text())
    grid = PositionGrid(meta["q_min"], meta["q_max"], int(meta["n"]))
    table = np.loadtxt(stem.with_suffix(".csv"), delimiter=",", skiprows=1)
    return WaveFunction(grid, table[:, 1] + 1j * table[:, 2], meta["time"])


def save_spectrum_csv(path, spectrum: SpectrumResult) -> Path:
    path = Path(path)
    index = np.arange(len(spectrum.energies))
    table = np.column_stack([index, spectrum.energies, spectrum.trusted])
    np.savetxt(path, table, delimiter=",", fmt=["%d", _FLOAT, "%d"],
               header="index,energy,trusted", comments="")
    return path


def save_spin_csv(path, rows: list[SpinSpectrumRow], hbar: float) -> Path:
    path = Path(path)
    table = np.array(
        [[r.sector, r.sector, r.projection / hbar, r.casimir / hbar ** 2, r.complete] for r in rows],
        dtype=np.float64,
    ).reshape(-1, 5)
    np.savetxt(path, table, delimiter=",", fmt=["%d", "%d", _FLOAT, _FLOAT, "%d"],
               header="N,two_s,m_over_hbar,s_squared_over_hbar2,complete_flag", comments="")
    return path
