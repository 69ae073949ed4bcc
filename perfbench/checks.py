"""Output checks for each workload.

A check classifies one finished invocation:

``completed``
    phaseq produced its complete output and every check passed.
``aborted``
    exit 1 with an ``error:`` message and no output, on an input whose
    workload marks an abort as a known outcome today (see ``workloads``).
``invalid``
    anything else: a traceback, an unexpected exit code, a missing, partial
    or malformed output, or an output that disagrees with the reference.
    Only these count as failed operations of the benchmark.

The checkers read the files phaseq wrote and compare them with references
computed here from the generated input (or, for an eigenstate, which the
flow leaves unchanged, with its own initial density), never with phaseq's
own code.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VERIFY_ENTRIES = 58
EQUATION_ID = re.compile(r"Eq\.\d+[a-z]*(-literal)?")
VERIFY_STATUSES = {"pass", "fail", "reported"}
EQUIVALENCE_ENTRY = "Eq.12"

# Largest accepted |F(q, p, t) - reference| on the evolve workload's 1024^2
# grid, where the density peaks at 1/(pi hbar) ~ 0.32.  Transport error
# there is ~3e-9 for coherent states and ~1e-7 for the n = 4 eigenstate
# today, so the gate sits above both and far below any visible change.
DENSITY_TOLERANCE = 1e-6
# Largest accepted deviation of spin rows from their half-integer ladder.
SPIN_TOLERANCE = 1e-9

WAVEFUNCTION_KEYS = {"q_min", "q_max", "n", "time"}
DENSITY_KEYS = {"q_min", "q_max", "p_min", "p_max", "n_q", "n_p", "time"}


class CheckFailed(Exception):
    """An output broke the CLI's documented behaviour or its reference."""


@dataclass(frozen=True)
class Outcome:
    status: str                         # "completed" | "aborted" | "invalid"
    reason: str = ""
    failed_entries: int | None = None   # verify: entries with status "fail"
    density_err: float | None = None    # evolve: max |density_t1 - reference|
    l2_distance: float | None = None    # equivalence L2 distance phaseq reports


def check(workload: str, expect: dict, returncode: int, stderr: str, workdir: Path) -> Outcome:
    """Classify one invocation from its exit code, stderr and output files."""
    if "Traceback (most recent call last)" in stderr:
        return Outcome("invalid", "traceback on stderr")
    try:
        return _CHECKERS[workload](expect, returncode, stderr, Path(workdir))
    except CheckFailed as exc:
        return Outcome("invalid", str(exc))


def _aborted(expect: dict, returncode: int, stderr: str) -> Outcome:
    if not expect.get("may_abort"):
        raise CheckFailed(f"exit {returncode} without complete output")
    if returncode != 1 or not stderr.strip().startswith("error:"):
        raise CheckFailed(f"abort with exit {returncode} and no error message")
    return Outcome("aborted", stderr.strip().splitlines()[-1])


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path.name} does not parse: {exc}") from exc


def check_verify(expect: dict, returncode: int, stderr: str, workdir: Path) -> Outcome:
    report = workdir / "report.json"
    if not report.exists():
        return _aborted(expect, returncode, stderr)
    payload = _load_json(report)
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise CheckFailed("report has no entry list")
    ids = [entry.get("equation_id", "") for entry in entries if isinstance(entry, dict)]
    if len(ids) != VERIFY_ENTRIES or not all(EQUATION_ID.fullmatch(i) for i in ids):
        raise CheckFailed(f"report has {len(entries)} entries, expected {VERIFY_ENTRIES} Eq.* ids")
    if len(set(ids)) != len(ids):
        raise CheckFailed("report repeats an equation id")
    statuses = [entry.get("status") for entry in entries]
    if not set(statuses) <= VERIFY_STATUSES:
        raise CheckFailed(f"unknown entry status in {sorted(set(map(str, statuses)))}")
    failures = statuses.count("fail")
    if returncode != (1 if failures else 0):
        raise CheckFailed(f"exit {returncode} with {failures} failing entries")
    if payload.get("passed") is not (failures == 0):
        raise CheckFailed("report 'passed' disagrees with its entries")
    l2 = next((e.get("residual") for e in entries if e["equation_id"] == EQUIVALENCE_ENTRY), None)
    if not (isinstance(l2, (int, float)) and math.isfinite(l2)):
        raise CheckFailed(f"{EQUIVALENCE_ENTRY} residual {l2!r} is not a finite number")
    return Outcome("completed", failed_entries=failures, l2_distance=float(l2))


def _load_csv(path: Path, skiprows: int = 0) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name} does not parse: {exc}") from exc


def _sidecar(path: Path, keys: set) -> dict:
    meta = _load_json(path)
    if not isinstance(meta, dict) or not keys <= set(meta):
        raise CheckFailed(f"{path.name} lacks keys {sorted(keys)}")
    return meta


def _load_wavefunction(stem: Path) -> np.ndarray:
    meta = _sidecar(stem.with_suffix(".json"), WAVEFUNCTION_KEYS)
    try:
        with stem.with_suffix(".csv").open() as handle:
            header = handle.readline().rstrip("\n")
    except OSError as exc:
        raise CheckFailed(f"{stem.name}.csv cannot be read: {exc}") from exc
    if header != "q,re,im":
        raise CheckFailed(f"{stem.name}.csv lacks its q,re,im header")
    table = _load_csv(stem.with_suffix(".csv"), skiprows=1)
    if table.shape != (meta["n"], 3) or not np.all(np.isfinite(table)):
        raise CheckFailed(f"{stem.name}.csv has shape {table.shape}, expected ({meta['n']}, 3)")
    return table


def _load_density(stem: Path) -> tuple[dict, np.ndarray]:
    meta = _sidecar(stem.with_suffix(".json"), DENSITY_KEYS)
    values = _load_csv(stem.with_suffix(".csv"))
    if values.shape != (meta["n_q"], meta["n_p"]) or not np.all(np.isfinite(values)):
        raise CheckFailed(f"{stem.name}.csv has shape {values.shape}, expected "
                          f"({meta['n_q']}, {meta['n_p']})")
    return meta, values


def coherent_density(meta: dict, q0: float, p0: float, t: float) -> np.ndarray:
    """Closed-form coherent-state density centred on the Hamilton flow at t.

    Natural units: the flow rotates (q0, p0) by the angle t, and the density
    is exp(-(q - qc)^2 - (p - pc)^2) normalised by the same trapezoidal rule
    phaseq uses for mass.
    """
    c, s = math.cos(t), math.sin(t)
    qc, pc = q0 * c + p0 * s, p0 * c - q0 * s
    dq = (meta["q_max"] - meta["q_min"]) / meta["n_q"]
    dp = (meta["p_max"] - meta["p_min"]) / meta["n_p"]
    q = meta["q_min"] + dq * np.arange(meta["n_q"])
    p = meta["p_min"] + dp * np.arange(meta["n_p"])
    values = np.exp(-((q[:, None] - qc) ** 2) - (p[None, :] - pc) ** 2)
    mass = np.trapezoid(np.trapezoid(values, dx=dp, axis=1), dx=dq)
    return values / mass


def check_evolve(expect: dict, returncode: int, stderr: str, workdir: Path) -> Outcome:
    out = workdir / "out"
    if returncode != 0:
        return _aborted(expect, returncode, stderr)
    for stem in ("wavefunction_t0", "wavefunction_t1"):
        _load_wavefunction(out / stem)
    meta0, density0 = _load_density(out / "density_t0")
    meta1, density1 = _load_density(out / "density_t1")
    grid = expect["grid"]
    for meta in (meta0, meta1):
        if (meta["n_q"], meta["q_min"], meta["q_max"]) != (grid["n"], -grid["extent"], grid["extent"]):
            raise CheckFailed("density sidecar grid differs from the requested grid")
    if meta1["time"] != expect["time"]:
        raise CheckFailed(f"density_t1 time {meta1['time']!r} is not {expect['time']!r}")
    if expect["state"] == "coherent":
        reference = coherent_density(meta1, expect["q0"], expect["p0"], expect["time"])
    else:
        reference = density0
    error = float(np.abs(density1 - reference).max())
    if not error <= DENSITY_TOLERANCE:
        raise CheckFailed(f"density_t1 is {error:.3e} from its reference "
                          f"(tolerance {DENSITY_TOLERANCE:.0e})")
    summary = _load_json(out / "equivalence.json")
    l2 = summary.get("l2_distance") if isinstance(summary, dict) else None
    if not (isinstance(l2, (int, float)) and math.isfinite(l2)):
        raise CheckFailed(f"equivalence.json l2_distance {l2!r} is not a finite number")
    return Outcome("completed", density_err=error, l2_distance=float(l2))


SPIN_HEADER = "N,two_s,m_over_hbar,s_squared_over_hbar2,complete_flag"


def check_spin(expect: dict, returncode: int, stderr: str, workdir: Path) -> Outcome:
    path = workdir / "spin.csv"
    if returncode != 0 or not path.exists():
        return _aborted(expect, returncode, stderr)
    lines = path.read_text().splitlines()
    if not lines or lines[0] != SPIN_HEADER:
        raise CheckFailed("spin.csv lacks its header")
    sectors: dict[int, list[float]] = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 5:
            raise CheckFailed(f"spin row {line!r} does not have five fields")
        try:
            sector, two_s, flag = int(fields[0]), int(fields[1]), int(fields[4])
            m, s_squared = float(fields[2]), float(fields[3])
        except ValueError as exc:
            raise CheckFailed(f"spin row {line!r} does not parse") from exc
        if flag != 1:
            continue
        half = sector / 2.0
        if two_s != sector or abs(s_squared - half * (half + 1.0)) > SPIN_TOLERANCE:
            raise CheckFailed(f"sector {sector} row has 2s={two_s}, s^2={s_squared!r}")
        sectors.setdefault(sector, []).append(m)
    n_max = expect["n_max"]
    if sorted(sectors) != list(range(n_max + 1)):
        raise CheckFailed(f"complete sectors {sorted(sectors)} are not 0..{n_max}")
    for sector, projections in sectors.items():
        ladder = np.arange(sector + 1) - sector / 2.0
        if len(projections) != sector + 1 or np.abs(np.sort(projections) - ladder).max() > SPIN_TOLERANCE:
            raise CheckFailed(f"sector {sector} projections are not -N/2..N/2")
    return Outcome("completed")


_CHECKERS = {"verify": check_verify, "evolve": check_evolve, "spin": check_spin}
