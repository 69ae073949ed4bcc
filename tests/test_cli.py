"""Exit codes, file outputs, and determinism of the command-line harness."""

import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phaseq
from phaseq import cli, io, report
from phaseq.cli import main
from phaseq.phasespace import NATURAL, default_grid
from phaseq.schrodinger import coherent_state, equivalence_report, hermite_eigenstate


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["verify", "--config", str(tmp_path / "nope.json"), "--out",
                 str(tmp_path / "report.json")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_bad_config_content_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"grid": {"n": 37}}')
    code = main(["verify", "--config", str(config), "--out", str(tmp_path / "r.json")])
    assert code == 2


# m w^2 q^2 overflows in the evolver's potential phase, though q^2 alone does not.
OVERFLOW_AT_1E154 = '{"grid": {"extent": 1e154}, "params": {"m": 4, "omega": 4, "hbar": 0.25}}'

# The split-step phase overflows at the default grid, so only the commands that
# build that grid refuse this config.
TINY_MASS = '{"params": {"m": 1e-320}}'

# Momenta outside this grid's window (-8, 8): the phase grid aliases them, even
# p0 = 12, which the line's Nyquist momentum 12.57 would still hold.
EVOLVE_64 = '{"grid": {"extent": 8, "n": 64}}'
WINDOW_8 = "outside the grid's momentum window (-8, 8)"

# Each case exits 2 at parse time, before any field is allocated.
MALFORMED = [
    ("verify", '{"params": [1]}', [], "params must be a JSON object"),
    ("verify", '{"grid": 5}', [], "grid must be a JSON object"),
    ("verify", '{"grid": {"extent": NaN}}', [], "extent must be a finite number"),
    ("verify", '{"params": {"omega": Infinity}}', [], "omega must be a finite number"),
    ("verify", '{"params": {"m": true}}', [], "m must be a finite number"),
    ("verify", '{"params": {"hbar": "1"}}', [], "hbar must be a finite number"),
    ("verify", '{"params": {"m": -1}}', [], "m must be positive"),
    ("verify", '{"seed": -1}', [], "seed must be nonnegative"),
    ("verify", '{"seed": 1.5}', [], "seed must be an integer"),
    ("verify", '{"truncation": true}', [], "truncation must be a finite number"),
    ("verify", '{"spin_n_max": 7}', [], "unknown configuration keys"),
    ("verify", '{"grid": {"points": 512}}', [], "unknown grid keys"),
    ("verify", '{"grid": {"n": 4096}}', [], "grid point count 4096"),
    ("verify", '{"truncation": 2049}', [], "truncation 2049"),
    ("verify", '{"truncation": 100000}', [], "truncation 100000"),
    ("evolve", '{"grid": {"n": 4096}}', ["--state", "eigenstate:0", "--time", "1"], "MiB limit"),
    ("spectrum", None, ["--cutoff", "2049"], "--cutoff 2049"),
    ("spectrum", None, ["--cutoff", "100000"], "outside the admitted truncations 2..2048"),
    ("spin", None, ["--n-max", "45"], "--n-max 45"),
    ("verify", '{"grid": {"extent": 1e200}}', [], "overflows the split-step phase"),
    ("verify", OVERFLOW_AT_1E154, [], "overflows the split-step phase"),
    ("evolve", '{"grid": {"extent": 1e200}}', ["--state", "eigenstate:0", "--time", "1"],
     "overflows the split-step phase"),
    ("evolve", OVERFLOW_AT_1E154, ["--state", "eigenstate:0", "--time", "1"],
     "overflows the split-step phase"),
    # spin rows hold no hbar, yet spin still refuses a malformed one
    ("spin", '{"params": {"hbar": 0}}', ["--n-max", "3"], "hbar must be positive"),
    ("spin", '{"params": {"hbar": -1}}', ["--n-max", "3"], "hbar must be positive"),
    ("spin", '{"params": {"hbar": Infinity}}', ["--n-max", "3"], "hbar must be a finite number"),
    ("spin", '{"params": {"hbar": "1"}}', ["--n-max", "44"], "hbar must be a finite number"),
    ("spectrum", '{"params": {"hbar": 1e300, "omega": 1e9}}', ["--cutoff", "4"],
     "overflows float64"),
    ("spectrum", '{"params": {"hbar": 1e300, "omega": 1e6}}', ["--cutoff", "2048"],
     "overflows float64"),
    # a state wholly off the grid has norm 0
    ("evolve", None, ["--state", "coherent:1e200,0", "--time", "1"], "has norm 0 on the grid"),
    ("evolve", None, ["--state", "coherent:-1e200,0", "--time", "1"], "has norm 0 on the grid"),
    # a momentum outside the grid's window aliases in the transforms
    ("evolve", EVOLVE_64, ["--state", "coherent:0,40", "--time", "1"], WINDOW_8),
    ("evolve", EVOLVE_64, ["--state", "coherent:0,1e300", "--time", "1"], WINDOW_8),
    ("evolve", EVOLVE_64, ["--state", "coherent:0,12", "--time", "1"], WINDOW_8),
    ("evolve", EVOLVE_64, ["--state", "coherent:0,-8", "--time", "1"], WINDOW_8),
    # files that are not UTF-8 text, or nest too deep for the JSON decoder
    pytest.param("verify", b"\xff\xfe{}", [], "cannot read configuration", id="not-utf8"),
    pytest.param("verify", "[" * 100_000, [], "cannot read configuration", id="nested-1e5-deep"),
    # the commands that build the configured grid refuse it where the split step overflows
    pytest.param("verify", TINY_MASS, [], "overflows the split-step phase", id="verify-tiny-m"),
    pytest.param("evolve", TINY_MASS, ["--state", "eigenstate:0", "--time", "1"],
                 "overflows the split-step phase", id="evolve-tiny-m"),
    # each parameter is admitted alone, but the oscillator scales they make are not
    ("verify", '{"params": {"m": 1.7e308, "omega": 1e-300, "hbar": 1e-300}, '
               '"grid": {"extent": 0.001, "n": 4}, "truncation": 16}',
     [], "hbar omega is 0, not a normal float64"),
    ("verify", '{"params": {"m": 1e-20, "omega": 1000, "hbar": 1e-320}, '
               '"grid": {"extent": 3.7, "n": 16}, "truncation": 2}',
     [], "hbar omega is 9.99989e-318, not a normal float64"),
    # the kinetic phase, formed as p (p / 2m) with no (hbar k)^2 to underflow, overflows
    ("verify", '{"params": {"m": 3.45313e-246, "omega": 2.85308e-292, "hbar": 1.68282e-166}, '
               '"grid": {"extent": 3.02696, "n": 4}}',
     [], "overflows the split-step phase"),
    ("verify", '{"params": {"m": 0.0045602, "omega": 9.36837e147, "hbar": 1.76434e-218}, '
               '"grid": {"extent": 1.37035e-177, "n": 32}}',
     [], "hbar/(m omega) is 0, not a normal float64"),
]


@pytest.mark.parametrize("command, config, extra, message", MALFORMED)
def test_malformed_or_oversize_input_exits_2(tmp_path, capsys, command, config, extra, message):
    out = tmp_path / "out"
    argv = [command, *extra, "--out", str(out)]
    if config is not None:
        path = tmp_path / "config.json"
        if isinstance(config, bytes):
            path.write_bytes(config)
        else:
            path.write_text(config)
        argv += ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("argv, rows", [(["spin", "--n-max", "3"], 10),
                                        (["spectrum", "--cutoff", "4"], 4)],
                         ids=["spin", "spectrum"])
def test_exports_ignore_the_bound_of_a_grid_they_never_build(tmp_path, argv, rows):
    config = tmp_path / "config.json"
    config.write_text(TINY_MASS)
    out = tmp_path / "export.csv"
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + rows


def test_evolve_completes_at_extent_1e154(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"grid": {"extent": 1e154, "n": 64}}')
    out = tmp_path / "run"
    argv = ["evolve", "--state", "coherent:1,0", "--time", "1", "--config", str(config),
            "--out", str(out), "--no-timestamp"]
    assert main(argv) == 0
    assert (out / "density_t1.csv").exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_spectrum_contract(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--cutoff", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,energy,trusted"
    energies = [float(line.split(",")[1]) for line in lines[1:4]]
    assert energies == pytest.approx([0.5, 1.5, 2.5], abs=1e-12)


def test_spectrum_small_cutoff(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--cutoff", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    trusted = [line.split(",")[2] for line in lines[1:]]
    assert trusted == ["1", "0"]


def test_spectrum_rejects_bad_cutoff(tmp_path):
    assert main(["spectrum", "--cutoff", "1", "--out", str(tmp_path / "s.csv")]) == 2


def test_spin_rows(tmp_path):
    out = tmp_path / "spin.csv"
    assert main(["spin", "--n-max", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][:2] == ["0", "0"]
    projections = sorted(float(r[2]) for r in rows[1:])
    assert projections == [-0.5, 0.5]
    assert float(rows[1][3]) == 0.75


def test_spin_row_count(tmp_path):
    out = tmp_path / "spin.csv"
    assert main(["spin", "--n-max", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) - 1 == sum(n + 1 for n in range(4))


def test_spin_single_row(tmp_path):
    out = tmp_path / "spin.csv"
    assert main(["spin", "--n-max", "0", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_spin_at_the_admitted_cap(tmp_path):
    out = tmp_path / "spin.csv"
    assert main(["spin", "--n-max", "44", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) - 1 == sum(n + 1 for n in range(45)) == 1035


def test_spectrum_at_the_admitted_cutoff(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--cutoff", "2048", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2048
    assert [row[2] for row in rows[-2:]] == ["1", "0"]
    assert [float(row[1]) for row in rows[-2:]] == pytest.approx([2046.5, 2047.0], rel=1e-15)


# the rows count in units of hbar, so every hbar gives the same exact rows
@pytest.mark.parametrize("hbar", [1.5e-154, 5e152, 1e160, 1e-300, 0.28, 3.7])
def test_spin_at_the_admitted_hbar_range(tmp_path, hbar):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": {"hbar": hbar}}))
    out = tmp_path / "spin.csv"
    assert main(["spin", "--n-max", "44", "--config", str(config), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 1035
    for row in rows:
        half = int(row[0]) / 2.0
        assert (2 * float(row[2])).is_integer()
        assert float(row[3]) == half * (half + 1.0)


def test_spectrum_at_the_admitted_scale(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"params": {"hbar": 1e300, "omega": 2e6}}')
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--cutoff", "64", "--config", str(config), "--out", str(out)]) == 0
    energies = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:4]]
    assert energies == pytest.approx([1e306, 3e306, 5e306], rel=1e-12)


def test_spin_rejects_negative(tmp_path):
    assert main(["spin", "--n-max", "-1", "--out", str(tmp_path / "s.csv")]) == 2


@pytest.mark.parametrize("argv", [["spectrum", "--cutoff", "4"], ["spin", "--n-max", "2"]])
def test_untimestamped_exports_refuse_no_timestamp(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-timestamp", "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-timestamp" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_evolve_malformed_state(tmp_path, capsys):
    code = main(["evolve", "--state", "coherent:", "--time", "1.0",
                 "--out", str(tmp_path / "run")])
    assert code == 2


def test_evolve_unknown_state(tmp_path):
    assert main(["evolve", "--state", "squeezed:1", "--time", "1.0",
                 "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("time", ["nan", "inf"])
def test_evolve_rejects_non_finite_time(tmp_path, capsys, time):
    out = tmp_path / "run"
    assert main(["evolve", "--state", "eigenstate:0", "--time", time, "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_refuses_step_count_above_limit(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["evolve", "--state", "eigenstate:0", "--time", "1e300", "--out", str(out)]) == 2
    assert "split steps" in capsys.readouterr().err
    assert not out.exists()


def _small_config(tmp_path, n=64):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"extent": 8, "n": n}}))
    return config


def test_evolve_outputs(tmp_path):
    # default 256-point grid: the stationarity tolerance is pinned there
    out = tmp_path / "run"
    code = main(["evolve", "--state", "eigenstate:0", "--time", "1.3",
                 "--out", str(out), "--no-timestamp"])
    assert code == 0
    for name in ("wavefunction_t0.csv", "wavefunction_t1.csv",
                 "density_t0.csv", "density_t1.csv", "equivalence.json"):
        assert (out / name).exists()
    payload = json.loads((out / "equivalence.json").read_text())
    assert payload["l2_distance"] < 1e-3
    # stationary state: exported densities agree
    import numpy as np

    t0 = np.loadtxt(out / "density_t0.csv", delimiter=",")
    t1 = np.loadtxt(out / "density_t1.csv", delimiter=",")
    assert np.abs(t1 - t0).max() < 1e-6


def test_evolve_coherent_period(tmp_path):
    config = _small_config(tmp_path)
    out = tmp_path / "run"
    code = main(["evolve", "--state", "coherent:1,0", "--time", str(2.0 * 3.141592653589793),
                 "--config", str(config), "--out", str(out), "--no-timestamp"])
    assert code == 0
    payload = json.loads((out / "equivalence.json").read_text())
    assert payload["l2_distance"] < 1e-3


def test_verify_passes_and_reports(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--out", str(out), "--no-timestamp"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert len(payload["entries"]) >= 20
    by_id = {entry["equation_id"]: entry for entry in payload["entries"]}
    for required in ("Eq.16", "Eq.21", "Eq.23-literal", "Eq.25-literal", "Eq.48-literal"):
        assert by_id[required]["status"] == "reported"
        assert isinstance(by_id[required]["residual"], float)
    for entry in payload["entries"]:
        if entry["status"] == "fail":
            assert entry["module"] and entry["operation"]


def test_verify_deterministic_output(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert main(["verify", "--out", str(first), "--no-timestamp"]) == 0
    assert main(["verify", "--out", str(second), "--no-timestamp"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_equivalence_grows_on_coarse_grid(tmp_path):
    coarse_config = _small_config(tmp_path, n=64)
    coarse_out = tmp_path / "coarse.json"
    fine_out = tmp_path / "fine.json"
    assert main(["verify", "--config", str(coarse_config), "--out", str(coarse_out),
                 "--no-timestamp"]) == 0
    assert main(["verify", "--out", str(fine_out), "--no-timestamp"]) == 0

    def equivalence_residual(path):
        payload = json.loads(path.read_text())
        return next(e["residual"] for e in payload["entries"] if e["equation_id"] == "Eq.12")

    assert equivalence_residual(coarse_out) >= 3.0 * equivalence_residual(fine_out)


@pytest.fixture
def forks(monkeypatch):
    """Record the pid of every child os.fork starts, as seen by the parent."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _assert_reaped(pids):
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def _evolve_argv(tmp_path, state="eigenstate:0", time="1.0"):
    return ["evolve", "--state", state, "--time", time,
            "--config", str(_small_config(tmp_path)), "--no-timestamp"]


LONG_NAME = "x" * 300  # above the 255-byte limit of a file name

# Each --out cannot be written: (command, --out, what to create first, path
# the error line names).  A trailing "/" creates a directory, anything else
# an empty file.  The "run" case makes the forked density_t0 writer fail.
BAD_OUT = [
    (["verify"], "missing_dir/r.json", None, "missing_dir/r.json"),
    (["spectrum", "--cutoff", "4"], "missing_dir/s.csv", None, "missing_dir/s.csv"),
    (["spin", "--n-max", "2"], "missing_dir/s.csv", None, "missing_dir/s.csv"),
    (["evolve"], "taken", "taken", "taken"),
    (["evolve"], "run", "run/density_t0.csv/", "run/density_t0.csv"),
    (["verify"], "a_dir", "a_dir/", "a_dir"),
    (["spectrum", "--cutoff", "4"], "a_dir", "a_dir/", "a_dir"),
    (["spin", "--n-max", "2"], "a_dir", "a_dir/", "a_dir"),
    *(pytest.param(command, LONG_NAME, None, LONG_NAME, id=f"{command[0]}-long-name")
      for command in (["verify"], ["spectrum", "--cutoff", "4"], ["spin", "--n-max", "2"],
                      ["evolve"])),
]


def _refuse_work(*args, **kwargs):
    raise AssertionError("the computation ran before the output path was checked")


@pytest.mark.parametrize("command, out, existing, named", BAD_OUT)
def test_unwritable_output_exits_2(tmp_path, capfd, monkeypatch, command, out, existing, named):
    if named == out:
        # a fault in --out itself is refused before any computation; one in
        # a file under it is found only when that file is written
        monkeypatch.setattr(report, "run_suite", _refuse_work)
        for name in ("equivalence_report", "ho_spectrum", "spin_spectrum"):
            monkeypatch.setattr(cli, name, _refuse_work)
    if existing is not None:
        path = tmp_path / existing
        if existing.endswith("/"):
            path.mkdir(parents=True)
        else:
            path.write_text("")
    argv = _evolve_argv(tmp_path) if command == ["evolve"] else command
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    captured = capfd.readouterr()
    assert f"error: cannot write {tmp_path / named}" in captured.err
    assert "Traceback" not in captured.err
    assert "written" not in captured.out


@pytest.mark.parametrize("command", [
    ["verify"], ["spectrum", "--cutoff", "4"], ["spin", "--n-max", "2"],
    ["evolve", "--state", "eigenstate:0", "--time", "1"],
], ids=["verify", "spectrum", "spin", "evolve"])
def test_over_long_config_name_exits_2(tmp_path, capfd, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--config", LONG_NAME]) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"error: cannot read configuration {LONG_NAME}")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_evolve_reaps_writer_when_own_write_fails(tmp_path, capfd, forks):
    out = tmp_path / "run"
    (out / "wavefunction_t0.csv").mkdir(parents=True)
    assert main([*_evolve_argv(tmp_path), "--out", str(out)]) == 2
    _assert_reaped(forks)
    assert f"cannot write {out / 'wavefunction_t0.csv'}" in capfd.readouterr().err
    assert (out / "density_t0.json").exists()


def test_evolve_forks_with_one_live_thread(tmp_path, monkeypatch):
    # a fork copies only the calling thread: the transport worker of
    # equivalence_report must have been joined before the writer forks
    live = []
    real_fork = os.fork

    def fork():
        live.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    argv = _evolve_argv(tmp_path, "coherent:1,0", "2.9")
    assert main([*argv, "--out", str(tmp_path / "run")]) == 0
    assert live == [1]


@pytest.mark.parametrize("state, time, build", [
    ("coherent:0.7,-1.1", 1.234, lambda line: coherent_state(line, NATURAL, 0.7, -1.1)),
    ("eigenstate:3", 2.1, lambda line: hermite_eigenstate(3, line, NATURAL)),
])
def test_evolve_files_match_sequential_writes(tmp_path, forks, state, time, build):
    out = tmp_path / "run"
    assert main([*_evolve_argv(tmp_path, state, repr(time)), "--out", str(out)]) == 0
    _assert_reaped(forks)

    grid = default_grid(8.0, 64, NATURAL)
    phi = build(grid.line)
    comparison = equivalence_report(phi, time, NATURAL, grid)
    expected = tmp_path / "expected"
    expected.mkdir()
    io.save_wavefunction(phi, expected / "wavefunction_t0")
    io.save_phase_density(comparison.initial, expected / "density_t0")
    io.save_wavefunction(comparison.evolved, expected / "wavefunction_t1")
    io.save_phase_density(comparison.transported, expected / "density_t1")

    names = sorted(path.name for path in expected.iterdir())
    assert sorted(path.name for path in out.iterdir()) == sorted([*names, "equivalence.json"])
    for name in names:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
    payload = json.loads((out / "equivalence.json").read_text())
    assert payload["l2_distance"] == comparison.l2_distance
    assert payload["max_distance"] == comparison.max_distance


def test_cli_import_leaves_out_multiprocessing():
    """Importing the CLI neither loads multiprocessing nor builds the CSV
    writer's tables, which only a write needs."""
    src = str(Path(phaseq.__file__).resolve().parents[1])
    script = ("import sys, phaseq.cli; "
              "print('multiprocessing' in sys.modules, phaseq.io._tables.cache_info().currsize)")
    probe = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert probe.stdout.split() == ["False", "0"]


# Every positive float64 the config admits, log-uniform in its exponent.
_SCALE = st.floats(math.log10(1e-320), math.log10(1.7e308)).map(lambda x: 10.0 ** x)

_FUZZ_CONFIG = st.fixed_dictionaries({
    "params": st.fixed_dictionaries({"m": _SCALE, "omega": _SCALE, "hbar": _SCALE}),
    "grid": st.fixed_dictionaries({"extent": _SCALE, "n": st.sampled_from([4, 8, 16])}),
    "truncation": st.sampled_from([2, 16, 64]),
})

_FUZZ_STATE = st.one_of(
    st.integers(0, 3).map(lambda level: f"eigenstate:{level}"),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(
        lambda centre: f"coherent:{centre[0]!r},{centre[1]!r}"),
)


# With the p window scaled by m omega and the Gaussian's exponent written in
# p, not in p / m omega, these squared a momentum above 1e154 and warned.
@example(command="verify", state="eigenstate:0", time=0.1, config={
    "params": {"m": 9.09274e+252, "omega": 0.00174063, "hbar": 235.766},
    "grid": {"extent": 1.403, "n": 4}, "truncation": 16})
@example(command="verify", state="eigenstate:0", time=0.1, config={
    "params": {"m": 3.16686e+171, "omega": 126.01, "hbar": 9.42932e-17},
    "grid": {"extent": 9.1273e-164, "n": 16}, "truncation": 16})
# The energy's p^2 at a p window of 1.6e154 overflowed where p (p / 2m) does not.
@example(command="verify", state="eigenstate:0", time=0.1, config={
    "params": {"m": 2e153, "omega": 1.0, "hbar": 2e153},
    "grid": {"extent": 1000.0, "n": 4}, "truncation": 16})
@settings(derandomize=True, max_examples=400, deadline=None)
@given(command=st.sampled_from(["verify", "spectrum", "spin", "evolve"]), config=_FUZZ_CONFIG,
       state=_FUZZ_STATE, time=st.sampled_from([0.05, 0.5, 1.234]))
def test_no_input_escapes_as_a_traceback_or_a_warning(command, config, state, time):
    """Any admitted number ends in a report or one error line, never in an
    exception, an unknown exit code or a numpy warning."""
    extra = {
        "verify": ["--no-timestamp"],
        "spectrum": ["--cutoff", str(config["truncation"])],
        "spin": ["--n-max", "3"],
        "evolve": ["--no-timestamp", "--state", state, "--time", repr(time)],
    }[command]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        stderr = StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(stderr), \
                redirect_stdout(StringIO()):
            warnings.simplefilter("always")
            code = main([command, *extra, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    assert all(line.startswith(("error:", "discarding"))
               for line in stderr.getvalue().splitlines())
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
