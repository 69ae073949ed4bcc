"""Tests of the benchmark itself: inputs, statistics, spans and output checks.

    python3 -m pytest perfbench/tests
"""

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from phaseq.cli import main as phaseq_main

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# workload generation
# ---------------------------------------------------------------------------

def _take(workload, seed, count):
    return list(itertools.islice(workloads.stream(workload, seed), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_are_deterministic_per_seed(workload):
    first = _take(workload, 7, 24)
    assert first == _take(workload, 7, 24)
    assert first != _take(workload, 8, 24)
    assert [inv.index for inv in first] == list(range(24))
    assert all("/" not in arg for inv in first for arg in inv.argv)


def _octant(params):
    middle = math.sqrt(workloads.PARAM_RANGE[0] * workloads.PARAM_RANGE[1])
    return tuple(params[key] >= middle for key in ("m", "omega", "hbar"))


def test_verify_minority_is_stratified_over_the_parameter_cube():
    stream = _take("verify", 3, 64)
    for block in range(0, 64, workloads.VERIFY_BLOCK):
        natural = [inv.expect["natural"] for inv in stream[block:block + workloads.VERIFY_BLOCK]]
        assert natural.count(False) == 1
    odd = [inv.config["params"] for inv in stream if not inv.expect["natural"]]
    assert len(odd) == 16
    for start in (0, 8):
        assert len({_octant(p) for p in odd[start:start + 8]}) == 8
    low, high = workloads.PARAM_RANGE
    assert all(low <= value <= high for p in odd for value in p.values())
    assert all(inv.expect["may_abort"] is not inv.expect["natural"] for inv in stream)


def test_evolve_mix_and_angles():
    stream = _take("evolve", 5, 60)
    quarter = math.pi / 2
    kinds = []
    for inv in stream:
        time = inv.expect["time"]
        assert float(inv.argv[inv.argv.index("--time") + 1]) == time
        turns = time / quarter
        exact = abs(turns - round(turns)) < 1e-12
        if inv.expect["state"] == "eigenstate":
            assert 0 <= inv.expect["n"] <= workloads.MAX_EIGENSTATE
            kinds.append("eigenstate")
            assert not exact
        else:
            assert math.hypot(inv.expect["q0"], inv.expect["p0"]) <= workloads.COHERENT_RADIUS
            kinds.append("turn" if exact else "generic")
        if not exact:
            assert abs(turns - round(turns)) * quarter >= workloads.ANGLE_MARGIN - 1e-12
        assert 0 < time <= 2 * math.pi
    for block in range(0, 60, len(workloads.EVOLVE_BLOCK)):
        assert sorted(kinds[block:block + 6]) == sorted(workloads.EVOLVE_BLOCK)
        assert {slot for slot in range(6) if kinds[block + slot] != "generic"} == \
            set(workloads.EVOLVE_SPECIAL_SLOTS)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.stream("nope", 1)


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

def test_tail_keeps_ten_samples_above():
    samples = [float(x) for x in range(30, 0, -1)]
    value, percentile, above = run.tail(samples)
    assert value == 20.0
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert above == 10


def test_tail_at_twenty_one_samples_is_just_above_the_median():
    value, percentile, above = run.tail([float(x) for x in range(21, 0, -1)])
    assert (value, above) == (11.0, 10)
    assert percentile == pytest.approx(100 * 11 / 21)


def test_tail_without_enough_samples_falls_back_to_the_largest():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(x) for x in range(10)]) == (9.0, 100.0, 0)
    # 11 to 20 samples: rank n - 10 would sit at or below the median.
    assert run.tail([float(x) for x in range(11)]) == (10.0, 100.0, 0)
    assert run.tail([float(x) for x in range(20)]) == (19.0, 100.0, 0)
    with pytest.raises(ValueError):
        run.tail([])


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def _span(i, name, start, end, parent=None, invocation=0, error=False, work=None):
    return spans.Span(i, name, start, end, parent, invocation, error, work)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "report.run_suite", 1.0, 4.0, parent=0),
        _span(2, "wigner.wigner_forward", 3.0, 6.0, parent=0),      # overlaps span 1
        _span(3, "phasespace.hamiltonian", 2.0, 3.0, parent=1),
        _span(4, "fock.number_state", 9.5, 11.0, parent=0),         # runs past its parent
        _span(0, "cli.main", 100.0, 101.0, invocation=1),           # same id, next invocation
    ]
    own = spans.self_times(recorded)
    assert own[(0, 0)] == pytest.approx(10.0 - 5.0 - 0.5)
    assert own[(0, 1)] == pytest.approx(2.0)
    assert own[(0, 3)] == pytest.approx(1.0)
    assert own[(1, 0)] == pytest.approx(1.0)


def test_layer_metrics_count_errors_leaving_a_layer():
    recorded = [
        _span(0, "cli.main", 0.0, 4.0),
        _span(1, "report.run_suite", 0.5, 3.5, parent=0, error=True),
        _span(2, "schrodinger.coherent_state", 1.0, 3.0, parent=1, error=True),
        _span(3, "schrodinger.hermite_eigenstate", 1.5, 2.5, parent=2, error=True),
    ]
    metrics = spans.layer_metrics(recorded, 2, spans.self_times(recorded))
    assert metrics["schrodinger.errors"] == 0.5      # one exit from the layer, two invocations
    assert metrics["report.errors"] == 0.5
    assert metrics["cli.errors"] == 0.0
    assert metrics["schrodinger.calls"] == 1.0
    assert metrics["schrodinger.self_s"] == pytest.approx(2.0 / 2)
    assert metrics["cli.self_s"] == pytest.approx(1.0 / 2)
    assert metrics["io.calls"] == 0.0


def test_traced_child_patches_names_imported_into_the_cli(tmp_path):
    out = tmp_path / "spans.json"
    env = run.child_env(ROOT, 1)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(out), "7", "--",
         "spectrum", "--cutoff", "4", "--out", "spectrum.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    recorded, extra = spans.load_spans(out)
    assert extra["import_s"] > 0
    by_name = {span.name: span for span in recorded}
    assert {span.invocation for span in recorded} == {7}
    command = by_name["cli.cmd_spectrum"]
    assert by_name["fock.ho_spectrum"].parent == command.id
    saved = by_name["io.save_spectrum_csv"]
    assert saved.parent == command.id
    assert saved.work == (tmp_path / "spectrum.csv").stat().st_size
    assert by_name["cli.main"].parent is None


# ---------------------------------------------------------------------------
# output checks on real outputs and corrupted copies
# ---------------------------------------------------------------------------

def _phaseq(workdir, monkeypatch, *argv):
    monkeypatch.chdir(workdir)
    return phaseq_main(list(argv))


@pytest.fixture(scope="module")
def verify_output(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("verify")
    (workdir / "config.json").write_text(json.dumps({"seed": 11}))
    with pytest.MonkeyPatch.context() as monkeypatch:
        code = _phaseq(workdir, monkeypatch, "verify", "--no-timestamp", "--config",
                       "config.json", "--out", "report.json")
    return workdir, code


def test_verify_checker_accepts_a_real_report(verify_output):
    workdir, code = verify_output
    outcome = checks.check("verify", {"may_abort": False}, code, "", workdir)
    assert outcome.status == "completed", outcome.reason
    assert outcome.failed_entries == 0
    assert outcome.l2_distance > 0


def _corrupt_copy(workdir, tmp_path, name, change):
    target = tmp_path / "copy"
    target.mkdir()
    text = (workdir / name).read_text()
    (target / name).write_text(change(text))
    return target


def test_verify_checker_rejects_a_truncated_report(verify_output, tmp_path):
    workdir, code = verify_output
    target = _corrupt_copy(workdir, tmp_path, "report.json", lambda text: text[: len(text) // 2])
    assert checks.check("verify", {"may_abort": True}, code, "", target).status == "invalid"


def test_verify_checker_rejects_a_dropped_entry(verify_output, tmp_path):
    workdir, code = verify_output

    def drop(text):
        payload = json.loads(text)
        payload["entries"].pop()
        return json.dumps(payload)

    target = _corrupt_copy(workdir, tmp_path, "report.json", drop)
    assert checks.check("verify", {}, code, "", target).status == "invalid"


def test_verify_checker_rejects_an_exit_code_that_hides_a_failure(verify_output, tmp_path):
    workdir, code = verify_output

    def fail_one(text):
        payload = json.loads(text)
        payload["entries"][0]["status"] = "fail"
        return json.dumps(payload)

    target = _corrupt_copy(workdir, tmp_path, "report.json", fail_one)
    assert checks.check("verify", {}, 0, "", target).status == "invalid"


def test_aborts_count_only_where_the_workload_expects_them(tmp_path):
    message = "error: boundary magnitude 5.088e-06 of peak exceeds 1e-08\n"
    assert checks.check("verify", {"may_abort": True}, 1, message, tmp_path).status == "aborted"
    assert checks.check("verify", {"may_abort": False}, 1, message, tmp_path).status == "invalid"
    assert checks.check("verify", {"may_abort": True}, 2, message, tmp_path).status == "invalid"
    traceback = "Traceback (most recent call last):\n  ...\nValueError: boom\n"
    assert checks.check("verify", {"may_abort": True}, 1, traceback, tmp_path).status == "invalid"


EVOLVE_GRID = {"extent": 10.0, "n": 512}


@pytest.fixture(scope="module")
def evolve_output(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("evolve")
    (workdir / "config.json").write_text(json.dumps({"grid": EVOLVE_GRID}))
    time = 1.3
    with pytest.MonkeyPatch.context() as monkeypatch:
        code = _phaseq(workdir, monkeypatch, "evolve", "--no-timestamp", "--config",
                       "config.json", "--state", "coherent:1.2,-0.7", "--time", repr(time),
                       "--out", "out")
    expect = {"state": "coherent", "q0": 1.2, "p0": -0.7, "time": time,
              "grid": EVOLVE_GRID, "may_abort": False}
    return workdir, code, expect


def test_evolve_checker_accepts_a_real_evolution(evolve_output):
    workdir, code, expect = evolve_output
    outcome = checks.check("evolve", expect, code, "", workdir)
    assert outcome.status == "completed", outcome.reason
    assert outcome.density_err < checks.DENSITY_TOLERANCE


def _copy_outputs(workdir, tmp_path):
    target = tmp_path / "copy"
    (target / "out").mkdir(parents=True)
    for path in (workdir / "out").iterdir():
        (target / "out" / path.name).write_bytes(path.read_bytes())
    return target


def test_evolve_checker_rejects_a_sign_flipped_density(evolve_output, tmp_path):
    workdir, code, expect = evolve_output
    target = _copy_outputs(workdir, tmp_path)
    csv = target / "out" / "density_t1.csv"
    values = np.loadtxt(csv, delimiter=",")
    np.savetxt(csv, -values, delimiter=",", fmt="%.17g")
    outcome = checks.check("evolve", expect, code, "", target)
    assert outcome.status == "invalid"
    assert "reference" in outcome.reason


def test_evolve_checker_rejects_a_density_at_the_wrong_angle(evolve_output):
    workdir, code, expect = evolve_output
    shifted = dict(expect, time=expect["time"] + 0.05)
    assert checks.check("evolve", shifted, code, "", workdir).status == "invalid"


def test_evolve_checker_rejects_a_missing_sidecar(evolve_output, tmp_path):
    workdir, code, expect = evolve_output
    target = _copy_outputs(workdir, tmp_path)
    (target / "out" / "wavefunction_t1.json").unlink()
    assert checks.check("evolve", expect, code, "", target).status == "invalid"


def test_evolve_checker_compares_eigenstates_with_their_initial_density(tmp_path, monkeypatch):
    (tmp_path / "config.json").write_text(json.dumps({"grid": EVOLVE_GRID}))
    code = _phaseq(tmp_path, monkeypatch, "evolve", "--no-timestamp", "--config", "config.json",
                   "--state", "eigenstate:2", "--time", "2.2", "--out", "out")
    expect = {"state": "eigenstate", "n": 2, "time": 2.2, "grid": EVOLVE_GRID}
    outcome = checks.check("evolve", expect, code, "", tmp_path)
    assert outcome.status == "completed", outcome.reason


@pytest.fixture(scope="module")
def spin_output(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("spin")
    (workdir / "config.json").write_text(
        json.dumps({"params": {"m": 0.3, "omega": 3.7, "hbar": 0.27}}))
    with pytest.MonkeyPatch.context() as monkeypatch:
        code = _phaseq(workdir, monkeypatch, "spin", "--config", "config.json",
                       "--n-max", "7", "--out", "spin.csv")
    return workdir, code


def test_spin_checker_accepts_a_real_spectrum(spin_output):
    workdir, code = spin_output
    outcome = checks.check("spin", {"n_max": 7}, code, "", workdir)
    assert outcome.status == "completed", outcome.reason


@pytest.mark.parametrize("drop", [1, 17, -1])
def test_spin_checker_rejects_a_dropped_row(spin_output, tmp_path, drop):
    workdir, code = spin_output

    def without_row(text):
        lines = text.splitlines()
        del lines[drop]
        return "\n".join(lines) + "\n"

    target = _corrupt_copy(workdir, tmp_path, "spin.csv", without_row)
    assert checks.check("spin", {"n_max": 7}, code, "", target).status == "invalid"


def test_spin_checker_rejects_a_wrong_casimir(spin_output, tmp_path):
    workdir, code = spin_output

    def shift(text):
        lines = text.splitlines()
        fields = lines[5].split(",")
        fields[3] = repr(float(fields[3]) + 1e-6)
        lines[5] = ",".join(fields)
        return "\n".join(lines) + "\n"

    target = _corrupt_copy(workdir, tmp_path, "spin.csv", shift)
    assert checks.check("spin", {"n_max": 7}, code, "", target).status == "invalid"


# ---------------------------------------------------------------------------
# the benchmark's declaration
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_metrics_printed():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == ["verify", "evolve"]
    assert set(workloads.WORKLOADS) == {"verify", "evolve", "spin"}
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_per_layer_names_cover_every_layer():
    for layer, kind in itertools.product(spans.LAYERS, ("calls", "self_s", "errors")):
        assert f"{layer}.{kind}" in run.PER_LAYER
