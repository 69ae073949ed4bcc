"""Closed-loop benchmark of the phaseq command line.

    python3 perfbench/run.py --workload verify|evolve|spin --seed N \\
        --seconds S --trace 0|1

``BENCHMARK.json`` declares ``verify`` and ``evolve``; ``spin`` runs the
same way by hand.  Run it from the root of a phaseq checkout; it imports
phaseq from ``src``.  One client runs one CLI child process at a time, each
starting after the previous one ended, until the children have run for S
seconds.  Every output is checked (see ``checks``).  Each child runs one
BLAS thread: on a two-CPU machine a second thread makes neither declared
workload faster, but it busy-waits on the CPU the client needs, which makes
the timings follow the scheduler.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
input twice, traced and untraced in alternating order, and prints the
per-layer metrics from the traced children (see ``spans``).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric with its
unit and the machine facts and sample counts behind them.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
INVOCATION_TIMEOUT_S = 90.0
TAIL_BEYOND = 10
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "invocation_s_p50": "s",
    "invocation_s_tail": "s",
    "completed_per_s": "1/s",
    "cpu_s_p50": "s",
    "peak_rss_mb": "MB",
}

# Functions whose own cost the per-layer metrics single out.
FUNCTION_SELF_S = (
    "phasespace.liouville_propagate",
    "wigner.wavefunction_to_slice",
    "wigner.wigner_inverse",
    "wigner.wigner_forward",
    "schrodinger.split_step_evolve",
    "io.save_phase_density",
    "spin.two_mode_operators",
    "spin.spin_spectrum",
)
FUNCTION_TOTAL_S = ("schrodinger.equivalence_report", "report.run_suite")
CALLS_PER_INVOCATION = (
    "wigner.wavefunction_to_slice",
    "phasespace.liouville_propagate",
    "schrodinger.split_step_evolve",
)
NS_PER_WORK = {
    "phasespace.liouville_propagate.ns_per_point": "phasespace.liouville_propagate",
    "wigner.wavefunction_to_slice.ns_per_point": "wigner.wavefunction_to_slice",
    "schrodinger.split_step_evolve.ns_per_step_point": "schrodinger.split_step_evolve",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in spans.LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))},
    **{f"{name}.self_s": "s" for name in FUNCTION_SELF_S},
    **{f"{name}.total_s": "s" for name in FUNCTION_TOTAL_S},
    **{f"{name}.calls_per_invocation": "count" for name in CALLS_PER_INVOCATION},
    **{name: "ns" for name in NS_PER_WORK},
    "io.bytes_written": "B",
    "io.mb_per_s": "MB/s",
    "report.entries_completed": "count",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
    "verify_failed_entries": "count",
    "density_err_max": "abs",
    "equivalence_l2_max": "abs",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stderr: str


@dataclass(frozen=True)
class Sample:
    invocation: workloads.Invocation
    traced: bool
    run: ChildRun
    outcome: checks.Outcome
    spans: list
    import_s: float | None


def run_child(cmd: list[str], cwd: Path, env: dict, timeout: float) -> ChildRun:
    """Run one child to its end; wall time, rusage CPU and peak RSS from wait4."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (cwd / "stderr.txt").read_text(errors="replace")
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode, stderr)


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile that still has ``beyond`` samples above it.

    Returns (value, percentile, samples above it).  The value is the order
    statistic of rank n - beyond, so exactly ``beyond`` samples lie above
    it.  With 2 * ``beyond`` or fewer samples that order statistic lies at
    or below the median, so no tail percentile qualifies, and the largest
    sample stands in as percentile 100 with none above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= 2 * beyond:
        return ordered[-1], 100.0, 0
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, beyond


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for variable in BLAS_THREAD_VARIABLES:
        env[variable] = str(threads)
    return env


def check_import(root: Path, env: dict, work: Path) -> None:
    """Fail unless the children import phaseq from this checkout's src."""
    probe = subprocess.run(
        [sys.executable, "-c", "import phaseq.cli; print(phaseq.cli.__file__)"],
        cwd=work, env=env, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S,
    )
    expected = (root / "src" / "phaseq" / "cli.py").resolve()
    found = probe.stdout.strip()
    if probe.returncode != 0 or not found or Path(found).resolve() != expected:
        raise BenchmarkError(f"children do not import phaseq from {expected}: "
                             f"{(probe.stderr or found).strip()[-300:]}")


def measure_setup(env: dict, work: Path) -> float:
    """Wall time of a fresh interpreter importing phaseq.cli."""
    run = run_child([sys.executable, "-c", "import phaseq.cli"], work, env, INVOCATION_TIMEOUT_S)
    if run.returncode != 0:
        raise BenchmarkError(f"import phaseq.cli failed: {run.stderr.strip()[-300:]}")
    return run.wall_s


def run_invocation(workload: str, invocation: workloads.Invocation, traced: bool,
                   work: Path, env: dict) -> Sample:
    directory = work / f"{invocation.index:05d}-{'traced' if traced else 'plain'}"
    directory.mkdir(parents=True)
    try:
        if invocation.config is not None:
            (directory / "config.json").write_text(json.dumps(invocation.config))
        spans_path = directory / "spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                   str(invocation.index), "--", *invocation.argv]
        else:
            cmd = [sys.executable, "-m", "phaseq", *invocation.argv]
        run = run_child(cmd, directory, env, INVOCATION_TIMEOUT_S)
        outcome = checks.check(workload, invocation.expect, run.returncode, run.stderr, directory)
        recorded, import_s = [], None
        if traced:
            try:
                recorded, extra = spans.load_spans(spans_path)
                import_s = extra["import_s"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                outcome = checks.Outcome("invalid", f"traced child left no spans: {exc}")
        return Sample(invocation, traced, run, outcome, recorded, import_s)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def closed_loop(workload: str, seed: int, seconds: float, traced: bool,
                work: Path, env: dict) -> tuple[list[Sample], list[float]]:
    """Run invocations back to back until children have run ``seconds``.

    The time counted is the time a child was in flight, from spawn to reap;
    the benchmark's own output checks run between children and are not
    counted.  In a traced run each input runs traced and untraced, the order
    alternating from one input to the next.

    The ``SETUP_REPEATS`` set-up measurements are spread evenly over the
    counted time, so that they see the same machine as the invocations.
    """
    samples: list[Sample] = []
    setup: list[float] = []
    busy = 0.0
    for invocation in workloads.stream(workload, seed):
        while len(setup) < SETUP_REPEATS and busy >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(measure_setup(env, work))
        if busy >= seconds:
            break
        modes = (True, False) if invocation.index % 2 == 0 else (False, True)
        for mode in (modes if traced else (False,)):
            sample = run_invocation(workload, invocation, mode, work, env)
            busy += sample.run.wall_s
            samples.append(sample)
    return samples, setup


def _completed(samples: list[Sample]) -> list[Sample]:
    return [s for s in samples if s.outcome.status == "completed"]


def end_to_end_metrics(samples: list[Sample], setup: list[float]) -> tuple[dict, dict]:
    done = _completed(samples)
    if not done:
        raise BenchmarkError("no invocation completed")
    walls = [s.run.wall_s for s in done]
    tail_value, percentile, above = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "invocation_s_p50": statistics.median(walls),
        "invocation_s_tail": tail_value,
        "completed_per_s": len(done) / sum(s.run.wall_s for s in samples),
        "cpu_s_p50": statistics.median(s.run.cpu_s for s in done),
        "peak_rss_mb": max(s.run.rss_mb for s in samples),
    }
    details = {"timed_samples": len(walls), "tail_percentile": percentile,
               "tail_samples_above": above}
    return metrics, details


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def outcome_metrics(samples: list[Sample]) -> dict:
    done = _completed(samples)
    entries = [s.outcome.failed_entries for s in done if s.outcome.failed_entries is not None]
    errors = [s.outcome.density_err for s in done if s.outcome.density_err is not None]
    distances = [s.outcome.l2_distance for s in done if s.outcome.l2_distance is not None]
    return {
        "failed_ratio": _ratio(len(samples) - len(done), len(samples)),
        "verify_failed_entries": _ratio(sum(entries), len(entries)),
        "density_err_max": max(errors, default=0.0),
        "equivalence_l2_max": max(distances, default=0.0),
    }


def per_layer_metrics(samples: list[Sample]) -> tuple[dict, dict]:
    traced = [s for s in samples if s.traced and s.import_s is not None]
    if not traced:
        raise BenchmarkError("no traced invocation left spans")
    n = len(traced)
    recorded = [span for s in traced for span in s.spans]
    own = spans.self_times(recorded)
    metrics = spans.layer_metrics(recorded, n, own)
    totals = {name: spans.function_totals(recorded, name, own)
              for name in {*FUNCTION_SELF_S, *FUNCTION_TOTAL_S, *CALLS_PER_INVOCATION,
                           *NS_PER_WORK.values()}}
    for name in FUNCTION_SELF_S:
        metrics[f"{name}.self_s"] = totals[name]["self_s"] / n
    for name in FUNCTION_TOTAL_S:
        metrics[f"{name}.total_s"] = totals[name]["total_s"] / n
    for name in CALLS_PER_INVOCATION:
        metrics[f"{name}.calls_per_invocation"] = totals[name]["calls"] / n
    for metric, name in NS_PER_WORK.items():
        metrics[metric] = 1e9 * _ratio(totals[name]["self_s"], totals[name]["work"])
    io_spans = [span for span in recorded if span.layer == "io"]
    written = sum(span.work for span in io_spans if span.work is not None)
    io_seconds = sum(own[(span.invocation, span.id)] for span in io_spans)
    metrics["io.bytes_written"] = written / n
    metrics["io.mb_per_s"] = _ratio(written / 1e6, io_seconds)
    metrics["report.entries_completed"] = totals["report.run_suite"]["work"] / n
    metrics["cli.import_s"] = statistics.median(s.import_s for s in traced)

    pairs = {}
    for s in _completed(samples):
        pairs.setdefault(s.invocation.index, {})[s.traced] = s.run.wall_s
    both = [p for p in pairs.values() if len(p) == 2]
    metrics["trace.overhead_ratio"] = (
        statistics.median(p[True] for p in both) / statistics.median(p[False] for p in both) - 1.0
        if both else 0.0
    )
    metrics.update(outcome_metrics(samples))
    details = {"traced_invocations": n, "paired_invocations": len(both), "spans": len(recorded)}
    return metrics, details


def _blas_facts() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return {"numpy_config": "unavailable"}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                               text=True, timeout=30,
                               env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return probe.stdout.strip() if probe.returncode == 0 else "unknown"


def provenance(root: Path, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_facts(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "phaseq_numba_env": os.environ.get("PHASEQ_NUMBA"),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "client": "closed loop, 1 client, 1 child process at a time",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the phaseq CLI")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "phaseq" / "cli.py").is_file():
        print(f"perfbench: no src/phaseq/cli.py under {root}; run from a phaseq checkout",
              file=sys.stderr)
        return 2
    env = child_env(root, BLAS_THREADS)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_import(root, env, work)
        samples, setup = closed_loop(args.workload, args.seed, args.seconds, bool(args.trace), work, env)
        if args.trace:
            metrics, details = per_layer_metrics(samples)
            units = PER_LAYER
        else:
            metrics, details = end_to_end_metrics(samples, setup)
            units = END_TO_END
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    invalid = [s for s in samples if s.outcome.status == "invalid"]
    counts = {status: sum(s.outcome.status == status for s in samples)
              for status in ("completed", "aborted", "invalid")}
    details.update(attempted=len(samples), **counts, setup_repeats=len(setup))
    print("provenance " + json.dumps(provenance(root, args), sort_keys=True))
    print("samples " + json.dumps(details, sort_keys=True))
    for sample in invalid[:5]:
        print(f"invalid invocation {sample.invocation.index} {list(sample.invocation.argv)}: "
              f"{sample.outcome.reason}")
    width = max(map(len, units))
    for name, unit in units.items():
        print(f"  {name:<{width}}  {metrics[name]:.6g} {unit}")
    result = {
        "correct": not invalid,
        "attempted": len(samples),
        "failed": len(invalid),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
