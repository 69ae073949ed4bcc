"""Run the verify suite away from natural units and print every outcome.

    PYTHONPATH=src python benchmarks/sweep_params.py [--stream]

By default it runs ``report.run_suite`` at DRAWS draws of (m, omega, hbar),
each log-uniform on [0.25, 4] from ``np.random.default_rng(5)``, and prints
each draw's outcome: ``pass``, ``fail`` with the ids of the failing entries,
or ``abort`` with the exception that ended the suite.  The counts follow.

``--stream`` does the same for the non-natural configs of the benchmark's
verify stream (``perfbench.workloads.stream("verify", seed)``, the first
STREAM_LENGTH invocations at each seed in STREAM_SEEDS, each distinct config
once), run through ``cli.main`` as the benchmark runs them.  A run that
leaves no report must print ``error:`` first, or the benchmark counts it as
invalid; such runs are flagged ``INVALID`` and counted.

The package is imported from ``PYTHONPATH``, so pointing it at the ``src``
directory of another checkout sweeps that tree instead.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from phaseq import cli, report
from phaseq.errors import PhaseqError

ROOT = Path(__file__).resolve().parent.parent
DRAWS = 40
STREAM_SEEDS = range(1, 31)
STREAM_LENGTH = 60


def _params(m: float, omega: float, hbar: float) -> str:
    return f"m={m:.6g} omega={omega:.6g} hbar={hbar:.6g}"


def sweep_draws() -> collections.Counter:
    counts = collections.Counter()
    low, high = math.log(0.25), math.log(4.0)
    draws = np.exp(np.random.default_rng(5).uniform(low, high, size=(DRAWS, 3)))
    for m, omega, hbar in draws:
        config = report.SuiteConfig.from_mapping(
            {"params": {"m": float(m), "omega": float(omega), "hbar": float(hbar)}})
        try:
            entries = report.run_suite(config)
        except (PhaseqError, ValueError) as exc:
            outcome = f"abort {type(exc).__name__}: {exc}"
            counts[f"abort {type(exc).__name__}"] += 1
        else:
            failed = ",".join(e.equation_id for e in entries if e.status == report.FAIL)
            outcome = f"fail {failed}" if failed else "pass"
        counts[outcome.split()[0]] += 1
        print(f"{_params(m, omega, hbar)}  {outcome}")
    return counts


def _stream_configs() -> list[dict]:
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    configs = {}
    for seed in STREAM_SEEDS:
        invocations = workloads.stream("verify", seed)
        for _ in range(STREAM_LENGTH):
            config = next(invocations).config
            if "params" in config:
                configs.setdefault(json.dumps(config, sort_keys=True), config)
    return list(configs.values())


def sweep_stream() -> collections.Counter:
    counts = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        config_path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        for config in _stream_configs():
            config_path.write_text(json.dumps(config))
            out.unlink(missing_ok=True)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["verify", "--no-timestamp", "--config", str(config_path),
                                 "--out", str(out)])
            lines = stderr.getvalue().splitlines()
            if out.exists():
                entries = json.loads(out.read_text())["entries"]
                failed = ",".join(e["equation_id"] for e in entries if e["status"] == report.FAIL)
                outcome = f"fail {failed}" if failed else "pass"
            elif lines and lines[0].startswith("error:"):
                outcome = f"abort {lines[0]}"
            else:
                outcome = f"INVALID exit {code}: {lines[:1]}"
            counts[outcome.split()[0]] += 1
            print(f"seed={config['seed']} {_params(**config['params'])}  exit {code}  {outcome}")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stream", action="store_true",
                        help="sweep the benchmark's non-natural verify configs through the CLI")
    args = parser.parse_args(argv)
    counts = sweep_stream() if args.stream else sweep_draws()
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
