"""Time the Liouville transport layer and write BENCH_transport.json.

    python benchmarks/bench_transport.py [--parent SRC] [--out BENCH_transport.json]

Each row times ``phasespace.liouville_propagate`` of a Gaussian density
centred at (0.7, -1.1) on the square (q, p/m omega) lattice of
``phasespace.default_grid(10, n, par)``: q on [-10, 10) and p on m omega
times that.  The rows are n in {256, 512, 1024} at the angles omega t in
{0.3, 1.234, 3.0, -2.5, pi/2} in natural units, plus one row at
(m, omega, hbar) = (2.54, 0.41, 0.28).  Every row runs once
to warm up, then REPEATS times; it records the min and the median in
milliseconds.

The tree of this script is measured as "change".  ``--parent`` names the
``src`` directory of another checkout, measured as "parent" side by side.
Each side runs in its own interpreter with one BLAS thread, alternating
sides grid by grid so that host drift falls on both.  The lattice comes
from ``default_grid(extent, n, par)``, whose signature and lattice are the
same in every tree since the square lattice landed, so both sides run the
same rows.  Each run appends one record, parent and change, to the list in
--out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIZES = (256, 512, 1024)
ANGLES = (0.3, 1.234, 3.0, -2.5, math.pi / 2.0)
EXTENT = 10.0
CENTRE = (0.7, -1.1)
NON_NATURAL = ((2.54, 0.41, 0.28), 1024, 3.0)
REPEATS = 5
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _rows(n: int) -> list[tuple[tuple, float]]:
    rows = [((1.0, 1.0, 1.0), angle) for angle in ANGLES]
    params, size, angle = NON_NATURAL
    if n == size:
        rows.append((params, angle))
    return rows


def measure(n: int) -> list[dict]:
    """Min and median ms of the transport at each row of grid size n."""
    from phaseq import phasespace as ps

    results = []
    for params, angle in _rows(n):
        par = ps.PhysParams(*params)
        grid = ps.default_grid(EXTENT, n, par)
        density = ps.gaussian_density(grid, par, *CENTRE)
        times = []
        for _ in range(1 + REPEATS):
            start = time.perf_counter()
            ps.liouville_propagate(density, angle / par.omega, par)
            times.append(1e3 * (time.perf_counter() - start))
        times = times[1:]  # the first run warms up
        results.append({
            "n": n, "m": params[0], "omega": params[1], "hbar": params[2], "omega_t": angle,
            "min_ms": round(min(times), 2), "median_ms": round(statistics.median(times), 2),
        })
    return results


def _run_side(src: Path, n: int) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src), **ONE_THREAD)
    out = subprocess.run([sys.executable, __file__, "--measure", str(n)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="src directory of the checkout to compare")
    parser.add_argument("--out", type=Path, default=Path("BENCH_transport.json"))
    parser.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        json.dump(measure(args.measure), sys.stdout)
        return 0

    import numpy

    sides = {"change": Path(__file__).resolve().parent.parent / "src"}
    if args.parent:
        sides = {"parent": args.parent.resolve(), **sides}
    rows = {side: [] for side in sides}
    for i, n in enumerate(SIZES):
        for side in list(sides)[::(-1) ** i]:
            rows[side].extend(_run_side(sides[side], n))
    record = {
        "layer": "phasespace.liouville_propagate",
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "blas_threads": 1},
        "repeats": REPEATS,
        "warmups": 1,
        "extent": EXTENT,
        "lattice": "q on [-extent, extent), p on m omega times that",
        "centre": list(CENTRE),
        "sides": rows,
    }
    records = json.loads(args.out.read_text()) if args.out.exists() else []
    args.out.write_text(json.dumps([*records, record], indent=2) + "\n")
    for side in sides:
        for row in rows[side]:
            print(f"{side:7s} n={row['n']:5d} (m, w, hbar)=({row['m']}, {row['omega']}, "
                  f"{row['hbar']}) wt={row['omega_t']:+.4f}  min {row['min_ms']:8.2f} ms  "
                  f"median {row['median_ms']:8.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
