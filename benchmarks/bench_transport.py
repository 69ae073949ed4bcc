"""Time the Liouville transport and state-density layers and write BENCH_transport.json.

    python benchmarks/bench_transport.py [--parent SRC] [--out BENCH_transport.json]

Each transport row times ``phasespace.liouville_propagate`` of a Gaussian
density centred at (0.7, -1.1) on the square (q, p/m omega) lattice of
``phasespace.default_grid(10, n, par)``: q on [-10, 10) and p on m omega
times that.  The rows are n in {256, 512, 1024} at the angles omega t in
{0.3, 1.234, 3.0, -2.5, pi/2} in natural units, plus one row at
(m, omega, hbar) = (2.54, 0.41, 0.28).  At each n one more row times
``wigner.wavefunction_to_density`` of the coherent state centred at
(0.7, -1.1) on the natural lattice.  Every row runs once to warm up, then
REPEATS times; it records the min and the median in milliseconds, and the
peak of one more call traced by tracemalloc in MiB (the arrays it
allocates beyond its input).

The tree of this script is measured as "change".  ``--parent`` names the
``src`` directory of another checkout, measured as "parent" side by side.
Each side runs in its own interpreter with one BLAS thread, alternating
sides grid by grid so that host drift falls on both.  The lattice comes
from ``default_grid(extent, n, par)``, whose signature and lattice are the
same in every tree since the square lattice landed, so both sides run the
same rows.  Each run appends one record per layer, parent and change, to
the list in --out.
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
import tracemalloc
from pathlib import Path

SIZES = (256, 512, 1024)
ANGLES = (0.3, 1.234, 3.0, -2.5, math.pi / 2.0)
EXTENT = 10.0
CENTRE = (0.7, -1.1)
NON_NATURAL = ((2.54, 0.41, 0.28), 1024, 3.0)
REPEATS = 5
TRANSPORT = "phasespace.liouville_propagate"
DENSITY = "wigner.wavefunction_to_density"
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _rows(n: int) -> list[tuple[tuple, float]]:
    rows = [((1.0, 1.0, 1.0), angle) for angle in ANGLES]
    params, size, angle = NON_NATURAL
    if n == size:
        rows.append((params, angle))
    return rows


def _timed(call) -> dict:
    """Min and median ms of REPEATS calls after one warm-up, and the traced peak MiB of one."""
    times = []
    for _ in range(1 + REPEATS):
        start = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - start))
    times = times[1:]  # the first run warms up
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"min_ms": round(min(times), 2), "median_ms": round(statistics.median(times), 2),
            "peak_mib": round(peak / 2 ** 20, 2)}


def measure(n: int) -> dict[str, list[dict]]:
    """The rows of each layer at grid size n."""
    from phaseq import phasespace as ps
    from phaseq import schrodinger as sc
    from phaseq import wigner as wg

    transport = []
    for params, angle in _rows(n):
        par = ps.PhysParams(*params)
        grid = ps.default_grid(EXTENT, n, par)
        density = ps.gaussian_density(grid, par, *CENTRE)
        transport.append({
            "n": n, "m": params[0], "omega": params[1], "hbar": params[2], "omega_t": angle,
            **_timed(lambda: ps.liouville_propagate(density, angle / par.omega, par)),
        })
    grid = ps.default_grid(EXTENT, n, ps.NATURAL)
    state = sc.coherent_state(grid.line, ps.NATURAL, *CENTRE)
    density = {"n": n, "m": 1.0, "omega": 1.0, "hbar": 1.0,
               **_timed(lambda: wg.wavefunction_to_density(state, grid, ps.NATURAL))}
    return {TRANSPORT: transport, DENSITY: [density]}


def _run_side(src: Path, n: int) -> dict[str, list[dict]]:
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
    rows = {layer: {side: [] for side in sides} for layer in (TRANSPORT, DENSITY)}
    for i, n in enumerate(SIZES):
        for side in list(sides)[::(-1) ** i]:
            for layer, layer_rows in _run_side(sides[side], n).items():
                rows[layer][side].extend(layer_rows)
    common = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "blas_threads": 1},
        "repeats": REPEATS,
        "warmups": 1,
        "extent": EXTENT,
        "lattice": "q on [-extent, extent), p on m omega times that",
        "centre": list(CENTRE),
    }
    records = json.loads(args.out.read_text()) if args.out.exists() else []
    records += [{"layer": layer, **common, "sides": rows[layer]} for layer in rows]
    args.out.write_text(json.dumps(records, indent=2) + "\n")
    for layer in rows:
        for side in sides:
            for row in rows[layer][side]:
                angle = f" wt={row['omega_t']:+.4f}" if "omega_t" in row else ""
                print(f"{layer} {side:7s} n={row['n']:5d} (m, w, hbar)=({row['m']}, "
                      f"{row['omega']}, {row['hbar']}){angle}  min {row['min_ms']:8.2f} ms  "
                      f"median {row['median_ms']:8.2f} ms  peak {row['peak_mib']:7.2f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
