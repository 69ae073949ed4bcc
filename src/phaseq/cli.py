"""Command-line harness: verify | spectrum | spin | evolve.

Exit codes: 0 success (all thresholded checks pass), 1 verification failure,
2 usage or configuration error, including an output path that cannot be
written.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import io, report
from .errors import ConfigError, PhaseqError
from .fock import ho_spectrum
from .phasespace import PhaseGrid
from .report import SuiteConfig, bound_truncation
from .schrodinger import coherent_state, default_steps, equivalence_report, hermite_eigenstate
from .spin import spin_spectrum

# Largest split-step count evolve will run: 25,000 periods at the 40-step floor.
MAX_EVOLVE_STEPS = 1_000_000

# Largest sector spin exports; widening the range is a decision of its own.
MAX_N_MAX = 44


def _load_config(path: str | None) -> SuiteConfig:
    if path is None:
        return SuiteConfig()
    file = Path(path)
    try:
        if not file.is_file():
            raise ConfigError(f"configuration file not found: {path}")
        data = json.loads(file.read_text())
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    return SuiteConfig.from_mapping(data)


@contextmanager
def _writing(path: Path):
    """Report a failed write under ``path`` as a ConfigError naming the file."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


def _require_parent_dir(path: Path) -> None:
    """Fail before the work when ``path`` is a directory, its own directory is
    missing, or the file system refuses the name."""
    with _writing(path):
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise ConfigError(f"cannot write {path}: {path.parent} is not a directory")


def _fork_writer(path: Path, write) -> int:
    """Run ``write()`` in a forked child and return the child's pid.

    The child never returns into the caller.  It exits 0 after ``write``,
    2 after printing the ``error:`` line of a failed write under ``path``,
    and 1 after printing the traceback of anything else.  Only the forking
    thread lives on in the child, so ``write`` must not use FFT or BLAS.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        try:
            with _writing(path):
                write()
            code = 0
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except BaseException as exc:  # cannot re-raise: report it, then exit
            sys.excepthook(type(exc), exc, exc.__traceback__)
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _write_report(path: Path, payload: dict, args) -> None:
    """Write a JSON report, stamped with the UTC time unless --no-timestamp."""
    if not args.no_timestamp:
        payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    io.write_json(path, payload)


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    out = Path(args.out or "verify_report.json")
    _require_parent_dir(out)
    entries = report.run_suite(config)
    with _writing(out):
        _write_report(out, report.report_payload(entries, config), args)
    for entry in entries:
        gate = "-" if entry.threshold is None else f"{entry.threshold:.0e}"
        print(
            f"{entry.equation_id:16s} {entry.status:8s} residual={entry.residual:.3e} "
            f"threshold={gate:8s} [{entry.module}.{entry.operation}] {entry.convention}"
        )
    failed = [e for e in entries if e.status == report.FAIL]
    print(f"report written to {out}")
    print(f"{len(entries)} checks, {len(failed)} failed")
    return 0 if not failed else 1


def cmd_spectrum(args) -> int:
    config = _load_config(args.config)
    bound_truncation("--cutoff", args.cutoff)
    hbar_omega = config.params.hbar * config.params.omega
    if not math.isfinite(hbar_omega * args.cutoff):
        raise ConfigError(f"--cutoff {args.cutoff} at hbar omega {hbar_omega:g} overflows float64")
    out = Path(args.out or "spectrum.csv")
    _require_parent_dir(out)
    spectrum = ho_spectrum(args.cutoff, config.params)
    with _writing(out):
        io.save_spectrum_csv(out, spectrum)
    print(f"spectrum written to {out}")
    return 0


def cmd_spin(args) -> int:
    _load_config(args.config)  # refused when malformed, though no value of it enters the rows
    if args.n_max < 0:
        raise ConfigError("--n-max must be nonnegative")
    if args.n_max > MAX_N_MAX:
        raise ConfigError(f"--n-max {args.n_max} is above the largest exported sector, {MAX_N_MAX}")
    out = Path(args.out or "spin_spectrum.csv")
    _require_parent_dir(out)
    rows = spin_spectrum(args.n_max + 1)
    with _writing(out):
        io.save_spin_csv(out, rows)
    print(f"spin spectrum written to {out}")
    return 0


def _parse_state(spec: str, grid: PhaseGrid, config: SuiteConfig):
    kind, _, argument = spec.partition(":")
    try:
        if kind == "eigenstate":
            return hermite_eigenstate(int(argument), grid.line, config.params)
        if kind == "coherent":
            q0_text, p0_text = argument.split(",")
            q0, p0 = float(q0_text), float(p0_text)
            if abs(p0) >= grid.p_max:  # the transforms would alias it into the window
                raise ValueError(f"momentum {p0:g} is outside the grid's momentum window "
                                 f"({grid.p_min:g}, {grid.p_max:g})")
            return coherent_state(grid.line, config.params, q0, p0)
    except (ValueError, PhaseqError) as exc:
        raise ConfigError(f"invalid state specification {spec!r}: {exc}") from exc
    raise ConfigError(f"invalid state specification {spec!r} (use eigenstate:n or coherent:q0,p0)")


def cmd_evolve(args) -> int:
    if not math.isfinite(args.time):
        raise ConfigError(f"--time must be finite, got {args.time}")
    config = _load_config(args.config)
    grid = config.grid()
    try:
        n_steps = default_steps(grid.n_q, args.time, config.params.omega)
    except OverflowError:  # omega * time beyond the float range
        n_steps = math.inf
    if n_steps > MAX_EVOLVE_STEPS:
        raise ConfigError(
            f"--time {args.time} needs {n_steps:.3g} split steps, "
            f"above the limit {MAX_EVOLVE_STEPS}"
        )
    state = _parse_state(args.state, grid, config)
    out_dir = Path(args.out or "evolve_out")
    with _writing(out_dir):
        if out_dir.exists() and not out_dir.is_dir():
            raise ConfigError(f"cannot write {out_dir}: it exists and is not a directory")
    comparison = equivalence_report(state, args.time, config.params, grid)

    payload = {
        "state": args.state,
        "time": args.time,
        "n_steps": comparison.n_steps,
        "grid_points": [grid.n_q, grid.n_p],
        "l2_distance": comparison.l2_distance,
        "max_distance": comparison.max_distance,
    }

    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    # The two densities are the large files: a child writes the first while
    # this process writes everything else.
    density_t0 = out_dir / "density_t0"
    pid = _fork_writer(density_t0, lambda: io.save_phase_density(comparison.initial, density_t0))
    try:
        with _writing(out_dir):
            io.save_wavefunction(state, out_dir / "wavefunction_t0")
            io.save_wavefunction(comparison.evolved, out_dir / "wavefunction_t1")
            io.save_phase_density(comparison.transported, out_dir / "density_t1")
            _write_report(out_dir / "equivalence.json", payload, args)
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        print(f"error: the writer of {density_t0} was killed by signal {-code}", file=sys.stderr)
    if code != 0:
        return 2 if code == 2 else 1
    print(f"fields and equivalence report written to {out_dir}")
    print(f"equivalence L2 distance {comparison.l2_distance:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseq",
        description=(
            "Desk-scale numerical checks of the classical-to-quantum pipeline "
            "for the harmonic oscillator"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output path")

    def no_timestamp(p):
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit timestamps for byte-identical reports")

    verify = sub.add_parser("verify", help="run the full verification suite")
    common(verify)
    no_timestamp(verify)
    verify.set_defaults(func=cmd_verify)

    spectrum = sub.add_parser("spectrum", help="export the oscillator spectrum as CSV")
    common(spectrum)
    spectrum.add_argument("--cutoff", type=int, required=True, help="matrix truncation (>= 2)")
    spectrum.set_defaults(func=cmd_spectrum)

    spin_cmd = sub.add_parser("spin", help="export joint two-mode spin spectra as CSV")
    common(spin_cmd)
    spin_cmd.add_argument("--n-max", type=int, required=True, dest="n_max",
                          help="largest complete sector to export")
    spin_cmd.set_defaults(func=cmd_spin)

    evolve = sub.add_parser("evolve", help="evolve a state and export fields")
    common(evolve)
    no_timestamp(evolve)
    evolve.add_argument("--state", required=True, help="eigenstate:n or coherent:q0,p0")
    evolve.add_argument("--time", type=float, required=True, help="evolution time")
    evolve.set_defaults(func=cmd_evolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhaseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
