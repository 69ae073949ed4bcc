"""Seeded invocation streams for the benchmark workloads.

Each workload is an endless, deterministic stream of phaseq CLI invocations
drawn from the workload seed.  An invocation is the argv after ``phaseq``
plus an optional JSON configuration; every path in the argv is relative to
the invocation's own working directory, so a stream is independent of where
the benchmark runs.  phaseq receives only these generated arguments and
files.

``verify``
    Repeated ``phaseq verify --no-timestamp --config config.json``.  In each
    block of four invocations, three use natural units (m = omega = hbar = 1)
    with a seeded suite ``seed``, and one draws (m, omega, hbar) log-uniform
    from [0.25, 4].  The non-natural draws are stratified: every run of
    eight draws visits each octant of the log-cube once, in seeded order, so
    the share of each outcome varies little between seeds.

    Expected outcomes today (ROADMAP item 5): the suite's reference grids
    are not scaled by the oscillator length, so most non-natural draws do
    not pass.  About half abort with exit 1 and ``error:`` (a
    ``GridTooNarrow`` or ``BoundaryLeak`` raised by a reference grid), e.g.
    omega = 0.5, m = 0.5 or hbar = 2.  About one in eight complete with one
    to three failing entries, e.g. omega = 3 fails Eq.2, Eq.4 and Eq.9.
    About a third pass.  Natural-unit configurations pass every entry.
    Aborts are counted by ``failed_ratio`` and failing entries by
    ``verify_failed_entries``; a fix of item 5 shows as lower values of both
    on this unchanged workload.  An abort of a natural-unit configuration is
    not expected and fails the benchmark's output check.

``evolve``
    Repeated ``phaseq evolve --no-timestamp`` on a 1024^2 grid of extent 10
    in natural units.  In each block of six invocations, four are coherent
    states centred within radius 2 evolved through a generic angle
    omega t, one is a coherent state evolved through an exact quarter turn,
    half turn, three-quarter turn or full period, and one is an eigenstate
    n <= 4 evolved through a generic angle.  The angle mix makes a transport
    that is fast only at some angles show its cost.  The turn and the
    eigenstate take the second and fifth slot of each block in seeded
    order, so every run of consecutive invocations from the start holds the
    same share of each kind; a run is only about eight invocations long, and
    its median would otherwise move with how the seed ordered the blocks.

``spin``
    Repeated ``phaseq spin --n-max 31`` with (m, omega, hbar) log-uniform
    from [0.25, 4].  It uses no grids or transforms.  ``BENCHMARK.json``
    does not declare it (see ``perfbench/README.md``); it runs by hand.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("verify", "evolve", "spin")

PARAM_RANGE = (0.25, 4.0)
VERIFY_BLOCK = 4
EVOLVE_GRID = {"extent": 10.0, "n": 1024}
EVOLVE_BLOCK = ("generic", "generic", "generic", "generic", "turn", "eigenstate")
# Slots of each evolve block that hold the turn and the eigenstate.
EVOLVE_SPECIAL_SLOTS = (1, 4)
COHERENT_RADIUS = 2.0
MAX_EIGENSTATE = 4
# Generic angles stay this far from every multiple of a quarter turn.
ANGLE_MARGIN = 0.05
SPIN_N_MAX = 31


@dataclass(frozen=True)
class Invocation:
    """One CLI call: argv after ``phaseq``, its config, and what to expect.

    ``expect`` carries what the output checker needs: the workload's own
    description of the input (state, time, parameters, sizes) and whether
    an abort is a known outcome today.
    """

    index: int
    argv: tuple[str, ...]
    config: dict | None
    expect: dict = field(default_factory=dict)


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _stratified_params(rng: random.Random):
    """(m, omega, hbar) log-uniform, visiting each octant once per eight draws."""
    low, high = PARAM_RANGE
    middle = math.sqrt(low * high)
    while True:
        octants = list(itertools.product((0, 1), repeat=3))
        rng.shuffle(octants)
        for octant in octants:
            yield tuple(
                _log_uniform(rng, middle, high) if upper else _log_uniform(rng, low, middle)
                for upper in octant
            )


def _verify_stream(rng: random.Random):
    params = _stratified_params(rng)
    index = 0
    while True:
        odd_one = rng.randrange(VERIFY_BLOCK)
        for slot in range(VERIFY_BLOCK):
            config = {"seed": rng.randrange(2 ** 31)}
            natural = slot != odd_one
            if not natural:
                m, omega, hbar = next(params)
                config["params"] = {"m": m, "omega": omega, "hbar": hbar}
            argv = ("verify", "--no-timestamp", "--config", "config.json", "--out", "report.json")
            yield Invocation(index, argv, config, {"natural": natural, "may_abort": not natural})
            index += 1


def _generic_angle(rng: random.Random) -> float:
    quarter = math.pi / 2.0
    return rng.randrange(4) * quarter + rng.uniform(ANGLE_MARGIN, quarter - ANGLE_MARGIN)


def _evolve_stream(rng: random.Random):
    index = 0
    while True:
        special = [kind for kind in EVOLVE_BLOCK if kind != "generic"]
        rng.shuffle(special)
        kinds = ["generic"] * len(EVOLVE_BLOCK)
        for slot, kind in zip(EVOLVE_SPECIAL_SLOTS, special):
            kinds[slot] = kind
        for kind in kinds:
            if kind == "eigenstate":
                level = rng.randrange(MAX_EIGENSTATE + 1)
                state = f"eigenstate:{level}"
                expect = {"state": "eigenstate", "n": level}
                time = _generic_angle(rng)
            else:
                radius = COHERENT_RADIUS * math.sqrt(rng.random())
                phase = rng.uniform(0.0, 2.0 * math.pi)
                q0, p0 = radius * math.cos(phase), radius * math.sin(phase)
                state = f"coherent:{q0!r},{p0!r}"
                expect = {"state": "coherent", "q0": q0, "p0": p0}
                if kind == "turn":
                    time = rng.randrange(1, 5) * math.pi / 2.0
                else:
                    time = _generic_angle(rng)
            expect.update(time=time, grid=dict(EVOLVE_GRID), may_abort=False)
            argv = ("evolve", "--no-timestamp", "--config", "config.json",
                    "--state", state, "--time", repr(time), "--out", "out")
            yield Invocation(index, argv, {"grid": dict(EVOLVE_GRID)}, expect)
            index += 1


def _spin_stream(rng: random.Random):
    for index in itertools.count():
        m, omega, hbar = (_log_uniform(rng, *PARAM_RANGE) for _ in range(3))
        config = {"params": {"m": m, "omega": omega, "hbar": hbar}}
        argv = ("spin", "--config", "config.json", "--n-max", str(SPIN_N_MAX),
                "--out", "spin.csv")
        yield Invocation(index, argv, config, {"n_max": SPIN_N_MAX, "may_abort": False})


_STREAMS = {"verify": _verify_stream, "evolve": _evolve_stream, "spin": _spin_stream}


def stream(workload: str, seed: int):
    """Endless invocation stream of a workload; equal seeds give equal streams."""
    if workload not in _STREAMS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))

