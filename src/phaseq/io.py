"""CSV/JSON serialisation of fields and spectra.

Matrix fields go to plain CSV (rows follow the q index ascending, columns
the second index ascending) and 1D fields to column CSV, each with a JSON
sidecar holding its grid's fields and the time.

Every CSV cell is written as ``'%.17g' % value``, which round-trips each
float64.  ``_write_csv`` computes those bytes with numpy array arithmetic
instead of one Python format call per value: the 17 significant digits
come from an error-free double-length product against a double-double
power of ten (Dekker, Numer. Math. 18, 1971), and any cell whose rounding
that product cannot settle is formatted by Python itself.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .fock import SpectrumResult
from .phasespace import PhaseDensity, PhaseGrid, PositionGrid
from .schrodinger import WaveFunction
from .spin import SpinSpectrumRow

# Cells formatted and written at a time, 8 rows of a 1024-column density.
# A whole 1024^2 density at once would add ~120 MB of temporaries, and from
# ~2**14 cells the temporaries outgrow the allocator's reused heap, so every
# block faults in fresh pages and runs slower.
_BLOCK_CELLS = 1 << 13

# Each cell is built in a 32-byte slot of four little-endian uint64 words.
# Bytes 3-6 hold "0000", the leading zeros of 0.000ddd, and bytes 7-23 the
# 17 digits.  Masks keep the integer part in place and move the fraction up
# one byte to make room for the point, so the text ends by byte 24.  The
# sign goes in byte 2, the exponent suffix in bytes 25-29 and the delimiter
# in byte 30.  Every other byte is NUL, and NULs are deleted on output.
_SLOT_BYTES = 32
_FIRST_DIGIT = 7
_SIGN_SHIFT = 16  # byte 2, in word 0
_SUFFIX_SHIFT = 8  # bytes 25-29, in word 3
_DELIMITER_SHIFT = 48  # byte 30, in word 3
# Layout class of a cell: 18 * (X + 4) + its significant digit count in
# fixed notation (-4 <= X < 17), 18 * _SCIENTIFIC + count otherwise, and
# 0 for zero.
_SCIENTIFIC = 21
# The fast path covers these magnitudes, so that every power of ten, its
# Veltkamp split and every partial product stays a normal double.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_X_MIN, _X_MAX = -282, 281
# The double-double product is good to ~1e-14, so rounding it to the
# nearest integer is certain unless its fraction lies this close to 1/2.
_TIE_MARGIN = 1e-7
_E4, _E8, _E16, _E17 = 10 ** 4, 10 ** 8, 10 ** 16, 10 ** 17
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's constant for float64


def _layout_masks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each layout class, as 3 x 4 slot words: the mask that keeps the
    digits before the point, the mask that keeps the fraction digits (after
    the one-byte move) and the point itself."""
    masks = np.zeros((18 * (_SCIENTIFIC + 1), 3, _SLOT_BYTES), np.uint8)
    masks[0, 0, _FIRST_DIGIT - 4] = 0xFF  # zero is one of the leading "0"s
    for fmt in range(_SCIENTIFIC + 1):
        exp10 = fmt - 4 if fmt < _SCIENTIFIC else 0
        start = _FIRST_DIGIT + min(exp10, 0)
        point = start + max(exp10, 0) + 1
        for sig in range(1, 18):
            end = max(point, _FIRST_DIGIT + sig)
            mask = masks[18 * fmt + sig]
            mask[0, start:point] = 0xFF
            if end > point:
                mask[1, point + 1:end + 1] = 0xFF
                mask[2, point] = ord(".")
    words = masks.view("<u8")
    return tuple(np.ascontiguousarray(words[:, k]) for k in range(3))


@functools.cache
def _tables() -> SimpleNamespace:
    """The lookup tables of the CSV writer, built exactly on the first write.

    Per decimal exponent X in [_X_MIN, _X_MAX]: the double-double
    10**(16 - X) as ``head_hi + head_lo + tail``, where ``head_hi +
    head_lo`` is its Veltkamp split, and the ``%g`` exponent ``suffix`` as
    a slot word (none in fixed notation).  Per 4-digit group: its ASCII as
    one 32-bit word (``group_text``), and for each of the four group places
    after the first digit the count of digits up to its last nonzero one,
    0 for a zero group (``group_ends``).  Per layout class: the three masks
    of ``_layout_masks``.
    """
    head, tail, suffix = [], [], []
    for x in range(_X_MIN, _X_MAX + 1):
        k = 16 - x
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        value = num / den  # correctly rounded
        h_num, h_den = value.as_integer_ratio()
        head.append(value)
        tail.append((num * h_den - h_num * den) / (den * h_den))
        text = b"" if -4 <= x < 17 else b"e%+03d" % x
        suffix.append(int.from_bytes(text, "little") << _SUFFIX_SHIFT)
    head = np.array(head)
    split = _SPLITTER * head
    head_hi = split - (split - head)

    text = [b"%04d" % g for g in range(_E4)]
    kept = np.array([len(t.rstrip(b"0")) for t in text], np.uint8)
    ends = [np.where(kept > 0, first + kept, 0) for first in (1, 5, 9, 13)]
    whole_mask, fraction_mask, point = _layout_masks()
    return SimpleNamespace(
        head_hi=head_hi, head_lo=head - head_hi, tail=np.array(tail),
        suffix=np.array(suffix, np.uint64), group_text=np.frombuffer(b"".join(text), "<u4"),
        group_ends=np.array(ends, np.uint8), whole_mask=whole_mask,
        fraction_mask=fraction_mask, point=point,
    )


def _decimal_digits(x: np.ndarray, tables: SimpleNamespace):
    """The decimal exponent X and the 17 significant digits d of each value.

    d is |x| * 10**(16 - X) rounded to the nearest integer, in [10**16,
    10**17).  Returns (X, d, certain), where ``certain`` is false wherever
    |x| lies outside [_FAST_MIN, _FAST_MAX] (zero and non-finite values
    included; they get X = 0) or the rounding is in doubt.
    """
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    row = exp10 - _X_MIN
    b_hi, b_lo = tables.head_hi[row], tables.head_lo[row]
    split = _SPLITTER * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    # Dekker's two-product: p plus the four partial products is a * head
    # exactly, and a * tail adds the rest of 10**(16 - X) to ~1e-32 relative.
    p = a * (b_hi + b_lo)
    lo = (((a_hi * b_hi - p) + a_hi * b_lo) + a_lo * b_hi) + a_lo * b_lo + a * tables.tail[row]
    step = np.rint(lo)
    frac = lo - step
    d = p.astype(np.int64) + step.astype(np.int64)
    # 17 digits need floor(p + lo) in [10**16, 10**17) and no carry to
    # 10**17; at d = 10**16 an inexact product leaves the floor in doubt.
    certain = fast & (np.abs(frac) < 0.5 - _TIE_MARGIN) & (d >= _E16) & (d < _E17)
    certain &= (d > _E16) | (frac >= _TIE_MARGIN) | (lo == 0)
    return exp10, d, certain


def _format_cells(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each value of the 1D array ``x``, as NUL-padded
    32-byte slots: a (x.size, 4) uint64 array with no delimiter yet."""
    tables = _tables()
    zero = x == 0
    exp10, d, certain = _decimal_digits(x, tables)

    # The 4-digit groups of d after "0000" and "000" + its first digit.
    high8 = d // _E8
    low8 = (d - high8 * _E8).astype(np.uint32)
    high8 = high8.astype(np.uint32)  # wraps only where d is out of range
    first = high8 // _E8
    mid8 = high8 - first * _E8
    parts = (mid8 // _E4, mid8 % _E4, low8 // _E4, low8 % _E4)
    words = np.empty((x.size, 8), "<u4")
    words[:, 0] = tables.group_text[0]
    words[:, 1] = tables.group_text[first]
    for col, part in enumerate(parts, start=2):
        words[:, col] = tables.group_text[part]
    words[:, 6:] = 0
    sig = np.maximum.reduce([tables.group_ends[k][part] for k, part in enumerate(parts)])
    np.maximum(sig, 1, out=sig)

    fixed = (exp10 >= -4) & (exp10 < 17)
    layout = np.where(fixed, exp10 + 4, _SCIENTIFIC) * 18 + sig
    layout[zero] = 0
    # In flat word order the top byte of each slot is NUL, so moving the
    # whole flat string up one byte moves each slot's digits alone.
    slots = words.view("<u8").ravel()
    moved = slots << 8
    moved[1:] |= slots[:-1] >> 56
    slots &= np.take(tables.whole_mask, layout, axis=0).ravel()
    moved &= np.take(tables.fraction_mask, layout, axis=0).ravel()
    slots |= moved
    slots |= np.take(tables.point, layout, axis=0).ravel()
    slots = slots.reshape(x.size, 4)
    slots[:, 0] |= np.where(np.signbit(x), np.uint64(ord("-") << _SIGN_SHIFT), np.uint64(0))
    slots[:, 3] |= tables.suffix[exp10 - _X_MIN]

    text = slots.view(np.uint8)
    for i in np.flatnonzero(~(certain | zero)):
        cell = b"%.17g" % x[i]
        text[i] = 0
        text[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return slots


def _write_csv(path: Path, table: np.ndarray, header: str | None = None) -> None:
    """Write a 2D table as CSV: an optional header line, then one line per
    row of ``'%.17g' % v`` cells joined by commas."""
    table = np.asarray(table, dtype=np.float64)
    n_rows, n_cols = table.shape
    delimiters = np.full(n_cols, ord(",") << _DELIMITER_SHIFT, np.uint64)
    delimiters[-1] = ord("\n") << _DELIMITER_SHIFT
    rows_per_block = max(1, _BLOCK_CELLS // n_cols)
    with open(path, "wb") as out:
        if header is not None:
            out.write(header.encode() + b"\n")
        for first in range(0, n_rows, rows_per_block):
            block = table[first:first + rows_per_block]
            slots = _format_cells(block.ravel())
            slots.reshape(len(block), n_cols, 4)[:, :, 3] |= delimiters
            out.write(slots.tobytes().translate(None, b"\0"))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_phase_density(density: PhaseDensity, stem) -> tuple[Path, Path]:
    stem = Path(stem)
    csv_path = stem.with_suffix(".csv")
    _write_csv(csv_path, density.values)
    json_path = stem.with_suffix(".json")
    write_json(json_path, {**asdict(density.grid), "time": density.time})
    return csv_path, json_path


def load_phase_density(stem) -> PhaseDensity:
    stem = Path(stem)
    meta = json.loads(stem.with_suffix(".json").read_text())
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
    _write_csv(csv_path, table, header="q,re,im")
    json_path = stem.with_suffix(".json")
    write_json(json_path, {**asdict(phi.grid), "time": phi.time})
    return csv_path, json_path


def load_wavefunction(stem) -> WaveFunction:
    stem = Path(stem)
    meta = json.loads(stem.with_suffix(".json").read_text())
    grid = PositionGrid(meta["q_min"], meta["q_max"], int(meta["n"]))
    table = np.loadtxt(stem.with_suffix(".csv"), delimiter=",", skiprows=1)
    return WaveFunction(grid, table[:, 1] + 1j * table[:, 2], meta["time"])


def save_spectrum_csv(path, spectrum: SpectrumResult) -> Path:
    path = Path(path)
    index = np.arange(len(spectrum.energies))
    table = np.column_stack([index, spectrum.energies, spectrum.trusted])
    _write_csv(path, table, header="index,energy,trusted")
    return path


def save_spin_csv(path, rows: list[SpinSpectrumRow]) -> Path:
    path = Path(path)
    table = np.array([[r.sector, r.sector, r.m, r.s_squared, 1] for r in rows],
                     dtype=np.float64).reshape(-1, 5)
    _write_csv(path, table, header="N,two_s,m_over_hbar,s_squared_over_hbar2,complete_flag")
    return path
