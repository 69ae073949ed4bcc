"""Fourier helpers shared by the transform and evolution modules."""

import numpy as np

# Lines per block of the in-place kernels: their temporaries stay this many
# lines long whatever the grid.
BLOCK = 32


def wavenumbers(n: int, length: float) -> np.ndarray:
    """Angular wavenumbers in numpy's FFT ordering for a window of given length."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)


def derivative(values: np.ndarray, length: float, order: int = 1) -> np.ndarray:
    """Spectral derivative along the last axis (periodic window)."""
    n = values.shape[-1]
    k = wavenumbers(n, length)
    return np.fft.ifft(np.fft.fft(values) * (1j * k) ** order)


def ramp(j: np.ndarray, dk: float, shifts: np.ndarray):
    """The phase ramp exp(i dk j s) for integer wavenumber indices j, one row per shift s.

    Each index is written in balanced digits j = R h + r with -R/2 <= r < R/2,
    R a power of two within a factor sqrt(2) of sqrt(len(j)), so the ramp is
    the product of two small tables, exp(i dk R h s) and exp(i dk r s): about
    len(s) (len(j)/R + R) exponentials rather than len(s) len(j).  Balanced
    digits keep both angles short, and each cell within 2 eps (1 + |angle|)
    of the exact ramp, as close as one exponential per cell comes.  Returns
    rows(lines), the ramp rows of shifts[lines]; only the two tables are held.
    """
    radix = 1 << (len(j).bit_length() // 2)
    low = (j + radix // 2) % radix - radix // 2
    high = (j - low) // radix
    base = high.min()
    s = shifts[:, None]
    coarse = np.exp(1j * ((dk * radix) * np.arange(base, high.max() + 1) * s))
    fine = np.exp(1j * (dk * np.arange(-(radix // 2), radix - radix // 2) * s))
    high -= base
    low += radix // 2

    def rows(lines=slice(None)) -> np.ndarray:
        out = np.take(coarse[lines], high, axis=1)
        out *= np.take(fine[lines], low, axis=1)
        return out

    return rows


def shifted(values: np.ndarray, length: float, shifts) -> np.ndarray:
    """Band-limited translates values(x + s), one row per shift.

    Each row is a phase ramp on the spectrum of the window-periodic signal,
    made by :func:`ramp` in the output and transformed in place.  Cells
    whose source x + s lies outside the window are zeroed, as in
    :func:`shear`, so no ghost copy wraps round from the opposite edge.
    """
    n = values.shape[-1]
    shifts = np.atleast_1d(np.asarray(shifts, dtype=np.float64))
    j = (np.arange(n) + n // 2) % n - n // 2  # numpy's FFT ordering
    out = ramp(j, 2.0 * np.pi / length, shifts)()
    np.multiply(np.fft.fft(values)[None, :], out, out=out)
    np.fft.ifft(out, axis=1, out=out)
    source = (length / n) * np.arange(n) + shifts[:, None]
    out[(source < 0.0) | (source >= length)] = 0.0
    return out


def shear(n: int, length: float, shifts, axis: int):
    """Band-limited translates of every line of a real 2D field, one shift per line.

    Returns a function that overwrites values with values(x + s) and returns
    it: line j along ``axis`` is resampled at x + shifts[j] by a phase ramp
    on its real spectrum, which is exact for band-limited data.  Cells whose
    source x + s lies outside the window are zeroed, so content pushed over
    one edge does not wrap round to the opposite one.  Only the two factor
    tables of :func:`ramp` are held; each application runs on BLOCK lines at
    a time, forming their ramp rows and mask as it goes, so it costs two
    real FFTs and no array of the whole field beyond the values themselves.
    """
    shifts = np.asarray(shifts, dtype=np.float64)
    rows = ramp(np.arange(n // 2 + 1), 2.0 * np.pi / length, shifts)
    x = np.expand_dims((length / n) * np.arange(n), 1 - axis)
    shifts = np.expand_dims(shifts, axis)

    def apply(values: np.ndarray) -> np.ndarray:
        lines = [slice(None), slice(None)]
        for start in range(0, values.shape[1 - axis], BLOCK):
            lines[1 - axis] = slice(start, start + BLOCK)
            block = tuple(lines)
            spectrum = np.fft.rfft(values[block], axis=axis)
            block_ramp = rows(lines[1 - axis])
            np.multiply(spectrum, block_ramp if axis else block_ramp.T, out=spectrum)
            np.fft.irfft(spectrum, n=n, axis=axis, out=values[block])
            source = x + shifts[block]
            values[block][(source < 0.0) | (source >= length)] = 0.0
        return values

    return apply
