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


def shifted(values: np.ndarray, length: float, shifts) -> np.ndarray:
    """Band-limited translates values(x + s), one row per shift.

    Each row is a phase ramp on the spectrum of the window-periodic signal.
    Cells whose source x + s lies outside the window are zeroed, as in
    :func:`shear`, so no ghost copy wraps round from the opposite edge.
    The ramp is built in the output and transformed in place.
    """
    n = values.shape[-1]
    k = wavenumbers(n, length)
    shifts = np.atleast_1d(np.asarray(shifts, dtype=np.float64))[:, None]
    out = 1j * (shifts * k)
    np.exp(out, out=out)
    np.multiply(np.fft.fft(values)[None, :], out, out=out)
    np.fft.ifft(out, axis=1, out=out)
    source = (length / n) * np.arange(n) + shifts
    out[(source < 0.0) | (source >= length)] = 0.0
    return out


def shear(n: int, length: float, shifts, axis: int):
    """Band-limited translates of every line of a real 2D field, one shift per line.

    Returns a function that overwrites values with values(x + s) and returns
    it: line j along ``axis`` is resampled at x + shifts[j] by a phase ramp
    on its real spectrum, which is exact for band-limited data.  Cells whose
    source x + s lies outside the window are zeroed, so content pushed over
    one edge does not wrap round to the opposite one.  The ramp and the mask
    are built once, so each further application costs two real FFTs, run
    on BLOCK lines at a time so that no spectrum of the whole field is held.
    """
    k = np.expand_dims(2.0 * np.pi * np.fft.rfftfreq(n, d=length / n), 1 - axis)
    x = np.expand_dims((length / n) * np.arange(n), 1 - axis)
    shifts = np.expand_dims(np.asarray(shifts, dtype=np.float64), axis)
    source = x + shifts
    ghost = (source < 0.0) | (source >= length)
    del source  # before the ramp, so the two are never held together
    ramp = 1j * k * shifts
    np.exp(ramp, out=ramp)

    def apply(values: np.ndarray) -> np.ndarray:
        lines = [slice(None), slice(None)]
        for start in range(0, values.shape[1 - axis], BLOCK):
            lines[1 - axis] = slice(start, start + BLOCK)
            block = tuple(lines)
            spectrum = np.fft.rfft(values[block], axis=axis)
            np.multiply(spectrum, ramp[block], out=spectrum)
            np.fft.irfft(spectrum, n=n, axis=axis, out=values[block])
        values[ghost] = 0.0
        return values

    return apply
