"""Fourier helpers shared by the transform and evolution modules."""

import numpy as np


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
    """
    n = values.shape[-1]
    k = wavenumbers(n, length)
    shifts = np.atleast_1d(np.asarray(shifts, dtype=np.float64))[:, None]
    out = np.fft.ifft(np.fft.fft(values)[None, :] * np.exp(1j * (shifts * k)), axis=1)
    source = (length / n) * np.arange(n) + shifts
    out[(source < 0.0) | (source >= length)] = 0.0
    return out


def shear(n: int, length: float, shifts, axis: int):
    """Band-limited translates of every line of a real 2D field, one shift per line.

    Returns a function mapping values to values(x + s): line j along ``axis``
    is resampled at x + shifts[j] by a phase ramp on its real spectrum, which
    is exact for band-limited data.  Cells whose source x + s lies outside the
    window are zeroed, so content pushed over one edge does not wrap round to
    the opposite one.  The ramp and the mask are built once, so each further
    application costs two real FFTs.
    """
    k = np.expand_dims(2.0 * np.pi * np.fft.rfftfreq(n, d=length / n), 1 - axis)
    x = np.expand_dims((length / n) * np.arange(n), 1 - axis)
    shifts = np.expand_dims(np.asarray(shifts, dtype=np.float64), axis)
    ramp = np.exp(1j * k * shifts)
    source = x + shifts
    ghost = (source < 0.0) | (source >= length)

    def apply(values: np.ndarray) -> np.ndarray:
        out = np.fft.irfft(np.fft.rfft(values, axis=axis) * ramp, n=n, axis=axis)
        out[ghost] = 0.0
        return out

    return apply
