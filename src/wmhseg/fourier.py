"""2D discrete Fourier transforms for k-space manipulation.

Normalization convention: ``fft2`` is unscaled, ``ifft2`` divides by the
total number of samples, so ``ifft2(fft2(x)) == x``. Both run on
``numpy.fft`` (pocketfft), which handles every size; all arithmetic is
complex128.
"""

from __future__ import annotations

import numpy as np


def fft2(x: np.ndarray) -> np.ndarray:
    """Unscaled 2D DFT of the trailing two axes."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"fft2 expects a >=2D array, got shape {a.shape}")
    return np.fft.fft2(a)


def ifft2(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft2`, scaled by 1/(H*W)."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"ifft2 expects a >=2D array, got shape {a.shape}")
    return np.fft.ifft2(a)
