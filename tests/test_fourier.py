"""FFT verified against a naive O(N^2) DFT and its own inverse."""

import numpy as np
import pytest

from wmhseg.fourier import fft2, ifft2

SIZES = [4, 8, 16, 27, 256]


def dft2_oracle(x: np.ndarray) -> np.ndarray:
    """Direct double-sum 2D DFT, unscaled forward."""
    h, w = x.shape
    out = np.zeros((h, w), dtype=np.complex128)
    ys, xs = np.arange(h), np.arange(w)
    for u in range(h):
        for v in range(w):
            phase = np.exp(-2j * np.pi * (np.outer(ys * u / h, np.ones(w))
                                          + np.outer(np.ones(h), xs * v / w)))
            out[u, v] = (x * phase).sum()
    return out


def test_delta_at_origin_gives_constant_spectrum():
    x = np.zeros((8, 8))
    x[0, 0] = 1.0
    spec = fft2(x)
    np.testing.assert_allclose(spec, np.ones((8, 8)), atol=1e-12)


def test_8x8_against_naive_dft(rng):
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert np.abs(fft2(x) - dft2_oracle(x)).max() < 1e-10


@pytest.mark.parametrize("n", SIZES)
def test_roundtrip(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.abs(ifft2(fft2(x)) - x).max() < 1e-10


@pytest.mark.parametrize("n", SIZES)
def test_parseval(rng, n):
    x = rng.standard_normal((n, n))
    spec = fft2(x)
    lhs = (np.abs(x) ** 2).sum()
    rhs = (np.abs(spec) ** 2).sum() / x.size
    assert abs(lhs - rhs) / lhs < 1e-9


def test_non_square_and_odd_against_numpy_convention(rng):
    # documented convention: forward unscaled (numpy's convention)
    for shape in [(5, 7), (12, 27), (27, 4)]:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        np.testing.assert_allclose(fft2(x), np.fft.fft2(x), atol=1e-9)
        np.testing.assert_allclose(ifft2(x), np.fft.ifft2(x), atol=1e-9)


def test_small_oracle_sizes(rng):
    for n in (3, 6, 27):
        x = rng.standard_normal((n, n))
        assert np.abs(fft2(x) - dft2_oracle(x)).max() < 1e-9


@pytest.mark.parametrize("transform", [fft2, ifft2])
def test_rejects_1d(transform):
    with pytest.raises(ValueError, match=">=2D array"):
        transform(np.zeros(8))
