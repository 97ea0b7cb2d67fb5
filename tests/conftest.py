import contextlib
import json
import struct

import numpy as np
import pytest

from wmhseg import blas
from wmhseg.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def force_budget(monkeypatch):
    """``force_budget(n)`` runs every ``blas.run_parallel`` pool (inference,
    training and validation shards, dataset generation) with ``n`` threads
    whatever the BLAS and CPU counts; OpenBLAS is still pinned to one thread
    inside the pool. Pass ``patch=`` a ``monkeypatch.context()`` to undo it
    before the test ends."""
    def force(n, patch=monkeypatch):
        pin = blas.single_threaded

        @contextlib.contextmanager
        def pinned():
            with pin():
                yield n
        patch.setattr(blas, "single_threaded", pinned)
        patch.setattr(blas, "usable_cpus", lambda: n)
    return force


def edit_json_header(blob: bytes, edit) -> bytes:
    """A checkpoint or train-state file with its JSON header dict passed
    through ``edit`` (both formats: magic, u32 version, u32 length, JSON)."""
    (n,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + n])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + n:]


def finite_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar-valued f at x (independent oracle)."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + step
        fp = f(x)
        x[i] = orig - step
        fm = f(x)
        x[i] = orig
        g[i] = (fp - fm) / (2.0 * step)
    return g


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a-n| / max(1, |n|)."""
    return float((np.abs(analytic - numeric)
                 / np.maximum(1.0, np.abs(numeric))).max())


def check_grad(make_output, x0: np.ndarray, rng, step: float = 1e-5,
               tol: float = 1e-4) -> float:
    """FD-check d(sum(out * probe))/dx for a Tensor-valued op, 64-bit."""
    x = Tensor(x0.copy(), dtype=np.float64, requires_grad=True)
    out = make_output(x)
    probe = rng.standard_normal(out.shape)
    (out * Tensor(probe, dtype=np.float64)).sum().backward()

    def scalar(v):
        return float((make_output(Tensor(v, dtype=np.float64)).data * probe).sum())

    err = rel_err(x.grad, finite_difference(scalar, x0.copy(), step))
    assert err < tol, f"gradient mismatch: rel err {err}"
    return err
