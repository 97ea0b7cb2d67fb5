import contextlib
import io
import json
import os
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from wmhseg import blas
from wmhseg.cli import (EXIT_DATA, EXIT_INTERRUPTED, EXIT_MEMORY,
                        EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main)
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


def child_env(**variables) -> dict[str, str]:
    """The environment for a child interpreter that imports this package:
    this process's, with the package's source directory leading
    ``PYTHONPATH`` and ``variables`` set on top."""
    src = str(Path(blas.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)


def run_cli_checked(args) -> int:
    """Run ``wmhseg args`` in this process and return its exit code, after
    checking that it is a documented one and that stderr holds at most one
    line and no traceback (a warning counts as a line)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    lines = err.getvalue().strip().splitlines() + [str(w.message)
                                                   for w in caught]
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC, EXIT_MEMORY,
                    EXIT_INTERRUPTED), (code, lines)
    assert len(lines) <= 1 and "Traceback" not in err.getvalue(), lines
    return code


def edit_bytes(data, blob: bytes) -> bytes:
    """``blob`` with one to four bytes flipped, inserted or deleted."""
    edits = data.draw(st.lists(st.tuples(
        st.sampled_from(("flip", "insert", "delete")),
        st.integers(0, len(blob)), st.integers(1, 255)),
        min_size=1, max_size=4), label="edits")
    out = bytearray(blob)
    for op, at, byte in edits:
        if op == "insert":
            out.insert(at % (len(out) + 1), byte)
        elif op == "flip":
            out[at % len(out)] ^= byte
        elif len(out) > 1:
            del out[at % len(out)]
    return bytes(out)


def edit_lines(data, blob: bytes) -> bytes:
    """``blob``'s lines picked by index: each line may be dropped,
    duplicated or moved."""
    lines = blob.splitlines()
    picks = data.draw(st.lists(st.integers(0, len(lines) - 1),
                               max_size=2 * len(lines)), label="lines")
    return b"".join(lines[i] + b"\n" for i in picks)


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
