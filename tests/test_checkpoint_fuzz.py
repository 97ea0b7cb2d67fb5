"""Damaged checkpoints through ``wmhseg segment``: a documented exit code and
at most one stderr line, never a traceback."""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmhseg.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from wmhseg.model import ModelConfig, init_parameters, save_checkpoint
from wmhseg.nifti import Volume, write_nifti

# derandomized, and no example database written next to the tests
FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = ModelConfig.tiny()
    save_checkpoint(root / "model.ckpt", init_parameters(cfg, 0), cfg)
    data = np.random.default_rng(0).uniform(0, 1, (32, 32, 2)).astype(np.float32)
    write_nifti(Volume(data, (1.0, 1.0, 2.0)), root / "image.nii")
    return root


def framing(blob: bytes) -> tuple[list[int], range]:
    """Offsets of every byte that is not a parameter value, and the span of
    the normalization_scope value in the JSON header."""
    (n,) = struct.unpack_from("<I", blob, 8)
    offsets = list(range(16 + n))  # magic, version, length, header, count
    (count,) = struct.unpack_from("<I", blob, 12 + n)
    off = 16 + n
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, off)
        ndim = blob[off + 2 + name_len]
        head = 2 + name_len + 1 + 4 * ndim
        shape = struct.unpack_from(f"<{ndim}I", blob, off + head - 4 * ndim)
        offsets += range(off, off + head)
        off += head + 4 * int(np.prod(shape))
    assert off == len(blob)
    key = b'"normalization_scope": "'
    start = blob.index(key, 12, 12 + n) + len(key)
    return offsets, range(start, blob.index(b'"', start))


def segment_damaged(root, blob: bytes) -> None:
    """Run ``wmhseg segment`` on ``blob``; check the exit and stderr."""
    (root / "damaged.ckpt").write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["segment", "--checkpoint", str(root / "damaged.ckpt"),
                     "--in", str(root / "image.nii"), "--out", str(root / "mask.nii")])
    lines = err.getvalue().strip().splitlines()
    assert code in (EXIT_OK, EXIT_DATA, EXIT_NUMERIC), (code, lines)
    assert len(lines) <= 1 and "Traceback" not in err.getvalue(), lines


def test_intact_checkpoint_segments(files):
    segment_damaged(files, (files / "model.ckpt").read_bytes())
    assert (files / "mask.nii").exists()


@FUZZ
@given(data=st.data())
def test_truncated(files, data):
    blob = (files / "model.ckpt").read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    segment_damaged(files, blob[:cut])


@FUZZ
@given(data=st.data())
def test_framing_byte_flipped(files, data):
    blob = bytearray((files / "model.ckpt").read_bytes())
    offsets, _ = framing(bytes(blob))
    off = data.draw(st.sampled_from(offsets), label="offset")
    blob[off] ^= data.draw(st.integers(1, 255), label="xor")
    segment_damaged(files, bytes(blob))


@FUZZ
@given(data=st.data())
def test_scope_value_byte_flipped(files, data):
    blob = bytearray((files / "model.ckpt").read_bytes())
    _, value = framing(bytes(blob))
    off = data.draw(st.sampled_from(value), label="offset")
    blob[off] ^= data.draw(st.integers(1, 255), label="xor")
    segment_damaged(files, bytes(blob))
