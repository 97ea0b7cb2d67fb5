"""Damaged train states through ``wmhseg train --resume``: a documented exit
code and at most one stderr line, never a traceback. The resume reads the
state alone, so no checkpoint is put beside it."""

import contextlib
import dataclasses
import io
import json
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmhseg.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from wmhseg.model import ModelConfig
from wmhseg.phantom import PhantomConfig, generate_dataset

from conftest import edit_json_header

# derandomized, and no example database written next to the tests
FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)

TRAIN = ["--model", "tiny", "--epochs", "1", "--batch-size", "8",
         "--seed", "3", "--lr", "1e-3", "--no-artifacts"]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 400, 10 ** 400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("state_fuzz")
    generate_dataset(2, 0, root / "data",
                     PhantomConfig(size=(32, 32, 3), num_lesions_range=(1, 2),
                                   lesion_radius_mm=(1.5, 2.5)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--manifest", str(root / "data" / "manifest.csv"),
                     "--out", str(root / "run")] + TRAIN) == EXIT_OK
    return root


def resume_damaged(root, blob: bytes) -> tuple[int, list[str]]:
    """Resume from ``blob`` as the run's state; check the exit and stderr,
    and return both. Runs write into a directory of their own."""
    work = root / "work"
    work.mkdir(exist_ok=True)
    (work / "last.ckpt.state").write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would be a stderr line
        code = main(["train", "--manifest", str(root / "data" / "manifest.csv"),
                     "--out", str(work / "out"), "--resume",
                     str(work / "last.ckpt")] + TRAIN)
    lines = err.getvalue().strip().splitlines() + [str(w.message) for w in caught]
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC), (code, lines)
    assert len(lines) <= 1 and "Traceback" not in err.getvalue(), lines
    return code, lines


def state_blob(root) -> bytes:
    return (root / "run" / "last.ckpt.state").read_bytes()


def test_intact_state_resumes(files):
    resume_damaged(files, state_blob(files))
    assert (files / "work" / "out" / "last.ckpt").exists()


@FUZZ
@given(data=st.data())
def test_header_value_replaced(files, data):
    blob = state_blob(files)
    (n,) = struct.unpack_from("<I", blob, 8)
    key = data.draw(st.sampled_from(sorted(json.loads(blob[12:12 + n]))), label="key")
    value = data.draw(JSON_VALUES, label="value")
    resume_damaged(files, edit_json_header(blob, lambda h: h.update({key: value})))


@FUZZ
@given(data=st.data())
def test_header_key_dropped_or_added(files, data):
    blob = state_blob(files)
    (n,) = struct.unpack_from("<I", blob, 8)
    keys = sorted(json.loads(blob[12:12 + n]))
    drop = data.draw(st.lists(st.sampled_from(keys), unique=True), label="drop")
    extra = data.draw(st.dictionaries(st.text(max_size=6), JSON_VALUES,
                                      max_size=2), label="extra")

    def edit(header):
        for key in drop:
            del header[key]
        header.update(extra)
    resume_damaged(files, edit_json_header(blob, edit))


@FUZZ
@given(data=st.data())
def test_header_byte_flipped(files, data):
    blob = bytearray(state_blob(files))
    (n,) = struct.unpack_from("<I", blob, 8)
    off = data.draw(st.integers(12, 12 + n - 1), label="offset")
    blob[off] ^= data.draw(st.integers(1, 255), label="xor")
    resume_damaged(files, bytes(blob))


@FUZZ
@given(data=st.data())
def test_model_field_replaced_or_dropped(files, data):
    blob = state_blob(files)
    key = data.draw(st.sampled_from([f.name for f in
                                     dataclasses.fields(ModelConfig)]), label="key")
    value = data.draw(JSON_VALUES, label="value")

    def edit(header):
        if value is None:  # dropped
            del header["model"][key]
        else:
            header["model"][key] = value
    resume_damaged(files, edit_json_header(blob, edit))


@pytest.mark.parametrize("preset", [ModelConfig.reduced(), ModelConfig(),
                                    ModelConfig.tiny()], ids=["reduced",
                                                              "default",
                                                              "tiny"])
@pytest.mark.parametrize("scope", ["slice", "volume"])
def test_model_set_to_another_valid_config_usage_error(files, preset, scope):
    model = dict(dataclasses.asdict(preset), normalization_scope=scope)
    code, lines = resume_damaged(files, edit_json_header(
        state_blob(files), lambda h: h.update(model=model)))
    if (preset, scope) == (ModelConfig.tiny(), "slice"):
        assert code == EXIT_OK, lines  # the run's own config
    else:
        assert code == EXIT_USAGE and "different model config" in lines[0], lines


@FUZZ
@given(data=st.data())
def test_payload_byte_flipped(files, data):
    blob = bytearray(state_blob(files))
    (n,) = struct.unpack_from("<I", blob, 8)
    for _ in range(data.draw(st.integers(1, 3), label="flips")):
        off = data.draw(st.integers(12 + n, len(blob) - 1), label="offset")
        blob[off] ^= data.draw(st.integers(1, 255), label="xor")
    resume_damaged(files, bytes(blob))


def test_version_1_state_data_error(files):
    blob = state_blob(files)
    code, lines = resume_damaged(files, blob[:4] + struct.pack("<I", 1) + blob[8:])
    assert code == EXIT_DATA
    assert lines == [f"error: {files / 'work' / 'last.ckpt.state'}: "
                     "unsupported format version 1"], lines
