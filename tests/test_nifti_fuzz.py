"""Damaged NIfTI files through ``wmhseg segment`` and ``wmhseg augment``: the
header of a ``.nii``, the compressed bytes of a ``.nii.gz`` and the ``.hdr``
of a two-file pair. Every run ends with a documented exit code and at most
one stderr line, never a traceback."""

import shutil
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmhseg.artifacts import KINDS
from wmhseg.cli import EXIT_OK
from wmhseg.model import ModelConfig, init_parameters, save_checkpoint
from wmhseg.nifti import HEADER_SIZE, VOX_OFFSET, write_nifti
from wmhseg.phantom import PhantomConfig, generate_phantom

from conftest import edit_bytes, run_cli_checked

# derandomized, and no example database written next to the tests
FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

COMMANDS = ["segment", "augment"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 32x32x3 phantom as ``.nii``, ``.nii.gz`` and a ``.hdr``/``.img``
    pair, and a tiny model's checkpoint."""
    root = tmp_path_factory.mktemp("nifti_fuzz")
    image, _ = generate_phantom(PhantomConfig(
        size=(32, 32, 3), num_lesions_range=(1, 2), lesion_radius_mm=(1.5, 2.5)))
    write_nifti(image, root / "v.nii")
    write_nifti(image, root / "v.nii.gz")
    blob = (root / "v.nii").read_bytes()
    header = bytearray(blob[:HEADER_SIZE])
    header[344:348] = b"ni1\x00"
    struct.pack_into("<f", header, 108, 0.0)  # voxels start the .img
    (root / "pair.hdr").write_bytes(bytes(header))
    (root / "pair.img").write_bytes(blob[VOX_OFFSET:])
    cfg = ModelConfig.tiny()
    save_checkpoint(root / "tiny.ckpt", init_parameters(cfg, 0), cfg)
    return root


def run_on(root, name: str, blob: bytes, command: str, kind: str) -> int:
    """``command`` on ``blob`` written as ``name`` (a pair's ``.hdr`` gets
    the intact ``.img``); returns the checked exit code."""
    work = root / "work"
    work.mkdir(exist_ok=True)
    (work / name).write_bytes(blob)
    if name == "pair.hdr":
        shutil.copy(root / "pair.img", work / "pair.img")
    args = [command, "--in", str(work / name), "--out", str(work / "out.nii")]
    args += ["--checkpoint", str(root / "tiny.ckpt")] if command == "segment" \
        else ["--kind", kind]
    return run_cli_checked(args)


def run_damaged(root, data, name: str, blob: bytes) -> None:
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    run_on(root, name, blob, command, kind)


@pytest.mark.parametrize("name", ["v.nii", "v.nii.gz", "pair.hdr"])
@pytest.mark.parametrize("command", COMMANDS)
def test_intact_file_runs(files, name, command):
    blob = (files / name).read_bytes()
    assert run_on(files, name, blob, command, "ghosting") == EXIT_OK


@FUZZ
@given(data=st.data())
def test_nii_header_edited(files, data):
    blob = (files / "v.nii").read_bytes()
    head = edit_bytes(data, blob[:VOX_OFFSET])
    run_damaged(files, data, "v.nii", head + blob[VOX_OFFSET:])


@FUZZ
@given(data=st.data())
def test_gz_bytes_edited(files, data):
    blob = (files / "v.nii.gz").read_bytes()
    run_damaged(files, data, "v.nii.gz", edit_bytes(data, blob))


@FUZZ
@given(data=st.data())
def test_pair_header_edited(files, data):
    blob = (files / "pair.hdr").read_bytes()
    run_damaged(files, data, "pair.hdr", edit_bytes(data, blob))
