"""Damaged dataset manifests through ``wmhseg train`` and ``wmhseg
evaluate``. Every run ends with a documented exit code and at most one
stderr line, never a traceback."""

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmhseg.cli import EXIT_OK
from wmhseg.model import ModelConfig, init_parameters, save_checkpoint
from wmhseg.phantom import PhantomConfig, generate_dataset

from conftest import edit_bytes, edit_lines, run_cli_checked

# derandomized, and no example database written next to the tests
FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

COMMANDS = ["train", "evaluate"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Two 32x32x3 phantoms with their manifest, and a tiny model's
    checkpoint."""
    root = tmp_path_factory.mktemp("manifest_fuzz")
    generate_dataset(2, 0, root / "data",
                     PhantomConfig(size=(32, 32, 3), num_lesions_range=(1, 2),
                                   lesion_radius_mm=(1.5, 2.5)))
    cfg = ModelConfig.tiny()
    save_checkpoint(root / "tiny.ckpt", init_parameters(cfg, 0), cfg)
    return root


def run_on(root, blob: bytes, command: str) -> int:
    """``command`` on ``blob`` as a manifest next to the dataset's files;
    returns the checked exit code."""
    manifest = root / "data" / "damaged.csv"
    manifest.write_bytes(blob)
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    args = [command, "--manifest", str(manifest)]
    args += ["--out", str(work / "run"), "--model", "tiny", "--epochs", "1",
             "--batch-size", "8", "--seed", "3"] if command == "train" else \
        ["--checkpoint", str(root / "tiny.ckpt"), "--out", str(work / "m.csv")]
    return run_cli_checked(args)


def manifest(root) -> bytes:
    return (root / "data" / "manifest.csv").read_bytes()


@pytest.mark.parametrize("command", COMMANDS)
def test_intact_manifest_runs(files, command):
    assert run_on(files, manifest(files), command) == EXIT_OK


@FUZZ
@given(data=st.data())
def test_manifest_bytes_edited(files, data):
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    run_on(files, edit_bytes(data, manifest(files)), command)


@FUZZ
@given(data=st.data())
def test_manifest_lines_edited(files, data):
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    run_on(files, edit_lines(data, manifest(files)), command)
