"""Damaged key=value files: artifact sidecars through ``wmhseg augment
--replay`` and a config file through ``wmhseg phantom --config``. Every run
ends with a documented exit code and at most one stderr line, never a
traceback."""

import contextlib
import io
import shutil
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmhseg.artifacts import KINDS
from wmhseg.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from wmhseg.phantom import PhantomConfig, generate_dataset

from conftest import edit_bytes, edit_lines

# derandomized, and no example database written next to the tests
FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)

PHANTOM_CFG = (b"n=1\nseed=4\nsize=32,32,3\nnum_lesions_range=1,2\n"
               b"lesion_radius_mm=1.5,2.5\nspacing=1.0,1.0,3.0\n")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 32x32x3 phantom with a sidecar of each kind, and a phantom config."""
    root = tmp_path_factory.mktemp("sidecar_fuzz")
    generate_dataset(1, 0, root / "data",
                     PhantomConfig(size=(32, 32, 3), num_lesions_range=(1, 2),
                                   lesion_radius_mm=(1.5, 2.5)))
    (root / "phantom.cfg").write_bytes(PHANTOM_CFG)
    return root


def run_cli(args) -> None:
    """Run ``wmhseg args``; check the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would be a stderr line
        code = main(args)
    lines = err.getvalue().strip().splitlines() + [str(w.message) for w in caught]
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC), (code, lines)
    assert len(lines) <= 1 and "Traceback" not in err.getvalue(), lines


def replay_damaged(root, blob: bytes) -> None:
    work = root / "work"
    work.mkdir(exist_ok=True)
    (work / "damaged.spec").write_bytes(blob)
    run_cli(["augment", "--in", str(root / "data" / "phantom000.nii"),
             "--replay", str(work / "damaged.spec"),
             "--out", str(work / "out.nii")])


def phantom_damaged(root, blob: bytes) -> None:
    work = root / "work"
    shutil.rmtree(work / "phantom", ignore_errors=True)
    work.mkdir(exist_ok=True)
    (work / "damaged.cfg").write_bytes(blob)
    run_cli(["phantom", "--config", str(work / "damaged.cfg"),
             "--out", str(work / "phantom")])


def sidecar(root, kind: str) -> bytes:
    return (root / "data" / f"phantom000_{kind}.nii.spec").read_bytes()


@pytest.mark.parametrize("kind", KINDS)
def test_intact_sidecar_replays(files, kind):
    replay_damaged(files, sidecar(files, kind))
    assert (files / "work" / "out.nii").exists()


def test_intact_config_runs(files):
    phantom_damaged(files, PHANTOM_CFG)
    assert (files / "work" / "phantom" / "manifest.csv").exists()


@FUZZ
@given(data=st.data())
def test_sidecar_bytes_edited(files, data):
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    replay_damaged(files, edit_bytes(data, sidecar(files, kind)))


@FUZZ
@given(data=st.data())
def test_sidecar_lines_edited(files, data):
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    replay_damaged(files, edit_lines(data, sidecar(files, kind)))


@FUZZ
@given(data=st.data())
def test_config_bytes_edited(files, data):
    phantom_damaged(files, edit_bytes(data, PHANTOM_CFG))


@FUZZ
@given(data=st.data())
def test_config_lines_edited(files, data):
    phantom_damaged(files, edit_lines(data, PHANTOM_CFG))
