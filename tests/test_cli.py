"""Command line interface: subcommands, config precedence, exit codes."""

import csv
import os
import struct

import numpy as np
import pytest

from wmhseg.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from wmhseg.nifti import read_nifti

PHANTOM_CFG = ("size=48,48,4\n"
               "num_lesions_range=2,4\n"
               "lesion_radius_mm=2.0,3.5\n")


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "phantom.cfg"
    path.write_text(PHANTOM_CFG)
    return str(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory, cfg_file):
    out = tmp_path_factory.mktemp("cli_ds")
    code = main(["phantom", "-n", "3", "--seed", "21", "--config", cfg_file,
                 "--out", str(out)])
    assert code == EXIT_OK
    return out


def assert_one_line_data_error(code, capsys, *needles):
    """Exit 2 with a single stderr line that names every needle."""
    assert code == EXIT_DATA
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    for needle in needles:
        assert needle in lines[0]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, dataset):
    run = tmp_path_factory.mktemp("cli_run")
    code = main(["train", "--manifest", str(dataset / "manifest.csv"),
                 "--out", str(run), "--model", "tiny", "--epochs", "1",
                 "--lr", "1e-3", "--batch-size", "8", "--seed", "2"])
    assert code == EXIT_OK
    return run / "best.ckpt"


class TestPhantomCommand:
    def test_creates_files_and_manifest(self, dataset):
        nii = sorted(dataset.glob("*.nii"))
        assert len(nii) == 18  # 3 * (1 clean + 4 corrupted + 1 mask)
        assert (dataset / "manifest.csv").exists()

    def test_repeat_same_seed_bit_identical(self, tmp_path, cfg_file):
        args = ["phantom", "-n", "2", "--seed", "5", "--config", cfg_file]
        assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        for fa in sorted((tmp_path / "a").iterdir()):
            assert fa.read_bytes() == (tmp_path / "b" / fa.name).read_bytes()

    def test_missing_out_dir_autocreated(self, tmp_path, cfg_file):
        target = tmp_path / "deep" / "nested" / "dir"
        assert main(["phantom", "-n", "1", "--seed", "1", "--config", cfg_file,
                     "--out", str(target)]) == EXIT_OK
        assert (target / "manifest.csv").exists()

    def test_flag_overrides_config_file(self, tmp_path, cfg_file, capsys):
        assert main(["phantom", "-n", "1", "--seed", "3", "--config", cfg_file,
                     "--size", "64,64,4", "--out", str(tmp_path / "o")]) \
            == EXIT_OK
        echoed = capsys.readouterr().out
        assert "size=(64, 64, 4)" in echoed  # flag wins over file
        vol = read_nifti(tmp_path / "o" / "phantom000.nii")
        assert vol.shape == (64, 64, 4)

    def test_infeasible_size_is_data_error(self, tmp_path, cfg_file):
        code = main(["phantom", "-n", "1", "--seed", "3", "--config", cfg_file,
                     "--size", "32,32,2", "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA


class TestAugmentCommand:
    def test_noise_writes_volume_and_sidecar(self, dataset, tmp_path):
        src = dataset / "phantom000.nii"
        out = tmp_path / "noisy.nii"
        assert main(["augment", "--in", str(src), "--kind", "noise",
                     "--seed", "4", "--out", str(out)]) == EXIT_OK
        assert out.exists() and (tmp_path / "noisy.nii.spec").exists()
        assert read_nifti(out).shape == (48, 48, 4)

    def test_invalid_kind_lists_valid_kinds(self, dataset, tmp_path, capsys):
        code = main(["augment", "--in", str(dataset / "phantom000.nii"),
                     "--kind", "blur", "--out", str(tmp_path / "x.nii")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        for kind in ("noise", "bias", "ghosting", "noise_bias"):
            assert kind in err

    def test_sidecar_replay_reproduces_bitwise(self, dataset, tmp_path):
        src = dataset / "phantom001.nii"
        first = tmp_path / "g1.nii"
        assert main(["augment", "--in", str(src), "--kind", "ghosting",
                     "--seed", "11", "--out", str(first)]) == EXIT_OK
        second = tmp_path / "g2.nii"
        assert main(["augment", "--in", str(src),
                     "--replay", str(first) + ".spec",
                     "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("text,needle", [
        (b"seed=3\nghost_count=2\nghost_axis=row\nghost_intensity=0.5\n", "'kind'"),
        (b"kind=noise\nseed=abc\nnoise_std=0.05\n", "'seed'"),
        (b"kind=noise\nseed=3\nnoise_std=0.05\n\xff\n", "undecodable"),
    ])
    def test_malformed_sidecar_data_error(self, dataset, tmp_path, capsys,
                                          text, needle):
        spec = tmp_path / "bad.spec"
        spec.write_bytes(text)
        code = main(["augment", "--in", str(dataset / "phantom000.nii"),
                     "--replay", str(spec), "--out", str(tmp_path / "o.nii")])
        assert_one_line_data_error(code, capsys, str(spec), needle)

    def test_ni1_magic_in_single_file_data_error(self, dataset, tmp_path,
                                                 capsys):
        # a two-file header (ni1, voxels at offset 0 of the .img) under a
        # single-file name must not be read with its header bytes as voxels
        blob = bytearray((dataset / "phantom000.nii").read_bytes())
        blob[344:348] = b"ni1\x00"
        struct.pack_into("<f", blob, 108, 0.0)
        src = tmp_path / "pair_header.nii"
        src.write_bytes(bytes(blob))
        code = main(["augment", "--in", str(src), "--kind", "noise",
                     "--out", str(tmp_path / "o.nii")])
        assert_one_line_data_error(code, capsys, str(src), "ni1")


class TestTrainCommand:
    def test_smoke_exit_zero(self, checkpoint):
        assert checkpoint.exists()

    def test_zero_epochs_rejected(self, dataset, tmp_path):
        code = main(["train", "--manifest", str(dataset / "manifest.csv"),
                     "--out", str(tmp_path), "--model", "tiny",
                     "--epochs", "0"])
        assert code == EXIT_USAGE

    def test_resume_continues_numbering(self, dataset, tmp_path):
        args = ["train", "--manifest", str(dataset / "manifest.csv"),
                "--out", str(tmp_path / "r"), "--model", "tiny",
                "--epochs", "1", "--batch-size", "8", "--seed", "6"]
        assert main(args) == EXIT_OK
        assert main(args + ["--resume", str(tmp_path / "r" / "last.ckpt")]) \
            == EXIT_OK
        with open(tmp_path / "r" / "train_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["epoch"]) for r in rows] == [1, 2]

    def test_effective_config_echoed(self, dataset, tmp_path, capsys):
        main(["train", "--manifest", str(dataset / "manifest.csv"),
              "--out", str(tmp_path / "echo"), "--model", "tiny",
              "--epochs", "1", "--batch-size", "8", "--lr", "0.002"])
        out = capsys.readouterr().out
        assert "config train: lr=0.002" in out
        assert "config train: model=tiny" in out

    def test_numerical_failure_exit_code(self, dataset, tmp_path):
        with np.errstate(all="ignore"):
            code = main(["train", "--manifest", str(dataset / "manifest.csv"),
                         "--out", str(tmp_path / "blow"), "--model", "tiny",
                         "--epochs", "3", "--batch-size", "8", "--lr", "1e18"])
        assert code == EXIT_NUMERIC


class TestSegmentCommand:
    def test_output_dims_match_input_and_binary(self, dataset, checkpoint,
                                                tmp_path):
        src = dataset / "phantom002.nii"
        out = tmp_path / "mask.nii"
        assert main(["segment", "--checkpoint", str(checkpoint),
                     "--in", str(src), "--out", str(out)]) == EXIT_OK
        mask = read_nifti(out)
        assert mask.shape == read_nifti(src).shape
        assert set(np.unique(mask.data)) <= {0.0, 1.0}

    def test_deterministic_across_runs(self, dataset, checkpoint, tmp_path):
        src = dataset / "phantom000.nii"
        outs = []
        for name in ("m1.nii", "m2.nii"):
            out = tmp_path / name
            assert main(["segment", "--checkpoint", str(checkpoint),
                         "--in", str(src), "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_input_data_error(self, checkpoint, tmp_path):
        code = main(["segment", "--checkpoint", str(checkpoint),
                     "--in", str(tmp_path / "missing.nii"),
                     "--out", str(tmp_path / "o.nii")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("keep", [0.5, 20])
    def test_truncated_checkpoint_data_error(self, dataset, checkpoint,
                                             tmp_path, capsys, keep):
        blob = checkpoint.read_bytes()
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(blob[:int(len(blob) * keep) if keep < 1 else keep])
        code = main(["segment", "--checkpoint", str(bad),
                     "--in", str(dataset / "phantom000.nii"),
                     "--out", str(tmp_path / "o.nii")])
        assert_one_line_data_error(code, capsys, str(bad), "truncated")

    def test_garbage_checkpoint_data_error(self, dataset, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = main(["segment", "--checkpoint", str(bad),
                     "--in", str(dataset / "phantom000.nii"),
                     "--out", str(tmp_path / "o.nii")])
        assert code == EXIT_DATA


class TestEvaluateCommand:
    def test_csv_and_grouping(self, dataset, checkpoint, tmp_path, capsys):
        out_csv = tmp_path / "metrics.csv"
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--manifest", str(dataset / "manifest.csv"),
                     "--out", str(out_csv)])
        assert code == EXIT_OK
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 15  # 3 sources x 5 image volumes
        assert set(rows[0]) == {"id", "dice", "vol_pred_mm3", "vol_ref_mm3"}
        printed = capsys.readouterr().out
        for kind in ("clean", "noise", "bias", "ghosting", "noise_bias"):
            assert f"kind {kind}:" in printed
        assert "drop vs clean" in printed

    def test_split_selection(self, dataset, checkpoint, tmp_path):
        out_csv = tmp_path / "m.csv"
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--manifest", str(dataset / "manifest.csv"),
                     "--out", str(out_csv), "--split", "test",
                     "--split-seed", "21", "--split-ratio", "0.67"])
        assert code == EXIT_OK
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5  # 1 held-out source x 5 volumes

    @pytest.mark.parametrize("text,needles", [
        (b"path,role\nphantom000.nii,clean\n", ("line 2", "'seed'")),
        (b"path,role,seed,source_id\nphantom000.nii,clean,x7,s0\n",
         ("line 2", "'x7'")),
        (b"path,role,seed,source_id\nphantom000.nii,clean,1,s\xff\n",
         ("undecodable",)),
    ])
    def test_malformed_manifest_data_error(self, dataset, checkpoint, tmp_path,
                                           capsys, text, needles):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(text)
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--manifest", str(manifest),
                     "--out", str(tmp_path / "m.csv")])
        assert_one_line_data_error(code, capsys, str(manifest), *needles)


class TestThreadCap:
    def test_thread_env_applied(self, monkeypatch):
        from wmhseg.cli import _apply_thread_cap
        monkeypatch.setenv("WMHSEG_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        _apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "2"


class TestUsage:
    def test_unknown_subcommand_exit_one(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag_exit_one(self):
        assert main(["segment", "--in", "x.nii", "--out", "y.nii"]) == EXIT_USAGE
