"""Command line interface: subcommands, config precedence, exit codes."""

import csv
import errno
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import wmhseg.training as training
from wmhseg.cli import (EXIT_DATA, EXIT_INTERRUPTED, EXIT_MEMORY,
                        EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main)
from wmhseg.metrics import dice_score
from wmhseg.model import load_checkpoint, model_forward, save_checkpoint
from wmhseg.nifti import make_slice_batch, read_nifti, write_nifti
from wmhseg.phantom import ManifestEntry, read_manifest, write_manifest
from wmhseg.tensor import Tensor, no_grad

from conftest import child_env, edit_json_header
from test_training import plain_loop_mask, run_outputs

MISSING = object()  # a header key that is absent

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


@pytest.fixture(scope="module")
def volume_checkpoint(tmp_path_factory, dataset):
    """A tiny model trained with volume-scope normalization."""
    run = tmp_path_factory.mktemp("cli_run_volume")
    cfg = run / "volume.cfg"
    cfg.write_text("normalization_scope=volume\n")
    code = main(["train", "--manifest", str(dataset / "manifest.csv"),
                 "--out", str(run), "--model", "tiny", "--epochs", "1",
                 "--lr", "1e-3", "--batch-size", "8", "--seed", "2",
                 "--config", str(cfg)])
    assert code == EXIT_OK
    return run / "best.ckpt"


def oracle_mask(params, cfg, vol, scope):
    return plain_loop_mask(params, replace(cfg, normalization_scope=scope), vol)


def straddle(params, cfg, vol):
    """Shift the head bias so the median logit on ``vol`` is 0: a short run's
    masks are empty, which would hide any difference between two inputs."""
    x = make_slice_batch(vol, cfg.input_size[0], cfg.normalization_scope)
    with no_grad():
        p = model_forward(Tensor(x), params, cfg).data.astype(np.float64)
    params["decoder.head.bias"].data -= np.float32(np.median(np.log(p / (1 - p))))


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

    @pytest.mark.parametrize("text,size,key", [
        ("lesion_radius_mm=0,0\nnum_lesions_range=2,2\n", "32,32,3",
         "lesion_radius_mm"),
        ("lesion_radius_mm=-3,-1\n", "32,32,3", "lesion_radius_mm"),
        ("num_lesions_range=-2,-1\n", "32,32,3", "num_lesions_range"),
        ("spacing=1,0,1\n", "32,32,3", "spacing"),
        ("", "0,32,3", "size"),
        ("lesion_radius_mm=0.002,0.004\n", "32,32,3", "lesion_radius_mm"),
    ], ids=["zero-radius", "negative-radius", "negative-count",
            "zero-spacing", "zero-size", "sub-voxel-radius"])
    def test_out_of_range_config_usage_error(self, tmp_path, capsys, text,
                                             size, key):
        cfg = tmp_path / "phantom.cfg"
        cfg.write_text(text)
        code = main(["phantom", "-n", "1", "--seed", "3", "--config", str(cfg),
                     "--size", size, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and key in lines[0], lines
        assert not (tmp_path / "o").exists()


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
        (b"kind=noise\nseed=3\nnoise_std=-0.5\n", "'noise_std'"),
        (b"kind=noise\nseed=3\nnoise_std=nan\n", "'noise_std'"),
        (b"kind=noise\nseed=3\nnoise_std=inf\n", "'noise_std'"),
        (b"kind=ghosting\nseed=3\nghost_count=2\nghost_axis=row\n"
         b"ghost_intensity=1.5\n", "'ghost_intensity'"),
        (b"kind=ghosting\nseed=3\nghost_count=2\nghost_axis=row\n"
         b"ghost_intensity=nan\n", "'ghost_intensity'"),
        (b"kind=ghosting\nseed=3\nghost_count=0\nghost_axis=row\n"
         b"ghost_intensity=0.5\n", "'ghost_count'"),
        (b"kind=ghosting\nseed=3\nghost_count=2\nghost_axis=diag\n"
         b"ghost_intensity=0.5\n", "'ghost_axis'"),
        (b"kind=bias\nseed=3\nbias_order=-1\nbias_coeffs=0.1\n", "'bias_order'"),
        (b"kind=bias\nseed=3\nbias_order=1\nbias_coeffs=0.1,nan,0.2,0.3\n",
         "'bias_coeffs'"),
        (b"kind=bias\nseed=3\nbias_order=1\nbias_coeffs=0.1,0.2\n", "'bias_coeffs'"),
        # finite, but exp of the polynomial overflows
        (b"kind=bias\nseed=3\nbias_order=1\nbias_coeffs=1e300,0,0,0\n",
         "'bias_coeffs'"),
        (b"kind=bias\nseed=3\nbias_order=1\nbias_coeffs=1e308,1e308,0,0\n",
         "'bias_coeffs'"),
        (b"kind=bias\nseed=3\nbias_order=1\nbias_coeffs=30,30,30,0\n",
         "'bias_coeffs'"),
        (b"kind=noise_bias\nseed=3\nnoise_std=0.05\nbias_order=1\n",
         "'bias_coeffs'"),
        (b"kind=sparkle\nseed=3\n", "'kind'"),
        # every key the kind records is required, and no value is assumed
        (b"kind=noise\nseed=3\n", "'noise_std'"),
        (b"kind=ghosting\nseed=3\nghost_count=2\n", "'ghost_axis'"),
        (b"kind=ghosting\nseed=3\n", "'ghost_count'"),
        (b"kind=ghosting\nseed=3\nghost_count=" + b"1" + b"0" * 29 +
         b"\nghost_axis=row\nghost_intensity=0.5\n", "'ghost_count'"),
        (b"kind=noise\nseed=3\nnoise_std=0.05\nnoise_std=0.06\n",
         "line 4: repeated key 'noise_std'"),
    ])
    def test_malformed_sidecar_data_error(self, dataset, tmp_path, capsys,
                                          text, needle):
        spec = tmp_path / "bad.spec"
        spec.write_bytes(text)
        code = main(["augment", "--in", str(dataset / "phantom000.nii"),
                     "--replay", str(spec), "--out", str(tmp_path / "o.nii")])
        assert_one_line_data_error(code, capsys, str(spec), needle)

    def test_bias_field_overflow_data_error(self, dataset, tmp_path, capsys):
        # exp(88) fits float32, but not once it multiplies a bright volume
        vol = read_nifti(dataset / "phantom000.nii")
        bright = tmp_path / "bright.nii"
        write_nifti(vol.with_data(vol.data * 1000.0), bright)
        spec = tmp_path / "hot.spec"
        spec.write_bytes(b"kind=bias\nseed=3\nbias_order=1\nbias_coeffs=88,0,0,0\n")
        out = tmp_path / "o.nii"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            code = main(["augment", "--in", str(bright), "--replay", str(spec),
                         "--out", str(out)])
        assert_one_line_data_error(code, capsys, "overflows")
        assert not out.exists() and not (tmp_path / "o.nii.spec").exists()

    @pytest.mark.parametrize("coeffs", [b"", b"bias_coeffs=" + b"0.1," * 19 + b"0.1\n"],
                             ids=["no-coeffs", "20-coeffs"])
    def test_huge_bias_order_fails_fast(self, dataset, tmp_path, capsys, coeffs):
        # the coefficient count of order 3000 is 4.5e9: it must be computed,
        # never enumerated or allocated
        spec = tmp_path / "huge.spec"
        spec.write_bytes(b"kind=bias\nseed=3\nbias_order=3000\n" + coeffs)
        start = time.perf_counter()
        code = main(["augment", "--in", str(dataset / "phantom000.nii"),
                     "--replay", str(spec), "--out", str(tmp_path / "o.nii")])
        assert time.perf_counter() - start < 1.0
        assert_one_line_data_error(code, capsys, str(spec), "'bias_coeffs'")

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

    @pytest.mark.parametrize("flag,name", [("--epochs", "epochs"),
                                           ("--batch-size", "batch_size")])
    def test_zero_count_rejected(self, dataset, tmp_path, capsys, flag, name):
        code = main(["train", "--manifest", str(dataset / "manifest.csv"),
                     "--out", str(tmp_path), "--model", "tiny", flag, "0"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip().splitlines() == \
            [f"error: {name} must be >= 1, got 0"]

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_rejected(self, dataset, tmp_path, capsys, lr):
        code = main(["train", "--manifest", str(dataset / "manifest.csv"),
                     "--out", str(tmp_path / "o"), "--model", "tiny",
                     "--lr", lr])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip().splitlines() == \
            [f"error: lr must be finite and > 0, got {lr}"]

    def test_negative_plateau_patience_rejected(self, dataset, tmp_path,
                                                capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("plateau_patience=-3\n")
        code = main(["train", "--manifest", str(dataset / "manifest.csv"),
                     "--out", str(tmp_path / "o"), "--model", "tiny",
                     "--epochs", "1", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip().splitlines() == \
            ["error: plateau_patience must be >= 0, got -3"]
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("key,value", [
        ("epoch", "x"), ("epoch", 1.5), ("epoch", -5), ("step", "x"),
        ("step", -1), ("step", 10 ** 400), ("best_val", "x"),
        ("best_val", float("inf")), ("best_val", 10 ** 400),
        ("lr", "abc"), ("lr", float("nan")), ("lr", -1.0), ("lr", 0.0),
        ("bad_epochs", "x"), ("bad_epochs", True), ("rng_state", None),
        ("rng_state", {}), ("epoch", MISSING), ("model", MISSING),
        ("model", 5), ("model", {"stage_channels": [8, 8, 8]}),
        ("model", {"stage_depths": [1, 1, 1, 1], "unknown": 1}),
        ("model", {"normalization_scope": "patient"}),
    ])
    def test_damaged_state_header_data_error(self, checkpoint, dataset,
                                             tmp_path, capsys, key, value):
        # the resume reads the state alone: no checkpoint sits beside it
        run = checkpoint.parent
        resume = tmp_path / "last.ckpt"

        def damage(header):
            header.pop(key)
            if value is not MISSING:
                header[key] = value
        (tmp_path / "last.ckpt.state").write_bytes(edit_json_header(
            (run / "last.ckpt.state").read_bytes(), damage))
        code = main(["train", "--manifest", str(dataset / "manifest.csv"),
                     "--out", str(tmp_path / "o"), "--model", "tiny",
                     "--epochs", "1", "--batch-size", "8", "--seed", "2",
                     "--lr", "1e-3", "--resume", str(resume)])
        assert_one_line_data_error(code, capsys, "last.ckpt.state", key)

    def test_resume_with_other_scope_usage_error(self, dataset, tmp_path,
                                                 capsys):
        args = ["train", "--manifest", str(dataset / "manifest.csv"),
                "--out", str(tmp_path / "r"), "--model", "tiny",
                "--epochs", "1", "--batch-size", "8", "--seed", "6"]
        assert main(args) == EXIT_OK
        cfg = tmp_path / "volume.cfg"
        cfg.write_text("normalization_scope=volume\n")
        capsys.readouterr()
        code = main(args + ["--resume", str(tmp_path / "r" / "last.ckpt"),
                            "--config", str(cfg)])
        assert code == EXIT_USAGE
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "different model config" in lines[0], lines

    def test_effective_config_echoed(self, dataset, tmp_path, capsys):
        main(["train", "--manifest", str(dataset / "manifest.csv"),
              "--out", str(tmp_path / "echo"), "--model", "tiny",
              "--epochs", "1", "--batch-size", "8", "--lr", "0.002"])
        out = capsys.readouterr().out
        assert "config train: lr=0.002" in out
        assert "config train: model=tiny" in out

    def test_numerical_failure_exit_code(self, dataset, tmp_path, capsys):
        # the ops' own finite checks report; numpy's warnings stay silent
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--manifest", str(dataset / "manifest.csv"),
                         "--out", str(tmp_path / "blow"), "--model", "tiny",
                         "--epochs", "3", "--batch-size", "8", "--lr", "1e18"])
        assert code == EXIT_NUMERIC
        assert not caught, [str(w.message) for w in caught]
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "non-finite" in lines[0], lines


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

    def test_nan_parameter_numeric_error_from_worker(self, dataset, checkpoint,
                                                     tmp_path, capsys):
        # every slice fails in whichever thread runs it; the error comes back
        # to the calling thread as one line and exit 3, with no output file
        params, cfg = load_checkpoint(checkpoint)
        params["decoder.head.bias"].data[:] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(bad, params, cfg)
        capsys.readouterr()
        out = tmp_path / "o.nii"
        code = main(["segment", "--checkpoint", str(bad),
                     "--in", str(dataset / "phantom000.nii"), "--out", str(out)])
        assert code == EXIT_NUMERIC
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "non-finite" in lines[0], lines
        assert not out.exists()

    def test_volume_scope_checkpoint_segments_as_evaluated(
            self, dataset, volume_checkpoint, tmp_path):
        params, cfg = load_checkpoint(volume_checkpoint)
        assert cfg.normalization_scope == "volume"
        src = dataset / "phantom000_bias.nii"
        vol = read_nifti(src)
        straddle(params, cfg, vol)
        ckpt = tmp_path / "volume.ckpt"
        save_checkpoint(ckpt, params, cfg)
        want = oracle_mask(params, cfg, vol, "volume")
        assert 0 < want.mean() < 1
        assert not np.array_equal(want, oracle_mask(params, cfg, vol, "slice"))

        out = tmp_path / "mask.nii"
        assert main(["segment", "--checkpoint", str(ckpt), "--in", str(src),
                     "--out", str(out)]) == EXIT_OK
        got = read_nifti(out).data
        assert np.array_equal(got, want)

        # evaluate scores that same mask
        for name in ("phantom000_bias.nii", "phantom000_mask.nii"):
            shutil.copy(dataset / name, tmp_path / name)
        write_manifest(tmp_path / "one.csv", [
            ManifestEntry("phantom000_bias.nii", "bias", 0, "phantom000"),
            ManifestEntry("phantom000_mask.nii", "mask", 0, "phantom000")])
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--manifest", str(tmp_path / "one.csv"),
                     "--out", str(tmp_path / "m.csv")]) == EXIT_OK
        with open(tmp_path / "m.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        ref = read_nifti(dataset / "phantom000_mask.nii").data > 0.5
        assert row["dice"] == f"{dice_score(got, ref):.6f}"
        assert float(row["vol_pred_mm3"]) == pytest.approx(
            got.sum() * np.prod(vol.spacing), abs=1e-3)

    def test_checkpoint_without_scope_key_segments_per_slice(
            self, dataset, checkpoint, tmp_path):
        params, cfg = load_checkpoint(checkpoint)
        src = dataset / "phantom000_bias.nii"
        vol = read_nifti(src)
        straddle(params, cfg, vol)
        with_key = tmp_path / "with_key.ckpt"
        save_checkpoint(with_key, params, cfg)
        old = tmp_path / "old.ckpt"
        # as written before the header had the key
        old.write_bytes(edit_json_header(
            with_key.read_bytes(), lambda h: h.pop("normalization_scope")))
        assert b"normalization_scope" not in old.read_bytes()
        want = oracle_mask(params, cfg, vol, "slice")
        assert 0 < want.mean() < 1
        assert not np.array_equal(want, oracle_mask(params, cfg, vol, "volume"))
        for ckpt, out in ((old, "old.nii"), (with_key, "new.nii")):
            assert main(["segment", "--checkpoint", str(ckpt), "--in", str(src),
                         "--out", str(tmp_path / out)]) == EXIT_OK
        assert np.array_equal(read_nifti(tmp_path / "old.nii").data, want)
        assert (tmp_path / "old.nii").read_bytes() == \
            (tmp_path / "new.nii").read_bytes()

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

    @pytest.mark.parametrize("edit,needles", [
        ("narrow", ("'stage1.embed.weight'", "(3, 1, 7, 7)")),
        ("drop", ("missing", "'decoder.head.bias'")),
        # keys the header holds at values the network cannot have: one
        # older headers carry, and two written from the fixed architecture
        ("in_channels", ("in_channels must be 1, got 2",)),
        ("reduction_factors",
         ("reduction_factors must be [64, 16, 4, 1], got [64, 16, 16, 1]",)),
        ("decoder_channels",
         ("decoder_channels must be [8, 8, 8, 8], got [8, 8, 16, 8]",)),
    ])
    def test_checkpoint_not_matching_config_data_error(
            self, dataset, checkpoint, tmp_path, capsys, edit, needles):
        params, cfg = load_checkpoint(checkpoint)
        if edit == "narrow":
            params["stage1.embed.weight"] = \
                Tensor(params["stage1.embed.weight"].data[:3])
        elif edit == "drop":
            del params["decoder.head.bias"]
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, cfg)
        header_edits = {"in_channels": 2, "reduction_factors": [64, 16, 16, 1],
                        "decoder_channels": [8, 8, 16, 8]}
        if edit in header_edits:
            bad.write_bytes(edit_json_header(
                bad.read_bytes(), lambda h: h.update({edit: header_edits[edit]})))
        code = main(["segment", "--checkpoint", str(bad),
                     "--in", str(dataset / "phantom000.nii"),
                     "--out", str(tmp_path / "o.nii")])
        assert_one_line_data_error(code, capsys, str(bad), *needles)

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

    def test_split_defaults_follow_train_config(self, dataset, checkpoint,
                                                tmp_path, capsys, monkeypatch):
        # without the flags, --split test scores the sources that a train
        # run at TrainConfig's defaults holds out, whatever those defaults are
        @dataclass(frozen=True)
        class Defaults(training.TrainConfig):
            split_ratio: float = 0.3
            seed: int = 7
        monkeypatch.setattr(training, "TrainConfig", Defaults)
        out_csv = tmp_path / "m.csv"
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--manifest", str(dataset / "manifest.csv"),
                     "--out", str(out_csv), "--split", "test"])
        assert code == EXIT_OK
        echo = capsys.readouterr().out
        assert "config evaluate: split_ratio=0.3\n" in echo
        assert "config evaluate: split_seed=7\n" in echo
        _, test_src = training.split_dataset(
            read_manifest(dataset / "manifest.csv"), 0.3, 7)
        assert len(test_src) == 2  # the 0.8 default holds out one of 3
        with open(out_csv) as fh:
            ids = [row["id"] for row in csv.DictReader(fh)]
        assert len(ids) == 5 * len(test_src)
        assert {i.split("_")[0].removesuffix(".nii") for i in ids} == \
            set(test_src)

    def test_image_mask_shape_mismatch_data_error(self, dataset, checkpoint,
                                                  tmp_path, capsys, monkeypatch):
        # phantom000's mask loses two rows: evaluate and train both refuse
        # the pair before any inference, with one line naming the image
        entries = []
        for sid in ("phantom000", "phantom001"):
            mask = read_nifti(dataset / f"{sid}_mask.nii")
            write_nifti(mask.with_data(mask.data[2:] if sid == "phantom000"
                                       else mask.data), tmp_path / f"{sid}_mask.nii")
            shutil.copy(dataset / f"{sid}.nii", tmp_path / f"{sid}.nii")
            entries += [ManifestEntry(f"{sid}.nii", "clean", 0, sid),
                        ManifestEntry(f"{sid}_mask.nii", "mask", 0, sid)]
        write_manifest(tmp_path / "manifest.csv", entries)
        inferred = []
        monkeypatch.setattr(training, "infer_volume",
                            lambda *a: inferred.append(a))
        out_csv = tmp_path / "m.csv"
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--manifest", str(tmp_path / "manifest.csv"),
                     "--out", str(out_csv)])
        assert_one_line_data_error(code, capsys, "phantom000.nii", "shapes differ")
        assert not out_csv.exists() and not inferred
        code = main(["train", "--manifest", str(tmp_path / "manifest.csv"),
                     "--out", str(tmp_path / "run"), "--model", "tiny",
                     "--epochs", "1"])
        assert_one_line_data_error(code, capsys, "phantom000.nii", "shapes differ")

    @pytest.mark.parametrize("text,needles", [
        (b"path,role\nphantom000.nii,clean\n", ("line 2", "'seed'")),
        (b"path,role,seed,source_id\nphantom000.nii,clean,x7,s0\n",
         ("line 2", "'x7'")),
        (b"path,role,seed,source_id\nphantom000.nii,clean,1,s\xff\n",
         ("undecodable",)),
        (b"path,role,seed,source_id\nphantom000.nii,clena,1,s0\n",
         ("line 2", "'clena'")),
    ])
    def test_malformed_manifest_data_error(self, dataset, checkpoint, tmp_path,
                                           capsys, text, needles):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(text)
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--manifest", str(manifest),
                     "--out", str(tmp_path / "m.csv")])
        assert_one_line_data_error(code, capsys, str(manifest), *needles)

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("row,needles", [
        (b"p" * ((128 << 10) + 1) + b".nii,clean,1,s0", ("field limit",)),
        (b"phantom000.nii\0,clean,1,s0", ("NUL",)),
    ], ids=["field-over-limit", "nul-in-path"])
    def test_malformed_manifest_row_names_the_line(self, checkpoint, tmp_path,
                                                   capsys, command, row,
                                                   needles):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"path,role,seed,source_id\n" + row + b"\n")
        args = ["--manifest", str(manifest)]
        args += ["--checkpoint", str(checkpoint), "--out",
                 str(tmp_path / "m.csv")] if command == "evaluate" else \
            ["--out", str(tmp_path / "run"), "--model", "tiny"]
        code = main([command] + args)
        assert_one_line_data_error(code, capsys, f"{manifest}, line 2",
                                   *needles)

    @pytest.mark.parametrize("row", [
        b"phantom000.nii," + b"r" * (128 << 10) + b",1,s0",
        b"phantom000.nii,clean," + b"7" * ((128 << 10) - 1) + b"x,s0",
    ], ids=["role", "seed"])
    def test_field_at_limit_quoted_short(self, tmp_path, capsys, row):
        # the longest field csv accepts reaches the role and seed checks
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"path,role,seed,source_id\n" + row + b"\n")
        code = main(["train", "--manifest", str(manifest),
                     "--out", str(tmp_path / "run"), "--model", "tiny"])
        assert code == EXIT_DATA
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and len(lines[0]) < 300, lines[0][:300]
        assert f"{manifest}, line 2" in lines[0] and "..." in lines[0]


class TestDamagedNiftiHeader:
    @pytest.mark.parametrize("command", ["segment", "augment"])
    @pytest.mark.parametrize("offset,value", [
        (108, np.inf), (108, np.nan), (108, 1e30), (108, -4.0),
        (80, np.nan), (112, np.inf),
    ], ids=["offset-inf", "offset-nan", "offset-huge", "offset-negative",
            "spacing-nan", "slope-inf"])
    def test_one_line_data_error(self, dataset, checkpoint, tmp_path, capsys,
                                 command, offset, value):
        blob = bytearray((dataset / "phantom000.nii").read_bytes())
        struct.pack_into("<f", blob, offset, value)
        src = tmp_path / "damaged.nii"
        src.write_bytes(bytes(blob))
        args = ["--in", str(src), "--out", str(tmp_path / "o.nii")]
        args += ["--checkpoint", str(checkpoint)] if command == "segment" \
            else ["--kind", "noise"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning either
            code = main([command] + args)
        assert_one_line_data_error(code, capsys, str(src))
        assert not (tmp_path / "o.nii").exists()


class TestBudgetDeterminism:
    """The console's pool at one and two BLAS threads writes the same bytes."""

    @staticmethod
    def run_at(threads: str, args: list[str]) -> None:
        proc = subprocess.run([sys.executable, "-m", "wmhseg.cli", *args],
                              env=child_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_segment_and_evaluate_byte_identical(self, cfg_file, checkpoint,
                                                 tmp_path):
        # 5 slices: the last shard holds one
        assert main(["phantom", "-n", "1", "--seed", "4", "--config", cfg_file,
                     "--size", "48,48,5", "--out", str(tmp_path / "ds")]) \
            == EXIT_OK
        src = tmp_path / "ds" / "phantom000.nii"
        params, cfg = load_checkpoint(checkpoint)
        straddle(params, cfg, read_nifti(src))
        ckpt = tmp_path / "straddled.ckpt"
        save_checkpoint(ckpt, params, cfg)
        outs = {}
        for threads in ("1", "2"):
            mask, metrics = tmp_path / f"m{threads}.nii", tmp_path / f"m{threads}.csv"
            self.run_at(threads, ["segment", "--checkpoint", str(ckpt),
                                  "--in", str(src), "--out", str(mask)])
            self.run_at(threads, ["evaluate", "--checkpoint", str(ckpt),
                                  "--manifest", str(tmp_path / "ds" / "manifest.csv"),
                                  "--per-slice", "--out", str(metrics)])
            outs[threads] = mask.read_bytes(), metrics.read_bytes()
        assert 0 < read_nifti(tmp_path / "m1.nii").data.mean() < 1
        assert outs["1"] == outs["2"]

    def test_phantom_byte_identical(self, tmp_path):
        # at this size and seed each phantom's smoothed box stays off every
        # volume edge (test_phantom's "interior" case)
        outs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"ds{threads}"
            self.run_at(threads, ["phantom", "-n", "2", "--seed", "10",
                                  "--size", "96,96,64", "--out", str(out)])
            outs[threads] = {f.name: f.read_bytes() for f in out.iterdir()}
        names = sorted(outs["1"])
        assert len([n for n in names if n.endswith(".nii")]) == 12
        assert len([n for n in names if n.endswith(".spec")]) == 8
        assert "manifest.csv" in names
        assert outs["1"] == outs["2"]
        for i in range(2):
            data = read_nifti(tmp_path / "ds1" / f"phantom{i:03d}.nii").data
            assert data.any()
            assert not any(face.any() for face in (
                data[0], data[-1], data[:, 0], data[:, -1],
                data[:, :, 0], data[:, :, -1]))


# runs ``wmhseg`` with one resource limit set in this child process only:
# RLIMIT_AS is the address space already mapped plus argv[2] bytes, and
# RLIMIT_FSIZE is argv[2] bytes, with SIGXFSZ ignored so an oversized write
# fails with EFBIG instead of killing the process
LIMITED_CHILD = """
import resource, signal, sys
import wmhseg.training
from wmhseg.cli import main
kind, limit = sys.argv[1], int(sys.argv[2])
if kind == "RLIMIT_AS":
    with open("/proc/self/status") as fh:
        limit += next(int(line.split()[1]) * 1024 for line in fh
                      if line.startswith("VmSize:"))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(getattr(resource, kind), (limit, limit))
sys.exit(main(sys.argv[3:]))
"""


def run_limited(kind: str, limit: int, args: list[str]):
    """(exit code, stderr lines) of ``wmhseg args`` under one limit, on one
    BLAS thread."""
    pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc to size the address-space limit")
    proc = subprocess.run([sys.executable, "-c", LIMITED_CHILD, kind,
                           str(limit), *args],
                          env=child_env(OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stderr.strip().splitlines()


class TestResourceLimits:
    def test_out_of_memory_in_train_is_one_line(self, dataset, tmp_path):
        # 40 training slices at batch 32 keep 16 two-sample default-model
        # shard graphs (about 160 MB each) alive before the first backward
        code, err = run_limited(
            "RLIMIT_AS", 400 << 20,
            ["train", "--manifest", str(dataset / "manifest.csv"),
             "--out", str(tmp_path / "run"), "--model", "default",
             "--batch-size", "32", "--epochs", "1"])
        assert code == EXIT_MEMORY, err
        assert len(err) == 1, err
        assert err[0].startswith("error: train ran out of memory: batch size "
                                 "32"), err
        assert not (tmp_path / "run" / "last.ckpt").exists()

    def test_out_of_memory_names_the_command(self, dataset, checkpoint,
                                             tmp_path, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr(training, "infer_volume", exhausted)
        code = main(["segment", "--checkpoint", str(checkpoint),
                     "--in", str(dataset / "phantom000.nii"),
                     "--out", str(tmp_path / "m.nii")])
        assert code == EXIT_MEMORY
        assert capsys.readouterr().err.splitlines() == \
            ["error: segment ran out of memory"]
        assert not (tmp_path / "m.nii").exists()

    def test_file_size_limit_names_the_file(self, tmp_path):
        # every volume of a 64x64x8 phantom is 128 KiB of float32 voxels
        out = tmp_path / "data"
        code, err = run_limited("RLIMIT_FSIZE", 64 << 10,
                                ["phantom", "-n", "2", "--size", "64,64,8",
                                 "--out", str(out)])
        assert code == EXIT_DATA, err
        assert err == [f"error: [Errno {errno.EFBIG}] "
                       f"{os.strerror(errno.EFBIG)}: '{out / 'phantom000.nii'}'"]
        # no partial file (nor its temporary) and no manifest
        assert sorted(p.name for p in out.iterdir()) == []


# runs ``wmhseg``, then prints its exit code and the loaded module names
IMPORT_PROBE = """
import json, sys
from wmhseg.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


class TestImports:
    """A command loads the modules it runs and no others: a fresh
    interpreter pays for every import once per command."""

    NOT_LOADED = {
        "phantom": {"wmhseg.tensor", "wmhseg.model", "wmhseg.training"},
        "augment": {"wmhseg.tensor", "wmhseg.model", "wmhseg.training",
                    "scipy.special", "scipy.ndimage"},
        "segment": {"scipy.ndimage"},
        "evaluate": {"scipy.ndimage"},
    }

    @pytest.mark.parametrize("command", NOT_LOADED)
    def test_command_loads_only_its_modules(self, cfg_file, dataset,
                                            checkpoint, tmp_path, command):
        args = {
            "phantom": ["-n", "1", "--config", cfg_file,
                        "--out", str(tmp_path / "ds")],
            "augment": ["--in", str(dataset / "phantom000.nii"),
                        "--kind", "ghosting", "--out", str(tmp_path / "g.nii")],
            "segment": ["--checkpoint", str(checkpoint),
                        "--in", str(dataset / "phantom000.nii"),
                        "--out", str(tmp_path / "m.nii")],
            "evaluate": ["--checkpoint", str(checkpoint),
                         "--manifest", str(dataset / "manifest.csv"),
                         "--out", str(tmp_path / "m.csv")],
        }[command]
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, command,
                               *args], env=child_env(OPENBLAS_NUM_THREADS="1"),
                              capture_output=True, text=True, timeout=300)
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == EXIT_OK, proc.stderr
        assert self.NOT_LOADED[command].isdisjoint(modules)


# runs ``wmhseg`` with Python's SIGINT handler, which a child started with
# SIGINT ignored (such as from a background job) would not install itself
INTERRUPTIBLE = """
import signal, sys
signal.signal(signal.SIGINT, signal.default_int_handler)
from wmhseg.cli import main
sys.exit(main(sys.argv[1:]))
"""


def interrupt_when(ready, args: list[str], timeout: float = 120):
    """(exit code, stderr lines) of ``wmhseg args`` sent SIGINT once
    ``ready()`` holds, on one BLAS thread."""
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTIBLE, *args],
                            env=child_env(OPENBLAS_NUM_THREADS="1"),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        deadline = time.monotonic() + timeout
        while not ready() and proc.poll() is None \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        err = proc.communicate(timeout=timeout)[1]
    finally:
        proc.kill()  # nothing to do if it has exited
        proc.wait()
    return proc.returncode, err.strip().splitlines()


# runs ``wmhseg`` and sends itself SIGKILL at the point that its first two
# arguments name: just before the n-th ``os.replace`` ("replace n"), or at
# the first Adam step once epoch n is saved ("step n")
KILLED = """
import os, signal, sys
import wmhseg.training as training
point, n = sys.argv[1], int(sys.argv[2])
replace, step, replaced = os.replace, training.adam_step, []

def counted(src, dst):
    replaced.append(dst)
    if len(replaced) == n:
        os.kill(os.getpid(), signal.SIGKILL)
    replace(src, dst)

def stepped(params, grads, state):
    if state.epoch == n:
        os.kill(os.getpid(), signal.SIGKILL)
    step(params, grads, state)

if point == "replace":
    os.replace = counted
else:
    training.adam_step = stepped
from wmhseg.cli import main
sys.exit(main(sys.argv[3:]))
"""


def killed_at(point: str, n: int, args: list[str], timeout: float = 120):
    """(exit code, stderr lines) of ``wmhseg args`` run in a child on one
    BLAS thread until it kills itself at ``point`` ``n`` (see KILLED)."""
    proc = subprocess.run([sys.executable, "-c", KILLED, point, str(n), *args],
                          env=child_env(OPENBLAS_NUM_THREADS="1"),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    return proc.returncode, proc.stderr.strip().splitlines()


class TestInterrupt:
    def test_phantom_leaves_no_partial_file_and_no_manifest(self, tmp_path):
        out = tmp_path / "ds"
        code, err = interrupt_when(lambda: (out / "phantom000.nii").exists(),
                                   ["phantom", "-n", "40", "--out", str(out)])
        assert code == EXIT_INTERRUPTED, err
        assert err == ["error: phantom interrupted"]
        names = [p.name for p in out.iterdir()]
        assert "manifest.csv" not in names
        assert not [n for n in names if n.endswith(".tmp")], names

    def test_train_killed_at_any_save_resumes_byte_identical(
            self, dataset, tmp_path, capsys, monkeypatch):
        args = ["train", "--manifest", str(dataset / "manifest.csv"),
                "--model", "tiny", "--batch-size", "8", "--seed", "2"]
        whole = tmp_path / "whole"
        replaced, replace = [], os.replace

        def record(src, dst):
            replaced.append(Path(dst).name)
            replace(src, dst)
        with monkeypatch.context() as m:
            m.setattr(os, "replace", record)
            assert main(args + ["--out", str(whole), "--epochs", "2"]) == EXIT_OK
        # the log's start, then per epoch best.ckpt (if it improved),
        # last.ckpt and its state
        assert replaced[-2:] == ["last.ckpt", "last.ckpt.state"], replaced
        first_state = replaced.index("last.ckpt.state") + 1
        points = [("replace", n) for n in range(1, len(replaced) + 1)]
        for point, n in points + [("step", 1)]:
            run = tmp_path / f"{point}{n}"
            code, err = killed_at(point, n, args + ["--out", str(run),
                                                    "--epochs", "2"])
            assert code == -signal.SIGKILL, (point, n, err)
            capsys.readouterr()
            code = main(args + ["--out", str(run), "--epochs", "1",
                                "--resume", str(run / "last.ckpt")])
            if point == "replace" and n <= first_state:
                # no state was saved yet: the run starts over
                assert_one_line_data_error(code, capsys,
                                           str(run / "last.ckpt.state"))
                continue
            assert code == EXIT_OK, (point, n)
            # the resume deletes the temporary file of the write that the
            # kill cut short
            assert sorted(p.name for p in run.iterdir()) == \
                ["best.ckpt", "last.ckpt", "last.ckpt.state", "train_log.csv"]
            assert run_outputs(run) == run_outputs(whole), (point, n)

    def test_fresh_run_deletes_stale_temporaries(self, dataset, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        names = ["best.ckpt", "last.ckpt", "last.ckpt.state", "train_log.csv"]
        for name in names:
            (run / f".{name}.0123456789ab.tmp").write_bytes(b"partial")
        (run / ".notes.txt.0123456789ab.tmp").write_bytes(b"not ours")
        assert main(["train", "--manifest", str(dataset / "manifest.csv"),
                     "--out", str(run), "--model", "tiny", "--epochs", "1",
                     "--batch-size", "8"]) == EXIT_OK
        assert sorted(p.name for p in run.iterdir()) == \
            [".notes.txt.0123456789ab.tmp"] + names


class TestUsage:
    def test_unknown_subcommand_exit_one(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_model_preset_in_config_file(self, dataset, tmp_path,
                                                 capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=huge\n")
        out = tmp_path / "out"
        code = main(["train", "--manifest", str(dataset / "manifest.csv"),
                     "--out", str(out), "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip().splitlines() == \
            ["error: unknown model preset 'huge'"]
        assert not out.exists()

    def test_closed_stdout_exits_zero(self, tmp_path, monkeypatch):
        # as when the output is piped into a reader that has exited
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["phantom", "-n", "1", "--size", "32,32,3",
                     "--out", str(tmp_path / "ds")]) == EXIT_OK

    def test_unmapped_exception_propagates(self, tmp_path, monkeypatch):
        # only the package's errors, ValueError, OSError, MemoryError and
        # interrupts have exit codes; anything else is a bug to show in full
        import wmhseg.phantom as phantom

        def broken(*args, **kwargs):
            raise LookupError("a bug")
        monkeypatch.setattr(phantom, "generate_dataset", broken)
        with pytest.raises(LookupError, match="a bug"):
            main(["phantom", "-n", "1", "--out", str(tmp_path / "ds")])

    def test_missing_required_flag_exit_one(self):
        assert main(["segment", "--in", "x.nii", "--out", "y.nii"]) == EXIT_USAGE

    @pytest.mark.parametrize("ratio", ["inf", "nan", "5", "-1", "0", "1"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_split_ratio_outside_open_unit_interval(
            self, dataset, checkpoint, tmp_path, capsys, command, ratio):
        out = tmp_path / "out"
        args = ["--manifest", str(dataset / "manifest.csv"), "--out", str(out),
                "--split-ratio", ratio]
        args += ["--model", "tiny", "--epochs", "1"] if command == "train" \
            else ["--checkpoint", str(checkpoint), "--split", "test"]
        code = main([command] + args)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip().splitlines() == \
            [f"error: split_ratio must be in (0,1), got {float(ratio)}"]
        assert not out.exists()


    @pytest.mark.parametrize("split", ["all", "train", "test"])
    def test_evaluate_split_ratio_checked_for_every_split(
            self, dataset, checkpoint, tmp_path, capsys, split):
        out = tmp_path / "m.csv"
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--manifest", str(dataset / "manifest.csv"),
                     "--out", str(out), "--split", split,
                     "--split-ratio", "5"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip().splitlines() == \
            ["error: split_ratio must be in (0,1), got 5.0"]
        assert not out.exists()


class TestConfigFile:
    @pytest.mark.parametrize("command,text,needles", [
        ("train", b"epoch=1\nlearning_rate=5\n", ("line 1", "'epoch'")),
        ("train", b"lr=1e-3\n# model\ncheckpoint_every=2\n",
         ("line 3", "'checkpoint_every'")),
        ("train", b"epochs=1\nbatch_size 8\n", ("line 2", "key=value")),
        ("train", b"epochs=1\n\xff\n", ("line 2", "undecodable")),
        ("phantom", b"sedd=5\n", ("line 1", "'sedd'")),
        ("phantom", b"n=1\nsize=a,b\n", ("line 2", "size='a,b'")),
        ("train", b"epochs=abc\n", ("line 1", "epochs='abc'", "an int")),
        ("train", b"epochs=1\nlr=fast\n", ("line 2", "lr='fast'", "a finite number")),
        ("train", b"lr=nan\n", ("line 1", "lr='nan'", "a finite number")),
        ("phantom", b"spacing=1,x,3\n",
         ("line 1", "spacing='1,x,3'",
          "3 comma-separated values, each a finite number")),
        ("phantom", b"lesion_radius_mm=2.0\n",
         ("line 1", "lesion_radius_mm='2.0'", "2 comma-separated values")),
        ("train", b"include_artifacts=yes\n",
         ("line 1", "include_artifacts='yes'", "true or false")),
        ("train", b"beta1=0.9\n", ("line 1", "'beta1'")),
        ("phantom", b"lesion_intensity=0.9\n", ("line 1", "'lesion_intensity'")),
        # the architecture is chosen with --model alone
        ("train", b"stage_channels=8,8,8,8\n", ("line 1", "'stage_channels'")),
        ("phantom", b"n=1\nn=2\n", ("line 2", "repeated key 'n'")),
    ], ids=["train-typo", "train-removed-key", "no-equals", "undecodable",
            "phantom-typo", "unparsable", "int-key", "float-key", "float-nan", "tuple-key",
            "tuple-length", "bool-key", "train-fixed-adam-key",
            "phantom-fixed-intensity-key", "train-architecture-key",
            "repeated-key"])
    def test_bad_config_usage_error(self, dataset, tmp_path, capsys, command,
                                    text, needles):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text)
        out = tmp_path / "out"
        args = ["--out", str(out), "--config", str(cfg)]
        if command == "train":
            args += ["--manifest", str(dataset / "manifest.csv"),
                     "--model", "tiny"]
        code = main([command] + args)
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, lines
        for needle in (str(cfg),) + needles:
            assert needle in lines[0]
        assert "config " not in captured.out  # rejected before the echo
        assert not out.exists()

    def test_values_take_the_type_of_their_default(self, dataset, tmp_path,
                                                   capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nbatch_size=8\nlr=1\ninclude_artifacts=False\n"
                       "normalization_scope=volume\n")
        assert main(["train", "--manifest", str(dataset / "manifest.csv"),
                     "--out", str(tmp_path / "o"), "--model", "tiny",
                     "--config", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        for line in ("lr=1.0", "include_artifacts=False", "epochs=1",
                     "normalization_scope=volume"):
            assert f"config train: {line}\n" in out
