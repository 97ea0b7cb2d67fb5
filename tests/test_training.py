"""Trainer: splits, Adam oracle, scheduler contract, loops, reproducibility."""

import csv
import subprocess
import sys
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

import wmhseg.training as training
from wmhseg import blas
from wmhseg import tensor as T
from wmhseg.errors import (ConfigError, DataFormatError, NumericsError,
                           ValidationError)
from wmhseg.losses import combined_loss
from wmhseg.model import ModelConfig, init_parameters, model_forward
from wmhseg.nifti import Volume, make_slice_batch, unpreprocess_mask
from wmhseg.phantom import (ManifestEntry, PhantomConfig, generate_dataset,
                            manifest_dir, read_manifest)
from wmhseg.tensor import Tensor
from wmhseg.training import (TrainConfig, TrainState, adam_step, evaluate,
                             load_train_state, plateau_scheduler,
                             save_train_state, split_dataset, train)

from conftest import child_env

PHANTOM = PhantomConfig(size=(48, 48, 4), seed=0, num_lesions_range=(2, 4),
                        lesion_radius_mm=(2.0, 3.5))


def synthetic_manifest(n_sources, variants=("clean", "noise", "bias",
                                            "ghosting", "noise_bias")):
    entries = []
    for i in range(n_sources):
        sid = f"s{i:04d}"
        for v in variants:
            entries.append(ManifestEntry(f"{sid}_{v}.nii", v, i, sid))
        entries.append(ManifestEntry(f"{sid}_mask.nii", "mask", i, sid))
    return entries


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    generate_dataset(4, 31, root, config=PHANTOM)
    return root / "manifest.csv"


class TestSplitDataset:
    def test_270_sources_give_216_54(self):
        entries = synthetic_manifest(270)
        train_ids, test_ids = split_dataset(entries, 0.8, seed=1)
        assert len(train_ids) == 216 and len(test_ids) == 54

    def test_no_source_in_both_partitions(self):
        entries = synthetic_manifest(25)
        train_ids, test_ids = split_dataset(entries, 0.8, seed=7)
        assert not set(train_ids) & set(test_ids)
        assert set(train_ids) | set(test_ids) == {e.source_id for e in entries}

    def test_deterministic_under_seed(self):
        entries = synthetic_manifest(50)
        assert split_dataset(entries, 0.8, 3) == split_dataset(entries, 0.8, 3)
        assert split_dataset(entries, 0.8, 3) != split_dataset(entries, 0.8, 4)

    def test_variants_follow_their_source(self):
        entries = synthetic_manifest(10)
        train_ids, test_ids = split_dataset(entries, 0.8, seed=0)
        train_set = set(train_ids)
        for e in entries:
            partition = e.source_id in train_set
            for other in entries:
                if other.source_id == e.source_id:
                    assert (other.source_id in train_set) == partition

    def test_too_few_sources_rejected(self):
        with pytest.raises(ValidationError):
            split_dataset(synthetic_manifest(1), 0.8, 0)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -1.0, 5.0, np.inf, np.nan])
    def test_ratio_outside_open_unit_interval_rejected(self, ratio):
        with pytest.raises(ConfigError, match=f"split_ratio .* got {ratio}"):
            split_dataset(synthetic_manifest(10), ratio, 0)


class TestAdamStep:
    def test_matches_hand_oracle_to_1e12(self, rng):
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        shapes = {"a": (3, 4), "b": (5,)}
        params = {k: Tensor(rng.standard_normal(s), dtype=np.float64,
                            requires_grad=True) for k, s in shapes.items()}
        original = {k: p.data.copy() for k, p in params.items()}
        grads = {k: rng.standard_normal(shapes[k]) for k in shapes}
        state = TrainState(lr=lr)
        adam_step(params, grads, state)
        adam_step(params, {k: g * 0.5 for k, g in grads.items()}, state)

        # independent single-variable oracle
        for k in shapes:
            theta = original[k].copy()
            m = np.zeros_like(theta)
            v = np.zeros_like(theta)
            for t, g in ((1, grads[k]), (2, grads[k] * 0.5)):
                m = beta1 * m + (1 - beta1) * g
                v = beta2 * v + (1 - beta2) * g * g
                mhat = m / (1 - beta1 ** t)
                vhat = v / (1 - beta2 ** t)
                theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
            assert np.abs(params[k].data - theta).max() < 1e-12

    def test_first_step_magnitude_close_to_lr(self, rng):
        # constant gradient: bias correction makes mhat/sqrt(vhat) ~ sign(g)
        cfg = TrainConfig(lr=1e-3)
        g = np.full((4, 4), 0.37)
        params = {"w": Tensor(np.zeros((4, 4)), dtype=np.float64,
                              requires_grad=True)}
        state = TrainState(lr=cfg.lr)
        adam_step(params, {"w": g}, state)
        np.testing.assert_allclose(-params["w"].data,
                                   cfg.lr * np.sign(g), rtol=1e-4)

    def test_zero_gradients_leave_parameters_unchanged(self, rng):
        cfg = TrainConfig()
        params = {"w": Tensor(rng.standard_normal((3, 3)), dtype=np.float64,
                              requires_grad=True)}
        before = params["w"].data.copy()
        state = TrainState(lr=cfg.lr)
        adam_step(params, {"w": np.zeros((3, 3))}, state)
        np.testing.assert_array_equal(params["w"].data, before)

    def test_moments_decay(self, rng):
        cfg = TrainConfig()
        params = {"w": Tensor(np.zeros(3), dtype=np.float64,
                              requires_grad=True)}
        state = TrainState(lr=cfg.lr)
        adam_step(params, {"w": np.ones(3)}, state)
        m1 = state.m["w"].copy()
        v1 = state.v["w"].copy()
        adam_step(params, {"w": np.zeros(3)}, state)
        np.testing.assert_allclose(state.m["w"], 0.9 * m1)
        np.testing.assert_allclose(state.v["w"], 0.999 * v1)

    def test_bitwise_reproducible(self, rng):
        cfg = TrainConfig(lr=3e-3)
        outs = []
        for _ in range(2):
            params = {"w": Tensor(np.arange(6, dtype=np.float32) / 7,
                                  requires_grad=True)}
            state = TrainState(lr=cfg.lr)
            for t in range(5):
                adam_step(params, {"w": np.full(6, 0.1 * (t + 1),
                                                np.float32)}, state)
            outs.append(params["w"].data.copy())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_nan_gradient_names_parameter(self):
        cfg = TrainConfig()
        params = {"stage1.embed.weight": Tensor(np.zeros(2), dtype=np.float64,
                                                requires_grad=True)}
        state = TrainState(lr=cfg.lr)
        with pytest.raises(NumericsError) as exc:
            adam_step(params, {"stage1.embed.weight": np.array([np.nan, 1.0])},
                      state)
        assert "stage1.embed.weight" in str(exc.value)


class TestPlateauScheduler:
    def test_improving_losses_keep_lr(self):
        cfg = TrainConfig(lr=1e-4)
        state = TrainState(lr=cfg.lr)
        for loss in (1.0, 0.9, 0.8):
            plateau_scheduler(state, loss, cfg)
        assert state.lr == 1e-4

    def test_flat_losses_reduce_once_with_patience_2(self):
        cfg = TrainConfig(lr=1e-4, plateau_patience=2)
        state = TrainState(lr=cfg.lr)
        lrs = [plateau_scheduler(state, 1.0, cfg) for _ in range(4)]
        assert lrs == [1e-4, 1e-4, 1e-4, pytest.approx(1e-5)]

    def test_counter_resets_after_reduction(self):
        cfg = TrainConfig(lr=1e-4, plateau_patience=2)
        state = TrainState(lr=cfg.lr)
        for _ in range(4):
            plateau_scheduler(state, 1.0, cfg)
        assert state.bad_epochs == 0
        # two more flat evals do not immediately reduce again
        plateau_scheduler(state, 1.0, cfg)
        plateau_scheduler(state, 1.0, cfg)
        assert state.lr == pytest.approx(1e-5)

    def test_lr_never_below_min(self):
        cfg = TrainConfig(lr=1e-4, plateau_patience=0)
        state = TrainState(lr=cfg.lr)
        for _ in range(50):
            plateau_scheduler(state, 1.0, cfg)
        assert state.lr == pytest.approx(1e-7)

    def test_improvement_resets_counter(self):
        cfg = TrainConfig(lr=1e-4, plateau_patience=2)
        state = TrainState(lr=cfg.lr)
        for loss in (1.0, 1.0, 1.0, 0.5, 1.0, 1.0):
            plateau_scheduler(state, loss, cfg)
        assert state.lr == 1e-4  # improvement at eval 4 interrupted the run

    def test_nonfinite_loss_rejected(self):
        cfg = TrainConfig()
        state = TrainState(lr=cfg.lr)
        with pytest.raises(NumericsError):
            plateau_scheduler(state, float("nan"), cfg)


class TestTrainConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)


class TestTrainLoop:
    def test_smoke_run_writes_two_log_rows_and_checkpoints(self, dataset,
                                                           tmp_path):
        tcfg = TrainConfig(lr=1e-3, batch_size=8, epochs=2, seed=5)
        res = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "run")
        assert len(res.history) == 2
        with open(res.log_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert list(rows[0]) == ["epoch", "train_loss", "val_loss", "lr",
                                 "wall_time"]
        assert (tmp_path / "run" / "best.ckpt").exists()
        assert (tmp_path / "run" / "last.ckpt").exists()
        assert (tmp_path / "run" / "last.ckpt.state").exists()

    def test_overfit_four_slices_strictly_decreasing(self, dataset, tmp_path):
        tcfg = TrainConfig(lr=3e-4, batch_size=4, epochs=5, seed=3,
                           include_artifacts=False)
        res = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "overfit")
        losses = [h["train_loss"] for h in res.history]
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_best_val_not_worse_than_last(self, dataset, tmp_path):
        tcfg = TrainConfig(lr=1e-3, batch_size=8, epochs=3, seed=5)
        res = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "run")
        vals = [h["val_loss"] for h in res.history]
        assert min(vals) <= vals[-1]

    def test_bitwise_reproducible_runs(self, dataset, tmp_path):
        tcfg = TrainConfig(lr=1e-3, batch_size=8, epochs=2, seed=9)
        res1 = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "r1")
        res2 = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "r2")
        b1 = (tmp_path / "r1" / "last.ckpt").read_bytes()
        b2 = (tmp_path / "r2" / "last.ckpt").read_bytes()
        assert b1 == b2
        for h1, h2 in zip(res1.history, res2.history):
            assert h1["train_loss"] == h2["train_loss"]
            assert h1["val_loss"] == h2["val_loss"]

    def test_resume_continues_epoch_numbering(self, dataset, tmp_path):
        tcfg = TrainConfig(lr=1e-3, batch_size=8, epochs=2, seed=4)
        res = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "seg")
        res2 = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "seg",
                     resume=res.last_checkpoint)
        assert [h["epoch"] for h in res2.history] == [3, 4]
        with open(res2.log_path) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["epoch"]) for r in rows] == [1, 2, 3, 4]

    def test_resume_matches_uninterrupted_run(self, dataset, tmp_path):
        tcfg = TrainConfig(lr=1e-3, batch_size=5, epochs=4, seed=6)
        train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "whole")
        half = replace(tcfg, epochs=2)
        res = train(half, ModelConfig.tiny(), dataset, tmp_path / "split")
        train(half, ModelConfig.tiny(), dataset, tmp_path / "split",
              resume=res.last_checkpoint)
        assert run_outputs(tmp_path / "whole") == run_outputs(tmp_path / "split")

    def test_resume_after_a_crash_between_log_row_and_saves(
            self, dataset, tmp_path, monkeypatch):
        # the run dies once epoch 2's row is logged, at its last.ckpt save;
        # the resume repeats epoch 2, and the log keeps one row for it
        tcfg = TrainConfig(lr=1e-3, batch_size=5, epochs=2, seed=6)
        train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "whole")
        save, last_saves = training.save_checkpoint, []

        def dying_save(path, *args):
            if path.endswith("last.ckpt"):
                last_saves.append(path)
                if len(last_saves) == 2:
                    raise OSError(28, "No space left on device", path)
            return save(path, *args)
        with monkeypatch.context() as m:
            m.setattr(training, "save_checkpoint", dying_save)
            with pytest.raises(OSError):
                train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "split")
        with open(tmp_path / "split" / "train_log.csv") as fh:
            assert [r["epoch"] for r in csv.DictReader(fh)] == ["1", "2"]
        train(replace(tcfg, epochs=1), ModelConfig.tiny(), dataset,
              tmp_path / "split", resume=str(tmp_path / "split" / "last.ckpt"))
        assert run_outputs(tmp_path / "whole") == run_outputs(tmp_path / "split")

    def test_resume_into_a_fresh_directory_logs_the_header(self, dataset,
                                                           tmp_path):
        tcfg = TrainConfig(lr=1e-3, batch_size=8, epochs=1, seed=4)
        res = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "a")
        res2 = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "b",
                     resume=res.last_checkpoint)
        with open(res2.log_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "lr", "wall_time"]
        assert [r[0] for r in rows[1:]] == ["2"]

    def test_checkpoints_record_the_training_scope(self, dataset, tmp_path):
        from wmhseg.model import load_checkpoint
        tcfg = TrainConfig(lr=1e-3, batch_size=8, epochs=1, seed=4,
                           normalization_scope="volume")
        res = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "v")
        for path in (res.best_checkpoint, res.last_checkpoint):
            assert load_checkpoint(path)[1].normalization_scope == "volume"
        with pytest.raises(ConfigError, match="different model config"):
            train(TrainConfig(lr=1e-3, batch_size=8, epochs=1, seed=4),
                  ModelConfig.tiny(), dataset, tmp_path / "s",
                  resume=res.last_checkpoint)

    def test_unknown_training_scope_rejected(self, dataset, tmp_path):
        tcfg = TrainConfig(epochs=1, normalization_scope="patient")
        with pytest.raises(ConfigError, match="slice|volume"):
            train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "p")
        assert not (tmp_path / "p").exists()

    def test_resume_rejects_mismatched_config(self, dataset, tmp_path):
        tcfg = TrainConfig(lr=1e-3, batch_size=8, epochs=1, seed=4)
        res = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "a")
        with pytest.raises(ConfigError):
            train(tcfg, ModelConfig.reduced(), dataset, tmp_path / "b",
                  resume=res.last_checkpoint)


def run_outputs(run_dir):
    """A run's checkpoints and train state as bytes, and its log rows apart
    from the measured wall_time column."""
    with open(run_dir / "train_log.csv") as fh:
        rows = [{k: v for k, v in row.items() if k != "wall_time"}
                for row in csv.DictReader(fh)]
    files = ("last.ckpt", "best.ckpt", "last.ckpt.state")
    return rows, {name: (run_dir / name).read_bytes() for name in files}


def tiny_state(path, params=None, cfg=ModelConfig.tiny()):
    """Save a tiny-model train state with zero moments at ``path``."""
    params = init_parameters(cfg, 0) if params is None else params
    m, v = ({k: np.zeros_like(p.data) for k, p in params.items()}
            for _ in range(2))
    save_train_state(path, TrainState(lr=1e-3, m=m, v=v,
                                      rng=np.random.default_rng(1)),
                     params, cfg)
    return params


class TestTrainStatePersistence:
    def test_roundtrip(self, tmp_path, rng):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        state = TrainState(epoch=3, step=17, lr=2e-4, best_val=0.5,
                           bad_epochs=1, rng=np.random.default_rng(42))
        state.rng.standard_normal(10)  # advance
        for k, p in params.items():
            state.m[k] = rng.standard_normal(p.shape).astype(np.float32)
            state.v[k] = np.abs(rng.standard_normal(p.shape)).astype(np.float32)
        path = tmp_path / "run.state"
        save_train_state(path, state, params, cfg)
        back_params, back = load_train_state(path, cfg)
        assert (back.epoch, back.step, back.lr, back.best_val,
                back.bad_epochs) == (3, 17, 2e-4, 0.5, 1)
        assert list(back_params) == list(params)
        for k in params:
            np.testing.assert_array_equal(back_params[k].data, params[k].data)
            np.testing.assert_array_equal(back.m[k], state.m[k])
            np.testing.assert_array_equal(back.v[k], state.v[k])
        again = tmp_path / "again.state"
        save_train_state(again, back, back_params, cfg)
        assert again.read_bytes() == path.read_bytes()
        np.testing.assert_array_equal(back.rng.standard_normal(5),
                                      state.rng.standard_normal(5))

    def test_corrupt_files_rejected_naming_file(self, tmp_path):
        path = tmp_path / "run.state"
        tiny_state(path)
        blob = path.read_bytes()
        meta_len = int.from_bytes(blob[8:12], "little")
        bad_json = bytearray(blob)
        bad_json[12] = ord("[")
        broken = [blob[:n] for n in (3, 10, 20, 12 + meta_len + 2,
                                     len(blob) // 2, len(blob) - 1)]
        broken += [blob + b"\x00", bytes(bad_json)]
        for i, data in enumerate(broken):
            bad = tmp_path / f"bad{i}.state"
            bad.write_bytes(data)
            with pytest.raises(DataFormatError, match=f"bad{i}.state"):
                load_train_state(bad, ModelConfig.tiny())

    def test_record_for_unknown_parameter_rejected(self, tmp_path):
        path = tmp_path / "run.state"
        params = init_parameters(ModelConfig.tiny(), 0)
        params["stage1.extra"] = params["stage1.embed.weight"]
        tiny_state(path, params)
        with pytest.raises(DataFormatError, match="run.state: unexpected record "
                                                  "for parameter 'stage1.extra'"):
            load_train_state(path, ModelConfig.tiny())

    def test_state_without_a_parameters_moments_rejected(self, tmp_path):
        path = tmp_path / "run.state"
        dropped = "stage2.block0.attn.k_weight"
        tiny_state(path, {k: p for k, p in init_parameters(ModelConfig.tiny(), 0)
                          .items() if k != dropped})
        with pytest.raises(DataFormatError,
                           match=f"run.state: no record for parameter '{dropped}'"):
            load_train_state(path, ModelConfig.tiny())

    def test_repeated_record_rejected(self, tmp_path):
        # the second copy would silently replace the first
        path = tmp_path / "run.state"
        params = tiny_state(path)
        blob = path.read_bytes()
        n = int.from_bytes(blob[8:12], "little")
        at = 12 + n  # the u32 record count
        name = next(iter(params))
        size = 2 + len(name) + 3 * 4 * params[name].data.size
        first = blob[at + 4:at + 4 + size]
        assert first[2:2 + len(name)] == name.encode()
        count = int.from_bytes(blob[at:at + 4], "little") + 1
        path.write_bytes(blob[:at] + count.to_bytes(4, "little") + first
                         + blob[at + 4:])
        with pytest.raises(DataFormatError, match="run.state: unexpected record "
                                                  f"for parameter '{name}'"):
            load_train_state(path, ModelConfig.tiny())


class TestInferVolume:
    @pytest.mark.parametrize("side", [28, 36])  # padded / cropped to 32
    def test_slice_at_a_time_matches_batched_forward(self, side, rng):
        from wmhseg import tensor as T
        from wmhseg.model import model_forward
        from wmhseg.nifti import Volume, make_slice_batch, unpreprocess_mask
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 3)
        vol = Volume(data=rng.random((side, side, 5)).astype(np.float32),
                     spacing=(1.0, 1.0, 2.0))
        x = make_slice_batch(vol, target=32)
        with T.no_grad():
            batched = model_forward(Tensor(x), params, cfg).data[:, 0]
            single = np.stack([model_forward(Tensor(x[k:k + 1]), params, cfg)
                               .data[0, 0] for k in range(len(x))])
        assert np.abs(single - batched).max() < 1e-5

        mask = training.infer_volume(params, cfg, vol)
        want = np.stack([unpreprocess_mask((p >= 0.5).astype(np.float32),
                                           vol.shape[:2]) for p in batched],
                        axis=-1)
        near = np.stack([unpreprocess_mask(
            (np.abs(p - 0.5) < 1e-5).astype(np.float32), vol.shape[:2])
            for p in batched], axis=-1) > 0
        assert mask.shape == vol.shape
        assert 0 < want.mean() < 1  # both classes present
        assert (mask[~near] == want[~near]).all()


class TestLoadSliceArrays:
    def test_one_uint8_mask_stack_per_source(self, dataset):
        from wmhseg.nifti import crop_pad_volume, read_nifti
        cfg = ModelConfig.tiny()
        entries = read_manifest(dataset)
        base = manifest_dir(dataset)
        sources = ["phantom002", "phantom000"]
        images = training._image_entries(entries, set(sources), True)
        x, masks, rows = training.load_slice_arrays(entries, base, images, cfg)
        depth, size = PHANTOM.size[2], cfg.input_size[0]
        assert masks.dtype == np.uint8
        assert masks.shape == (len(sources) * depth, 1, size, size)
        assert x.dtype == np.float32 and len(x) == len(rows) == 5 * len(masks)
        assert rows.dtype.kind == "i" and set(rows) == set(range(len(masks)))
        # the old layout: one float32 copy of the source's mask per image,
        # in the order the images are stacked
        want_x, want_y = [], []
        for e in images:
            ref = read_nifti(f"{base}/{e.source_id}_mask.nii").data
            want_x.append(make_slice_batch(read_nifti(f"{base}/{e.path}"),
                                           target=size, scope="slice"))
            want_y.append((crop_pad_volume(ref, size)[:, None] > 0.5)
                          .astype(np.float32))
        np.testing.assert_array_equal(x, np.concatenate(want_x))
        gathered = masks[rows].astype(np.float32)
        np.testing.assert_array_equal(gathered, np.concatenate(want_y))
        assert gathered.any() and not gathered.all()


class TestEvaluate:
    def test_reference_masks_give_dice_one(self, dataset, tmp_path,
                                           monkeypatch):
        # feed the reference masks through the evaluation plumbing as if the
        # model had produced them: every volume must come back Dice 1.0
        from wmhseg.model import save_checkpoint
        from wmhseg.nifti import read_nifti
        entries = read_manifest(dataset)
        base = manifest_dir(dataset)
        refs = {e.source_id: read_nifti(f"{base}/{e.path}").data > 0.5
                for e in entries if e.role == "mask"}

        cfg = ModelConfig.tiny()
        ckpt = tmp_path / "stub.ckpt"
        save_checkpoint(ckpt, init_parameters(cfg, 0), cfg)

        calls = {"n": 0}
        # map volumes to their own reference by call order
        image_entries = [e for e in entries if e.role != "mask"]

        def fake_infer2(params, model_cfg, vol):
            e = image_entries[calls["n"]]
            calls["n"] += 1
            return refs[e.source_id].astype(np.float32)

        monkeypatch.setattr(training, "infer_volume", fake_infer2)
        metrics, summary = evaluate(ckpt, entries, base)
        assert len(metrics) == len(image_entries)
        assert all(m.dice_score == 1.0 for m in metrics)
        assert set(summary["mean_dice_by_kind"]) == \
            {"clean", "noise", "bias", "ghosting", "noise_bias"}
        assert all(v == 1.0 for v in summary["mean_dice_by_kind"].values())
        assert all(d == 0.0 for d in summary["dice_drop_vs_clean"].values())

    def test_each_file_read_once(self, dataset, tmp_path, monkeypatch):
        from wmhseg.model import save_checkpoint
        cfg = ModelConfig.tiny()
        ckpt = tmp_path / "stub.ckpt"
        save_checkpoint(ckpt, init_parameters(cfg, 0), cfg)
        reads = []
        read = training.read_nifti
        monkeypatch.setattr(training, "read_nifti",
                            lambda path: reads.append(path.name) or read(path))
        entries = read_manifest(dataset)
        images = [e for e in entries if e.role != "mask"]
        base = manifest_dir(dataset)
        metrics, _ = evaluate(ckpt, entries, base)
        assert sorted(reads) == sorted(e.path for e in entries)
        # rows keep the manifest order of generate_dataset's manifests
        assert [m.image_id for m in metrics] == [e.path for e in images]
        reads.clear()
        training.load_slice_arrays(entries, base, images, cfg)
        assert sorted(reads) == sorted(e.path for e in entries)

    def test_real_checkpoint_row_count_and_csv(self, dataset, tmp_path):
        tcfg = TrainConfig(lr=1e-3, batch_size=8, epochs=1, seed=5)
        res = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "run")
        entries = read_manifest(dataset)
        out_csv = tmp_path / "metrics.csv"
        metrics, summary = evaluate(res.best_checkpoint, entries,
                                    manifest_dir(dataset), out_csv=out_csv)
        n_images = sum(1 for e in entries if e.role != "mask")
        assert len(metrics) == n_images == summary["n_volumes"]
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n_images
        assert set(rows[0]) == {"id", "dice", "vol_pred_mm3", "vol_ref_mm3"}

    def test_per_slice_flag_adds_slice_rows(self, dataset, tmp_path):
        tcfg = TrainConfig(lr=1e-3, batch_size=8, epochs=1, seed=5)
        res = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "run")
        entries = [e for e in read_manifest(dataset)
                   if e.role in ("clean", "mask")]
        metrics, _ = evaluate(res.best_checkpoint, entries,
                              manifest_dir(dataset), per_slice=True)
        n_clean = sum(1 for e in entries if e.role == "clean")
        assert len(metrics) == n_clean + n_clean * PHANTOM.size[2]


def _blas_threads():
    return min((int(get()) for get, _ in blas._controls()), default=1)


def _record_forwards(monkeypatch):
    """Wrap the model_forward that infer_volume calls; returns the log of
    (input bytes, probabilities, thread id, BLAS threads) per call."""
    log = []
    inner = training.model_forward

    def forward(image, params, cfg):
        p = inner(image, params, cfg)
        log.append((image.data.tobytes(), p.data.copy(), threading.get_ident(),
                    _blas_threads()))
        return p
    monkeypatch.setattr(training, "model_forward", forward)
    return log


@pytest.fixture
def blas_at_two():
    """Every loaded OpenBLAS at 2 threads for the test, restored after."""
    controls = blas._controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield
    for (_, set_), n in zip(controls, saved):
        set_(n)


def plain_loop_probs(params, cfg, vol):
    """The plain loop: one model_forward per slice on the calling thread, on
    input normalized with the config's scope; the [B,1,H,W] probabilities."""
    x = make_slice_batch(vol, cfg.input_size[0], cfg.normalization_scope)
    with T.no_grad():
        return np.concatenate([model_forward(Tensor(x[k:k + 1]), params, cfg).data
                               for k in range(len(x))])


def plain_loop_mask(params, cfg, vol):
    probs = plain_loop_probs(params, cfg, vol)
    return np.stack([unpreprocess_mask((p[0] >= 0.5).astype(np.float32),
                                       vol.shape[:2]) for p in probs], axis=-1)


# run in a fresh interpreter, as the console script is: the OpenBLAS thread
# count is fixed when numpy loads, before any wmhseg code runs
THREAD_PROBE = """
import threading
from wmhseg import blas, cli  # the console script imports cli
if not blas._controls():
    print("no-openblas")
else:
    with blas.single_threaded() as before:
        pass
    idents = set()
    blas.run_parallel(lambda k: idents.add(threading.get_ident()), 8)
    print(before, idents == {threading.get_ident()})
"""


class TestThreadKnob:
    @staticmethod
    def probe(threads: str) -> list[str]:
        env = child_env(OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout
        if out.strip() == "no-openblas":
            pytest.skip("no OpenBLAS thread control in this interpreter")
        return out.split()

    def test_one_thread_runs_every_task_on_the_calling_thread(self):
        assert self.probe("1") == ["1", "True"]

    def test_two_threads_are_the_budget(self):
        if blas.usable_cpus() < 2:
            pytest.skip("fewer than 2 usable CPUs")
        assert self.probe("2")[0] == "2"


class TestSliceParallelInference:
    @staticmethod
    def volume(side, slices, seed=0):
        data = np.random.default_rng(seed).random((side, side, slices))
        return Volume(data=data.astype(np.float32), spacing=(1.0, 1.0, 2.0))

    @pytest.mark.parametrize("budget", [1, 3, None], ids=["1", "3", "blas"])
    @pytest.mark.parametrize("slices", [1, 3, 5])
    @pytest.mark.parametrize("side", [28, 36])  # padded / cropped to 32
    def test_masks_equal_plain_loop(self, force_budget, side, slices, budget):
        if budget is not None:
            force_budget(budget)
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 3)
        vol = self.volume(side, slices)
        want = plain_loop_mask(params, cfg, vol)
        assert 0 < want.mean() < 1  # both classes present
        got = training.infer_volume(params, cfg, vol)
        assert got.shape == vol.shape and got.dtype == np.float32
        assert np.array_equal(got, want)

    def test_budget_one_and_two_bit_identical(self, monkeypatch, blas_at_two):
        monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 4)
        vol = self.volume(36, 6, seed=1)
        log = _record_forwards(monkeypatch)
        runs = []
        for threads in (1, 2):
            for _, set_ in blas._controls():
                set_(threads)
            log.clear()
            mask = training.infer_volume(params, cfg, vol)
            assert all(n == 1 for *_, n in log)  # pinned inside the loop
            assert len({ident for _, _, ident, _ in log}) <= threads
            assert _blas_threads() == threads
            runs.append((mask, {x: p for x, p, _, _ in log}))
        (mask1, probs1), (mask2, probs2) = runs
        assert np.array_equal(mask1, mask2)
        assert probs1.keys() == probs2.keys() and len(probs1) == 3
        assert all(np.array_equal(probs1[x], probs2[x]) for x in probs1)

    @pytest.mark.parametrize("slices", [1, 4, 5])  # 5: the last shard holds 1
    def test_shard_probabilities_equal_per_slice(self, monkeypatch, slices):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 3)
        vol = self.volume(28, slices)
        log = _record_forwards(monkeypatch)
        training.infer_volume(params, cfg, vol)
        assert len(log) == -(-slices // training.SHARD)
        by_input = {x: p for x, p, _, _ in log}
        x = make_slice_batch(vol, cfg.input_size[0])
        got = np.concatenate([by_input[x[lo:lo + training.SHARD].tobytes()]
                              for lo in range(0, slices, training.SHARD)])
        want = plain_loop_probs(params, cfg, vol)
        assert 0 < (want >= 0.5).mean() < 1  # both classes present
        np.testing.assert_array_equal(got, want)

    def test_without_openblas_runs_on_calling_thread(self, monkeypatch):
        monkeypatch.setattr(blas, "_controls", lambda: [])
        log = _record_forwards(monkeypatch)
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 3)
        vol = self.volume(28, 4)
        mask = training.infer_volume(params, cfg, vol)
        assert {ident for _, _, ident, _ in log} == {threading.get_ident()}
        monkeypatch.undo()
        assert np.array_equal(mask, plain_loop_mask(params, cfg, vol))

    def test_nan_parameter_raises_from_worker(self, force_budget):
        force_budget(3)
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 3)
        params["decoder.head.bias"].data[:] = np.nan
        threads_before = threading.active_count()
        with pytest.raises(NumericsError, match="non-finite"):
            training.infer_volume(params, cfg, self.volume(28, 5))
        assert threading.active_count() == threads_before

    def test_blas_threads_restored(self, blas_at_two):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 3)
        vol = self.volume(28, 3)
        training.infer_volume(params, cfg, vol)
        assert _blas_threads() == 2
        params["decoder.head.bias"].data[:] = np.nan
        with pytest.raises(NumericsError):
            training.infer_volume(params, cfg, vol)
        assert _blas_threads() == 2

    def test_flop_count_exact_under_workers(self, force_budget):
        # more workers than cores and frequent thread switches: a lost
        # update to the shared count would show as a shortfall, and a
        # misplaced write into the shared mask as a differing slice
        force_budget(4)
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 3)
        vol = self.volume(32, 8)
        with T.no_grad(), T.FlopCounter() as one:
            model_forward(Tensor(make_slice_batch(vol, target=32)[:1]), params, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with T.FlopCounter() as total:
                mask = training.infer_volume(params, cfg, vol)
        finally:
            sys.setswitchinterval(interval)
        assert one.flops > 0
        assert total.flops == 8 * one.flops
        np.testing.assert_array_equal(mask, plain_loop_mask(params, cfg, vol))


def _capture_grads(monkeypatch):
    """Replace the Adam update of ``training`` by a recorder of the summed
    gradients it would apply; returns the list of recorded dicts."""
    steps = []
    monkeypatch.setattr(training, "adam_step", lambda params, grads, state:
                        steps.append({k: g.copy() for k, g in grads.items()}))
    return steps


class TestDataParallelStep:
    @staticmethod
    def batch(n, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.random((n, 1, 32, 32)).astype(np.float32)
        y = (rng.random((n, 1, 32, 32)) > 0.8).astype(np.float32)
        return x, y

    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("n", [4, 5])  # shards of 2, 2 and 2, 2, 1
    def test_matches_batched_step(self, monkeypatch, force_budget, n, budget):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 2)
        x, y = self.batch(n)
        loss = combined_loss(model_forward(Tensor(x), params, cfg), Tensor(y)).total
        loss.backward()
        want = {k: p.grad for k, p in params.items()}
        for p in params.values():
            p.zero_grad()

        force_budget(budget)
        steps = _capture_grads(monkeypatch)
        got = training._epoch_pass(params, cfg, x, y, np.arange(n), np.arange(n),
                                   n, state=TrainState())
        assert got == loss.item()  # the loss is bit-identical
        (grads,) = steps
        assert grads.keys() == want.keys()
        scale = max(np.abs(g).max() for g in want.values())
        assert scale > 0
        for k, g in want.items():
            assert np.abs(grads[k] - g).max() <= 1e-6 * scale, k
        # every shard ran on leaves of its own: the shared ones got no grad
        assert all(p.grad is None for p in params.values())

    def test_more_workers_than_cores_match_one_thread(self, monkeypatch,
                                                      force_budget):
        # four shards on four threads with frequent thread switches: a shard
        # skipped, run twice or summed out of order would change the bits
        cfg = ModelConfig.tiny()
        x, y = self.batch(7)
        runs = []
        for budget in (1, 4):
            with monkeypatch.context() as m:
                force_budget(budget, patch=m)
                steps = _capture_grads(m)
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    loss = training._epoch_pass(
                        init_parameters(cfg, 2), cfg, x, y, np.arange(7),
                        np.arange(7), 7, state=TrainState())
                finally:
                    sys.setswitchinterval(interval)
            runs.append((loss, steps[0]))
        (loss1, grads1), (loss4, grads4) = runs
        assert loss1 == loss4
        assert all(np.array_equal(grads1[k], grads4[k]) for k in grads1)

    def test_live_gradient_sets_bounded_by_budget(self, monkeypatch,
                                                   force_budget):
        # batch 8 is four shards; at budget 2 their backwards run in two
        # waves, and a wave's gradients are summed and dropped before the
        # next starts: the sum plus one set per thread, never one per shard
        force_budget(2)
        cfg = ModelConfig.tiny()
        x, y = self.batch(8)
        leaves, grads, live = [], [], []
        inner_forward = training.model_forward

        def forward(image, params, cfg):
            leaves.append(params["decoder.head.bias"])
            return inner_forward(image, params, cfg)
        inner_backward = Tensor.backward
        lock = threading.Lock()

        def backward(self, seed=None):
            inner_backward(self, seed)
            with lock:
                for leaf in leaves:
                    g = leaf.grad
                    if g is not None and not any(r() is g for r in grads):
                        grads.append(weakref.ref(g))
                live.append(sum(r() is not None for r in grads))
        monkeypatch.setattr(training, "model_forward", forward)
        monkeypatch.setattr(Tensor, "backward", backward)
        steps = _capture_grads(monkeypatch)
        training._epoch_pass(init_parameters(cfg, 2), cfg, x, y, np.arange(8),
                             np.arange(8), 8, state=TrainState())
        assert len(leaves) == 4 and len(steps) == 1
        assert max(live) == 3

    def test_validation_matches_batched_forward_without_graph(
            self, monkeypatch, force_budget):
        force_budget(2)
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 2)
        x, y = self.batch(5)
        with T.no_grad():
            want = combined_loss(model_forward(Tensor(x), params, cfg),
                                 Tensor(y)).total.item()
        log = []
        inner = training.model_forward

        def forward(image, params, cfg):
            p = inner(image, params, cfg)
            log.append((p.requires_grad, p._parents))
            return p
        monkeypatch.setattr(training, "model_forward", forward)
        got = training._epoch_pass(params, cfg, x, y, np.arange(5), np.arange(5),
                                   5)
        assert got == want
        assert log == [(False, ())] * 3
        assert T._grad_enabled

    @pytest.mark.parametrize("training_step", [True, False],
                             ids=["train", "validation"])
    def test_nan_parameter_raises_on_caller(self, monkeypatch, blas_at_two,
                                            training_step):
        monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 2)
        params["decoder.head.bias"].data[:] = np.nan
        x, y = self.batch(4)
        steps = _capture_grads(monkeypatch)
        kwargs = dict(state=TrainState()) if training_step else {}
        threads_before = threading.active_count()
        with pytest.raises(NumericsError, match="non-finite"):
            training._epoch_pass(params, cfg, x, y, np.arange(4), np.arange(4),
                                 4, **kwargs)
        assert threading.active_count() == threads_before
        assert _blas_threads() == 2
        assert steps == [] and T._grad_enabled

    def test_callers_errstate_applies_on_workers(self, force_budget):
        force_budget(2)
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 2)
        params["stage1.embed.weight"].data *= np.float32(1e38)
        x, y = self.batch(4)
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) \
                as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericsError, match="non-finite"):
                training._epoch_pass(params, cfg, x, y, np.arange(4),
                                     np.arange(4), 4)
        assert [str(w.message) for w in caught] == []

    def test_budget_one_and_two_give_identical_runs(self, monkeypatch,
                                                    force_budget, dataset,
                                                    tmp_path):
        tcfg = TrainConfig(lr=1e-3, batch_size=5, epochs=2, seed=8)
        for budget in (1, 2):
            with monkeypatch.context() as m:
                force_budget(budget, patch=m)
                train(tcfg, ModelConfig.tiny(), dataset, tmp_path / f"b{budget}")
        assert run_outputs(tmp_path / "b1") == run_outputs(tmp_path / "b2")
