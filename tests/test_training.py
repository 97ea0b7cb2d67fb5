"""Trainer: splits, Adam oracle, scheduler contract, loops, reproducibility."""

import csv

import numpy as np
import pytest

import wmhseg.training as training
from wmhseg.errors import (ConfigError, DataFormatError, NumericsError,
                           ValidationError)
from wmhseg.model import ModelConfig, init_parameters
from wmhseg.phantom import (ManifestEntry, PhantomConfig, generate_dataset,
                            manifest_dir, read_manifest)
from wmhseg.tensor import Tensor
from wmhseg.training import (TrainConfig, TrainState, adam_step, evaluate,
                             load_train_state, plateau_scheduler,
                             save_train_state, split_dataset, train)

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


class TestAdamStep:
    def test_matches_hand_oracle_to_1e12(self, rng):
        cfg = TrainConfig(lr=1e-2, seed=0)
        shapes = {"a": (3, 4), "b": (5,)}
        params = {k: Tensor(rng.standard_normal(s), dtype=np.float64,
                            requires_grad=True) for k, s in shapes.items()}
        original = {k: p.data.copy() for k, p in params.items()}
        grads = {k: rng.standard_normal(shapes[k]) for k in shapes}
        state = TrainState(lr=cfg.lr)
        adam_step(params, grads, state, cfg)
        adam_step(params, {k: g * 0.5 for k, g in grads.items()}, state, cfg)

        # independent single-variable oracle
        for k in shapes:
            theta = original[k].copy()
            m = np.zeros_like(theta)
            v = np.zeros_like(theta)
            for t, g in ((1, grads[k]), (2, grads[k] * 0.5)):
                m = cfg.beta1 * m + (1 - cfg.beta1) * g
                v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
                mhat = m / (1 - cfg.beta1 ** t)
                vhat = v / (1 - cfg.beta2 ** t)
                theta = theta - cfg.lr * mhat / (np.sqrt(vhat) + cfg.adam_eps)
            assert np.abs(params[k].data - theta).max() < 1e-12

    def test_first_step_magnitude_close_to_lr(self, rng):
        # constant gradient: bias correction makes mhat/sqrt(vhat) ~ sign(g)
        cfg = TrainConfig(lr=1e-3)
        g = np.full((4, 4), 0.37)
        params = {"w": Tensor(np.zeros((4, 4)), dtype=np.float64,
                              requires_grad=True)}
        state = TrainState(lr=cfg.lr)
        adam_step(params, {"w": g}, state, cfg)
        np.testing.assert_allclose(-params["w"].data,
                                   cfg.lr * np.sign(g), rtol=1e-4)

    def test_zero_gradients_leave_parameters_unchanged(self, rng):
        cfg = TrainConfig()
        params = {"w": Tensor(rng.standard_normal((3, 3)), dtype=np.float64,
                              requires_grad=True)}
        before = params["w"].data.copy()
        state = TrainState(lr=cfg.lr)
        adam_step(params, {"w": np.zeros((3, 3))}, state, cfg)
        np.testing.assert_array_equal(params["w"].data, before)

    def test_moments_decay(self, rng):
        cfg = TrainConfig()
        params = {"w": Tensor(np.zeros(3), dtype=np.float64,
                              requires_grad=True)}
        state = TrainState(lr=cfg.lr)
        adam_step(params, {"w": np.ones(3)}, state, cfg)
        m1 = state.m["w"].copy()
        v1 = state.v["w"].copy()
        adam_step(params, {"w": np.zeros(3)}, state, cfg)
        np.testing.assert_allclose(state.m["w"], cfg.beta1 * m1)
        np.testing.assert_allclose(state.v["w"], cfg.beta2 * v1)

    def test_bitwise_reproducible(self, rng):
        cfg = TrainConfig(lr=3e-3)
        outs = []
        for _ in range(2):
            params = {"w": Tensor(np.arange(6, dtype=np.float32) / 7,
                                  requires_grad=True)}
            state = TrainState(lr=cfg.lr)
            for t in range(5):
                adam_step(params, {"w": np.full(6, 0.1 * (t + 1),
                                                np.float32)}, state, cfg)
            outs.append(params["w"].data.copy())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_nan_gradient_names_parameter(self):
        cfg = TrainConfig()
        params = {"stage1.embed.weight": Tensor(np.zeros(2), dtype=np.float64,
                                                requires_grad=True)}
        state = TrainState(lr=cfg.lr)
        with pytest.raises(NumericsError) as exc:
            adam_step(params, {"stage1.embed.weight": np.array([np.nan, 1.0])},
                      state, cfg)
        assert "stage1.embed.weight" in str(exc.value)


class TestPlateauScheduler:
    def test_improving_losses_keep_lr(self):
        cfg = TrainConfig(lr=1e-4)
        state = TrainState(lr=cfg.lr)
        for loss in (1.0, 0.9, 0.8):
            plateau_scheduler(state, loss, cfg)
        assert state.lr == 1e-4

    def test_flat_losses_reduce_once_with_patience_2(self):
        cfg = TrainConfig(lr=1e-4, plateau_patience=2, plateau_factor=0.1)
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
        cfg = TrainConfig(lr=1e-4, plateau_patience=0, min_lr=1e-7)
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
            TrainConfig(split_ratio=1.5)
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

    def test_resume_rejects_mismatched_config(self, dataset, tmp_path):
        tcfg = TrainConfig(lr=1e-3, batch_size=8, epochs=1, seed=4)
        res = train(tcfg, ModelConfig.tiny(), dataset, tmp_path / "a")
        with pytest.raises(ConfigError):
            train(tcfg, ModelConfig.reduced(), dataset, tmp_path / "b",
                  resume=res.last_checkpoint)


class TestTrainStatePersistence:
    def test_roundtrip(self, tmp_path, rng):
        params = init_parameters(ModelConfig.tiny(), 0)
        state = TrainState(epoch=3, step=17, lr=2e-4, best_val=0.5,
                           bad_epochs=1, rng=np.random.default_rng(42))
        state.rng.standard_normal(10)  # advance
        for k, p in params.items():
            state.m[k] = rng.standard_normal(p.shape).astype(np.float32)
            state.v[k] = np.abs(rng.standard_normal(p.shape)).astype(np.float32)
        path = tmp_path / "run.state"
        save_train_state(path, state, params)
        back = load_train_state(path, params)
        assert (back.epoch, back.step, back.lr, back.best_val,
                back.bad_epochs) == (3, 17, 2e-4, 0.5, 1)
        for k in params:
            np.testing.assert_array_equal(back.m[k], state.m[k])
            np.testing.assert_array_equal(back.v[k], state.v[k])
        np.testing.assert_array_equal(back.rng.standard_normal(5),
                                      state.rng.standard_normal(5))

    def test_corrupt_files_rejected_naming_file(self, tmp_path):
        params = init_parameters(ModelConfig.tiny(), 0)
        path = tmp_path / "run.state"
        save_train_state(path, TrainState(lr=1e-3, rng=np.random.default_rng(1)),
                         params)
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
                load_train_state(bad, params)
        with pytest.raises(DataFormatError, match="unknown parameter"):
            load_train_state(path, {k: p for k, p in list(params.items())[1:]})


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
        x = make_slice_batch(vol, "v", target=32).tensor
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

        def fake_infer2(params, model_cfg, vol, scope="slice", threshold=0.5):
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
