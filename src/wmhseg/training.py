"""Training and evaluation loops: scan-level splitting, Adam, plateau LR.

Splitting happens at the level of unique source scans so corrupted copies
never leak across partitions. Runs are bitwise reproducible for a fixed
(seed, config, dataset) and thread count; the training log CSV records
(epoch, train_loss, val_loss, lr, wall_time) where wall_time is the one
measured, non-reproducible column.

Checkpoints use the model container; optimizer state for resuming lives in
a sibling ``.state`` file (magic ``WMHT``) holding the Adam moments, the
scheduler counters and the shuffling RNG state. Both files are replaced
atomically, so a failed write leaves the previous one intact.

Parameter updates are single-writer between batches; evaluation treats
parameters as read-only and may run concurrently across volumes.
"""

from __future__ import annotations

import csv
import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataFormatError, NumericsError, ValidationError
from .fileio import atomic_write
from .losses import combined_loss
from .metrics import SegMetrics, dice_score, lesion_volume, write_metrics_csv
from .model import (BlobReader, ModelConfig, init_parameters, load_checkpoint,
                    model_forward, save_checkpoint)
from .nifti import crop_pad_slice, make_slice_batch, read_nifti, unpreprocess_mask
from .phantom import ManifestEntry, manifest_dir, read_manifest
from .seeding import derive_seed
from .tensor import Tensor

STATE_MAGIC = b"WMHT"
STATE_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 32
    epochs: int = 100
    plateau_patience: int = 2
    plateau_factor: float = 0.1
    min_lr: float = 1e-7
    split_ratio: float = 0.8
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    checkpoint_every: int = 1          # epochs between 'last' checkpoint writes
    include_artifacts: bool = True     # False trains on clean scans only
    normalization_scope: str = "slice"

    def __post_init__(self):
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio must be in (0,1), got {self.split_ratio}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class TrainState:
    epoch: int = 0
    step: int = 0
    lr: float = 0.0
    best_val: Optional[float] = None
    bad_epochs: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    rng: Optional[np.random.Generator] = None


# ---- dataset handling -----------------------------------------------------


def split_dataset(entries: Sequence[ManifestEntry], ratio: float,
                  seed: int) -> tuple[list[str], list[str]]:
    """Shuffle unique source ids and split; variants follow their source."""
    sources: list[str] = []
    seen = set()
    for e in entries:
        if e.source_id not in seen:
            seen.add(e.source_id)
            sources.append(e.source_id)
    if len(sources) < 2:
        raise ValidationError(f"need at least 2 source scans to split, "
                              f"got {len(sources)}")
    order = np.random.default_rng(seed).permutation(len(sources))
    shuffled = [sources[i] for i in order]
    n_train = int(len(sources) * ratio + 0.5)
    n_train = min(max(n_train, 1), len(sources) - 1)
    return shuffled[:n_train], shuffled[n_train:]


def _mask_index(entries: Sequence[ManifestEntry]) -> dict[str, ManifestEntry]:
    return {e.source_id: e for e in entries if e.role == "mask"}


def _image_entries(entries: Sequence[ManifestEntry], sources: set[str],
                   include_artifacts: bool) -> list[ManifestEntry]:
    roles = {"clean", "noise", "bias", "ghosting", "noise_bias"} \
        if include_artifacts else {"clean"}
    return [e for e in entries if e.role in roles and e.source_id in sources]


def load_slice_arrays(entries: Sequence[ManifestEntry], base_dir,
                      image_list: Sequence[ManifestEntry], target: int,
                      scope: str) -> tuple[np.ndarray, np.ndarray]:
    """Stack preprocessed image slices and matching mask slices."""
    masks = _mask_index(entries)
    base = Path(base_dir)
    xs, ys = [], []
    for e in image_list:
        if e.source_id not in masks:
            raise ValidationError(f"no reference mask for source '{e.source_id}'")
        img = read_nifti(base / e.path)
        ref = read_nifti(base / masks[e.source_id].path)
        if img.shape != ref.shape:
            raise ValidationError(f"{e.path}: image/mask shapes differ "
                                  f"({img.shape} vs {ref.shape})")
        batch = make_slice_batch(img, e.path, target=target, scope=scope)
        xs.append(batch.tensor)
        mask_slices = [np.where(
            crop_pad_slice(ref.data[:, :, k].astype(np.float32), target) > 0.5,
            1.0, 0.0)
            for k in range(ref.shape[2])]
        ys.append(np.stack(mask_slices)[:, None].astype(np.float32))
    return np.concatenate(xs), np.concatenate(ys)


# ---- optimizer / scheduler -------------------------------------------------


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: TrainState, config: TrainConfig) -> None:
    """Bias-corrected Adam update, in place, at the state's current lr."""
    state.step += 1
    t = state.step
    b1, b2, eps = config.beta1, config.beta2, config.adam_eps
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for path, p in params.items():
        g = grads.get(path)
        if g is None:
            g = np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for parameter '{path}'")
        if path not in state.m:
            state.m[path] = np.zeros_like(p.data)
            state.v[path] = np.zeros_like(p.data)
        m = state.m[path]
        v = state.v[path]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        p.data = p.data - np.asarray(state.lr, dtype=p.dtype) * update.astype(p.dtype)


def plateau_scheduler(state: TrainState, val_loss: float,
                      config: TrainConfig) -> float:
    """Reduce lr by plateau_factor after patience+1 non-improving evals."""
    if not np.isfinite(val_loss):
        raise NumericsError(f"validation loss is not finite: {val_loss}")
    if state.best_val is None or val_loss < state.best_val:
        state.best_val = val_loss
        state.bad_epochs = 0
    else:
        state.bad_epochs += 1
        if state.bad_epochs > config.plateau_patience:
            state.lr = max(state.lr * config.plateau_factor, config.min_lr)
            state.bad_epochs = 0
    return state.lr


# ---- train loop -------------------------------------------------------------


@dataclass
class TrainResult:
    best_checkpoint: str
    last_checkpoint: str
    log_path: str
    history: list[dict]
    train_sources: list[str]
    test_sources: list[str]


def _epoch_pass(params, model_cfg, images, masks, order, batch_size,
                state=None, train_cfg=None) -> float:
    """One pass over `order`; trains when state/train_cfg are given."""
    total, count = 0.0, 0
    training = state is not None
    for lo in range(0, len(order), batch_size):
        idx = order[lo:lo + batch_size]
        x = Tensor(images[idx])
        y = Tensor(masks[idx])
        if training:
            probs = model_forward(x, params, model_cfg)
            loss = combined_loss(probs, y).total
            for p in params.values():
                p.zero_grad()
            loss.backward()
            grads = {path: p.grad for path, p in params.items()}
            adam_step(params, grads, state, train_cfg)
        else:
            with T.no_grad():
                probs = model_forward(x, params, model_cfg)
                loss = combined_loss(probs, y).total
        value = loss.item()
        if not np.isfinite(value):
            raise NumericsError(f"loss became non-finite ({value})")
        total += value * len(idx)
        count += len(idx)
    return total / max(count, 1)


def train(train_cfg: TrainConfig, model_cfg: ModelConfig, manifest,
          out_dir, resume: Optional[str] = None) -> TrainResult:
    """Full training run driven by a manifest; writes checkpoints and a CSV log."""
    entries = read_manifest(manifest) if isinstance(manifest, (str, Path)) \
        else list(manifest)
    base_dir = manifest_dir(manifest) if isinstance(manifest, (str, Path)) else "."
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    train_src, test_src = split_dataset(entries, train_cfg.split_ratio,
                                        train_cfg.seed)
    target = model_cfg.input_size[0]
    scope = train_cfg.normalization_scope
    tr_images, tr_masks = load_slice_arrays(
        entries, base_dir,
        _image_entries(entries, set(train_src), train_cfg.include_artifacts),
        target, scope)
    va_images, va_masks = load_slice_arrays(
        entries, base_dir, _image_entries(entries, set(test_src), True),
        target, scope)

    best_path = str(out / "best.ckpt")
    last_path = str(out / "last.ckpt")
    log_path = str(out / "train_log.csv")

    if resume is not None:
        params, ckpt_cfg = load_checkpoint(resume)
        if ckpt_cfg != model_cfg:
            raise ConfigError("resume checkpoint was trained with a different "
                              "model config")
        state = load_train_state(str(resume) + ".state", params)
        log_mode = "a"
    else:
        params = init_parameters(model_cfg, train_cfg.seed)
        state = TrainState(lr=train_cfg.lr,
                           rng=np.random.default_rng(
                               derive_seed(train_cfg.seed, 0xBA7C4)))
        log_mode = "w"

    history: list[dict] = []
    best_val = state.best_val if state.best_val is not None else float("inf")
    with open(log_path, log_mode, newline="") as log_fh:
        writer = csv.writer(log_fh)
        if log_mode == "w":
            writer.writerow(["epoch", "train_loss", "val_loss", "lr", "wall_time"])
        start_epoch = state.epoch
        for epoch in range(start_epoch + 1, start_epoch + train_cfg.epochs + 1):
            t0 = time.perf_counter()
            order = state.rng.permutation(len(tr_images))
            train_loss = _epoch_pass(params, model_cfg, tr_images, tr_masks,
                                     order, train_cfg.batch_size,
                                     state=state, train_cfg=train_cfg)
            val_loss = _epoch_pass(params, model_cfg, va_images, va_masks,
                                   np.arange(len(va_images)),
                                   train_cfg.batch_size)
            lr_after = plateau_scheduler(state, val_loss, train_cfg)
            state.epoch = epoch
            wall = time.perf_counter() - t0
            row = {"epoch": epoch, "train_loss": train_loss,
                   "val_loss": val_loss, "lr": lr_after, "wall_time": wall}
            history.append(row)
            writer.writerow([epoch, f"{train_loss:.8f}", f"{val_loss:.8f}",
                             f"{lr_after:.3e}", f"{wall:.3f}"])
            log_fh.flush()
            if val_loss < best_val:
                best_val = val_loss
                save_checkpoint(best_path, params, model_cfg)
            if epoch % train_cfg.checkpoint_every == 0 \
                    or epoch == start_epoch + train_cfg.epochs:
                save_checkpoint(last_path, params, model_cfg)
                save_train_state(last_path + ".state", state, params)
    if not Path(best_path).exists():
        save_checkpoint(best_path, params, model_cfg)
    return TrainResult(best_path, last_path, log_path, history,
                       train_src, test_src)


# ---- inference / evaluation -------------------------------------------------


def infer_volume(params, model_cfg: ModelConfig, vol, scope: str = "slice",
                 threshold: float = 0.5) -> np.ndarray:
    """Segment one volume; returns a binary mask at the volume's dims.

    Slices go through the model one at a time: the largest activation of a
    single 256x256 slice fits in a core's L2 cache, a batch of them does not.
    """
    target = model_cfg.input_size[0]
    batch = make_slice_batch(vol, "volume", target=target, scope=scope)
    out = np.zeros(vol.shape, dtype=np.float32)
    for k in range(vol.shape[2]):
        with T.no_grad():
            p = model_forward(Tensor(batch.tensor[k:k + 1]), params, model_cfg)
        binary = (p.data[0, 0] >= threshold).astype(np.float32)
        out[:, :, k] = unpreprocess_mask(binary, vol.shape[:2])
    return out


def evaluate(checkpoint, entries: Sequence[ManifestEntry], base_dir,
             out_csv=None, scope: str = "slice", threshold: float = 0.5,
             per_slice: bool = False) -> tuple[list[SegMetrics], dict]:
    """Dice + volumetry per image volume against its source's reference mask.

    Returns (per-volume metrics, summary); the summary groups mean Dice by
    artifact kind and reports the clean-vs-corrupted delta per kind.
    """
    params, model_cfg = load_checkpoint(checkpoint)
    masks = _mask_index(entries)
    base = Path(base_dir)
    results: list[SegMetrics] = []
    per_slice_rows: list[SegMetrics] = []
    by_kind: dict[str, list[float]] = {}
    for e in entries:
        if e.role == "mask":
            continue
        if e.source_id not in masks:
            raise ValidationError(f"no reference mask for source '{e.source_id}'")
        vol = read_nifti(base / e.path)
        ref = read_nifti(base / masks[e.source_id].path)
        pred = infer_volume(params, model_cfg, vol, scope=scope,
                            threshold=threshold)
        ref_bin = ref.data > 0.5
        metrics = SegMetrics(
            image_id=e.path,
            dice_score=dice_score(pred, ref_bin),
            lesion_volume_pred=lesion_volume(pred, vol.spacing),
            lesion_volume_ref=lesion_volume(ref_bin, ref.spacing),
            voxels_pred=int(pred.sum()),
            voxels_ref=int(ref_bin.sum()),
        )
        results.append(metrics)
        by_kind.setdefault(e.role, []).append(metrics.dice_score)
        if per_slice:
            for k in range(vol.shape[2]):
                per_slice_rows.append(SegMetrics(
                    image_id=f"{e.path}#z{k}",
                    dice_score=dice_score(pred[:, :, k], ref_bin[:, :, k]),
                    lesion_volume_pred=lesion_volume(pred[:, :, k:k + 1],
                                                     vol.spacing),
                    lesion_volume_ref=lesion_volume(ref_bin[:, :, k:k + 1],
                                                    ref.spacing)))
    mean_by_kind = {k: float(np.mean(vs)) for k, vs in sorted(by_kind.items())}
    clean = mean_by_kind.get("clean")
    summary = {
        "mean_dice_by_kind": mean_by_kind,
        "dice_drop_vs_clean": {
            k: (clean - v) for k, v in mean_by_kind.items()
            if clean is not None and k != "clean"},
        "n_volumes": len(results),
    }
    if out_csv is not None:
        write_metrics_csv(out_csv, results + per_slice_rows)
    return (results + per_slice_rows if per_slice else results), summary


# ---- optimizer state persistence ---------------------------------------------


def save_train_state(path, state: TrainState, params: dict[str, Tensor]) -> None:
    meta = {
        "epoch": state.epoch,
        "step": state.step,
        "lr": state.lr,
        "best_val": state.best_val,
        "bad_epochs": state.bad_epochs,
        "rng_state": state.rng.bit_generator.state if state.rng is not None else None,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(STATE_MAGIC)
        fh.write(struct.pack("<II", STATE_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(params)))
        for name in params:
            enc = name.encode("utf-8")
            m = state.m.get(name, np.zeros_like(params[name].data))
            v = state.v.get(name, np.zeros_like(params[name].data))
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(np.ascontiguousarray(m, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(v, dtype="<f4").tobytes())


def load_train_state(path, params: dict[str, Tensor]) -> TrainState:
    r = BlobReader(path, STATE_MAGIC, STATE_VERSION)
    meta = r.json()
    try:
        state = TrainState(epoch=meta["epoch"], step=meta["step"], lr=meta["lr"],
                           best_val=meta["best_val"], bad_epochs=meta["bad_epochs"])
        if meta["rng_state"] is not None:
            state.rng = np.random.default_rng(0)
            state.rng.bit_generator.state = meta["rng_state"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad train-state header: {exc!r}") from None
    (count,) = r.unpack("<I")
    for _ in range(count):
        name = r.name()
        if name not in params:
            raise DataFormatError(f"{path}: moments for unknown parameter '{name}'")
        state.m[name] = r.floats(params[name].shape).copy()
        state.v[name] = r.floats(params[name].shape).copy()
    r.finish()
    return state
