"""Training and evaluation loops: scan-level splitting, Adam, plateau LR.

Splitting happens at the level of unique source scans so corrupted copies
never leak across partitions. Runs are bitwise reproducible for a fixed
(seed, config, dataset); the training log CSV records
(epoch, train_loss, val_loss, lr, wall_time) where wall_time is the one
measured, non-reproducible column.

The training and validation sets are held as arrays for the whole run:
the preprocessed float32 image slices, and each source's mask slices once,
as uint8, with the mask row of every image slice. A clean scan and its four
corrupted copies share one mask, so the masks take a twentieth of the
images' bytes (a quarter when training on clean scans only). A batch's
masks are gathered and made float32 when the batch is taken.

Checkpoints use the model container, whose config records the training
normalization scope that inference follows. A resume reads two files: the
checkpoint's sibling ``.state`` file (magic ``WMHT``), which holds the model
config, each parameter's values and Adam moments, the scheduler counters and
the shuffling RNG state; and the output directory's ``train_log.csv``, whose
rows up to the saved epoch are kept (in a fresh directory, the header alone).
Each file is replaced atomically and the state is written last, so a crash
between the writes leaves the previous epoch's state, and resuming from it
repeats that epoch to the same bytes.

Threads share the parameter arrays read-only. Training, validation and
inference shards run on the package's one pool
(``blas.run_parallel``, which dataset generation uses too), under the
``OPENBLAS_NUM_THREADS`` budget; a training shard accumulates gradients
only into leaf tensors of its own; between waves of shards the calling
thread adds them into the batch's sum, and it applies the Adam update once
every shard of the batch has finished.
"""

from __future__ import annotations

import csv
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import blas
from . import tensor as T
from .artifacts import KINDS
from .errors import ConfigError, DataFormatError, NumericsError, ValidationError
from .fileio import atomic_write, remove_temporaries
from .losses import combined_loss
from .metrics import SegMetrics, dice_score, lesion_volume, write_metrics_csv
from .model import (BlobReader, ModelConfig, init_parameters, load_checkpoint,
                    model_forward, parameter_specs, save_checkpoint, write_blob)
from .nifti import crop_pad_volume, make_slice_batch, read_nifti, unpreprocess_mask
from .phantom import ManifestEntry, manifest_dir, read_manifest
from .seeding import derive_seed
from .tensor import Tensor

STATE_MAGIC = b"WMHT"
STATE_VERSION = 2

# the fixed recipe: Adam's decay rates and denominator guard, and the factor
# and floor of the plateau schedule
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PLATEAU_FACTOR = 0.1
MIN_LR = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 32
    epochs: int = 100
    plateau_patience: int = 2
    split_ratio: float = 0.8
    seed: int = 0
    include_artifacts: bool = True     # False trains on clean scans only
    normalization_scope: str = "slice"  # copied into the saved ModelConfig

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.plateau_patience < 0:
            raise ConfigError("plateau_patience must be >= 0, got "
                              f"{self.plateau_patience}")


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


def check_split_ratio(ratio: float) -> None:
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split_ratio must be in (0,1), got {ratio}")


def split_dataset(entries: Sequence[ManifestEntry], ratio: float,
                  seed: int) -> tuple[list[str], list[str]]:
    """Shuffle unique source ids and split; variants follow their source."""
    check_split_ratio(ratio)
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


def _image_entries(entries: Sequence[ManifestEntry], sources: set[str],
                   include_artifacts: bool) -> list[ManifestEntry]:
    roles = {"clean", *KINDS} if include_artifacts else {"clean"}
    return [e for e in entries if e.role in roles and e.source_id in sources]


def _with_masks(entries: Sequence[ManifestEntry], base_dir,
                images: Sequence[ManifestEntry]):
    """Yield (entry, image, mask volume) for each image entry, with its
    source's reference mask. Images are visited grouped by source, in the
    order of each source's first image (the manifest order for manifests
    written by ``generate_dataset``), so each file is read once and a mask
    is dropped once its source's images are done."""
    masks = {e.source_id: e for e in entries if e.role == "mask"}
    by_source: dict[str, list[ManifestEntry]] = {}
    for e in images:
        by_source.setdefault(e.source_id, []).append(e)
    base = Path(base_dir)
    for source, group in by_source.items():
        if source not in masks:
            raise ValidationError(f"no reference mask for source '{source}'")
        ref = read_nifti(base / masks[source].path)
        for e in group:
            img = read_nifti(base / e.path)
            if img.shape != ref.shape:
                raise ValidationError(f"{e.path}: image/mask shapes differ "
                                      f"({img.shape} vs {ref.shape})")
            yield e, img, ref


def load_slice_arrays(entries: Sequence[ManifestEntry], base_dir,
                      image_list: Sequence[ManifestEntry],
                      model_cfg: ModelConfig
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(images, masks, rows): the preprocessed float32 image slices
    [N,1,S,S], each source's binary mask slices once, as uint8 [M,1,S,S],
    and the mask row of each image slice, so ``masks[rows[i]]`` is the
    mask of ``images[i]``."""
    target = model_cfg.input_size[0]
    xs, ys, rows, last = [], [], [], None
    for _, img, ref in _with_masks(entries, base_dir, image_list):
        if ref is not last:
            last = ref
            first = sum(len(y) for y in ys)  # the source's first mask row
            ys.append((crop_pad_volume(ref.data, target)[:, None] > 0.5)
                      .astype(np.uint8))
        xs.append(make_slice_batch(img, target=target,
                                   scope=model_cfg.normalization_scope))
        rows.append(np.arange(first, first + len(ys[-1])))
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(rows)


# ---- optimizer / scheduler -------------------------------------------------


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: TrainState) -> None:
    """Bias-corrected Adam update, in place, at the state's current lr."""
    state.step += 1
    t = state.step
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for path, p in params.items():
        g = grads[path]
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
    """Reduce lr by ``PLATEAU_FACTOR``, down to ``MIN_LR``, after
    patience+1 non-improving evals."""
    if not np.isfinite(val_loss):
        raise NumericsError(f"validation loss is not finite: {val_loss}")
    if state.best_val is None or val_loss < state.best_val:
        state.best_val = val_loss
        state.bad_epochs = 0
    else:
        state.bad_epochs += 1
        if state.bad_epochs > config.plateau_patience:
            state.lr = max(state.lr * PLATEAU_FACTOR, MIN_LR)
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


SHARD = 2  # samples per training or inference shard; the last may hold 1
LOG_HEADER = b"epoch,train_loss,val_loss,lr,wall_time\r\n"


def _epoch_pass(params, model_cfg, images, masks, rows, order, batch_size,
                state=None) -> float:
    """One pass over `order`; trains when a state is given.

    Image ``i`` is scored against ``masks[rows[i]]``, made float32 when its
    batch is taken.

    Each batch is split into contiguous shards of ``SHARD`` samples, which
    run on the pool of ``blas.run_parallel``. A training shard runs on leaf
    tensors of its own over the shared parameter arrays, so no two threads
    add into one ``.grad``. The loss is taken once, on the calling thread,
    over the concatenated shard outputs, and each shard's backward is
    seeded with its slice of that loss's gradient. The backwards run in
    waves of the budget; after each wave the calling thread adds the wave's
    gradients into the sum, in shard order, and drops them. So at most
    budget + 1 gradient sets are alive, and the update does not depend on
    the budget.
    """
    total, count = 0.0, 0
    training = state is not None
    for lo in range(0, len(order), batch_size):
        idx = order[lo:lo + batch_size]
        shards = np.split(images[idx], range(SHARD, len(idx), SHARD))
        y = Tensor(masks[rows[idx]].astype(np.float32))
        replicas = [{path: Tensor(p.data, requires_grad=True)
                     for path, p in params.items()} for _ in shards] \
            if training else [params] * len(shards)
        outs: list = [None] * len(shards)

        def forward(k):
            outs[k] = model_forward(Tensor(shards[k]), replicas[k], model_cfg)

        if training:
            blas.run_parallel(forward, len(shards))
            heads = [Tensor(o.data, requires_grad=True) for o in outs]
            loss = combined_loss(T.concat(heads), y).total
            loss.backward()
            grads: dict[str, np.ndarray] = {}

            def add_wave(lo, hi):
                # in shard order, in place into shard 0's arrays; a wave's
                # gradients are dropped before the next wave starts
                for replica in replicas[lo:hi]:
                    for path, leaf in replica.items():
                        if path in grads:
                            grads[path] += leaf.grad
                        else:
                            grads[path] = leaf.grad
                        leaf.grad = None

            blas.run_parallel(lambda k: outs[k].backward(heads[k].grad),
                              len(shards), after_wave=add_wave)
            adam_step(params, grads, state)
        else:
            with T.no_grad():
                blas.run_parallel(forward, len(shards))
                loss = combined_loss(T.concat(outs), y).total
        total += loss.item() * len(idx)
        count += len(idx)
    return total / max(count, 1)


def _start_log(log_path: str, epoch: int) -> None:
    """Write the training log anew, atomically: the header, then the last
    row of each epoch 1..``epoch`` found in the old log.

    A resume repeats an epoch whose row was written but whose saves were
    not (the run died in between), and may write to a fresh directory."""
    keep = {str(e).encode() for e in range(1, epoch + 1)}
    rows: dict[bytes, bytes] = {}
    if epoch and Path(log_path).exists():
        for line in Path(log_path).read_bytes().splitlines(keepends=True):
            first = line.split(b",", 1)[0]
            if first in keep and line.endswith(b"\n"):
                rows[first] = line
    with atomic_write(log_path) as fh:
        fh.write(b"".join([LOG_HEADER, *rows.values()]))


def train(train_cfg: TrainConfig, model_cfg: ModelConfig, manifest,
          out_dir, resume: Optional[str] = None) -> TrainResult:
    """Full training run driven by a manifest file; writes checkpoints (of
    ``model_cfg`` with the training normalization scope) and a CSV log.
    ``last.ckpt`` and then its state are written after every epoch; a run
    given ``resume`` continues from that checkpoint's ``.state`` alone."""
    model_cfg = replace(model_cfg,
                        normalization_scope=train_cfg.normalization_scope)
    entries = read_manifest(manifest)
    base_dir = manifest_dir(manifest)
    train_src, test_src = split_dataset(entries, train_cfg.split_ratio,
                                        train_cfg.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tr_images, tr_masks, tr_rows = load_slice_arrays(
        entries, base_dir,
        _image_entries(entries, set(train_src), train_cfg.include_artifacts),
        model_cfg)
    va_images, va_masks, va_rows = load_slice_arrays(
        entries, base_dir, _image_entries(entries, set(test_src), True),
        model_cfg)

    best_path = str(out / "best.ckpt")
    last_path = str(out / "last.ckpt")
    log_path = str(out / "train_log.csv")
    # a run killed mid-save left its temporary file next to the output
    for path in (best_path, last_path, last_path + ".state", log_path):
        remove_temporaries(path)

    if resume is not None:
        params, state = load_train_state(str(resume) + ".state", model_cfg)
    else:
        params = init_parameters(model_cfg, train_cfg.seed)
        state = TrainState(lr=train_cfg.lr,
                           rng=np.random.default_rng(
                               derive_seed(train_cfg.seed, 0xBA7C4)))

    history: list[dict] = []
    _start_log(log_path, state.epoch)
    with open(log_path, "a", newline="") as log_fh:
        writer = csv.writer(log_fh)
        for epoch in range(state.epoch + 1, state.epoch + train_cfg.epochs + 1):
            t0 = time.perf_counter()
            order = state.rng.permutation(len(tr_images))
            train_loss = _epoch_pass(params, model_cfg, tr_images, tr_masks,
                                     tr_rows, order, train_cfg.batch_size,
                                     state=state)
            val_loss = _epoch_pass(params, model_cfg, va_images, va_masks,
                                   va_rows, np.arange(len(va_images)),
                                   train_cfg.batch_size)
            improved = state.best_val is None or val_loss < state.best_val
            lr_after = plateau_scheduler(state, val_loss, train_cfg)
            state.epoch = epoch
            wall = time.perf_counter() - t0
            history.append({"epoch": epoch, "train_loss": train_loss,
                            "val_loss": val_loss, "lr": lr_after, "wall_time": wall})
            writer.writerow([epoch, f"{train_loss:.8f}", f"{val_loss:.8f}",
                             f"{lr_after:.3e}", f"{wall:.3f}"])
            log_fh.flush()
            if improved:
                save_checkpoint(best_path, params, model_cfg)
            save_checkpoint(last_path, params, model_cfg)
            save_train_state(last_path + ".state", state, params, model_cfg)
    if not Path(best_path).exists():
        save_checkpoint(best_path, params, model_cfg)
    return TrainResult(best_path, last_path, log_path, history,
                       train_src, test_src)


# ---- inference / evaluation -------------------------------------------------


def infer_volume(params, model_cfg: ModelConfig, vol) -> np.ndarray:
    """Segment one volume; returns a binary mask (probability >= 0.5) at the
    volume's dims. The input is normalized with ``model_cfg``'s scope.

    The slices go through the model in shards of ``SHARD`` contiguous
    slices, one shard per task on the pool of ``blas.run_parallel``, so each
    op's fixed call cost is paid once per shard. Every op computes each
    sample on its own, so a slice's probabilities are bit-identical in any
    shard and at any budget. Each task preprocesses its own slices and
    writes their masks into one uint8 volume, made float32 at the end.
    """
    out = np.zeros(vol.shape, dtype=np.uint8)
    starts = range(0, vol.shape[2], SHARD)

    def segment(k):
        lo = starts[k]
        x = make_slice_batch(vol, model_cfg.input_size[0],
                             model_cfg.normalization_scope, slice(lo, lo + SHARD))
        p = model_forward(Tensor(x), params, model_cfg)
        for z, prob in enumerate(p.data[:, 0], lo):
            out[:, :, z] = unpreprocess_mask(prob >= 0.5, vol.shape[:2])

    with T.no_grad():
        blas.run_parallel(segment, len(starts))
    return out.astype(np.float32)


def evaluate(checkpoint, entries: Sequence[ManifestEntry], base_dir,
             out_csv=None, per_slice: bool = False) -> tuple[list[SegMetrics], dict]:
    """Dice + volumetry per image volume against its source's reference mask.

    Returns (per-volume metrics, then per-slice rows if ``per_slice``, and a
    summary); the summary groups mean Dice by artifact kind and reports the
    clean-vs-corrupted delta per kind. Volumes are scored in the order of
    ``_with_masks``, which rejects an image/mask shape mismatch before
    inference.
    """
    params, model_cfg = load_checkpoint(checkpoint)
    results: list[SegMetrics] = []
    per_slice_rows: list[SegMetrics] = []
    by_kind: dict[str, list[float]] = {}
    images = [e for e in entries if e.role != "mask"]
    for e, vol, ref in _with_masks(entries, base_dir, images):
        pred = infer_volume(params, model_cfg, vol)
        ref_bin = ref.data > 0.5

        def row(image_id, z=slice(None)):
            p, r = pred[:, :, z], ref_bin[:, :, z]
            return SegMetrics(image_id, dice_score(p, r),
                              lesion_volume(p, vol.spacing),
                              lesion_volume(r, ref.spacing))
        results.append(row(e.path))
        by_kind.setdefault(e.role, []).append(results[-1].dice_score)
        if per_slice:
            per_slice_rows += [row(f"{e.path}#z{k}", slice(k, k + 1))
                               for k in range(vol.shape[2])]
    mean_by_kind = {k: float(np.mean(vs)) for k, vs in sorted(by_kind.items())}
    clean = mean_by_kind.get("clean")
    summary = {
        "mean_dice_by_kind": mean_by_kind,
        "dice_drop_vs_clean": {
            k: (clean - v) for k, v in mean_by_kind.items()
            if clean is not None and k != "clean"},
        "n_volumes": len(results),
    }
    rows = results + per_slice_rows
    if out_csv is not None:
        write_metrics_csv(out_csv, rows)
    return rows, summary


# ---- train state persistence -------------------------------------------------


def save_train_state(path, state: TrainState, params: dict[str, Tensor],
                     config: ModelConfig) -> None:
    meta = {
        "epoch": state.epoch,
        "step": state.step,
        "lr": state.lr,
        "best_val": state.best_val,
        "bad_epochs": state.bad_epochs,
        "rng_state": state.rng.bit_generator.state,
        "model": asdict(config),
    }
    records = []
    for name, p in params.items():
        # flat byte views of (p, m, v), not copies
        records.append((name, [np.ascontiguousarray(a, dtype="<f4").reshape(-1)
                               .view(np.uint8)
                               for a in (p.data, state.m[name], state.v[name])]))
    write_blob(path, STATE_MAGIC, STATE_VERSION, meta, records)


def _is_count(v) -> bool:
    return type(v) is int and 0 <= v < 2 ** 63


def _is_number(v) -> bool:
    # JSON integers are unbounded; a finite float64 is not
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


# the checks of the train-state header's values; ``model`` must also make a
# valid ModelConfig
_STATE_HEADER = {
    "epoch": _is_count,
    "step": _is_count,
    "lr": lambda v: _is_number(v) and v > 0,
    "best_val": lambda v: v is None or _is_number(v),
    "bad_epochs": _is_count,
    "model": lambda v: isinstance(v, dict),
}


def load_train_state(path, config: ModelConfig
                     ) -> tuple[dict[str, Tensor], TrainState]:
    """A run's parameters and state; another model config is a ConfigError."""
    r = BlobReader(path, STATE_MAGIC, STATE_VERSION)
    meta = r.json()
    if not isinstance(meta, dict):
        raise DataFormatError(f"{path}: train-state header is not a JSON object")
    for key, ok in _STATE_HEADER.items():
        if key not in meta:
            raise DataFormatError(f"{path}: train-state header has no '{key}'")
        if not ok(meta[key]):
            raise DataFormatError(f"{path}: bad train-state header value "
                                  f"{key} = {meta[key]!r}")
    try:
        saved = ModelConfig(**meta["model"])
    except (TypeError, ConfigError) as exc:
        raise DataFormatError(f"{path}: bad train-state header value "
                              f"model: {exc}") from None
    if saved != config:
        raise ConfigError(f"{path}: saved by a run with a different model config")
    state = TrainState(epoch=meta["epoch"], step=meta["step"], lr=meta["lr"],
                       best_val=meta["best_val"], bad_epochs=meta["bad_epochs"],
                       rng=np.random.default_rng(0))
    try:
        state.rng.bit_generator.state = meta["rng_state"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: bad train-state header value "
                              f"rng_state: {exc!r}") from None
    shapes = {name: shape for name, shape, _ in parameter_specs(config)}
    params: dict[str, Tensor] = {}
    (count,) = r.unpack("<I")
    for _ in range(count):
        name = r.name()
        if name not in shapes or name in params:
            raise DataFormatError(f"{path}: unexpected record for parameter '{name}'")
        p, state.m[name], state.v[name] = (
            a.copy() for a in r.floats((3, *shapes[name])))
        params[name] = Tensor(p, requires_grad=True)
    r.finish()
    missing = [name for name in shapes if name not in params]
    if missing:
        raise DataFormatError(f"{path}: no record for parameter '{missing[0]}'")
    return params, state
