"""The benchmark's workloads: train, segment and augment.

Each workload is a closed loop driven from one process. ``setup`` builds the
inputs from the seed and makes one warm-up call; ``run_round`` performs one
fixed round of operations through the package's public API; ``check``
verifies the last round's outputs against ``reference.py``, which does not
use the package. ``Workload(seed, tiny=True)`` runs the same code at sizes
small enough for the self-test.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import reference as R
from reference import require
from wmhseg import cli, losses, metrics, model, nifti, phantom, training
from wmhseg import tensor as T

# the acceptance harness: 10 phantoms x 4 slices, each with 4 corrupted copies
HARNESS_PHANTOMS = phantom.PhantomConfig(size=(256, 256, 4), spacing=(1.0, 1.0, 6.0),
                                         num_lesions_range=(6, 14),
                                         lesion_radius_mm=(3.5, 8.0))
TINY_PHANTOMS = phantom.PhantomConfig(size=(32, 32, 3), spacing=(1.0, 1.0, 3.0),
                                      num_lesions_range=(2, 4),
                                      lesion_radius_mm=(1.5, 3.0))
# in-plane matrices around the 256^2 model window: exact fit, zero-pad, crop;
# 240 and 288 are not powers of two, so their FFTs take the Bluestein path
MATRICES = (256, 240, 288)
TINY_MATRICES = (32, 28, 36)
SLICES = 24
CHECKPOINT_SEED = 0
# a fixed lesion count for generated phantoms: painting each lesion costs a
# pass over the volume, so a seeded count would make the work differ by seed
LESIONS = 6
# reference probabilities closer than this to the 0.5 threshold may round
# either way between the float32 package and the float64 reference
THRESHOLD_MARGIN = 1e-4
FD_STEP = 1e-5
FD_TOLERANCE = 1e-4
# rounding of a float64 loss near 1, divided by the step, is ~1e-11
FD_FLOOR = 1e-9


def sub_seed(seed: int, *keys: int) -> int:
    """Independent, reproducible 32-bit seed for one input of a run."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    slices: int = 0

    def add(self, other: "Round") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.slices += other.slices


def report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class TrainWorkload:
    """``training.train`` for one epoch on the acceptance-harness dataset."""

    name = "train"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.phantom_config = TINY_PHANTOMS if tiny else HARNESS_PHANTOMS
        self.phantoms = 4 if tiny else 10
        self.model_config = model.ModelConfig.tiny() if tiny else model.ModelConfig.reduced()
        self.train_config = training.TrainConfig(
            lr=1e-3, batch_size=4, epochs=1, seed=sub_seed(seed, 1),
            plateau_patience=60, normalization_scope="volume")
        self.result = None

    def setup(self, workdir: Path) -> None:
        data = workdir / "dataset"
        entries = phantom.generate_dataset(self.phantoms, sub_seed(self.seed, 0), data,
                                           config=self.phantom_config)
        # warm-up: one train call on the clean scans of two sources, which
        # split into one training batch and one validation batch
        two = sorted({e.source_id for e in entries})[:2]
        warm = [e for e in entries if e.source_id in two and e.role in ("clean", "mask")]
        phantom.write_manifest(data / "warmup.csv", warm)
        training.train(self.train_config, self.model_config, data / "warmup.csv",
                       workdir / "warmup")
        self.manifest = data / "manifest.csv"
        self.data_dir = data
        self.out = workdir / "run"

    def run_round(self) -> Round:
        try:
            result = training.train(self.train_config, self.model_config,
                                    self.manifest, self.out)
        except Exception:
            report_failure("training.train")
            return Round(attempted=1, failed=1)
        self.result = result
        images = [r for r in R.read_manifest(self.manifest)
                  if r["role"] != "mask" and r["source_id"] in result.train_sources]
        return Round(attempted=1, slices=len(images) * self.phantom_config.size[2])

    def check(self) -> None:
        require(self.result is not None, "no training round completed")
        with open(self.result.log_path) as fh:
            rows = fh.read().splitlines()[1:]
        require(len(rows) == self.train_config.epochs,
                f"{len(rows)} log rows for {self.train_config.epochs} epochs")
        for row in rows:
            _, train_loss, val_loss = row.split(",")[:3]
            require(math.isfinite(float(train_loss)) and math.isfinite(float(val_loss)),
                    f"non-finite loss in log row {row!r}")

        config, final = R.read_checkpoint(self.result.last_checkpoint)
        x, y = self.fixed_batch(config["input_size"][0])
        initial = {k: v.data.astype(np.float64) for k, v in
                   model.init_parameters(self.model_config, self.train_config.seed).items()}
        loss_init = R.loss(R.forward(config, initial, x), y)
        loss_final = R.loss(R.forward(config, final, x), y)
        require(loss_final < loss_init,
                f"loss on a fixed training batch did not fall: {loss_init:.6f} at "
                f"initialization, {loss_final:.6f} after training")
        self.check_gradient(config, final, x, y)

    def fixed_batch(self, target: int) -> tuple[np.ndarray, np.ndarray]:
        """All slices of the first training source's clean scan, and its mask."""
        rows = R.read_manifest(self.manifest)
        source = self.result.train_sources[0]
        path = {r["role"]: r["path"] for r in rows if r["source_id"] == source}
        image, _ = R.read_nifti(self.data_dir / path["clean"])
        mask, _ = R.read_nifti(self.data_dir / path["mask"])
        x = R.preprocess(image, target, "volume")
        y = (R.preprocess(mask, target, "volume") > 0.5).astype(np.float64)
        return x, y

    def check_gradient(self, config, params, x, y) -> None:
        """Directional finite difference of the float64 reference loss."""
        tensors = {k: T.Tensor(v, dtype=np.float64, requires_grad=True)
                   for k, v in params.items()}
        probs = model.model_forward(T.Tensor(x, dtype=np.float64), tensors,
                                    self.model_config)
        total = losses.combined_loss(probs, T.Tensor(y, dtype=np.float64)).total
        total.backward()
        rng = np.random.default_rng(sub_seed(self.seed, 2))
        direction = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        analytic = sum(float((tensors[k].grad * d).sum()) for k, d in direction.items()) / norm

        def loss_at(sign):
            moved = {k: v + sign * FD_STEP * direction[k] / norm for k, v in params.items()}
            return R.loss(R.forward(config, moved, x), y)
        numeric = (loss_at(1.0) - loss_at(-1.0)) / (2.0 * FD_STEP)
        require(abs(analytic - numeric) <= FD_TOLERANCE * abs(numeric) + FD_FLOOR,
                f"gradient along a random direction: backward {analytic:.9g}, "
                f"finite difference {numeric:.9g}")


class SegmentWorkload:
    """``wmhseg segment`` in process, then Dice and lesion volume, per volume."""

    name = "segment"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.model_config = model.ModelConfig.tiny() if tiny else model.ModelConfig()
        self.base = replace(TINY_PHANTOMS if tiny else phantom.PhantomConfig(),
                            num_lesions_range=(LESIONS, LESIONS))
        self.shapes = [(m, m, self.base.size[2] if tiny else SLICES)
                       for m in (TINY_MATRICES if tiny else MATRICES)]
        self.warm_slices = 2 if tiny else 8

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.checkpoint = workdir / "model.ckpt"
        model.save_checkpoint(self.checkpoint,
                              model.init_parameters(self.model_config, CHECKPOINT_SEED),
                              self.model_config)
        self.inputs, self.outputs, self.references = [], [], []
        for i, shape in enumerate(self.shapes):
            image, mask = phantom.generate_phantom(
                replace(self.base, size=shape, seed=sub_seed(self.seed, i)))
            self.inputs.append(workdir / f"image{i}.nii")
            self.outputs.append(workdir / f"mask{i}.nii")
            self.references.append(mask)
            nifti.write_nifti(image, self.inputs[-1])
            if i == 0:
                warm = workdir / "warmup.nii"
                nifti.write_nifti(image.with_data(image.data[:, :, :self.warm_slices]),
                                  warm)
                self.segment(warm, workdir / "warmup_mask.nii")
        self.scores = [None] * len(self.shapes)

    def segment(self, src: Path, dst: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["segment", "--checkpoint", str(self.checkpoint),
                             "--in", str(src), "--out", str(dst)])

    def run_round(self) -> Round:
        done = Round()
        for i, (src, dst, ref) in enumerate(zip(self.inputs, self.outputs,
                                                self.references)):
            done.attempted += 1
            try:
                code = self.segment(src, dst)
                if code != 0:
                    raise RuntimeError(f"wmhseg segment exited with {code}")
                pred = nifti.read_nifti(dst)
                self.scores[i] = (metrics.dice_score(pred.data, ref.data > 0.5),
                                  metrics.lesion_volume(pred.data, pred.spacing))
            except Exception:
                report_failure(f"segment {src.name}")
                done.failed += 1
                continue
            done.slices += pred.shape[2]
        return done

    def sampled_slices(self) -> list[int]:
        """The slice of each volume that ``check`` compares pixel by pixel."""
        rng = np.random.default_rng(sub_seed(self.seed, 99))
        return [int(rng.integers(shape[2])) for shape in self.shapes]

    def check(self) -> None:
        config, params = R.read_checkpoint(self.checkpoint)
        target = config["input_size"][0]
        picks = self.sampled_slices()
        images = [R.read_nifti(p)[0] for p in self.inputs]
        batch = np.concatenate([R.preprocess(img[:, :, k:k + 1], target, "slice")
                                for img, k in zip(images, picks)])
        probs = R.forward(config, params, batch)[:, 0]
        for i, (image, k) in enumerate(zip(images, picks)):
            name = self.outputs[i].name
            require(self.scores[i] is not None, f"{name}: never segmented")
            pred, spacing = R.read_nifti(self.outputs[i])
            require(pred.shape == image.shape,
                    f"{name}: mask shape {pred.shape} != image shape {image.shape}")
            require(np.isin(pred, (0.0, 1.0)).all(), f"{name}: mask is not binary")
            window = R.window_mask(image.shape[:2], target)
            require(not pred[~window].any(), f"{name}: mask set outside the model window")
            p = R.uncrop(probs[i], image.shape[:2])
            decided = window & (np.abs(p - 0.5) > THRESHOLD_MARGIN)
            wrong = decided & ((pred[:, :, k] != 0) != (p >= 0.5))
            require(not wrong.any(),
                    f"{name} slice {k}: {int(wrong.sum())} pixels disagree with the "
                    "float64 reference forward pass")
            ref = self.references[i].data
            dice, volume = self.scores[i]
            require(abs(dice - R.dice(pred, ref)) <= 1e-12,
                    f"{name}: dice {dice} != recomputed {R.dice(pred, ref)}")
            expected = float(np.count_nonzero(pred)) * math.prod(spacing)
            require(math.isclose(volume, expected, rel_tol=1e-9, abs_tol=1e-9),
                    f"{name}: lesion volume {volume} != recomputed {expected}")


class AugmentWorkload:
    """``phantom.generate_dataset``: phantom, mask, 4 corrupted copies, sidecars."""

    name = "augment"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.base = replace(TINY_PHANTOMS if tiny else phantom.PhantomConfig(),
                            num_lesions_range=(LESIONS, LESIONS))
        depth = self.base.size[2] if tiny else SLICES
        self.shapes = [(m, m, depth) for m in (TINY_MATRICES if tiny else MATRICES)]

    def setup(self, workdir: Path) -> None:
        phantom.generate_dataset(1, sub_seed(self.seed, 100), workdir / "warmup",
                                 config=replace(self.base, size=self.shapes[0]))
        self.dirs = [workdir / f"dataset{i}" for i in range(len(self.shapes))]

    def run_round(self) -> Round:
        done = Round()
        for i, (shape, out) in enumerate(zip(self.shapes, self.dirs)):
            done.attempted += 1
            try:
                phantom.generate_dataset(1, sub_seed(self.seed, i), out,
                                         config=replace(self.base, size=shape))
            except Exception:
                report_failure(f"generate_dataset {shape}")
                done.failed += 1
                continue
            done.slices += shape[2]
        return done

    def check(self) -> None:
        for shape, out in zip(self.shapes, self.dirs):
            check_dataset(out, shape, self.base.spacing)


def check_dataset(out: Path, shape, spacing) -> None:
    """Every file of one generated phantom against the artifact models."""
    rows = R.read_manifest(out / "manifest.csv")
    roles = sorted(r["role"] for r in rows)
    require(roles == sorted(["clean", "mask", "noise", "bias", "ghosting", "noise_bias"]),
            f"{out.name}: manifest roles {roles}")
    vols = {}
    for r in rows:
        data, sp = R.read_nifti(out / r["path"])
        require(data.shape == tuple(shape), f"{r['path']}: shape {data.shape} != {shape}")
        require(np.allclose(sp, spacing), f"{r['path']}: spacing {sp} != {spacing}")
        require(np.isfinite(data).all() and data.min() >= 0.0,
                f"{r['path']}: non-finite or negative voxels")
        vols[r["role"]] = data
    require(np.isin(vols["mask"], (0.0, 1.0)).all(), f"{out.name}: mask is not binary")
    clean = vols["clean"].astype(np.float64)
    specs = {r["role"]: R.read_sidecar(out / (r["path"] + ".spec"))
             for r in rows if r["role"] not in ("clean", "mask")}
    for role, spec in specs.items():
        require(spec.get("kind") == role, f"{out.name}: sidecar kind {spec.get('kind')} "
                                          f"for role {role}")

    def biased(spec):
        coeffs = [float(c) for c in spec["bias_coeffs"].split(",")]
        field = R.bias_field(clean.shape, int(spec["bias_order"]), coeffs)
        return (clean * field).astype(np.float32)

    expected = biased(specs["bias"])
    require(np.allclose(vols["bias"], expected, rtol=1e-5, atol=1e-6 * expected.max()),
            f"{out.name}: bias volume != clean x exp(polynomial) from its sidecar")

    g = specs["ghosting"]
    ghost = R.ghosting(clean, int(g["ghost_count"]), 0 if g["ghost_axis"] == "row" else 1,
                       float(g["ghost_intensity"]))
    err = float(np.abs(vols["ghosting"] - ghost).max())
    require(err <= 1e-5 * clean.max(),
            f"{out.name}: ghosting differs from the numpy.fft recomputation by {err:.3g}")

    check_noise(out.name + " noise", vols["noise"], clean, float(specs["noise"]["noise_std"]))
    check_noise(out.name + " noise_bias", vols["noise_bias"],
                biased(specs["noise_bias"]).astype(np.float64),
                float(specs["noise_bias"]["noise_std"]))


def check_noise(what: str, noisy: np.ndarray, base: np.ndarray, noise_std: float) -> None:
    """Residual std = noise_std x intensity range, away from the clip at 0."""
    sigma = noise_std * float(base.max() - base.min())
    keep = base >= 4.0 * sigma
    n = int(keep.sum())
    require(n >= 500, f"{what}: only {n} voxels above 4 sigma")
    residual = noisy[keep].astype(np.float64) - base[keep]
    tol = max(0.03, 6.0 / math.sqrt(2.0 * n))
    require(abs(residual.std() / sigma - 1.0) <= tol,
            f"{what}: residual std {residual.std():.5g}, expected {sigma:.5g}")
    require(abs(residual.mean()) <= 6.0 * sigma / math.sqrt(n),
            f"{what}: residual mean {residual.mean():.3g} is not zero")


WORKLOADS = {w.name: w for w in (TrainWorkload, SegmentWorkload, AugmentWorkload)}
