"""Evaluation metrics: Dice overlap, lesion volumetry, paired volume reports."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError, ValidationError
from .fileio import atomic_write


@dataclass
class SegMetrics:
    """Per-volume segmentation quality summary."""
    image_id: str
    dice_score: float
    lesion_volume_pred: float  # mm^3
    lesion_volume_ref: float   # mm^3


def dice_score(pred_mask: np.ndarray, ref_mask: np.ndarray) -> float:
    """2|A n B| / (|A| + |B|); defined as 1.0 when both masks are empty."""
    pred_mask = np.asarray(pred_mask)
    ref_mask = np.asarray(ref_mask)
    if pred_mask.shape != ref_mask.shape:
        raise ShapeError(f"mask shapes differ: {pred_mask.shape} vs {ref_mask.shape}")
    a = pred_mask.astype(bool)
    b = ref_mask.astype(bool)
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int(np.logical_and(a, b).sum()) / total


def lesion_volume(mask: np.ndarray, voxel_dims: Sequence[float]) -> float:
    """Mask volume in mm^3 given voxel spacing (dx, dy, dz) in mm."""
    dx, dy, dz = (float(v) for v in voxel_dims)
    if dx <= 0 or dy <= 0 or dz <= 0:
        raise ValidationError(f"voxel dims must be positive, got {(dx, dy, dz)}")
    return float(np.asarray(mask).astype(bool).sum()) * dx * dy * dz


def paired_volume_report(pairs: Sequence[tuple[float, float]]) -> dict:
    """Descriptive statistics for (predicted, reference) volume pairs.

    Returns mean signed difference, mean absolute difference, and the
    per-pair table; deterministic given the input order.
    """
    if len(pairs) == 0:
        raise ValidationError("paired_volume_report needs at least one pair")
    rows = [(float(p), float(r), float(p) - float(r)) for p, r in pairs]
    diffs = np.array([d for _, _, d in rows])
    return {
        "mean_diff": float(diffs.mean()),
        "mean_abs_diff": float(np.abs(diffs).mean()),
        "rows": rows,
    }


def write_metrics_csv(path, metrics: Sequence[SegMetrics]) -> None:
    """One row per image: (id, dice, vol_pred_mm3, vol_ref_mm3)."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["id", "dice", "vol_pred_mm3", "vol_ref_mm3"])
    for m in metrics:
        writer.writerow([m.image_id, f"{m.dice_score:.6f}",
                         f"{m.lesion_volume_pred:.3f}", f"{m.lesion_volume_ref:.3f}"])
    with atomic_write(path) as fh:
        fh.write(buf.getvalue().encode("utf-8"))
