"""Synthetic brain-like phantoms with exact ground-truth lesion masks.

A phantom is an ellipsoidal "brain" with two ellipsoidal "ventricles" and a
seeded number of spherical bright lesions, smoothed with a small Gaussian
kernel (the mask is painted before smoothing and never blurred). Phantoms
are deliberately simple: their job is to make the training pipeline converge
and its invariants testable, not to look anatomical.

``generate_dataset`` mirrors the dataset assembly the trainer consumes:
every clean volume is written with its mask and its four corrupted
companions, and a manifest CSV (path, role, seed, source_id) lists every
file. Paths in the manifest are relative to the manifest's directory.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .artifacts import corrupt_scan, write_sidecar
from .errors import DataFormatError, ValidationError
from .nifti import Volume, write_nifti
from .seeding import derive_seed


@dataclass(frozen=True)
class PhantomConfig:
    size: tuple[int, int, int] = (256, 256, 24)
    seed: int = 0
    num_lesions_range: tuple[int, int] = (0, 12)
    lesion_radius_mm: tuple[float, float] = (1.5, 8.0)
    background_intensity: float = 0.0
    brain_intensity: float = 0.45
    ventricle_intensity: float = 0.10
    lesion_intensity: float = 0.90
    intensity_jitter: float = 0.03
    smoothing_sigma_mm: float = 0.8
    spacing: tuple[float, float, float] = (1.0, 1.0, 3.0)


_MANIFEST_COLUMNS = ("path", "role", "seed", "source_id")


@dataclass
class ManifestEntry:
    path: str
    role: str         # clean | noise | bias | ghosting | noise_bias | mask
    seed: int
    source_id: str


def _ellipsoid_mask(shape, spacing, center_mm, semi_mm) -> np.ndarray:
    """Voxels inside the axis-aligned ellipsoid given in mm coordinates."""
    grids = np.ogrid[: shape[0], : shape[1], : shape[2]]
    rho = np.zeros(shape)
    for g, sp, c, a in zip(grids, spacing, center_mm, semi_mm):
        rho = rho + ((g * sp - c) / a) ** 2
    return rho <= 1.0


def generate_phantom(config: PhantomConfig) -> tuple[Volume, Volume]:
    """Deterministic (image, lesion mask) pair for the config's seed."""
    rng = np.random.default_rng(config.seed)
    shape = tuple(config.size)
    spacing = config.spacing
    extent_mm = np.array([s * sp for s, sp in zip(shape, spacing)])
    center = extent_mm / 2.0

    jit = config.intensity_jitter
    brain_val = config.brain_intensity + rng.uniform(-jit, jit)
    vent_val = config.ventricle_intensity + rng.uniform(-jit / 3, jit / 3)
    lesion_val = config.lesion_intensity + rng.uniform(-jit, jit)

    brain_semi = extent_mm * np.array([0.42, 0.42, 0.46]) \
        * rng.uniform(0.95, 1.05, size=3)
    min_semi = float(brain_semi.min())
    if config.lesion_radius_mm[1] >= 0.8 * min_semi:
        raise ValidationError(
            f"max lesion radius {config.lesion_radius_mm[1]} mm does not fit "
            f"inside the brain (min semi-axis {min_semi:.1f} mm)")

    image = np.full(shape, config.background_intensity, dtype=np.float64)
    brain = _ellipsoid_mask(shape, spacing, center, brain_semi)
    image[brain] = brain_val

    for side in (-1.0, 1.0):
        vcen = center + np.array([side * 0.16 * extent_mm[0], 0.0, 0.0])
        vsemi = extent_mm * np.array([0.07, 0.16, 0.22])
        vent = _ellipsoid_mask(shape, spacing, vcen, vsemi) & brain
        image[vent] = vent_val

    mask = np.zeros(shape, dtype=np.float32)
    n_lesions = int(rng.integers(config.num_lesions_range[0],
                                 config.num_lesions_range[1] + 1))
    placed = 0
    while placed < n_lesions:
        radius = rng.uniform(*config.lesion_radius_mm)
        offset = rng.uniform(-1.0, 1.0, size=3) * brain_semi
        # strict interior: margin of one radius inside the brain ellipsoid
        if np.sum((offset / (brain_semi - radius)) ** 2) > 1.0:
            continue
        lesion = _ellipsoid_mask(shape, spacing, center + offset,
                                 (radius, radius, radius))
        if not lesion.any():
            continue
        image[lesion] = lesion_val + rng.uniform(-jit / 3, jit / 3)
        mask[lesion] = 1.0
        placed += 1

    sigma_vox = [config.smoothing_sigma_mm / sp for sp in spacing]
    image = gaussian_filter(image, sigma=sigma_vox)
    img_vol = Volume(np.clip(image, 0.0, None).astype(np.float32), spacing)
    mask_vol = Volume(mask, spacing)
    return img_vol, mask_vol


def generate_dataset(n: int, master_seed: int, out_dir,
                     config: PhantomConfig | None = None) -> list[ManifestEntry]:
    """Write n phantoms + masks + 4 corruptions each, and a manifest CSV.

    Returns the manifest entries; total image volumes written is 5n.
    """
    if n < 1:
        raise ValidationError("dataset size must be >= 1")
    base = config or PhantomConfig()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries: list[ManifestEntry] = []
    for i in range(n):
        source_id = f"phantom{i:03d}"
        seed_i = derive_seed(master_seed, i, 0)
        img, mask = generate_phantom(replace(base, seed=seed_i))

        img_name = f"{source_id}.nii"
        mask_name = f"{source_id}_mask.nii"
        write_nifti(img, out / img_name)
        write_nifti(mask, out / mask_name)
        entries.append(ManifestEntry(img_name, "clean", seed_i, source_id))
        entries.append(ManifestEntry(mask_name, "mask", seed_i, source_id))

        corrupt_seed = derive_seed(master_seed, i, 1)
        for cvol, spec in corrupt_scan(img, corrupt_seed):
            cname = f"{source_id}_{spec.kind}.nii"
            write_nifti(cvol, out / cname)
            write_sidecar(out / (cname + ".spec"), spec)
            entries.append(ManifestEntry(cname, spec.kind, spec.seed, source_id))
    write_manifest(out / "manifest.csv", entries)
    return entries


def write_manifest(path, entries: list[ManifestEntry]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_MANIFEST_COLUMNS)
        for e in entries:
            writer.writerow([e.path, e.role, e.seed, e.source_id])


def read_manifest(path) -> list[ManifestEntry]:
    try:
        with open(path, newline="") as fh:
            lines = fh.read().splitlines(keepends=True)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: undecodable text ({exc.reason})") from None
    entries = []
    reader = csv.DictReader(lines)
    for row in reader:
        where = f"{path}, line {reader.line_num}"
        missing = [c for c in _MANIFEST_COLUMNS if row.get(c) is None]
        if missing:
            raise DataFormatError(f"{where}: missing column '{missing[0]}'")
        try:
            seed = int(row["seed"])
        except ValueError:
            raise DataFormatError(f"{where}: seed {row['seed']!r} is not an "
                                  "integer") from None
        entries.append(ManifestEntry(row["path"], row["role"], seed,
                                     row["source_id"]))
    return entries


def manifest_dir(path) -> str:
    return os.path.dirname(os.path.abspath(path))
