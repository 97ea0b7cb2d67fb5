"""Synthetic brain-like phantoms with exact ground-truth lesion masks.

A phantom is an ellipsoidal "brain" with two ellipsoidal "ventricles" and a
seeded number of spherical bright lesions, smoothed with a small Gaussian
kernel (the mask is painted before smoothing and never blurred). The
tissue is painted and smoothed only on the brain's box, padded by the
kernel's radius: outside it the volume is exactly 0, so the bits are those
of smoothing the whole volume. Phantoms are deliberately simple: their job
is to make the training pipeline converge and its invariants testable, not
to look anatomical.

``generate_dataset`` mirrors the dataset assembly the trainer consumes:
every clean volume is written with its mask and its four corrupted
companions, and a manifest CSV (path, role, seed, source_id) lists every
file. Paths in the manifest are relative to the manifest's directory. Once
a phantom is drawn, its six files are made and written as independent
tasks on the package's one pool (``blas.run_parallel``), under the
``OPENBLAS_NUM_THREADS`` budget; every file, and the manifest order, is the
same at any budget.
"""

from __future__ import annotations

import csv
import io
import math
import os
import reprlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import blas
from .artifacts import KINDS, apply_artifact, companion_specs, write_sidecar
from .errors import ConfigError, DataFormatError, ValidationError
from .fileio import atomic_write
from .nifti import Volume, write_nifti
from .seeding import derive_seed


# the tissue intensities before smoothing (the background is 0), and the
# half-width of the uniform jitter drawn per phantom (a third of it for
# ventricles and per lesion)
BRAIN_INTENSITY = 0.45
VENTRICLE_INTENSITY = 0.10
LESION_INTENSITY = 0.90
INTENSITY_JITTER = 0.03
# the Gaussian that softens tissue edges, in mm (the mask stays sharp)
SMOOTHING_SIGMA_MM = 0.8


@dataclass(frozen=True)
class PhantomConfig:
    size: tuple[int, int, int] = (256, 256, 24)
    seed: int = 0
    num_lesions_range: tuple[int, int] = (0, 12)
    lesion_radius_mm: tuple[float, float] = (1.5, 8.0)
    spacing: tuple[float, float, float] = (1.0, 1.0, 3.0)

    def __post_init__(self):
        lo, hi = self.num_lesions_range
        r_lo, r_hi = self.lesion_radius_mm
        half = min(self.spacing, default=0.0) / 2
        # placement redraws a lesion until it covers a voxel centre; a
        # radius well below the spacing almost never does, so the lower
        # radius is at least half the finest spacing
        for key, rule, ok in (
                ("size", "3 entries >= 1",
                 len(self.size) == 3 and all(n >= 1 for n in self.size)),
                ("spacing", "3 finite entries > 0", len(self.spacing) == 3
                 and all(0 < s < math.inf for s in self.spacing)),
                ("num_lesions_range", "0 <= lo <= hi", 0 <= lo <= hi),
                ("lesion_radius_mm", "0 < lo <= hi", 0 < r_lo <= r_hi),
                ("lesion_radius_mm",
                 f"lo >= half the smallest spacing ({half:g})", r_lo >= half)):
            if not ok:
                raise ConfigError(f"phantom {key} must be {rule}, got "
                                  f"{getattr(self, key)}")


_MANIFEST_COLUMNS = ("path", "role", "seed", "source_id")
_MANIFEST_ROLES = ("clean",) + KINDS + ("mask",)


@dataclass
class ManifestEntry:
    path: str
    role: str         # clean | noise | bias | ghosting | noise_bias | mask
    seed: int
    source_id: str


def _ellipsoid_mask(shape, spacing, center_mm, semi_mm):
    """Voxels inside the axis-aligned ellipsoid given in mm coordinates.

    Returns ``(box, inside)``: ``box`` is one slice per axis, the
    ellipsoid's voxel bounding box (centre +- semi-axis, padded by one voxel
    against rounding, clipped to the volume), and ``inside`` is the boolean
    mask over that box. Each voxel's value is the sum of three squared 1-D
    axis terms, broadcast, so painting through ``image[box][inside]`` costs
    the box, not the volume, and gives the same voxels as a full-volume pass.
    """
    box = tuple(slice(min(max(int(np.floor((c - a) / sp)) - 1, 0), n),
                      min(max(int(np.floor((c + a) / sp)) + 2, 0), n))
                for n, sp, c, a in zip(shape, spacing, center_mm, semi_mm))
    rx, ry, rz = (((np.arange(s.start, s.stop) * sp - c) / a) ** 2
                  for s, sp, c, a in zip(box, spacing, center_mm, semi_mm))
    return box, rx[:, None, None] + ry[:, None] + rz <= 1.0


def generate_phantom(config: PhantomConfig) -> tuple[Volume, Volume]:
    """Deterministic (image, lesion mask) pair for the config's seed."""
    # imported here: segment, train and evaluate load phantom for the manifest
    from scipy.ndimage import gaussian_filter
    rng = np.random.default_rng(config.seed)
    shape = tuple(config.size)
    spacing = config.spacing
    extent_mm = np.array([s * sp for s, sp in zip(shape, spacing)])
    center = extent_mm / 2.0

    jit = INTENSITY_JITTER
    brain_val = BRAIN_INTENSITY + rng.uniform(-jit, jit)
    vent_val = VENTRICLE_INTENSITY + rng.uniform(-jit / 3, jit / 3)
    lesion_val = LESION_INTENSITY + rng.uniform(-jit, jit)

    brain_semi = extent_mm * np.array([0.42, 0.42, 0.46]) \
        * rng.uniform(0.95, 1.05, size=3)
    min_semi = float(brain_semi.min())
    if config.lesion_radius_mm[1] >= 0.8 * min_semi:
        raise ValidationError(
            f"max lesion radius {config.lesion_radius_mm[1]} mm does not fit "
            f"inside the brain (min semi-axis {min_semi:.1f} mm)")

    brain_box, inside = _ellipsoid_mask(shape, spacing, center, brain_semi)
    vents = [_ellipsoid_mask(shape, spacing,
                             center + np.array([side * 0.16 * extent_mm[0], 0.0, 0.0]),
                             extent_mm * np.array([0.07, 0.16, 0.22]))
             for side in (-1.0, 1.0)]

    mask = np.zeros(shape, dtype=np.float32)
    lesions = []
    n_lesions = int(rng.integers(config.num_lesions_range[0],
                                 config.num_lesions_range[1] + 1))
    while len(lesions) < n_lesions:
        radius = rng.uniform(*config.lesion_radius_mm)
        offset = rng.uniform(-1.0, 1.0, size=3) * brain_semi
        # strict interior: margin of one radius inside the brain ellipsoid
        if np.sum((offset / (brain_semi - radius)) ** 2) > 1.0:
            continue
        box, lesion = _ellipsoid_mask(shape, spacing, center + offset,
                                      (radius, radius, radius))
        if not lesion.any():
            continue
        lesions.append((box, lesion, lesion_val + rng.uniform(-jit / 3, jit / 3)))
        mask[box][lesion] = 1.0

    # The Gaussian reaches int(4 sigma + 0.5) voxels per axis, and every
    # painted voxel lies in the hull of the painted boxes (the brain's box:
    # ventricles and lesions keep inside it). So the tissue is painted and
    # smoothed only on that hull padded by the reach and clipped to the
    # volume: beyond it the result is exactly 0, and where the pad meets a
    # volume edge the 'reflect' boundary sees the same values, so the bits
    # are those of smoothing the whole volume.
    sigma = [SMOOTHING_SIGMA_MM / sp for sp in spacing]
    reach = [int(4.0 * s + 0.5) for s in sigma]
    boxes = [brain_box] + [b for b, _ in vents] + [b for b, _, _ in lesions]
    pad = tuple(slice(max(min(b[i].start for b in boxes) - r, 0),
                      min(max(b[i].stop for b in boxes) + r, n))
                for i, (r, n) in enumerate(zip(reach, shape)))

    def local(box):
        return tuple(slice(s.start - p.start, s.stop - p.start)
                     for s, p in zip(box, pad))

    image = np.zeros([p.stop - p.start for p in pad])
    brain = np.zeros(image.shape, dtype=bool)
    brain[local(brain_box)] = inside
    image[brain] = brain_val
    for box, vent in vents:
        image[local(box)][vent & brain[local(box)]] = vent_val
    for box, lesion, value in lesions:
        image[local(box)][lesion] = value
    # in place, as scipy runs every axis pass after the first (each line is
    # buffered before it is written), so no second float64 box is alive;
    # non-negative values and weights need no clip at 0
    smooth = np.zeros(shape, dtype=np.float32)
    smooth[pad] = gaussian_filter(image, sigma=sigma, radius=reach, output=image)
    img_vol = Volume(smooth, spacing)
    mask_vol = Volume(mask, spacing)
    return img_vol, mask_vol


def generate_dataset(n: int, master_seed: int, out_dir,
                     config: PhantomConfig | None = None) -> list[ManifestEntry]:
    """Write n phantoms + masks + 4 corruptions each, and a manifest CSV.

    Each phantom's clean write, mask write and four corruptions (artifact,
    volume and sidecar) run as six tasks on ``blas.run_parallel``; a
    corrupted volume is dropped once written. The first error of any task
    is raised here, and no manifest is written then.

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
        specs = companion_specs(derive_seed(master_seed, i, 1))
        rows = [ManifestEntry(f"{source_id}.nii", "clean", seed_i, source_id),
                ManifestEntry(f"{source_id}_mask.nii", "mask", seed_i, source_id)]
        rows += [ManifestEntry(f"{source_id}_{spec.kind}.nii", spec.kind,
                               spec.seed, source_id) for spec in specs]

        def write(k):
            if k < 2:
                write_nifti((img, mask)[k], out / rows[k].path)
            else:
                spec = specs[k - 2]
                write_nifti(apply_artifact(img, spec), out / rows[k].path)
                write_sidecar(out / (rows[k].path + ".spec"), spec)

        blas.run_parallel(write, len(rows))
        entries += rows
    write_manifest(out / "manifest.csv", entries)
    return entries


def write_manifest(path, entries: list[ManifestEntry]) -> None:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(_MANIFEST_COLUMNS)
    for e in entries:
        writer.writerow([e.path, e.role, e.seed, e.source_id])
    with atomic_write(path) as fh:
        fh.write(buf.getvalue().encode("utf-8"))


def read_manifest(path) -> list[ManifestEntry]:
    try:
        with open(path, newline="") as fh:
            lines = fh.read().splitlines(keepends=True)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: undecodable text ({exc.reason})") from None
    entries = []
    reader = csv.DictReader(lines)
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:  # such as a field over csv's size limit
        # the DictReader's own count is of the rows it has returned
        raise DataFormatError(f"{path}, line {reader.reader.line_num}: "
                              f"{exc}") from None
    for number, row in rows:
        where = f"{path}, line {number}"
        missing = [c for c in _MANIFEST_COLUMNS if row.get(c) is None]
        if missing:
            raise DataFormatError(f"{where}: missing column '{missing[0]}'")
        if "\0" in row["path"]:
            raise DataFormatError(f"{where}: path contains a NUL byte")
        if row["role"] not in _MANIFEST_ROLES:
            raise DataFormatError(f"{where}: unknown role "
                                  f"{reprlib.repr(row['role'])}, expected "
                                  f"one of {', '.join(_MANIFEST_ROLES)}")
        try:
            seed = int(row["seed"])
        except ValueError:
            raise DataFormatError(f"{where}: seed {reprlib.repr(row['seed'])} "
                                  "is not an integer") from None
        entries.append(ManifestEntry(row["path"], row["role"], seed,
                                     row["source_id"]))
    return entries


def manifest_dir(path) -> str:
    return os.path.dirname(os.path.abspath(path))
