"""Phantom generation: determinism, containment, dataset assembly."""

import sys
import threading

import numpy as np
import pytest
import scipy.ndimage
from dataclasses import replace

from wmhseg import phantom
from wmhseg.artifacts import corrupt_scan, write_sidecar
from wmhseg.errors import ConfigError, ValidationError
from wmhseg.nifti import read_nifti, write_nifti
from wmhseg.seeding import derive_seed
from wmhseg.phantom import (ManifestEntry, PhantomConfig, generate_dataset,
                            generate_phantom, manifest_dir, read_manifest,
                            write_manifest, _ellipsoid_mask)

SMALL = PhantomConfig(size=(48, 48, 6), seed=0, num_lesions_range=(1, 4),
                      lesion_radius_mm=(1.5, 3.0))


class TestGeneratePhantom:
    def test_zero_lesions_empty_mask_nonzero_image(self):
        cfg = replace(SMALL, num_lesions_range=(0, 0), seed=5)
        img, mask = generate_phantom(cfg)
        assert mask.data.sum() == 0
        assert img.data.sum() > 0

    def test_mask_contained_in_brain_100_seeds(self):
        for seed in range(100):
            cfg = replace(SMALL, seed=seed)
            img, mask = generate_phantom(cfg)
            lesions = mask.data > 0
            if lesions.any():
                # every lesion voxel sits on visible tissue in the image
                assert (img.data[lesions] > 0.2).all(), f"seed {seed}"

    def test_same_seed_bitwise_identical(self):
        a_img, a_mask = generate_phantom(SMALL)
        b_img, b_mask = generate_phantom(SMALL)
        np.testing.assert_array_equal(a_img.data, b_img.data)
        np.testing.assert_array_equal(a_mask.data, b_mask.data)

    def test_different_seeds_differ(self):
        a, _ = generate_phantom(replace(SMALL, seed=1))
        b, _ = generate_phantom(replace(SMALL, seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_mask_untouched_by_smoothing(self, monkeypatch):
        cfg = replace(SMALL, seed=9)
        monkeypatch.setattr(phantom, "SMOOTHING_SIGMA_MM", 0.0)
        img_sharp, mask_sharp = generate_phantom(cfg)
        monkeypatch.setattr(phantom, "SMOOTHING_SIGMA_MM", 1.5)
        img_soft, mask_soft = generate_phantom(cfg)
        np.testing.assert_array_equal(mask_sharp.data, mask_soft.data)
        assert not np.array_equal(img_sharp.data, img_soft.data)
        assert set(np.unique(mask_soft.data)) <= {0.0, 1.0}

    def test_intensity_ordering_of_tissue_modes(self, monkeypatch):
        # without smoothing the painted values are exact tissue modes
        monkeypatch.setattr(phantom, "SMOOTHING_SIGMA_MM", 0.0)
        cfg = replace(SMALL, seed=3, num_lesions_range=(3, 4))
        img, mask = generate_phantom(cfg)
        modes = np.unique(img.data)
        assert modes[0] == 0.0                       # background
        vent = modes[(modes > 0.05) & (modes < 0.2)]
        brain = modes[(modes > 0.3) & (modes < 0.6)]
        lesions = img.data[mask.data > 0]
        assert len(vent) and len(brain) and lesions.size
        assert vent.max() < brain.min() < lesions.min()

    def test_infeasible_radius_rejected(self):
        with pytest.raises(ValidationError):
            generate_phantom(replace(SMALL, lesion_radius_mm=(1.5, 50.0)))

    def test_spacing_carried(self):
        img, mask = generate_phantom(replace(SMALL, spacing=(0.9, 1.1, 2.5)))
        assert img.spacing == (0.9, 1.1, 2.5)
        assert mask.spacing == (0.9, 1.1, 2.5)


class TestPhantomConfig:
    @pytest.mark.parametrize("key,value", [
        ("size", (0, 32, 3)), ("size", (32, 32)),
        ("spacing", (1.0, 0.0, 1.0)), ("spacing", (1.0, np.nan, 1.0)),
        ("spacing", (np.inf, 1.0, 1.0)), ("spacing", (-1.0, 1.0, 1.0)),
        ("num_lesions_range", (-2, -1)), ("num_lesions_range", (-1, 2)),
        ("num_lesions_range", (3, 2)),
        # a zero radius paints no voxel: lesion placement would never end
        ("lesion_radius_mm", (0.0, 0.0)), ("lesion_radius_mm", (0.0, 2.0)),
        ("lesion_radius_mm", (-3.0, -1.0)), ("lesion_radius_mm", (3.0, 2.0)),
        # far below the voxel size a lesion almost never covers a voxel
        # centre, and placement redraws it until one does
        ("lesion_radius_mm", (0.002, 0.004)),
    ])
    def test_out_of_range_rejected_naming_key(self, key, value):
        with pytest.raises(ConfigError, match=key) as exc:
            replace(SMALL, **{key: value})
        assert exc.value.key == key

    def test_lower_radius_bound_is_half_the_finest_spacing(self):
        with pytest.raises(ConfigError, match=r"lesion_radius_mm must be lo >= "
                           r"half the smallest spacing \(0\.25\)"):
            replace(SMALL, spacing=(0.5, 1.0, 3.0), lesion_radius_mm=(0.2, 1.0))
        cfg = replace(SMALL, spacing=(0.5, 1.0, 3.0), lesion_radius_mm=(0.25, 1.0))
        img, mask = generate_phantom(replace(cfg, num_lesions_range=(3, 3)))
        assert mask.data.any()

    def test_edges_accepted(self):
        cfg = replace(SMALL, num_lesions_range=(0, 0),
                      lesion_radius_mm=(2.0, 2.0), size=(1, 1, 1))
        assert cfg.size == (1, 1, 1)


def full_volume_mask(shape, spacing, center_mm, semi_mm):
    """Reference: the ellipsoid test accumulated over the whole volume."""
    grids = np.ogrid[: shape[0], : shape[1], : shape[2]]
    rho = np.zeros(shape)
    for g, sp, c, a in zip(grids, spacing, center_mm, semi_mm):
        rho = rho + ((g * sp - c) / a) ** 2
    return rho <= 1.0


# (config, seeds, the axes on which the padded box is narrower than the volume)
BOXED_CASES = {
    "small": (SMALL, range(6), ()),
    # few thick slices: lesion boxes are clipped at both z borders
    "thick-slices": (PhantomConfig(size=(40, 36, 3), spacing=(0.9, 1.1, 2.5),
                                   num_lesions_range=(3, 10),
                                   lesion_radius_mm=(0.8, 2.5)), range(6), ()),
    # radii near one voxel
    "one-voxel-radii": (PhantomConfig(size=(33, 47, 9), spacing=(0.7, 1.3, 2.0),
                                      num_lesions_range=(4, 12),
                                      lesion_radius_mm=(0.6, 1.4)), range(6), ()),
    # the benchmark's matrices and the training harness: the padded box
    # reaches the z edges and stays off the x and y edges
    "256x256x24": (PhantomConfig(size=(256, 256, 24)), range(2), (0, 1)),
    "240x240x24": (PhantomConfig(size=(240, 240, 24)), range(2), (0, 1)),
    "288x288x24": (PhantomConfig(size=(288, 288, 24)), range(2), (0, 1)),
    "harness-256x256x4": (PhantomConfig(size=(256, 256, 4), spacing=(1.0, 1.0, 6.0)),
                          range(2), (0, 1)),
    # the phantoms of ``wmhseg phantom -n 2 --seed 10 --size 96,96,64``:
    # the padded box stays off every edge
    "interior": (PhantomConfig(size=(96, 96, 64)),
                 [derive_seed(10, i, 0) for i in range(2)], (0, 1, 2)),
}


class TestBoxedPainting:
    def test_box_mask_matches_full_volume(self, rng):
        # centres inside, near and beyond the border; radii from under one
        # voxel to several
        for _ in range(400):
            shape = tuple(int(n) for n in rng.integers(1, 20, 3))
            spacing = tuple(float(s) for s in rng.choice([0.5, 0.9, 1.1, 2.5, 3.0], 3))
            extent = np.array(shape) * spacing
            center = rng.uniform(-0.3, 1.3, 3) * extent
            semi = rng.uniform(0.4, 1.6, 3) * np.array(spacing) \
                * rng.choice([1.0, 4.0], 3)
            box, inside = _ellipsoid_mask(shape, spacing, center, semi)
            painted = np.zeros(shape, dtype=bool)
            painted[box] = inside
            np.testing.assert_array_equal(
                painted, full_volume_mask(shape, spacing, center, semi))

    # at the default sigma (0.8 mm), and at 0 and 1.5 mm (radii 0 and 6 at
    # 1 mm spacing)
    @pytest.mark.parametrize("cfg,seeds,interior,sigma_mm", [
        pytest.param(*case, sigma, id=name if sigma == 0.8 else f"{name}-sigma{sigma:g}")
        for sigma in (0.8, 0.0, 1.5) for name, case in BOXED_CASES.items()])
    def test_generate_phantom_bit_identical_to_full_volume(
            self, monkeypatch, cfg, seeds, interior, sigma_mm):
        # with _ellipsoid_mask boxing the whole volume, every painted box is
        # the volume, so the reference paints and smooths the whole volume
        def full_box(shape, spacing, center_mm, semi_mm):
            return (tuple(slice(0, n) for n in shape),
                    full_volume_mask(shape, spacing, center_mm, semi_mm))
        smoothed, gaussian_filter = [], scipy.ndimage.gaussian_filter

        def recording_filter(image, **kwargs):
            smoothed.append(image.shape)
            return gaussian_filter(image, **kwargs)

        monkeypatch.setattr(scipy.ndimage, "gaussian_filter", recording_filter)
        monkeypatch.setattr(phantom, "SMOOTHING_SIGMA_MM", sigma_mm)
        for seed in seeds:
            img, mask = generate_phantom(replace(cfg, seed=seed))
            with monkeypatch.context() as m:
                m.setattr(phantom, "_ellipsoid_mask", full_box)
                ref_img, ref_mask = generate_phantom(replace(cfg, seed=seed))
            boxed, whole = smoothed[-2:]
            assert whole == cfg.size
            if sigma_mm == 0.8 and interior:
                assert [boxed[i] < n for i, n in enumerate(cfg.size)] == \
                    [i in interior for i in range(3)], boxed
            assert img.data.tobytes() == ref_img.data.tobytes()
            assert mask.data.tobytes() == ref_mask.data.tobytes()


class TestGenerateDataset:
    def test_counts_and_roles(self, tmp_path):
        entries = generate_dataset(10, 123, tmp_path / "ds", config=SMALL)
        images = [e for e in entries if e.role != "mask"]
        masks = [e for e in entries if e.role == "mask"]
        assert len(images) == 50 and len(masks) == 10
        nii = sorted((tmp_path / "ds").glob("*.nii"))
        assert len(nii) == 60
        assert (tmp_path / "ds" / "manifest.csv").exists()

    def test_manifest_rows_resolve_to_existing_readable_files(self, tmp_path):
        generate_dataset(3, 5, tmp_path / "ds", config=SMALL)
        entries = read_manifest(tmp_path / "ds" / "manifest.csv")
        base = manifest_dir(tmp_path / "ds" / "manifest.csv")
        assert len(entries) == 3 * 6
        for e in entries:
            vol = read_nifti(f"{base}/{e.path}")
            assert vol.shape == SMALL.size

    def test_regeneration_bit_identical(self, tmp_path):
        generate_dataset(2, 99, tmp_path / "a", config=SMALL)
        generate_dataset(2, 99, tmp_path / "b", config=SMALL)
        for fa in sorted((tmp_path / "a").iterdir()):
            fb = tmp_path / "b" / fa.name
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_sidecars_written_for_corrupted(self, tmp_path):
        generate_dataset(1, 7, tmp_path / "ds", config=SMALL)
        specs = sorted((tmp_path / "ds").glob("*.spec"))
        assert len(specs) == 4

    @pytest.mark.parametrize("side", [256, 240, 288])
    def test_any_budget_writes_the_serial_reference(self, tmp_path,
                                                    monkeypatch, force_budget,
                                                    side):
        cfg = replace(SMALL, size=(side, side, 4))
        serial_reference(2, 31, tmp_path / "ref", cfg)
        want = {f.name: f.read_bytes() for f in (tmp_path / "ref").iterdir()}
        assert len(want) == 2 * 10 + 1  # 6 volumes + 4 sidecars each, manifest
        for budget in (1, 2):
            with monkeypatch.context() as m:
                force_budget(budget, patch=m)
                generate_dataset(2, 31, tmp_path / f"b{budget}", config=cfg)
            got = {f.name: f.read_bytes()
                   for f in (tmp_path / f"b{budget}").iterdir()}
            assert got.keys() == want.keys()
            for name in want:
                assert got[name] == want[name], (budget, name)

    def test_more_workers_than_tasks_write_the_serial_reference(
            self, tmp_path, force_budget):
        # eight threads for six tasks, with frequent thread switches: a task
        # skipped, run twice or handed another phantom's data shows here
        serial_reference(3, 8, tmp_path / "ref", SMALL)
        force_budget(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            generate_dataset(3, 8, tmp_path / "ds", config=SMALL)
        finally:
            sys.setswitchinterval(interval)
        for f in (tmp_path / "ref").iterdir():
            assert (tmp_path / "ds" / f.name).read_bytes() == f.read_bytes()
        assert len(list((tmp_path / "ds").iterdir())) == 3 * 10 + 1

    def test_failing_artifact_task_raises_and_writes_no_manifest(
            self, tmp_path, monkeypatch, force_budget):
        force_budget(2)
        inner = phantom.apply_artifact

        def apply_artifact(vol, spec):
            if spec.kind == "ghosting":
                raise ValidationError("ghosting failed")
            return inner(vol, spec)
        monkeypatch.setattr(phantom, "apply_artifact", apply_artifact)
        threads_before = threading.active_count()
        with pytest.raises(ValidationError, match="ghosting failed"):
            generate_dataset(2, 3, tmp_path / "ds", config=SMALL)
        assert threading.active_count() == threads_before
        names = {f.name for f in (tmp_path / "ds").iterdir()}
        assert "manifest.csv" not in names
        assert not any(n.startswith("phantom001") for n in names)
        assert not any(n.startswith(".") for n in names)  # no temporary file

    def test_rejects_nonpositive_n(self, tmp_path):
        with pytest.raises(ValidationError):
            generate_dataset(0, 1, tmp_path / "ds", config=SMALL)


def serial_reference(n, master_seed, out, config):
    """The dataset written one file after another on the calling thread,
    corrupted volumes from ``corrupt_scan``."""
    out.mkdir()
    entries = []
    for i in range(n):
        sid = f"phantom{i:03d}"
        seed_i = derive_seed(master_seed, i, 0)
        img, mask = generate_phantom(replace(config, seed=seed_i))
        write_nifti(img, out / f"{sid}.nii")
        write_nifti(mask, out / f"{sid}_mask.nii")
        entries += [ManifestEntry(f"{sid}.nii", "clean", seed_i, sid),
                    ManifestEntry(f"{sid}_mask.nii", "mask", seed_i, sid)]
        for vol, spec in corrupt_scan(img, derive_seed(master_seed, i, 1)):
            name = f"{sid}_{spec.kind}.nii"
            write_nifti(vol, out / name)
            write_sidecar(out / (name + ".spec"), spec)
            entries.append(ManifestEntry(name, spec.kind, spec.seed, sid))
    write_manifest(out / "manifest.csv", entries)


class TestManifestIO:
    def test_roundtrip(self, tmp_path):
        entries = [ManifestEntry("a.nii", "clean", 12, "s0"),
                   ManifestEntry("a_noise.nii", "noise", 13, "s0"),
                   ManifestEntry("a_mask.nii", "mask", 12, "s0")]
        path = tmp_path / "manifest.csv"
        write_manifest(path, entries)
        back = read_manifest(path)
        assert back == entries
        header = path.read_text().splitlines()[0]
        assert header == "path,role,seed,source_id"
