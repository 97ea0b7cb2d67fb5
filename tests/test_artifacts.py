"""Artifact simulation: neutral-parameter identities, statistics, replicas."""

import numpy as np
import pytest

from wmhseg import artifacts
from wmhseg.artifacts import (ArtifactSpec, KINDS, add_noise, apply_artifact,
                              apply_bias_field, apply_ghosting, bias_field,
                              companion_specs, corrupt_scan, read_sidecar,
                              sample_spec, write_sidecar, _bias_terms,
                              _num_bias_coeffs)
from wmhseg.errors import ValidationError
from wmhseg.nifti import Volume
from wmhseg.seeding import derive_seed


def make_vol(rng, shape=(24, 24, 4), spacing=(1.0, 1.0, 3.0)):
    return Volume(rng.uniform(0.1, 1.0, shape).astype(np.float32), spacing)


def monomial_terms(order):
    return [(i, j, k) for i in range(order + 1) for j in range(order + 1 - i)
            for k in range(order + 1 - i - j)]


def monomial_sum_field(shape, order, coeffs):
    """Reference: one full-volume pass per monomial, then exp."""
    xs, ys, zs = (np.zeros(1) if n == 1 else 2.0 * np.arange(n) / (n - 1) - 1.0
                  for n in shape)
    xs, ys = xs[:, None, None], ys[:, None]
    poly = np.zeros(shape)
    for c, (i, j, k) in zip(coeffs, monomial_terms(order)):
        poly = poly + c * xs ** i * ys ** j * zs ** k
    return np.exp(poly)


class TestNoise:
    def test_zero_std_is_identity(self, rng):
        vol = make_vol(rng)
        out = add_noise(vol, ArtifactSpec("noise", seed=3, noise_std=0.0))
        np.testing.assert_array_equal(out.data, vol.data)

    def test_sample_std_within_5_percent(self):
        # large constant input keeps the >=0 clip inactive (zero-mean noise
        # region), per the sampling-statistics contract
        vol = Volume(np.full((256, 256, 256), 100.0, np.float32), (1, 1, 1))
        vol.data[0, 0, 0] = 0.0
        vol.data[0, 0, 1] = 200.0  # fix the intensity range to 200
        spec = ArtifactSpec("noise", seed=11, noise_std=0.05)
        out = add_noise(vol, spec)
        diff = out.data.astype(np.float64) - vol.data
        requested = 0.05 * 200.0
        assert abs(diff.std() - requested) / requested < 0.05

    def test_same_seed_bitwise_identical(self, rng):
        vol = make_vol(rng)
        spec = sample_spec("noise", 77)
        a = add_noise(vol, spec)
        b = add_noise(vol, spec)
        np.testing.assert_array_equal(a.data, b.data)

    # one row, three rows with a short last block, all rows, the default
    @pytest.mark.parametrize("block", [1, 3 * 29 * 5, 37 * 29 * 5, None])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blockwise_draw_equals_one_shot_draw(self, rng, monkeypatch,
                                                 block, dtype):
        if block is not None:
            monkeypatch.setattr(artifacts, "NOISE_BLOCK_VOXELS", block)
        data = rng.uniform(0.0, 1.0, (37, 29, 5)).astype(dtype)
        spec = ArtifactSpec("noise", seed=11, noise_std=0.3)
        sigma = 0.3 * float(data.max() - data.min())
        noise = np.random.default_rng(derive_seed(11, 1)).normal(
            0.0, sigma, size=data.shape)
        want = np.maximum(noise + data, 0.0).astype(dtype)
        got = add_noise(Volume(data, (1, 1, 1)), spec).data
        assert got.dtype == dtype and (want == 0).any()
        assert got.tobytes() == want.tobytes()

    def test_clipped_nonnegative(self, rng):
        vol = Volume(np.zeros((16, 16, 4), np.float32), (1, 1, 1))
        vol.data[0, 0, 0] = 1.0
        out = add_noise(vol, ArtifactSpec("noise", seed=5, noise_std=0.5))
        assert out.data.min() >= 0.0


class TestBiasField:
    def test_zero_coefficients_identity(self, rng):
        vol = make_vol(rng)
        spec = ArtifactSpec("bias", seed=0,
                            bias_coeffs=np.zeros(_num_bias_coeffs(3)))
        out = apply_bias_field(vol, spec)
        np.testing.assert_array_equal(out.data, vol.data)

    def test_constant_coefficient_uniform_scaling(self, rng):
        vol = make_vol(rng)
        coeffs = np.zeros(_num_bias_coeffs(3))
        coeffs[0] = 0.3  # constant monomial x^0 y^0 z^0
        out = apply_bias_field(vol, ArtifactSpec("bias", seed=0,
                                                 bias_coeffs=coeffs))
        np.testing.assert_allclose(out.data, vol.data * np.exp(0.3), rtol=1e-6)

    def test_field_strictly_positive_1000_draws(self):
        shape = (9, 9, 5)
        for seed in range(1000):
            spec = sample_spec("bias", seed)
            field = bias_field(shape, spec.bias_order, spec.bias_coeffs)
            assert field.min() > 0.0

    def test_field_matches_polynomial_oracle(self, rng):
        # direct monomial evaluation at a handful of voxels
        shape = (5, 4, 3)
        spec = sample_spec("bias", 123)
        field = bias_field(shape, spec.bias_order, spec.bias_coeffs)

        def coords(n, i):
            return 0.0 if n == 1 else 2.0 * i / (n - 1) - 1.0
        for (x, y, z) in [(0, 0, 0), (4, 3, 2), (2, 1, 1)]:
            cx, cy, cz = coords(5, x), coords(4, y), coords(3, z)
            val, idx = 0.0, 0
            for i in range(4):
                for j in range(4 - i):
                    for k in range(4 - i - j):
                        val += spec.bias_coeffs[idx] * cx**i * cy**j * cz**k
                        idx += 1
            assert abs(field[x, y, z] - np.exp(val)) < 1e-12

    def test_separable_field_matches_monomial_sum(self):
        rng = np.random.default_rng(2024)
        shapes = [(1, 7, 5), (6, 1, 4), (5, 4, 1), (1, 1, 1), (9, 4, 3),
                  (13, 8, 2), (2, 11, 6)]
        for n in range(21):
            order = int(rng.integers(0, 6))
            coeffs = rng.uniform(-0.5, 0.5, _num_bias_coeffs(order))
            coeffs[rng.random(coeffs.size) < 0.2] = 0.0
            shape = shapes[n % len(shapes)]
            np.testing.assert_allclose(bias_field(shape, order, coeffs),
                                       monomial_sum_field(shape, order, coeffs),
                                       rtol=1e-12, atol=0)

    def test_term_count_and_order_match_enumeration(self):
        for order in range(13):
            terms = monomial_terms(order)
            assert _num_bias_coeffs(order) == len(terms)
            assert list(zip(*(t.tolist() for t in _bias_terms(order)))) == terms

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(ValidationError):
            bias_field((4, 4, 2), 2, np.zeros(_num_bias_coeffs(3)))


class TestGhosting:
    def test_zero_intensity_identity_within_fft_roundtrip(self, rng):
        vol = make_vol(rng, shape=(32, 32, 3))
        spec = ArtifactSpec("ghosting", seed=0, ghost_count=4,
                            ghost_axis="row", ghost_intensity=0.0)
        out = apply_ghosting(vol, spec)
        assert np.abs(out.data - vol.data).max() < 1e-6

    @pytest.mark.parametrize("axis,idx", [("row", 0), ("col", 1)])
    def test_point_source_replicas_at_predicted_offsets(self, axis, idx):
        n, count = 128, 4
        data = np.zeros((n, n, 1), np.float32)
        data[n // 2, n // 2, 0] = 1.0
        vol = Volume(data, (1, 1, 1))
        spec = ArtifactSpec("ghosting", seed=0, ghost_count=count,
                            ghost_axis=axis, ghost_intensity=0.8)
        out = np.abs(apply_ghosting(vol, spec).data[:, :, 0])
        spacing = n // count
        base = n // 2
        for m in (1, 2, 3):
            pos = (base + m * spacing) % n
            coord = (pos, base) if idx == 0 else (base, pos)
            off_coord = ((pos + spacing // 2) % n, base) if idx == 0 \
                else (base, (pos + spacing // 2) % n)
            assert out[coord] > 10 * out[off_coord], \
                f"no replica at offset {m * spacing} along {axis}"

    def test_mean_intensity_preserved_within_2_percent(self, rng):
        vol = make_vol(rng, shape=(64, 64, 2))
        spec = sample_spec("ghosting", 3)
        out = apply_ghosting(vol, spec)
        assert abs(out.data.mean() - vol.data.mean()) / vol.data.mean() < 0.02

    def test_invalid_axis(self, rng):
        vol = make_vol(rng)
        with pytest.raises(ValidationError):
            apply_ghosting(vol, ArtifactSpec("ghosting", seed=0, ghost_count=2,
                                             ghost_axis="diag",
                                             ghost_intensity=0.5))


class TestCorruptScan:
    def test_exactly_four_variants(self, rng):
        vol = make_vol(rng)
        out = corrupt_scan(vol, 9)
        assert len(out) == 4
        assert [spec.kind for _, spec in out] == list(KINDS)

    def test_specs_are_the_companion_specs(self, rng):
        vol = make_vol(rng)
        assert repr([spec for _, spec in corrupt_scan(vol, 9)]) == \
            repr(companion_specs(9))
        assert [s.seed for s in companion_specs(9)] == \
            [derive_seed(9, i) for i in range(len(KINDS))]

    def test_bookkeeping_270_sources_would_give_1350(self):
        # 1 clean + 4 corrupted per scan
        assert 270 * (1 + len(KINDS)) == 1350

    def test_deterministic_under_master_seed(self, rng):
        vol = make_vol(rng)
        a = corrupt_scan(vol, 42)
        b = corrupt_scan(vol, 42)
        for (va, sa), (vb, sb) in zip(a, b):
            np.testing.assert_array_equal(va.data, vb.data)
            assert sa.seed == sb.seed

    def test_spacing_and_shape_preserved(self, rng):
        vol = make_vol(rng, spacing=(0.75, 0.75, 1.5))
        for cvol, _ in corrupt_scan(vol, 5):
            assert cvol.shape == vol.shape
            assert cvol.spacing == vol.spacing

    def test_noise_bias_composition_order(self, rng):
        # contract: bias field first, then noise; the reverse differs
        vol = make_vol(rng)
        spec = sample_spec("noise_bias", 31)
        contracted = apply_artifact(vol, spec)
        reversed_order = apply_bias_field(add_noise(vol, spec), spec)
        assert not np.array_equal(contracted.data, reversed_order.data)
        np.testing.assert_array_equal(
            contracted.data, add_noise(apply_bias_field(vol, spec), spec).data)


class TestSidecar:
    @pytest.mark.parametrize("kind", KINDS)
    def test_replay_reproduces_bitwise(self, tmp_path, rng, kind):
        vol = make_vol(rng)
        spec = sample_spec(kind, 88)
        out1 = apply_artifact(vol, spec)
        path = tmp_path / f"{kind}.spec"
        write_sidecar(path, spec)
        replayed = read_sidecar(path)
        out2 = apply_artifact(vol, replayed)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError) as exc:
            ArtifactSpec("sparkle", seed=0)
        assert "noise" in str(exc.value)  # error lists valid kinds
