"""NIfTI-1 parser/writer against hand-built files, plus preprocessing."""

import gzip
import struct

import numpy as np
import pytest

from wmhseg.errors import (DataFormatError, UnsupportedDataTypeError,
                           ValidationError)
from wmhseg.nifti import (Volume, crop_pad_slice, foreground_minmax,
                          make_slice_batch, preprocess_slice, read_nifti,
                          to_axial_slices, unpreprocess_mask, write_nifti)


def build_nifti_bytes(data: np.ndarray, pixdim=(1.0, 1.0, 1.0),
                      datatype=16, bitpix=32, slope=0.0, inter=0.0,
                      endian="<", sizeof_hdr=348, magic=b"n+1\x00"):
    """Hand-assembled NIfTI-1 file, independent of the writer under test."""
    nx, ny, nz = data.shape
    header = bytearray(348)
    struct.pack_into(endian + "i", header, 0, sizeof_hdr)
    struct.pack_into(endian + "8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into(endian + "2h", header, 70, datatype, bitpix)
    struct.pack_into(endian + "8f", header, 76, 1.0, *pixdim, 0, 0, 0, 0)
    struct.pack_into(endian + "f", header, 108, 352.0)
    struct.pack_into(endian + "2f", header, 112, slope, inter)
    header[344:348] = magic
    body = np.asarray(data).astype(
        np.dtype(endian + {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8"}[datatype])
    ).tobytes(order="F")
    return bytes(header) + b"\x00" * 4 + body


class TestReadNifti:
    def test_float32_ramp_x_fastest(self, tmp_path):
        # 4x4x4 ramp: value = x + 4y + 16z, written x-fastest (Fortran order)
        ramp = np.arange(64, dtype=np.float32).reshape((4, 4, 4), order="F")
        path = tmp_path / "ramp.nii"
        path.write_bytes(build_nifti_bytes(ramp))
        vol = read_nifti(path)
        assert vol.shape == (4, 4, 4)
        np.testing.assert_array_equal(vol.data.reshape(-1, order="F"),
                                      np.arange(64, dtype=np.float32))
        assert vol.spacing == (1.0, 1.0, 1.0)

    def test_int16_with_slope_and_intercept(self, tmp_path):
        data = np.full((2, 2, 2), 5, dtype=np.int16)
        path = tmp_path / "scaled.nii"
        path.write_bytes(build_nifti_bytes(data, datatype=4, bitpix=16,
                                           slope=2.0, inter=1.0))
        vol = read_nifti(path)
        np.testing.assert_allclose(vol.data, 11.0)

    def test_wrong_header_size_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), np.float32)
        path = tmp_path / "bad.nii"
        path.write_bytes(build_nifti_bytes(data, sizeof_hdr=350))
        with pytest.raises(DataFormatError):
            read_nifti(path)

    def test_wrong_magic_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), np.float32)
        path = tmp_path / "bad.nii"
        path.write_bytes(build_nifti_bytes(data, magic=b"abc\x00"))
        with pytest.raises(DataFormatError):
            read_nifti(path)

    def test_unsupported_datatype_names_code(self, tmp_path):
        data = np.zeros((2, 2, 2), np.float32)
        raw = bytearray(build_nifti_bytes(data))
        struct.pack_into("<h", raw, 70, 128)  # RGB24, unsupported
        path = tmp_path / "rgb.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedDataTypeError) as exc:
            read_nifti(path)
        assert "128" in str(exc.value)

    def test_truncated_data_section(self, tmp_path):
        data = np.zeros((4, 4, 4), np.float32)
        blob = build_nifti_bytes(data)
        path = tmp_path / "trunc.nii"
        path.write_bytes(blob[:len(blob) - 40])
        with pytest.raises(OSError):
            read_nifti(path)

    @pytest.mark.parametrize("gz", ["", ".gz"])
    def test_hdr_img_pair_roundtrip(self, tmp_path, gz):
        data = np.arange(24, dtype=np.float32).reshape((2, 3, 4), order="F")
        blob = build_nifti_bytes(data, pixdim=(0.5, 2.0, 3.0), magic=b"ni1\x00")
        header = bytearray(blob[:348])
        struct.pack_into("<f", header, 108, 0.0)  # voxels start the .img
        opener = gzip.open if gz else open
        with opener(tmp_path / f"pair.hdr{gz}", "wb") as fh:
            fh.write(bytes(header))
        with opener(tmp_path / f"pair.img{gz}", "wb") as fh:
            fh.write(blob[352:])
        vol = read_nifti(tmp_path / f"pair.hdr{gz}")
        np.testing.assert_array_equal(vol.data, data)
        assert vol.spacing == (0.5, 2.0, 3.0)

    def test_ni1_magic_needs_hdr_name(self, tmp_path):
        path = tmp_path / "x.nii"
        path.write_bytes(build_nifti_bytes(np.zeros((2, 2, 2), np.float32),
                                           magic=b"ni1\x00"))
        with pytest.raises(DataFormatError, match="ni1"):
            read_nifti(path)

    def test_big_endian_via_dim_heuristic(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        path = tmp_path / "be.nii"
        path.write_bytes(build_nifti_bytes(data, endian=">",
                                           pixdim=(2.0, 3.0, 4.0)))
        vol = read_nifti(path)
        np.testing.assert_array_equal(
            vol.data.reshape(-1, order="F"), np.arange(8, dtype=np.float32))
        assert vol.spacing == (2.0, 3.0, 4.0)

    def test_gzipped_accepted(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        path = tmp_path / "c.nii.gz"
        with gzip.open(path, "wb") as fh:
            fh.write(build_nifti_bytes(data))
        vol = read_nifti(path)
        np.testing.assert_array_equal(
            vol.data.reshape(-1, order="F"), np.arange(8, dtype=np.float32))

    def test_uint8_and_int32(self, tmp_path):
        for datatype, bitpix, np_dtype in [(2, 8, np.uint8), (8, 32, np.int32)]:
            data = np.arange(8, dtype=np_dtype).reshape((2, 2, 2), order="F")
            path = tmp_path / f"dt{datatype}.nii"
            path.write_bytes(build_nifti_bytes(data, datatype=datatype,
                                               bitpix=bitpix))
            vol = read_nifti(path)
            np.testing.assert_array_equal(
                vol.data.reshape(-1, order="F"), np.arange(8, dtype=np.float32))


class TestWriteNifti:
    def test_roundtrip_bitwise_10_random_volumes(self, tmp_path, rng):
        for i in range(10):
            shape = tuple(int(v) for v in rng.integers(2, 9, 3))
            spacing = tuple(float(v) for v in rng.uniform(0.5, 3.0, 3))
            vol = Volume(rng.standard_normal(shape).astype(np.float32)
                         .clip(0, None), spacing)
            path = tmp_path / f"v{i}.nii"
            write_nifti(vol, path)
            back = read_nifti(path)
            assert np.array_equal(back.data, vol.data)
            np.testing.assert_allclose(back.spacing, vol.spacing, rtol=1e-7)

    def test_header_starts_with_348_le(self, tmp_path):
        vol = Volume(np.zeros((2, 2, 2), np.float32), (1, 1, 1))
        path = tmp_path / "h.nii"
        write_nifti(vol, path)
        blob = path.read_bytes()
        assert struct.unpack_from("<i", blob, 0)[0] == 348
        assert blob[344:348] == b"n+1\x00"
        assert struct.unpack_from("<f", blob, 108)[0] == 352.0

    def test_gz_roundtrip_deterministic(self, tmp_path, rng):
        vol = Volume(rng.standard_normal((3, 3, 3)).astype(np.float32)
                     .clip(0, None), (1, 1, 2))
        p1, p2 = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
        write_nifti(vol, p1)
        write_nifti(vol, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(read_nifti(p1).data, vol.data)

    def test_xform_block_preserved(self, tmp_path, rng):
        data = rng.standard_normal((3, 3, 3)).astype(np.float32).clip(0, None)
        raw = bytearray(build_nifti_bytes(data))
        struct.pack_into("<2h", raw, 252, 1, 2)          # qform/sform codes
        struct.pack_into("<4f", raw, 280, 1.5, 0, 0, 7.0)  # srow_x
        src = tmp_path / "src.nii"
        src.write_bytes(bytes(raw))
        vol = read_nifti(src)
        dst = tmp_path / "dst.nii"
        write_nifti(vol, dst)
        blob = dst.read_bytes()
        assert struct.unpack_from("<2h", blob, 252) == (1, 2)
        assert struct.unpack_from("<4f", blob, 280)[0] == 1.5


class TestVolume:
    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValidationError):
            Volume(np.zeros((2, 2, 2), np.float32), (1.0, -1.0, 1.0))

    def test_rejects_non3d(self):
        with pytest.raises(ValidationError):
            Volume(np.zeros((2, 2), np.float32), (1, 1, 1))

    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 2, 2), np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            Volume(bad, (1, 1, 1))


class TestSlicing:
    def test_slice_count_and_content(self, rng):
        data = rng.standard_normal((5, 6, 7)).astype(np.float32).clip(0, None)
        vol = Volume(data, (1, 1, 1))
        slices = to_axial_slices(vol)
        assert len(slices) == 7
        for k in range(7):
            np.testing.assert_array_equal(slices[k], data[:, :, k])


class TestPreprocess:
    def test_crop_300_to_central_256(self, rng):
        arr = rng.uniform(1.0, 2.0, (300, 300)).astype(np.float32)
        out = crop_pad_slice(arr, 256)
        np.testing.assert_array_equal(out, arr[22:278, 22:278])

    def test_pad_200x180(self):
        arr = np.ones((200, 180), np.float32)
        out = crop_pad_slice(arr, 256)
        assert out.shape == (256, 256)
        # pads (28, 28) and (38, 38)
        assert out[27, 128] == 0 and out[28, 128] == 1 and out[227, 128] == 1 \
            and out[228, 128] == 0
        assert out[128, 37] == 0 and out[128, 38] == 1 and out[128, 217] == 1 \
            and out[128, 218] == 0

    def test_odd_remainder_extra_pad_high_side(self):
        arr = np.ones((255, 255), np.float32)
        out = crop_pad_slice(arr, 256)
        assert out[0, 0] == 1.0 and out[255, 255] == 0.0  # extra on high side

    def test_normalized_to_unit_interval(self, rng):
        arr = rng.uniform(10, 50, (100, 120)).astype(np.float32)
        out = preprocess_slice(arr, 256)
        assert out.shape == (256, 256)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_padding_stays_exactly_zero(self, rng):
        arr = rng.uniform(10, 50, (100, 100)).astype(np.float32)
        out = preprocess_slice(arr, 256)
        assert (out[:78] == 0).all() and (out[178:] == 0).all()

    def test_foreground_minmax_mapping(self):
        arr = np.zeros((10, 10), np.float32)
        arr[2, 2], arr[3, 3], arr[4, 4] = 10.0, 20.0, 30.0
        out = preprocess_slice(arr, 16)
        assert foreground_minmax(arr) == (10.0, 30.0)
        got = sorted(np.unique(out[out > 0]))
        np.testing.assert_allclose(got, [0.5, 1.0])  # min maps to 0 (zeroed)

    def test_constant_slice_all_zeros(self):
        out = preprocess_slice(np.full((40, 40), 7.0, np.float32), 64)
        np.testing.assert_array_equal(out, np.zeros((64, 64), np.float32))

    def test_all_zero_slice(self):
        out = preprocess_slice(np.zeros((40, 40), np.float32), 64)
        np.testing.assert_array_equal(out, np.zeros((64, 64), np.float32))


class TestUnpreprocess:
    @pytest.mark.parametrize("dims", [(300, 300), (200, 180), (256, 256),
                                      (300, 180)])
    def test_roundtrip_identity_inside_retained_region(self, rng, dims):
        mask = (rng.uniform(size=dims) > 0.5).astype(np.float32)
        pre = crop_pad_slice(mask, 256)
        back = unpreprocess_mask(pre, dims)
        assert back.shape == dims
        sx = slice(22, 278) if dims[0] == 300 else slice(0, dims[0])
        sy = slice(22, 278) if dims[1] == 300 else slice(0, dims[1])
        np.testing.assert_array_equal(back[sx, sy], mask[sx, sy])

    def test_padding_region_zero_after_restore(self):
        pre = np.ones((256, 256), np.float32)
        back = unpreprocess_mask(pre, (300, 280))
        assert back.shape == (300, 280)
        assert back[:22].sum() == 0 and back[278:].sum() == 0

    def test_checkerboard_volume_reassembly_no_offset(self):
        xs, ys = np.meshgrid(np.arange(100), np.arange(90), indexing="ij")
        checker = ((xs + ys) % 2).astype(np.float32)
        vol = Volume(np.stack([checker] * 4, axis=2), (1, 1, 1))
        restored = np.zeros(vol.shape, np.float32)
        for k, sl in enumerate(to_axial_slices(vol)):
            pre = crop_pad_slice(sl, 256)
            restored[:, :, k] = unpreprocess_mask(pre, (100, 90))
        np.testing.assert_array_equal(restored, vol.data)


class TestSliceBatch:
    def test_batch_shape_provenance_and_bounds(self, rng):
        data = rng.uniform(0, 100, (60, 70, 5)).astype(np.float32)
        vol = Volume(data, (1, 1, 2))
        batch = make_slice_batch(vol, "volA", target=128)
        assert batch.tensor.shape == (5, 1, 128, 128)
        assert batch.tensor.min() >= 0.0 and batch.tensor.max() <= 1.0
        assert batch.provenance == [("volA", k) for k in range(5)]
        assert len(batch.minmax) == 5

    def test_volume_scope_uses_shared_stats(self, rng):
        data = rng.uniform(1, 9, (20, 20, 3)).astype(np.float32)
        vol = Volume(data, (1, 1, 1))
        batch = make_slice_batch(vol, "v", target=32, scope="volume")
        assert len(set(batch.minmax)) == 1
        per_slice = make_slice_batch(vol, "v", target=32, scope="slice")
        assert len(set(per_slice.minmax)) == 3
