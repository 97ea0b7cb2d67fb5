"""NIfTI-1 parser/writer against hand-built files, plus preprocessing."""

import gzip
import struct
import warnings

import numpy as np
import pytest

from wmhseg.cli import EXIT_DATA, main
from wmhseg.errors import (DataFormatError, UnsupportedDataTypeError,
                           ValidationError)
from wmhseg.model import ModelConfig, init_parameters, save_checkpoint
from wmhseg.nifti import (Volume, crop_pad_volume, make_slice_batch,
                          read_nifti, unpreprocess_mask, write_nifti)


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

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_header_claiming_terabytes_is_truncated_not_out_of_memory(
            self, tmp_path, suffix):
        blob = bytearray(build_nifti_bytes(np.zeros((4, 4, 4), np.float64),
                                           datatype=64, bitpix=64))
        struct.pack_into("<3h", blob, 42, 32767, 32767, 32767)  # 2^48 bytes
        path = tmp_path / f"huge{suffix}"
        path.write_bytes(gzip.compress(bytes(blob)) if suffix == ".nii.gz"
                         else bytes(blob))
        with pytest.raises(OSError, match="truncated data section"):
            read_nifti(path)

    @pytest.mark.parametrize("field,offset,value,data", [
        ("vox_offset", 108, np.inf, [1, 2, 3, 4]),
        ("vox_offset", 108, np.nan, [1, 2, 3, 4]),
        ("vox_offset", 108, 1e30, [1, 2, 3, 4]),
        ("vox_offset", 108, -4.0, [1, 2, 3, 4]),
        ("vox_offset", 108, 0.0, [1, 2, 3, 4]),  # inside the header
        ("spacing", 80, np.nan, [1, 2, 3, 4]),
        ("spacing", 84, np.inf, [1, 2, 3, 4]),
        ("spacing", 88, 0.0, [1, 2, 3, 4]),
        ("scl_slope", 112, np.inf, [1, 2, 3, 4]),
        ("scl_inter", 116, np.nan, [1, 2, 3, 4]),
        ("non-finite", 112, 1e30, [1, 2, 3e30, 4]),  # scaling overflows
        ("non-finite", 112, 0.0, [1, np.nan, 3, 4]),
    ], ids=["offset-inf", "offset-nan", "offset-huge", "offset-negative",
            "offset-in-header", "spacing-nan", "spacing-inf", "spacing-zero",
            "slope-inf", "inter-nan", "scaling-overflow", "nan-voxel"])
    def test_damaged_header_fields_name_the_file(self, tmp_path, field, offset,
                                                 value, data):
        blob = bytearray(build_nifti_bytes(np.float32(data).reshape(2, 2, 1)))
        struct.pack_into("<f", blob, offset, value)
        path = tmp_path / "damaged.nii"
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning either
            with pytest.raises(DataFormatError, match="damaged.nii") as exc:
                read_nifti(path)
        assert field in str(exc.value)

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


def flip_middle_byte(blob: bytes) -> bytes:
    mid = len(blob) // 2
    return blob[:mid] + bytes([blob[mid] ^ 0xFF]) + blob[mid + 1:]


# ways to damage a gzip file; its last 8 bytes are the CRC-32 and the
# length of the uncompressed data
GZIP_DAMAGE = {
    "byte-flipped": flip_middle_byte,
    "crc-zeroed": lambda b: b[:-8] + bytes(4) + b[-4:],
    "length-wrong": lambda b: b[:-4] + bytes([b[-4] ^ 1]) + b[-3:],
    "trailer-missing": lambda b: b[:-8],
    "cut-in-half": lambda b: b[:len(b) // 2],
    "not-gzip": gzip.decompress,
}


def small_volume(seed=0) -> Volume:
    data = np.random.default_rng(seed).random((32, 32, 3)).astype(np.float32)
    return Volume(data, (1.0, 1.0, 3.0))


class TestDamagedGzip:
    """Every gzip stream is read to its end, so its trailer is checked, and
    a damaged one is a data error naming the file."""

    @pytest.mark.parametrize("damage", GZIP_DAMAGE)
    def test_single_file(self, tmp_path, damage):
        path = tmp_path / "v.nii.gz"
        write_nifti(small_volume(), path)
        path.write_bytes(GZIP_DAMAGE[damage](path.read_bytes()))
        with pytest.raises(DataFormatError, match="v.nii.gz"):
            read_nifti(path)

    @pytest.mark.parametrize("damage", GZIP_DAMAGE)
    @pytest.mark.parametrize("part", ["hdr", "img"])
    def test_pair(self, tmp_path, part, damage):
        blob = build_nifti_bytes(np.arange(24, dtype=np.float32)
                                 .reshape((2, 3, 4)), magic=b"ni1\x00")
        for name, body in (("hdr", blob[:348]), ("img", blob[352:])):
            packed = gzip.compress(body, mtime=0)
            (tmp_path / f"pair.{name}.gz").write_bytes(
                GZIP_DAMAGE[damage](packed) if name == part else packed)
        with pytest.raises(DataFormatError, match=f"pair.{part}.gz"):
            read_nifti(tmp_path / "pair.hdr.gz")

    @pytest.mark.parametrize("damage", GZIP_DAMAGE)
    @pytest.mark.parametrize("command", ["segment", "augment"])
    def test_commands_exit_with_one_line(self, tmp_path, capsys, command,
                                         damage):
        path = tmp_path / "v.nii.gz"
        write_nifti(small_volume(), path)
        path.write_bytes(GZIP_DAMAGE[damage](path.read_bytes()))
        args = ["--in", str(path), "--out", str(tmp_path / "o.nii")]
        if command == "segment":
            cfg = ModelConfig.tiny()
            save_checkpoint(tmp_path / "m.ckpt", init_parameters(cfg, 0), cfg)
            args += ["--checkpoint", str(tmp_path / "m.ckpt")]
        else:
            args += ["--kind", "noise"]
        assert main([command] + args) == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(path) in err[0], err
        assert not (tmp_path / "o.nii").exists()

    def test_intact_stream_reads_back(self, tmp_path):
        path = tmp_path / "v.nii.gz"
        write_nifti(small_volume(), path)
        np.testing.assert_array_equal(read_nifti(path).data,
                                      small_volume().data)


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

    @pytest.mark.parametrize("layout", ["C", "F", "float64", "strided"])
    def test_file_is_header_then_fortran_voxels(self, tmp_path, rng, layout):
        base = rng.standard_normal((5, 4, 3)).clip(0, None)
        data = {"C": base.astype(np.float32),
                "F": np.asfortranarray(base, dtype=np.float32),
                "float64": base,
                "strided": np.repeat(base, 2, axis=1)[:, ::2].astype(np.float32)}[layout]
        vol = Volume(data, (1, 1, 2))
        plain, packed = tmp_path / "v.nii", tmp_path / "v.nii.gz"
        write_nifti(vol, plain)
        write_nifti(vol, packed)
        blob = plain.read_bytes()
        assert blob[348:352] == b"\x00" * 4
        assert blob[352:] == base.astype(np.float32).tobytes(order="F")
        # the gzip stream equals one compressed write of the whole file
        ref = tmp_path / "ref.gz"
        with open(ref, "wb") as fh, \
                gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0) as gz:
            gz.write(blob)
        assert packed.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_slice_chunks_give_header_then_fortran_voxels(self, tmp_path, rng,
                                                          suffix):
        # non-square, many slices, each slice larger than the gzip buffer
        data = rng.random((301, 173, 7)).astype(np.float32)
        path = tmp_path / ("v" + suffix)
        write_nifti(Volume(data, (0.9, 1.1, 2.5)), path)
        blob = path.read_bytes()
        if suffix == ".nii.gz":
            blob = gzip.decompress(blob)
        assert len(blob) == 352 + data.nbytes
        assert blob[:352] == build_nifti_bytes(data, pixdim=(0.9, 1.1, 2.5))[:352]
        assert blob[352:] == data.tobytes(order="F")

    # voxels are gathered in blocks of 8 z-slices, 32 x-columns at a time:
    # x extents off the tile, z extents off the block, and a single slice
    @pytest.mark.parametrize("shape", [(70, 9, 19), (32, 5, 1), (97, 3, 16),
                                       (5, 4, 3)], ids=str)
    @pytest.mark.parametrize("layout", ["C", "F", "float64", "float64-F",
                                        "strided", "reversed"])
    def test_tiled_gather_equals_per_slice_writes(self, tmp_path, rng, shape,
                                                  layout):
        base = rng.standard_normal(shape)
        data = {"C": base.astype(np.float32),
                "F": np.asfortranarray(base, dtype=np.float32),
                "float64": base,
                "float64-F": np.asfortranarray(base),
                "strided": np.repeat(base, 2, axis=2)[:, :, ::2].astype(np.float32),
                "reversed": base[::-1, :, ::-1].astype(np.float32)}[layout]
        header = build_nifti_bytes(data, pixdim=(1.0, 1.0, 2.0))[:352]
        # the reference: one float32 copy of each z-slice, x fastest
        ref = header + b"".join(
            np.ascontiguousarray(data[:, :, k].T, dtype=np.float32).tobytes()
            for k in range(shape[2]))
        plain, packed = tmp_path / "v.nii", tmp_path / "v.nii.gz"
        write_nifti(Volume(data, (1, 1, 2)), plain)
        write_nifti(Volume(data, (1, 1, 2)), packed)
        assert plain.read_bytes() == ref
        ref_gz = tmp_path / "ref.gz"
        with open(ref_gz, "wb") as fh, \
                gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0) as gz:
            gz.write(ref)
        assert packed.read_bytes() == ref_gz.read_bytes()

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
        for bad in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite and > 0"):
                Volume(np.zeros((2, 2, 2), np.float32), (1.0, bad, 1.0))

    def test_rejects_non3d(self):
        with pytest.raises(ValidationError):
            Volume(np.zeros((2, 2), np.float32), (1, 1, 1))

    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 2, 2), np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            Volume(bad, (1, 1, 1))


def oracle_slice(arr, target, minmax=None):
    """One slice preprocessed the per-slice way: statistics over the source
    slice (or ``minmax``), crop/pad, scale, clip, background back to 0."""
    if minmax is None:
        fg = arr[arr != 0]
        minmax = (float(fg.min()), float(fg.max())) if fg.size else (0.0, 0.0)
    mn, mx = minmax
    out = np.zeros((target, target), np.float32)
    src = np.asarray(arr, dtype=np.float32)
    for axis in (0, 1):
        n = src.shape[axis]
        lo = (n - target) // 2 if n >= target else 0
        src = np.take(src, range(lo, lo + min(n, target)), axis=axis)
    px = (target - src.shape[0]) // 2
    py = (target - src.shape[1]) // 2
    out[px:px + src.shape[0], py:py + src.shape[1]] = src
    if mx <= mn:
        return np.zeros_like(out)
    scaled = np.clip((out - mn) / (mx - mn), 0.0, 1.0)
    return np.where(out != 0, scaled, 0.0).astype(np.float32)


def oracle_batch(data, target, scope):
    """The per-slice implementation the batched one must equal bit for bit."""
    shared = None
    if scope == "volume":
        fg = data[data != 0]
        shared = (float(fg.min()), float(fg.max())) if fg.size else (0.0, 0.0)
    return np.stack([oracle_slice(data[:, :, k], target, shared)
                     for k in range(data.shape[2])])[:, None]


def one_slice(arr, target):
    """make_slice_batch on a single-slice volume."""
    return make_slice_batch(Volume(arr[:, :, None], (1, 1, 1)), target)[0, 0]


class TestCropPadVolume:
    def test_slice_order_and_content(self, rng):
        data = rng.standard_normal((5, 6, 7)).astype(np.float32).clip(0, None)
        out = crop_pad_volume(data, 6)
        assert out.shape == (7, 6, 6) and out.dtype == np.float32
        for k in range(7):
            np.testing.assert_array_equal(out[k, :5], data[:, :, k])
            assert (out[k, 5] == 0).all()

    def test_crop_300_to_central_256(self, rng):
        arr = rng.uniform(1.0, 2.0, (300, 300, 2)).astype(np.float32)
        out = crop_pad_volume(arr, 256)
        for k in range(2):
            np.testing.assert_array_equal(out[k], arr[22:278, 22:278, k])

    def test_pad_200x180(self):
        out = crop_pad_volume(np.ones((200, 180, 1), np.float32), 256)[0]
        assert out.shape == (256, 256)
        # pads (28, 28) and (38, 38)
        assert out[27, 128] == 0 and out[28, 128] == 1 and out[227, 128] == 1 \
            and out[228, 128] == 0
        assert out[128, 37] == 0 and out[128, 38] == 1 and out[128, 217] == 1 \
            and out[128, 218] == 0

    def test_odd_remainder_extra_pad_high_side(self):
        out = crop_pad_volume(np.ones((255, 255, 1), np.float32), 256)[0]
        assert out[0, 0] == 1.0 and out[255, 255] == 0.0  # extra on high side

    def test_float64_input_cast_to_float32(self, rng):
        data = rng.uniform(0, 1, (9, 9, 2))
        out = crop_pad_volume(data, 9)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, data.transpose(2, 0, 1).astype(np.float32))


class TestPreprocess:
    def test_normalized_to_unit_interval(self, rng):
        out = one_slice(rng.uniform(10, 50, (100, 120)).astype(np.float32), 256)
        assert out.shape == (256, 256)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_padding_stays_exactly_zero(self, rng):
        out = one_slice(rng.uniform(10, 50, (100, 100)).astype(np.float32), 256)
        assert (out[:78] == 0).all() and (out[178:] == 0).all()

    def test_foreground_minmax_mapping(self):
        arr = np.zeros((10, 10), np.float32)
        arr[2, 2], arr[3, 3], arr[4, 4] = 10.0, 20.0, 30.0
        out = one_slice(arr, 16)
        got = sorted(np.unique(out[out > 0]))
        np.testing.assert_allclose(got, [0.5, 1.0])  # min maps to 0 (zeroed)

    def test_statistics_taken_before_the_crop(self):
        # the darkest and brightest voxels lie outside the 8x8 window, yet
        # they set the scale
        arr = np.full((12, 12), 2.0, np.float32)
        arr[11, 11], arr[0, 0] = 1.0, 5.0
        out = one_slice(arr, 8)
        assert out.max() == np.float32(0.25)

    def test_constant_slice_all_zeros(self):
        out = one_slice(np.full((40, 40), 7.0, np.float32), 64)
        np.testing.assert_array_equal(out, np.zeros((64, 64), np.float32))

    def test_all_zero_slice(self):
        out = one_slice(np.zeros((40, 40), np.float32), 64)
        np.testing.assert_array_equal(out, np.zeros((64, 64), np.float32))


class TestUnpreprocess:
    @pytest.mark.parametrize("dims", [(300, 300), (200, 180), (256, 256),
                                      (300, 180)])
    def test_roundtrip_identity_inside_retained_region(self, rng, dims):
        mask = (rng.uniform(size=dims) > 0.5).astype(np.float32)
        pre = crop_pad_volume(mask[:, :, None], 256)[0]
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
        for k, pre in enumerate(crop_pad_volume(vol.data, 256)):
            restored[:, :, k] = unpreprocess_mask(pre, (100, 90))
        np.testing.assert_array_equal(restored, vol.data)


class TestSliceBatch:
    def test_batch_shape_bounds_and_slice_normalisation(self, rng):
        data = rng.uniform(0, 100, (60, 70, 5)).astype(np.float32)
        data[:, :, 2] *= 3.0  # slices with different foreground ranges
        vol = Volume(data, (1, 1, 2))
        batch = make_slice_batch(vol, target=128)
        assert batch.shape == (5, 1, 128, 128) and batch.dtype == np.float32
        assert batch.min() >= 0.0 and batch.max() <= 1.0
        for k in range(5):
            # each slice spans [0,1] over its own foreground
            fg = batch[k, 0][crop_pad_volume(data, 128)[k] != 0]
            assert fg.min() == 0.0 and fg.max() == 1.0
            np.testing.assert_array_equal(batch[k, 0],
                                          oracle_slice(data[:, :, k], 128))

    def test_volume_scope_uses_shared_stats(self, rng):
        data = rng.uniform(1, 9, (20, 20, 3)).astype(np.float32)
        data[:, :, 1] *= 0.5  # this slice sits below the volume's maximum
        vol = Volume(data, (1, 1, 1))
        batch = make_slice_batch(vol, target=32, scope="volume")
        mn, mx = float(data.min()), float(data.max())
        for k in range(3):
            np.testing.assert_array_equal(
                batch[k, 0], oracle_slice(data[:, :, k], 32, minmax=(mn, mx)))
        assert batch[1, 0].max() < 0.6 and batch.max() == 1.0
        per_slice = make_slice_batch(vol, target=32, scope="slice")
        assert per_slice[1, 0].max() == 1.0
        assert not np.array_equal(batch[1], per_slice[1])

    @pytest.mark.parametrize("scope", ["slice", "volume"])
    def test_slice_range_equals_whole_batch_rows(self, rng, scope):
        data = rng.uniform(1, 9, (20, 20, 5)).astype(np.float32)
        data[:, :, 3] *= 0.5
        vol = Volume(data, (1, 1, 1))
        whole = make_slice_batch(vol, 32, scope)
        for z in (slice(0, 2), slice(2, 4), slice(4, 6), slice(3, 4)):
            assert make_slice_batch(vol, 32, scope, z).tobytes() \
                == whole[z].tobytes()

    def test_unknown_scope_rejected(self, rng):
        vol = Volume(rng.uniform(1, 9, (8, 8, 2)).astype(np.float32), (1, 1, 1))
        with pytest.raises(ValidationError):
            make_slice_batch(vol, target=8, scope="patient")

    @pytest.mark.parametrize("scope", ["slice", "volume"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dims,target", [
        ((300, 300), 256), ((256, 256), 256), ((240, 240), 256),
        ((255, 257), 256), ((31, 33), 32), ((33, 30), 32), ((32, 32), 32),
    ], ids=["crop", "fit", "pad", "odd-pad-crop", "odd-pad", "odd-crop-pad",
            "fit-small"])
    def test_bit_identical_to_per_slice_oracle(self, rng, scope, dtype, dims,
                                               target):
        data = rng.uniform(0, 1000, dims + (5,)).astype(dtype)
        data[rng.uniform(size=data.shape) < 0.3] = 0.0
        data[:, :, 1] = 0.0                # empty slice
        data[:, :, 2] = 7.0                # constant slice
        data[:, :, 3] *= 4.0               # above the volume's other slices
        data[:dims[0] // 3, :, 3] = 0.0
        data[:, :, 4] *= 1e-3              # far below them
        batch = make_slice_batch(Volume(data, (1, 1, 1)), target, scope)
        want = oracle_batch(data, target, scope)
        assert batch.dtype == want.dtype and batch.shape == want.shape
        assert batch.tobytes() == want.tobytes()
