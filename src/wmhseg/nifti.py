"""NIfTI-1 volume I/O and the slice preprocessing used for training/inference.

The parser is self-contained: a 348-byte header (validated magic and size),
little/big endian detected from the dim[0] in [1,7] heuristic, datatypes
uint8/int16/int32/float32/float64, scl_slope/scl_inter applied on read when
slope != 0. ``.nii.gz`` is handled through the stdlib DEFLATE decoder, and
every gzip stream is read to its end, so a damaged one (CRC-32, length,
truncation, bad DEFLATE data) is rejected instead of read silently.
Two-file pairs (magic ``ni1``) are read through their ``.hdr(.gz)`` name,
with the voxels taken from the sibling ``.img(.gz)``.
Writing always emits float32, vox_offset 352, magic ``n+1\\0``; write->read
round-trips are bit-exact for float32 data.

Preprocessing contract: axial slices are center-cropped or zero-padded to a
square target (extra pad voxel on the high side for odd remainders), then
min-max normalized over the nonzero foreground of the slice or of the whole
volume (the checkpoint's normalization scope), so padding stays exactly 0;
constant slices map to all zeros. The z axis is used as the slice axis
without reorientation.

Readers are pure; distinct paths may be read/written concurrently.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataFormatError, UnsupportedDataTypeError, ValidationError
from .fileio import atomic_write

HEADER_SIZE = 348
VOX_OFFSET = 352
GOOD_MAGIC = (b"n+1\x00", b"ni1\x00")

# NIfTI-1 datatype codes we read
_DTYPES = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8"}

# raw qform/sform byte span retained for round-trip provenance
_XFORM_SPAN = (252, 328)

# bytes decompressed per read of a gzip stream
_CHUNK = 1 << 20

# a write gathers at most this many z-slices at once, this many x-columns
# at a time
_Z_BLOCK = 8
_X_TILE = 32


@dataclass
class Volume:
    """A 3D image with voxel spacing in mm and header provenance."""
    data: np.ndarray                 # (x, y, z), float32 or float64
    spacing: tuple[float, float, float]
    xform_raw: Optional[bytes] = None

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValidationError(f"volume data must be 3D, got {self.data.shape}")
        if not all(0 < s < math.inf for s in self.spacing):
            raise ValidationError(f"voxel spacing must be finite and > 0, "
                                  f"got {self.spacing}")
        if not np.isfinite(self.data).all():
            raise ValidationError("volume contains non-finite values")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def with_data(self, data: np.ndarray) -> "Volume":
        return Volume(data, self.spacing, self.xform_raw)


@contextlib.contextmanager
def _open_maybe_gz(path):
    """``path`` opened for binary reading. A ``.gz`` stream is read to its
    end when the block exits, so its CRC-32 and length get checked; a
    damaged stream raises ``DataFormatError`` naming the file."""
    name = str(path)
    if not name.endswith(".gz"):
        with open(name, "rb") as fh:
            yield fh
        return
    try:
        with gzip.open(name, "rb") as fh:
            yield fh
            while fh.read(_CHUNK):
                pass
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DataFormatError(f"{name}: damaged gzip stream ({exc})") from None


def _read_at(fh, offset: int, size: int) -> bytes:
    """At most ``size`` bytes of ``fh`` from ``offset``. A header can claim
    more voxels than the file holds, so no more is allocated than the file
    holds: a plain file's size is known, a gzip stream is read in chunks."""
    fh.seek(offset)
    if not isinstance(fh, gzip.GzipFile):
        return fh.read(min(size, max(os.fstat(fh.fileno()).st_size - offset, 0)))
    chunks = []
    while size > 0 and (chunk := fh.read(min(size, _CHUNK))):
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def read_nifti(path) -> Volume:
    """Parse a .nii(.gz) file, or a .hdr(.gz)/.img(.gz) pair, into a Volume."""
    with _open_maybe_gz(path) as fh:
        header = fh.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise DataFormatError(f"{path}: file shorter than the {HEADER_SIZE}-byte header")

        (dim0_le,) = struct.unpack_from("<h", header, 40)
        (dim0_be,) = struct.unpack_from(">h", header, 40)
        if 1 <= dim0_le <= 7:
            end = "<"
        elif 1 <= dim0_be <= 7:
            end = ">"
        else:
            raise DataFormatError(f"{path}: dim[0] = {dim0_le} outside [1,7] in "
                                  "either byte order")

        (sizeof_hdr,) = struct.unpack_from(end + "i", header, 0)
        if sizeof_hdr != HEADER_SIZE:
            raise DataFormatError(f"{path}: header size field is {sizeof_hdr}, "
                                  f"must be {HEADER_SIZE}")
        magic = header[344:348]
        if magic not in GOOD_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}")

        dim = struct.unpack_from(end + "8h", header, 40)
        (datatype, _bitpix) = struct.unpack_from(end + "2h", header, 70)
        pixdim = struct.unpack_from(end + "8f", header, 76)
        (vox_offset,) = struct.unpack_from(end + "f", header, 108)
        slope, inter = struct.unpack_from(end + "2f", header, 112)

        if datatype not in _DTYPES:
            raise UnsupportedDataTypeError(
                f"{path}: unsupported NIfTI datatype code {datatype}")
        ndim = dim[0]
        nx, ny = dim[1], dim[2]
        nz = dim[3] if ndim >= 3 else 1
        for extra in range(4, ndim + 1):
            if dim[extra] > 1:
                raise UnsupportedDataTypeError(
                    f"{path}: {ndim}-dimensional image (dim[{extra}]={dim[extra]}); "
                    "only 3D volumes are supported")
        if nx < 1 or ny < 1 or nz < 1:
            raise DataFormatError(f"{path}: non-positive extent in dim {dim[1:4]}")
        # a single file's voxels follow the header and its extension flag;
        # a pair's may start the .img
        lowest = 0 if magic == b"ni1\x00" else VOX_OFFSET
        if not lowest <= vox_offset < 2 ** 31:
            raise DataFormatError(f"{path}: vox_offset {vox_offset} outside "
                                  f"[{lowest}, 2^31)")
        if not (math.isfinite(slope) and math.isfinite(inter)):
            raise DataFormatError(f"{path}: non-finite scl_slope/scl_inter "
                                  f"({slope}, {inter})")

        dt = np.dtype(end + _DTYPES[datatype])
        count = nx * ny * nz
        if magic == b"ni1\x00":
            # two-file pair: the voxels live in the sibling .img(.gz)
            name = str(path)
            suffix = next((s for s in (".hdr", ".hdr.gz") if name.endswith(s)), None)
            if suffix is None:
                raise DataFormatError(f"{path}: 'ni1' magic marks a .hdr/.img pair "
                                      "header, but the name does not end in .hdr")
            img_path = name[: -len(suffix)] + suffix.replace(".hdr", ".img")
            with _open_maybe_gz(img_path) as img_fh:
                raw = _read_at(img_fh, int(vox_offset), count * dt.itemsize)
        else:
            raw = _read_at(fh, int(vox_offset), count * dt.itemsize)

    if len(raw) < count * dt.itemsize:
        raise OSError(f"{path}: truncated data section "
                      f"({len(raw)} of {count * dt.itemsize} bytes)")

    arr = np.frombuffer(raw, dtype=dt, count=count).reshape((nx, ny, nz), order="F")
    out_dtype = np.float64 if datatype == 64 else np.float32
    data = arr.astype(out_dtype)
    if slope != 0.0 and (slope, inter) != (1.0, 0.0):
        # an overflow to inf is rejected below, with the file's name
        with np.errstate(over="ignore", invalid="ignore"):
            data = data * out_dtype(slope) + out_dtype(inter)

    spacing = tuple(float(p) for p in pixdim[1:4])
    try:
        return Volume(data=data, spacing=spacing,
                      xform_raw=header[_XFORM_SPAN[0]:_XFORM_SPAN[1]])
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def write_nifti(vol: Volume, path) -> None:
    """Write a Volume as single-file float32 NIfTI-1 (gzipped if path ends .gz).

    The file is replaced atomically: a failed write leaves the old one.
    """
    nx, ny, nz = vol.data.shape

    header = bytearray(HEADER_SIZE)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<2h", header, 70, 16, 32)  # float32, 32 bits/voxel
    struct.pack_into("<8f", header, 76, 1.0, *(float(s) for s in vol.spacing),
                     0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, float(VOX_OFFSET))
    struct.pack_into("<2f", header, 112, 0.0, 0.0)  # slope 0: no scaling on read
    if vol.xform_raw is not None and len(vol.xform_raw) == _XFORM_SPAN[1] - _XFORM_SPAN[0]:
        header[_XFORM_SPAN[0]:_XFORM_SPAN[1]] = vol.xform_raw
    header[344:348] = b"n+1\x00"

    header += b"\x00\x00\x00\x00"  # extension flag: none; voxels at VOX_OFFSET
    with atomic_write(path) as fh:
        if str(path).endswith(".gz"):
            # filename="" and mtime=0 keep the compressed bytes deterministic
            with gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0) as gz:
                _write_voxels(gz, header, vol.data)
        else:
            _write_voxels(fh, header, vol.data)


def _write_voxels(fh, header: bytes, data: np.ndarray) -> None:
    """The header, then the float32 voxels x fastest, in blocks of at most
    ``_Z_BLOCK`` z-slices (no full-volume copy). A block of a Fortran-order
    float32 volume is already in file order and goes as a view; any other
    is gathered into one bounded buffer ``_X_TILE`` x-columns at a time, so
    a C-order volume's z-runs are read while their cache lines are warm,
    not once per slice. Each block goes as a flat byte view: its len() is
    its byte count, which is what a raw file's write() reports."""
    fh.write(header)
    nx, ny, nz = data.shape
    buf = np.empty((min(nz, _Z_BLOCK), ny, nx), dtype=np.float32)
    for z0 in range(0, nz, _Z_BLOCK):
        block = data[:, :, z0:z0 + _Z_BLOCK].transpose(2, 1, 0)
        if not (block.flags.c_contiguous and block.dtype == np.float32):
            out = buf[:block.shape[0]]
            for x0 in range(0, nx, _X_TILE):
                out[:, :, x0:x0 + _X_TILE] = block[:, :, x0:x0 + _X_TILE]
            block = out
        fh.write(block.reshape(-1).view(np.uint8))


def _crop_pad_bounds(extent: int, target: int) -> tuple[slice, slice]:
    """(source slice, destination slice) for one axis of a center crop/pad."""
    if extent >= target:
        lo = (extent - target) // 2
        return slice(lo, lo + target), slice(0, target)
    lo = (target - extent) // 2
    return slice(0, extent), slice(lo, lo + extent)


def crop_pad_volume(data: np.ndarray, target: int) -> np.ndarray:
    """Center crop/zero-pad every axial slice of (x, y, z) data, without
    rescaling: a [z, target, target] float32 stack."""
    out = np.zeros((data.shape[2], target, target), dtype=np.float32)
    sx, dx = _crop_pad_bounds(data.shape[0], target)
    sy, dy = _crop_pad_bounds(data.shape[1], target)
    out[:, dx, dy] = data[sx, sy].transpose(2, 0, 1)
    return out


def unpreprocess_mask(mask: np.ndarray, original_dims: tuple[int, int]) -> np.ndarray:
    """Invert the crop/pad placement, restoring a mask to its source dims."""
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ValidationError(f"expected a square preprocessed mask, got {mask.shape}")
    target = mask.shape[0]
    ox, oy = original_dims
    out = np.zeros((ox, oy), dtype=mask.dtype)
    sx, dx = _crop_pad_bounds(ox, target)
    sy, dy = _crop_pad_bounds(oy, target)
    out[sx, sy] = mask[dx, dy]
    return out


def make_slice_batch(vol: Volume, target: int = 256, scope: str = "slice",
                     z: slice = slice(None)) -> np.ndarray:
    """Preprocess the axial slices ``z`` of a volume (all by default) into a
    [B,1,target,target] float32 array in [0,1].

    ``scope`` selects the foreground statistics: 'slice' (default, each
    slice's own) or 'volume' (one min/max shared by every slice of the
    volume, whichever slices ``z`` selects). They are taken over the source
    voxels, before the crop.
    """
    if scope not in ("slice", "volume"):
        raise ValidationError(f"normalization scope must be slice|volume, got {scope}")

    def foreground_range(a):
        fg = a[a != 0]
        return (float(fg.min()), float(fg.max())) if fg.size else (0.0, 0.0)

    batch = crop_pad_volume(vol.data[:, :, z], target)
    shared = foreground_range(vol.data) if scope == "volume" else None
    for k, out in zip(range(vol.shape[2])[z], batch):
        mn, mx = shared if shared is not None else foreground_range(vol.data[:, :, k])
        if mx <= mn:
            out[...] = 0.0
            continue
        background = out == 0
        out -= mn
        out /= mx - mn
        np.clip(out, 0.0, 1.0, out=out)
        out[background] = 0.0
    return batch[:, None]
