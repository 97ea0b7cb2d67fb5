"""NIfTI-1 volume I/O and the slice preprocessing used for training/inference.

The parser is self-contained: a 348-byte header (validated magic and size),
little/big endian detected from the dim[0] in [1,7] heuristic, datatypes
uint8/int16/int32/float32/float64, scl_slope/scl_inter applied on read when
slope != 0. ``.nii.gz`` is handled through the stdlib DEFLATE decoder.
Two-file pairs (magic ``ni1``) are read through their ``.hdr(.gz)`` name,
with the voxels taken from the sibling ``.img(.gz)``.
Writing always emits float32, vox_offset 352, magic ``n+1\\0``; write->read
round-trips are bit-exact for float32 data.

Preprocessing contract: axial slices are center-cropped or zero-padded to a
square target (extra pad voxel on the high side for odd remainders), then
min-max normalized over the nonzero foreground so padding stays exactly 0;
constant slices map to all zeros. The z axis is used as the slice axis
without reorientation.

Readers are pure; distinct paths may be read/written concurrently.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass, field
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


@dataclass
class Volume:
    """A 3D image with voxel spacing in mm and header provenance."""
    data: np.ndarray                 # (x, y, z), float32 or float64
    spacing: tuple[float, float, float]
    xform_raw: Optional[bytes] = None

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValidationError(f"volume data must be 3D, got {self.data.shape}")
        if any(s <= 0 for s in self.spacing):
            raise ValidationError(f"voxel spacing must be positive, got {self.spacing}")
        if not np.isfinite(self.data).all():
            raise ValidationError("volume contains non-finite values")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def with_data(self, data: np.ndarray) -> "Volume":
        return Volume(data, self.spacing, self.xform_raw)


def _open_maybe_gz(path, mode: str):
    name = str(path)
    if name.endswith(".gz"):
        return gzip.open(name, mode)
    return open(name, mode)


def read_nifti(path) -> Volume:
    """Parse a .nii(.gz) file, or a .hdr(.gz)/.img(.gz) pair, into a Volume."""
    with _open_maybe_gz(path, "rb") as fh:
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
            with _open_maybe_gz(img_path, "rb") as img_fh:
                img_fh.seek(int(vox_offset))
                raw = img_fh.read(count * dt.itemsize)
        else:
            fh.seek(int(vox_offset))
            raw = fh.read(count * dt.itemsize)

    if len(raw) < count * dt.itemsize:
        raise OSError(f"{path}: truncated data section "
                      f"({len(raw)} of {count * dt.itemsize} bytes)")

    arr = np.frombuffer(raw, dtype=dt, count=count).reshape((nx, ny, nz), order="F")
    out_dtype = np.float64 if datatype == 64 else np.float32
    data = arr.astype(out_dtype)
    if slope != 0.0 and (slope, inter) != (1.0, 0.0):
        data = data * out_dtype(slope) + out_dtype(inter)

    spacing = tuple(float(p) for p in pixdim[1:4])
    return Volume(data=data, spacing=spacing,
                  xform_raw=header[_XFORM_SPAN[0]:_XFORM_SPAN[1]])


def write_nifti(vol: Volume, path) -> None:
    """Write a Volume as single-file float32 NIfTI-1 (gzipped if path ends .gz).

    The file is replaced atomically: a failed write leaves the old one.
    """
    data = np.asarray(vol.data, dtype=np.float32)
    nx, ny, nz = data.shape

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

    payload = bytes(header) + b"\x00\x00\x00\x00" + data.tobytes(order="F")
    with atomic_write(path) as fh:
        if str(path).endswith(".gz"):
            # filename="" and mtime=0 keep the compressed bytes deterministic
            with gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0) as gz:
                gz.write(payload)
        else:
            fh.write(payload)


def to_axial_slices(vol: Volume) -> list[np.ndarray]:
    """Index-ordered 2D slices along the z axis."""
    return [vol.data[:, :, k] for k in range(vol.data.shape[2])]


def _crop_pad_bounds(extent: int, target: int) -> tuple[slice, slice]:
    """(source slice, destination slice) for one axis of a center crop/pad."""
    if extent >= target:
        lo = (extent - target) // 2
        return slice(lo, lo + target), slice(0, target)
    lo = (target - extent) // 2
    return slice(0, extent), slice(lo, lo + extent)


def crop_pad_slice(arr: np.ndarray, target: int = 256) -> np.ndarray:
    """Center crop/zero-pad a 2D array to target x target, without rescaling."""
    out = np.zeros((target, target), dtype=arr.dtype)
    sx, dx = _crop_pad_bounds(arr.shape[0], target)
    sy, dy = _crop_pad_bounds(arr.shape[1], target)
    out[dx, dy] = arr[sx, sy]
    return out


def foreground_minmax(arr: np.ndarray) -> tuple[float, float]:
    """(min, max) over nonzero voxels; (0, 0) if there is no foreground."""
    fg = arr[arr != 0]
    if fg.size == 0:
        return 0.0, 0.0
    return float(fg.min()), float(fg.max())


def preprocess_slice(arr: np.ndarray, target: int = 256,
                     minmax: Optional[tuple[float, float]] = None) -> np.ndarray:
    """Crop/pad to target and normalize foreground intensities into [0,1].

    ``minmax`` overrides the per-slice foreground statistics (used for
    volume-scope normalization); zero voxels, including padding, stay 0.
    """
    mn, mx = foreground_minmax(arr) if minmax is None else minmax
    out = crop_pad_slice(np.asarray(arr, dtype=np.float32), target)
    if mx <= mn:
        return np.zeros_like(out)
    scaled = np.clip((out - mn) / (mx - mn), 0.0, 1.0)
    return np.where(out != 0, scaled, 0.0).astype(np.float32)


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


@dataclass
class SliceBatch:
    """Preprocessed axial slices plus provenance back to source volumes."""
    tensor: np.ndarray                                  # [B,1,T,T] in [0,1]
    provenance: list[tuple[str, int]] = field(default_factory=list)
    minmax: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.tensor.ndim != 4 or self.tensor.shape[1] != 1:
            raise ValidationError(f"slice batch must be [B,1,H,W], got "
                                  f"{self.tensor.shape}")
        if self.tensor.min() < 0 or self.tensor.max() > 1:
            raise ValidationError("slice batch values must be within [0,1]")
        if len(self.provenance) != self.tensor.shape[0] \
                or len(self.minmax) != self.tensor.shape[0]:
            raise ValidationError("per-slice provenance/minmax incomplete")


def make_slice_batch(vol: Volume, vol_id: str, target: int = 256,
                     scope: str = "slice") -> SliceBatch:
    """Preprocess a whole volume into a SliceBatch.

    ``scope`` selects normalization statistics: 'slice' (default) or
    'volume' (one foreground min/max shared by every slice).
    """
    if scope not in ("slice", "volume"):
        raise ValidationError(f"normalization scope must be slice|volume, got {scope}")
    vol_mm = foreground_minmax(vol.data) if scope == "volume" else None
    slices, prov, mms = [], [], []
    for k, sl in enumerate(to_axial_slices(vol)):
        mm = vol_mm if vol_mm is not None else foreground_minmax(sl)
        slices.append(preprocess_slice(sl, target, minmax=mm))
        prov.append((vol_id, k))
        mms.append(mm)
    return SliceBatch(tensor=np.stack(slices)[:, None], provenance=prov, minmax=mms)
