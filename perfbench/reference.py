"""Plain-numpy reference computations used to check the benchmark's outputs.

Nothing here imports ``wmhseg``: the file formats, the preprocessing, the
network forward pass, the loss and the artifact models are re-derived from
their documented definitions, in float64 where arithmetic is involved, so a
fault in the package cannot hide behind the same fault in its checker.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

# (kernel, stride, padding) of each encoder stage's patch embedding
PATCH_KERNELS = ((7, 4, 3), (3, 2, 1), (3, 2, 1), (3, 2, 1))
LN_EPS = 1e-5
PROB_EPS = 1e-7
DICE_SMOOTHING = 1.0
GHOST_CENTER_FRACTION = 0.05


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---- file formats -------------------------------------------------------------


def read_nifti(path) -> tuple[np.ndarray, tuple[float, float, float]]:
    """(data, spacing) of a single-file little-endian float32 NIfTI-1 volume."""
    raw = Path(path).read_bytes()
    require(len(raw) >= 352, f"{path}: shorter than a NIfTI-1 header")
    require(struct.unpack_from("<i", raw, 0)[0] == 348, f"{path}: sizeof_hdr != 348")
    require(raw[344:348] == b"n+1\x00", f"{path}: magic {raw[344:348]!r}")
    dim = struct.unpack_from("<8h", raw, 40)
    require(dim[0] == 3, f"{path}: dim[0] = {dim[0]}, expected 3")
    datatype = struct.unpack_from("<h", raw, 70)[0]
    require(datatype == 16, f"{path}: datatype {datatype}, expected float32 (16)")
    pixdim = struct.unpack_from("<8f", raw, 76)
    offset = int(struct.unpack_from("<f", raw, 108)[0])
    shape = tuple(int(d) for d in dim[1:4])
    count = shape[0] * shape[1] * shape[2]
    require(len(raw) == offset + 4 * count,
            f"{path}: {len(raw)} bytes, expected {offset + 4 * count}")
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
    return data.reshape(shape, order="F"), tuple(float(p) for p in pixdim[1:4])


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(config dict, name -> float64 array) from a ``WMHS`` checkpoint file."""
    blob = Path(path).read_bytes()
    require(blob[:4] == b"WMHS", f"{path}: bad checkpoint magic")
    version, cfg_len = struct.unpack_from("<II", blob, 4)
    require(version == 1, f"{path}: checkpoint version {version}")
    off = 12
    config = json.loads(blob[off:off + cfg_len].decode("utf-8"))
    off += cfg_len
    (count,) = struct.unpack_from("<I", blob, off)
    off += 4
    params = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2:off + 2 + name_len].decode("utf-8")
        off += 2 + name_len
        ndim = blob[off]
        shape = struct.unpack_from(f"<{ndim}I", blob, off + 1)
        off += 1 + 4 * ndim
        n = math.prod(shape)
        params[name] = np.frombuffer(blob, "<f4", n, off).reshape(shape) \
            .astype(np.float64)
        off += 4 * n
    require(off == len(blob), f"{path}: trailing bytes after the last parameter")
    return config, params


def read_sidecar(path) -> dict[str, str]:
    """key=value lines of an artifact sidecar."""
    kv = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            key, sep, value = line.partition("=")
            require(sep == "=", f"{path}: line without '=': {line!r}")
            kv[key.strip()] = value.strip()
    return kv


def read_manifest(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        require(set(row) == {"path", "role", "seed", "source_id"},
                f"{path}: manifest columns {sorted(row)}")
    return rows


# ---- preprocessing ------------------------------------------------------------


def crop_window(extent: int, target: int) -> tuple[slice, slice]:
    """(source, destination) index ranges of a centred crop or zero-pad."""
    if extent >= target:
        lo = (extent - target) // 2
        return slice(lo, lo + target), slice(0, target)
    lo = (target - extent) // 2
    return slice(0, extent), slice(lo, lo + extent)


def foreground_range(a: np.ndarray) -> tuple[float, float]:
    fg = a[a != 0]
    return (float(fg.min()), float(fg.max())) if fg.size else (0.0, 0.0)


def preprocess(vol: np.ndarray, target: int, scope: str) -> np.ndarray:
    """[Z,1,T,T] model input: centred crop/pad, foreground min-max to [0,1]."""
    sx, dx = crop_window(vol.shape[0], target)
    sy, dy = crop_window(vol.shape[1], target)
    out = np.zeros((vol.shape[2], 1, target, target))
    whole = foreground_range(vol) if scope == "volume" else None
    for k in range(vol.shape[2]):
        raw = vol[:, :, k]
        lo, hi = whole if whole is not None else foreground_range(raw)
        placed = np.zeros((target, target))
        placed[dx, dy] = raw[sx, sy]
        if hi > lo:
            scaled = np.clip((placed - lo) / (hi - lo), 0.0, 1.0)
            out[k, 0] = np.where(placed != 0, scaled, 0.0)
    return out


def uncrop(mask: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Place a [T,T] model-space map back at the source in-plane shape."""
    out = np.zeros(shape, dtype=mask.dtype)
    sx, dx = crop_window(shape[0], mask.shape[0])
    sy, dy = crop_window(shape[1], mask.shape[1])
    out[sx, sy] = mask[dx, dy]
    return out


def window_mask(shape: tuple[int, int], target: int) -> np.ndarray:
    """True on source pixels that the model sees."""
    inside = np.zeros(shape, dtype=bool)
    sx, _ = crop_window(shape[0], target)
    sy, _ = crop_window(shape[1], target)
    inside[sx, sy] = True
    return inside


# ---- network ------------------------------------------------------------------


def conv2d(x, w, b, stride=1, pad=0, depthwise=False):
    """Cross-correlation of [B,C,H,W] with [O,C,k,k] (or [C,1,k,k] depthwise)."""
    k = w.shape[-1]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    if depthwise:
        y = np.einsum("bchwij,cij->bchw", win, w[:, 0])
    else:
        y = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)
    return y + b[None, :, None, None]


def layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma + beta


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def resize(x, out_h, out_w):
    """Bilinear resize of [B,C,H,W], half-pixel centres (align_corners=False)."""
    def taps(n_in, n_out):
        src = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5, 0, n_in - 1)
        i0 = np.floor(src).astype(int)
        return i0, np.minimum(i0 + 1, n_in - 1), src - i0
    y0, y1, fy = taps(x.shape[2], out_h)
    x0, x1, fx = taps(x.shape[3], out_w)
    fy = fy[:, None]
    rows = x[:, :, y0, :] * (1 - fy) + x[:, :, y1, :] * fy
    return rows[:, :, :, x0] * (1 - fx) + rows[:, :, :, x1] * fx


def attention(t, h, w, p, reduction, heads):
    b, n, c = t.shape
    q = t @ p["q_weight"] + p["q_bias"]
    if reduction > 1:
        r = math.isqrt(reduction)
        # each r x r tile becomes one token of its flattened (row, col, channel)
        kv = t.reshape(b, h // r, r, w // r, r, c).transpose(0, 1, 3, 2, 4, 5)
        kv = kv.reshape(b, n // reduction, reduction * c) @ p["sr_weight"] + p["sr_bias"]
        kv = layer_norm(kv, p["srnorm.gamma"], p["srnorm.beta"])
    else:
        kv = t
    key = kv @ p["k_weight"] + p["k_bias"]
    val = kv @ p["v_weight"] + p["v_bias"]
    d = c // heads
    split = lambda a: a.reshape(b, a.shape[1], heads, d).transpose(0, 2, 1, 3)
    qh, kh, vh = split(q), split(key), split(val)
    weights = softmax(qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(d))
    ctx = (weights @ vh).transpose(0, 2, 1, 3).reshape(b, n, c)
    return ctx @ p["out_weight"] + p["out_bias"]


def mix_ffn(t, h, w, p):
    b, n, _ = t.shape
    x = t @ p["fc1_weight"] + p["fc1_bias"]
    e = x.shape[-1]
    x = x.transpose(0, 2, 1).reshape(b, e, h, w)
    x = gelu(conv2d(x, p["dw_weight"], p["dw_bias"], pad=1, depthwise=True))
    return x.reshape(b, e, n).transpose(0, 2, 1) @ p["fc2_weight"] + p["fc2_bias"]


def forward(config: dict, params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Lesion probabilities [B,1,H,W] of the network, in float64."""
    def sub(prefix):
        return {k[len(prefix) + 1:]: v for k, v in params.items()
                if k.startswith(prefix + ".")}
    feats = []
    for i, (k, s, pad) in enumerate(PATCH_KERNELS):
        st = f"stage{i + 1}"
        y = conv2d(x, params[f"{st}.embed.weight"], params[f"{st}.embed.bias"], s, pad)
        b, c, h, w = y.shape
        t = layer_norm(y.reshape(b, c, h * w).transpose(0, 2, 1),
                       params[f"{st}.embed.norm.gamma"], params[f"{st}.embed.norm.beta"])
        for d in range(config["stage_depths"][i]):
            blk = f"{st}.block{d}"
            t = t + attention(layer_norm(t, params[f"{blk}.norm1.gamma"],
                                         params[f"{blk}.norm1.beta"]),
                              h, w, sub(f"{blk}.attn"),
                              config["reduction_factors"][i], config["num_heads"][i])
            t = t + mix_ffn(layer_norm(t, params[f"{blk}.norm2.gamma"],
                                       params[f"{blk}.norm2.beta"]),
                            h, w, sub(f"{blk}.ffn"))
        t = layer_norm(t, params[f"{st}.norm.gamma"], params[f"{st}.norm.beta"])
        x = t.transpose(0, 2, 1).reshape(b, c, h, w)
        feats.append(x)
    d = feats[3]
    for j, si in enumerate((2, 1, 0)):
        skip = feats[si]
        d = np.concatenate([resize(d, skip.shape[2], skip.shape[3]), skip], axis=1)
        d = gelu(conv2d(d, params[f"decoder.fuse{j}.weight"],
                        params[f"decoder.fuse{j}.bias"], pad=1))
    d = resize(d, *config["input_size"])
    logits = conv2d(d, params["decoder.head.weight"], params["decoder.head.bias"])
    return np.clip(1.0 / (1.0 + np.exp(-logits)), PROB_EPS, 1.0 - PROB_EPS)


def loss(probs: np.ndarray, target: np.ndarray) -> float:
    """BCE + (1 - soft Dice), the training objective."""
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    bce = -np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
    dice = 1.0 - (2.0 * np.sum(probs * target) + DICE_SMOOTHING) \
        / (np.sum(probs) + np.sum(target) + DICE_SMOOTHING)
    return float(bce + dice)


# ---- evaluation metrics ---------------------------------------------------------


def dice(a: np.ndarray, b: np.ndarray) -> float:
    a, b = a != 0, b != 0
    total = np.count_nonzero(a) + np.count_nonzero(b)
    return 1.0 if total == 0 else 2.0 * np.count_nonzero(a & b) / total


# ---- artifact models ------------------------------------------------------------


def bias_field(shape: tuple[int, int, int], order: int, coeffs) -> np.ndarray:
    """exp(sum c_ijk x^i y^j z^k) over i+j+k <= order, coordinates in [-1,1]."""
    terms = [(i, j, k) for i in range(order + 1) for j in range(order + 1 - i)
             for k in range(order + 1 - i - j)]
    require(len(terms) == len(coeffs),
            f"{len(coeffs)} bias coefficients for order {order}, expected {len(terms)}")
    c = np.zeros((order + 1,) * 3)
    for value, ijk in zip(coeffs, terms):
        c[ijk] = value
    # separable: one Vandermonde matrix per axis against the coefficient cube
    x, y, z = (np.vander(np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1),
                         order + 1, increasing=True) for n in shape)
    return np.exp(np.einsum("ia,jb,kc,abc->ijk", x, y, z, c, optimize=True))


def ghost_lines(n: int, count: int) -> np.ndarray:
    """k-space line indices (FFT order) attenuated by ghosting."""
    freq = np.abs(np.fft.fftfreq(n) * n)
    keep = freq <= GHOST_CENTER_FRACTION * n / 2.0
    return np.flatnonzero((np.arange(n) % count == 0) & ~keep)


def ghosting(vol: np.ndarray, count: int, axis: int, intensity: float) -> np.ndarray:
    spec = np.fft.fft2(vol.astype(np.float64), axes=(0, 1))
    lines = ghost_lines(vol.shape[axis], count)
    index = [slice(None)] * 3
    index[axis] = lines
    spec[tuple(index)] *= 1.0 - intensity
    return np.abs(np.fft.ifft2(spec, axes=(0, 1)))
