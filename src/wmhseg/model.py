"""Hierarchical transformer encoder + convolutional decoder for lesion maps.

The encoder tokenizes with overlapping strided convolutions and runs
transformer blocks whose attention shortens the key/value sequence by a
per-stage reduction factor; a convolutional feed-forward block (depthwise
3x3) carries positional information. The decoder upsamples the four encoder
maps U-Net style (bilinear 2x, concatenate skip, 3x3 conv, GELU) and ends
with a 1x1 conv producing one logit channel, then a 4x bilinear upsample of
that logit (equal to upsampling first, since both are linear and the
interpolation rows sum to 1).

Checkpoint container: magic ``WMHS``, u32 format version, JSON-serialized
config, then per parameter (path, shape, raw little-endian float32 values).
Round-trips are bit-exact; a save replaces the file atomically.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataFormatError, ShapeError
from .fileio import atomic_write
from .tensor import Tensor

CHECKPOINT_MAGIC = b"WMHS"
CHECKPOINT_VERSION = 1

# (kernel, stride, padding) of the patch embedding per stage
PATCH_KERNELS = ((7, 4, 3), (3, 2, 1), (3, 2, 1), (3, 2, 1))


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; defaults are the smallest trainable instance."""
    stage_channels: tuple[int, int, int, int] = (32, 64, 160, 256)
    stage_depths: tuple[int, int, int, int] = (2, 2, 2, 2)
    reduction_factors: tuple[int, int, int, int] = (64, 16, 4, 1)
    num_heads: tuple[int, int, int, int] = (1, 2, 5, 8)
    ffn_expansion: int = 4
    decoder_channels: tuple[int, int, int, int] = (32, 64, 160, 256)
    input_size: tuple[int, int] = (256, 256)
    in_channels: int = 1
    out_channels: int = 1

    def __post_init__(self):
        for name in ("stage_channels", "stage_depths", "reduction_factors",
                     "num_heads", "decoder_channels", "input_size"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        self.validate()

    def validate(self) -> None:
        for i in range(4):
            c, heads, r = self.stage_channels[i], self.num_heads[i], \
                self.reduction_factors[i]
            if c % heads != 0:
                raise ConfigError(f"stage {i + 1}: channels {c} not divisible by "
                                  f"{heads} heads")
            root = math.isqrt(r)
            if root * root != r:
                raise ConfigError(f"stage {i + 1}: reduction factor {r} is not a "
                                  "perfect square")
            h, w = self.stage_dims(i)
            if h * w % r != 0 or (root and (h % root or w % root)):
                raise ConfigError(f"stage {i + 1}: reduction {r} incompatible with "
                                  f"token grid {h}x{w}")

    def stage_dims(self, stage_idx: int) -> tuple[int, int]:
        """Spatial extent of the token grid at a stage, from the input size."""
        h, w = self.input_size
        for i in range(stage_idx + 1):
            k, s, p = PATCH_KERNELS[i]
            h = (h + 2 * p - k) // s + 1
            w = (w + 2 * p - k) // s + 1
        return h, w

    @classmethod
    def reduced(cls) -> "ModelConfig":
        """Desk-scale variant used for CPU training runs."""
        return cls(stage_channels=(16, 32, 64, 128), stage_depths=(1, 1, 1, 1),
                   num_heads=(1, 2, 4, 8), decoder_channels=(16, 32, 64, 128))

    @classmethod
    def tiny(cls) -> "ModelConfig":
        """Smallest wiring-complete variant, for gradient checking."""
        return cls(stage_channels=(8, 8, 8, 8), stage_depths=(1, 1, 1, 1),
                   num_heads=(1, 2, 4, 8), decoder_channels=(8, 8, 8, 8),
                   input_size=(32, 32))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


# ---- parameter registry -----------------------------------------------------


def parameter_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Ordered (path, shape, init_kind) for every learnable parameter.

    init_kind: 'conv' (Kaiming fan-in), 'proj' (truncated normal, std 0.02),
    'ones', 'zeros'. The order here fixes init determinism and the
    checkpoint layout.
    """
    specs: list[tuple[str, tuple[int, ...], str]] = []
    cin = config.in_channels
    for i in range(4):
        c = config.stage_channels[i]
        k, _, _ = PATCH_KERNELS[i]
        r = config.reduction_factors[i]
        stage = f"stage{i + 1}"
        specs += [
            (f"{stage}.embed.weight", (c, cin, k, k), "conv"),
            (f"{stage}.embed.bias", (c,), "zeros"),
            (f"{stage}.embed.norm.gamma", (c,), "ones"),
            (f"{stage}.embed.norm.beta", (c,), "zeros"),
        ]
        e = c * config.ffn_expansion
        for d in range(config.stage_depths[i]):
            blk = f"{stage}.block{d}"
            specs += [
                (f"{blk}.norm1.gamma", (c,), "ones"),
                (f"{blk}.norm1.beta", (c,), "zeros"),
                (f"{blk}.attn.q_weight", (c, c), "proj"),
                (f"{blk}.attn.q_bias", (c,), "zeros"),
            ]
            if r > 1:
                specs += [
                    (f"{blk}.attn.sr_weight", (c * r, c), "proj"),
                    (f"{blk}.attn.sr_bias", (c,), "zeros"),
                    (f"{blk}.attn.srnorm.gamma", (c,), "ones"),
                    (f"{blk}.attn.srnorm.beta", (c,), "zeros"),
                ]
            specs += [
                (f"{blk}.attn.k_weight", (c, c), "proj"),
                (f"{blk}.attn.k_bias", (c,), "zeros"),
                (f"{blk}.attn.v_weight", (c, c), "proj"),
                (f"{blk}.attn.v_bias", (c,), "zeros"),
                (f"{blk}.attn.out_weight", (c, c), "proj"),
                (f"{blk}.attn.out_bias", (c,), "zeros"),
                (f"{blk}.norm2.gamma", (c,), "ones"),
                (f"{blk}.norm2.beta", (c,), "zeros"),
                (f"{blk}.ffn.fc1_weight", (c, e), "proj"),
                (f"{blk}.ffn.fc1_bias", (e,), "zeros"),
                (f"{blk}.ffn.dw_weight", (e, 1, 3, 3), "conv"),
                (f"{blk}.ffn.dw_bias", (e,), "zeros"),
                (f"{blk}.ffn.fc2_weight", (e, c), "proj"),
                (f"{blk}.ffn.fc2_bias", (c,), "zeros"),
            ]
        specs += [
            (f"{stage}.norm.gamma", (c,), "ones"),
            (f"{stage}.norm.beta", (c,), "zeros"),
        ]
        cin = c

    d_in = config.stage_channels[3]
    for j, si in enumerate((2, 1, 0)):
        cout = config.decoder_channels[si]
        specs += [
            (f"decoder.fuse{j}.weight", (cout, d_in + config.stage_channels[si], 3, 3),
             "conv"),
            (f"decoder.fuse{j}.bias", (cout,), "zeros"),
        ]
        d_in = cout
    specs += [
        ("decoder.head.weight", (config.out_channels, d_in, 1, 1), "conv"),
        ("decoder.head.bias", (config.out_channels,), "zeros"),
    ]
    return specs


def parameter_count(config: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in parameter_specs(config))


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) resampled until all draws are within 2 sigma."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return out * std


def init_parameters(config: ModelConfig, seed: int,
                    dtype=np.float32) -> dict[str, Tensor]:
    """Deterministic parameter initialization for a given seed."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for path, shape, kind in parameter_specs(config):
        if kind == "conv":
            fan_in = int(np.prod(shape[1:]))
            arr = rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)
        elif kind == "proj":
            arr = _trunc_normal(rng, shape, 0.02)
        elif kind == "ones":
            arr = np.ones(shape)
        else:
            arr = np.zeros(shape)
        params[path] = Tensor(arr.astype(dtype), requires_grad=True)
    return params


def subparams(params: dict[str, Tensor], prefix: str) -> dict[str, Tensor]:
    """View of the parameters under ``prefix.`` with the prefix stripped."""
    cut = len(prefix) + 1
    return {k[cut:]: v for k, v in params.items() if k.startswith(prefix + ".")}


# ---- forward passes ---------------------------------------------------------


def overlap_patch_embed(x: Tensor, params: dict[str, Tensor], config: ModelConfig,
                        stage_idx: int) -> tuple[Tensor, int, int]:
    """Strided-conv tokenizer of one stage; returns (tokens [B,N,C], H', W')."""
    k, s, p = PATCH_KERNELS[stage_idx]
    pre = f"stage{stage_idx + 1}.embed"
    y = T.conv2d(x, params[f"{pre}.weight"], params[f"{pre}.bias"],
                 stride=s, padding=p)
    b, c, h, w = y.shape
    tokens = y.reshape(b, c, h * w).transpose(0, 2, 1)
    tokens = T.layer_norm(tokens, params[f"{pre}.norm.gamma"],
                          params[f"{pre}.norm.beta"])
    return tokens, h, w


def efficient_attention(tokens: Tensor, h: int, w: int, p: dict[str, Tensor],
                        reduction: int, heads: int,
                        return_weights: bool = False):
    """Multi-head attention whose key/value sequence is shortened by ``reduction``.

    Queries keep length N = h*w. For reduction > 1 the token grid is split
    into sqrt(R) x sqrt(R) tiles, each tile's features are flattened to one
    vector of size C*R, projected back to C and layer-normalized; keys and
    values are computed from that shortened sequence.
    """
    b, n, c = tokens.shape
    if n != h * w:
        raise ShapeError(f"token count {n} != {h}x{w}")
    if c % heads != 0:
        raise ConfigError(f"channels {c} not divisible by {heads} heads")
    root = math.isqrt(reduction)
    if root * root != reduction:
        raise ConfigError(f"reduction factor {reduction} is not a perfect square")
    if reduction > 1 and (n % reduction or h % root or w % root):
        raise ConfigError(f"reduction {reduction} does not divide token grid {h}x{w}")

    q = T.matmul(tokens, p["q_weight"]) + p["q_bias"]
    if reduction > 1:
        red = tokens.reshape(b, h // root, root, w // root, root, c)
        red = red.transpose(0, 1, 3, 2, 4, 5).reshape(b, n // reduction, reduction * c)
        red = T.matmul(red, p["sr_weight"]) + p["sr_bias"]
        red = T.layer_norm(red, p["srnorm.gamma"], p["srnorm.beta"])
    else:
        red = tokens
    key = T.matmul(red, p["k_weight"]) + p["k_bias"]
    val = T.matmul(red, p["v_weight"]) + p["v_bias"]

    m = red.shape[1]
    d = c // heads
    qh = q.reshape(b, n, heads, d).transpose(0, 2, 1, 3)
    kh = key.reshape(b, m, heads, d).transpose(0, 2, 3, 1)
    vh = val.reshape(b, m, heads, d).transpose(0, 2, 1, 3)
    scores = T.matmul(qh, kh) * (1.0 / math.sqrt(d))
    weights = T.softmax(scores, axis=-1)
    ctx = T.matmul(weights, vh).transpose(0, 2, 1, 3).reshape(b, n, c)
    out = T.matmul(ctx, p["out_weight"]) + p["out_bias"]
    return (out, weights) if return_weights else out


def mix_ffn(tokens: Tensor, h: int, w: int, p: dict[str, Tensor]) -> Tensor:
    """Feed-forward block with a depthwise 3x3 conv between the projections."""
    b, n, c = tokens.shape
    if n != h * w:
        raise ShapeError(f"token count {n} != {h}x{w}")
    x = T.matmul(tokens, p["fc1_weight"]) + p["fc1_bias"]
    e = x.shape[-1]
    x = x.transpose(0, 2, 1).reshape(b, e, h, w)
    x = T.conv2d(x, p["dw_weight"], p["dw_bias"], stride=1, padding=1, groups=e)
    x = T.gelu(x)
    x = x.reshape(b, e, n).transpose(0, 2, 1)
    return T.matmul(x, p["fc2_weight"]) + p["fc2_bias"]


def encoder_forward(image: Tensor, params: dict[str, Tensor],
                    config: ModelConfig) -> list[Tensor]:
    """Run all four stages; returns the four feature maps [B,Ci,Hi,Wi]."""
    expected = (config.in_channels,) + config.input_size
    if image.ndim != 4 or image.shape[1:] != expected:
        raise ShapeError(f"encoder expects [B,{expected[0]},{expected[1]},"
                         f"{expected[2]}], got {image.shape}")
    feats: list[Tensor] = []
    x = image
    for i in range(4):
        tokens, h, w = overlap_patch_embed(x, params, config, i)
        stage = f"stage{i + 1}"
        for dpt in range(config.stage_depths[i]):
            blk = f"{stage}.block{dpt}"
            attn_p = subparams(params, f"{blk}.attn")
            normed = T.layer_norm(tokens, params[f"{blk}.norm1.gamma"],
                                  params[f"{blk}.norm1.beta"])
            tokens = tokens + efficient_attention(
                normed, h, w, attn_p, config.reduction_factors[i],
                config.num_heads[i])
            normed = T.layer_norm(tokens, params[f"{blk}.norm2.gamma"],
                                  params[f"{blk}.norm2.beta"])
            tokens = tokens + mix_ffn(normed, h, w, subparams(params, f"{blk}.ffn"))
        tokens = T.layer_norm(tokens, params[f"{stage}.norm.gamma"],
                              params[f"{stage}.norm.beta"])
        b = tokens.shape[0]
        x = tokens.transpose(0, 2, 1).reshape(b, config.stage_channels[i], h, w)
        feats.append(x)
    return feats


def decoder_forward(features: list[Tensor], params: dict[str, Tensor],
                    config: ModelConfig) -> Tensor:
    """Fuse encoder maps deep-to-shallow and emit logits at the input size."""
    if len(features) != 4:
        raise ShapeError(f"decoder expects 4 feature maps, got {len(features)}")
    for i, f in enumerate(features):
        if f.ndim != 4 or f.shape[1] != config.stage_channels[i] \
                or f.shape[2:] != config.stage_dims(i):
            raise ShapeError(f"feature {i} has shape {f.shape}, expected "
                             f"[B,{config.stage_channels[i]},"
                             f"{config.stage_dims(i)[0]},{config.stage_dims(i)[1]}]")
    d = features[3]
    for j, si in enumerate((2, 1, 0)):
        skip = features[si]
        d = T.resize_bilinear(d, skip.shape[2], skip.shape[3])
        d = T.concat([d, skip], axis=1)
        d = T.gelu(T.conv2d(d, params[f"decoder.fuse{j}.weight"],
                            params[f"decoder.fuse{j}.bias"], stride=1, padding=1))
    d = T.conv2d(d, params["decoder.head.weight"], params["decoder.head.bias"])
    return T.resize_bilinear(d, config.input_size[0], config.input_size[1])


PROB_EPS = 1e-7


def model_forward(image: Tensor, params: dict[str, Tensor],
                  config: ModelConfig) -> Tensor:
    """Full forward pass; per-pixel lesion probabilities strictly in (0,1).

    Saturated sigmoid outputs are clamped away from exact 0/1 so downstream
    log-losses stay finite.
    """
    probs = T.sigmoid(decoder_forward(encoder_forward(image, params, config),
                                      params, config))
    return T.clip(probs, PROB_EPS, 1.0 - PROB_EPS)


# ---- checkpoint container ---------------------------------------------------


def save_checkpoint(path, params: dict[str, Tensor], config: ModelConfig) -> None:
    cfg = config.to_json().encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(cfg)))
        fh.write(cfg)
        fh.write(struct.pack("<I", len(params)))
        for name, p in params.items():
            enc = name.encode("utf-8")
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<B", p.ndim))
            fh.write(struct.pack(f"<{p.ndim}I", *p.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


class BlobReader:
    """Bounds-checked cursor over a checkpoint or train-state file.

    Checks the magic and the u32 format version on open; every truncation,
    undecodable text, corrupt JSON or trailing byte raises a
    DataFormatError naming the file.
    """

    def __init__(self, path, magic: bytes, version: int):
        with open(path, "rb") as fh:
            self.buf = memoryview(fh.read())
        self.path, self.off = path, len(magic)
        if self.buf[:self.off] != magic:
            raise DataFormatError(f"{path}: bad magic {bytes(self.buf[:self.off])!r}, "
                                  f"expected {magic!r}")
        (found,) = self.unpack("<I")
        if found != version:
            raise DataFormatError(f"{path}: unsupported format version {found}")

    def take(self, n: int) -> memoryview:
        if self.off + n > len(self.buf):
            raise DataFormatError(f"{self.path}: truncated: {n} bytes needed at "
                                  f"offset {self.off}, file has {len(self.buf)}")
        self.off += n
        return self.buf[self.off - n:self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        raw = self.take(n)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{self.path}: invalid UTF-8 at offset "
                                  f"{self.off - n + exc.start}") from None

    def json(self):
        (n,) = self.unpack("<I")
        try:
            return json.loads(self.text(n))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{self.path}: corrupt JSON header: {exc}") from None

    def name(self) -> str:
        (n,) = self.unpack("<H")
        return self.text(n)

    def floats(self, shape) -> np.ndarray:
        return np.frombuffer(self.take(4 * math.prod(shape)), "<f4").reshape(shape)

    def finish(self) -> None:
        if self.off != len(self.buf):
            raise DataFormatError(f"{self.path}: {len(self.buf) - self.off} "
                                  "trailing bytes after the last entry")


def load_checkpoint(path) -> tuple[dict[str, Tensor], ModelConfig]:
    r = BlobReader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    try:
        config = ModelConfig(**r.json())
    except (TypeError, ConfigError) as exc:
        raise DataFormatError(f"{path}: bad model config: {exc}") from None
    specs = {name: shape for name, shape, _ in parameter_specs(config)}
    (count,) = r.unpack("<I")
    params: dict[str, Tensor] = {}
    for _ in range(count):
        name = r.name()
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        if name not in specs or name in params:
            raise DataFormatError(f"{path}: unexpected parameter '{name}'")
        if shape != specs[name]:
            raise DataFormatError(f"{path}: parameter '{name}' has shape {shape}, "
                                  f"config expects {specs[name]}")
        params[name] = Tensor(r.floats(shape).astype(np.float32), requires_grad=True)
    r.finish()
    missing = [name for name in specs if name not in params]
    if missing:
        raise DataFormatError(f"{path}: missing parameter '{missing[0]}'")
    return params, config
