"""Hierarchical transformer encoder + convolutional decoder for lesion maps.

The encoder tokenizes with overlapping strided convolutions and runs
transformer blocks whose attention shortens the key/value sequence by a
per-stage reduction factor; a convolutional feed-forward block (depthwise
3x3) carries positional information. The decoder upsamples the four encoder
maps U-Net style (bilinear 2x, concatenate skip, 3x3 conv, GELU) and ends
with a 1x1 conv producing one logit channel, then a 4x bilinear upsample of
that logit (equal to upsampling first, since both are linear and the
interpolation rows sum to 1).

Token layout: encoder tokens are channel-first, [B,C,N] with N = H*W, from
the patch embedding to the stage output, so a stage's map is a reshape of
its tokens and Mix-FFN's depthwise conv runs on a reshape too. SegFormer
(Xie et al. 2021) keeps tokens channel-last, [B,N,C]; this package does not,
because numpy reduces a strided channel axis (layer norm over axis 1) much
faster than a short contiguous one of 16-256 channels, and because the
[B,N,C] <-> [B,C,H,W] copies at every patch embed, Mix-FFN and stage end go
away. Projections are ``W^T @ x`` through a transposed view, so parameters
keep their [Cin,Cout] shapes and checkpoints are layout-independent.
Attention heads split along C and the scores are laid out [B,heads,M,N]
(keys by queries), normalized over M.

Checkpoint container: magic ``WMHS``, u32 format version, JSON-serialized
config, then per parameter (path, shape, raw little-endian float32 values).
The config's ``normalization_scope`` is the one inference uses ('slice' if
absent). ``reduction_factors`` and ``decoder_channels`` are written from the
fixed architecture (``REDUCTION_FACTORS`` and the stage widths); older
headers also carry ``in_channels``, ``out_channels`` and ``ffn_expansion``.
All five load only at the fixed values, or when absent; any other value is a
bad config. Round-trips are bit-exact; a save replaces the file atomically.
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
# spatial reduction of the attention's key/value sequence per stage: each
# side shrinks by 8, 4, 2, 1, as in every SegFormer variant
REDUCTION_FACTORS = (64, 16, 4, 1)
# one FLAIR channel in, one lesion logit out, and SegFormer's Mix-FFN width
IN_CHANNELS = 1
OUT_CHANNELS = 1
FFN_EXPANSION = 4
_FIXED_KEYS = {"in_channels": IN_CHANNELS, "out_channels": OUT_CHANNELS,
               "ffn_expansion": FFN_EXPANSION}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; defaults are the smallest trainable instance."""
    stage_channels: tuple[int, int, int, int] = (32, 64, 160, 256)
    stage_depths: tuple[int, int, int, int] = (2, 2, 2, 2)
    num_heads: tuple[int, int, int, int] = (1, 2, 5, 8)
    input_size: tuple[int, int] = (256, 256)
    normalization_scope: str = "slice"  # input min-max per slice|volume

    def __post_init__(self):
        for name in ("stage_channels", "stage_depths", "num_heads", "input_size"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.normalization_scope not in ("slice", "volume"):
            raise ConfigError("normalization_scope must be slice|volume, got "
                              f"{self.normalization_scope!r}")
        stages = (self.stage_channels, self.stage_depths, self.num_heads)
        # the preprocessing makes square slices
        if any(len(t) != 4 for t in stages) or len(self.input_size) != 2 \
                or not all(isinstance(v, int) and v >= 1
                           for v in sum(stages, self.input_size)) \
                or self.input_size[0] != self.input_size[1]:
            raise ConfigError("sizes must be positive integers, 4 per stage, with "
                              "a square input")
        for i, r in enumerate(REDUCTION_FACTORS):
            c, heads = self.stage_channels[i], self.num_heads[i]
            if c % heads != 0:
                raise ConfigError(f"stage {i + 1}: channels {c} not divisible by "
                                  f"{heads} heads")
            root = math.isqrt(r)
            h, w = self.stage_dims(i)
            if h % root or w % root:
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
                   num_heads=(1, 2, 4, 8))

    @classmethod
    def tiny(cls) -> "ModelConfig":
        """Smallest wiring-complete variant, for gradient checking."""
        return cls(stage_channels=(8, 8, 8, 8), stage_depths=(1, 1, 1, 1),
                   num_heads=(1, 2, 4, 8), input_size=(32, 32))


# ---- parameter registry -----------------------------------------------------


def parameter_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Ordered (path, shape, init_kind) for every learnable parameter.

    init_kind: 'conv' (Kaiming fan-in), 'proj' (truncated normal, std 0.02),
    'ones', 'zeros'. The order here fixes init determinism and the
    checkpoint layout.
    """
    specs: list[tuple[str, tuple[int, ...], str]] = []
    cin = IN_CHANNELS
    for i in range(4):
        c = config.stage_channels[i]
        k, _, _ = PATCH_KERNELS[i]
        r = REDUCTION_FACTORS[i]
        stage = f"stage{i + 1}"
        specs += [
            (f"{stage}.embed.weight", (c, cin, k, k), "conv"),
            (f"{stage}.embed.bias", (c,), "zeros"),
            (f"{stage}.embed.norm.gamma", (c,), "ones"),
            (f"{stage}.embed.norm.beta", (c,), "zeros"),
        ]
        e = c * FFN_EXPANSION
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

    # each fuse takes the deeper map and the skip, and returns the skip's width
    widths = config.stage_channels
    for j, si in enumerate((2, 1, 0)):
        c = widths[si]
        specs += [
            (f"decoder.fuse{j}.weight", (c, widths[si + 1] + c, 3, 3), "conv"),
            (f"decoder.fuse{j}.bias", (c,), "zeros"),
        ]
    specs += [
        ("decoder.head.weight", (OUT_CHANNELS, widths[0], 1, 1), "conv"),
        ("decoder.head.bias", (OUT_CHANNELS,), "zeros"),
    ]
    return specs


def init_parameters(config: ModelConfig, seed: int,
                    dtype=np.float32) -> dict[str, Tensor]:
    """Deterministic parameter initialization for a given seed."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for path, shape, kind in parameter_specs(config):
        if kind == "conv":
            fan_in = int(np.prod(shape[1:]))
            arr = rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)
        elif kind == "proj":  # normal(0, 0.02), redrawn until within 2 sigma
            arr = rng.standard_normal(shape)
            bad = np.abs(arr) > 2.0
            while bad.any():
                arr[bad] = rng.standard_normal(int(bad.sum()))
                bad = np.abs(arr) > 2.0
            arr *= 0.02
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


def _project(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Linear map of channel-first tokens: [B,Cin,N] -> [B,Cout,N].

    ``weight`` is stored [Cin,Cout], as for channel-last tokens, and enters
    through a transposed view; the bias is added inside the GEMM's op.
    """
    return T.matmul(weight.transpose(1, 0), x, bias=bias)


def overlap_patch_embed(x: Tensor, params: dict[str, Tensor], config: ModelConfig,
                        stage_idx: int) -> tuple[Tensor, int, int]:
    """Strided-conv tokenizer of one stage; returns (tokens [B,C,N], H', W')."""
    k, s, p = PATCH_KERNELS[stage_idx]
    pre = f"stage{stage_idx + 1}.embed"
    y = T.conv2d(x, params[f"{pre}.weight"], params[f"{pre}.bias"],
                 stride=s, padding=p)
    b, c, h, w = y.shape
    tokens = T.layer_norm(y.reshape(b, c, h * w), params[f"{pre}.norm.gamma"],
                          params[f"{pre}.norm.beta"], axis=1)
    return tokens, h, w


def efficient_attention(tokens: Tensor, h: int, w: int, p: dict[str, Tensor],
                        reduction: int, heads: int,
                        return_weights: bool = False):
    """Multi-head attention whose key/value sequence is shortened by ``reduction``.

    ``tokens`` are [B,C,N]. Queries keep length N = h*w. For reduction > 1
    the token grid is split into sqrt(R) x sqrt(R) tiles, each tile's
    features are flattened in (row, column, channel) order to one vector of
    size R*C, projected back to C and layer-normalized; keys and values are
    computed from that shortened sequence of length M. Heads split along C;
    the scores are laid out [B,heads,M,N] and normalized over M. With
    ``return_weights`` the weights come back as a [B,heads,N,M] view.
    """
    b, c, n = tokens.shape
    if n != h * w:
        raise ShapeError(f"token count {n} != {h}x{w}")
    if c % heads != 0:
        raise ConfigError(f"channels {c} not divisible by {heads} heads")
    root = math.isqrt(reduction)
    if root * root != reduction:
        raise ConfigError(f"reduction factor {reduction} is not a perfect square")
    if reduction > 1 and (n % reduction or h % root or w % root):
        raise ConfigError(f"reduction {reduction} does not divide token grid {h}x{w}")

    q = _project(tokens, p["q_weight"], p["q_bias"])
    if reduction > 1:
        red = tokens.reshape(b, c, h // root, root, w // root, root)
        red = red.transpose(0, 3, 5, 1, 2, 4).reshape(b, reduction * c, n // reduction)
        red = _project(red, p["sr_weight"], p["sr_bias"])
        red = T.layer_norm(red, p["srnorm.gamma"], p["srnorm.beta"], axis=1)
    else:
        red = tokens
    key = _project(red, p["k_weight"], p["k_bias"])
    val = _project(red, p["v_weight"], p["v_bias"])

    m = red.shape[2]
    d = c // heads
    qh = q.reshape(b, heads, d, n)
    kh = key.reshape(b, heads, d, m).transpose(0, 1, 3, 2)
    vh = val.reshape(b, heads, d, m)
    weights = T.softmax(T.matmul(kh, qh), axis=-2, scale=1.0 / math.sqrt(d))
    ctx = T.matmul(vh, weights).reshape(b, c, n)
    out = _project(ctx, p["out_weight"], p["out_bias"])
    return (out, weights.transpose(0, 1, 3, 2)) if return_weights else out


def mix_ffn(tokens: Tensor, h: int, w: int, p: dict[str, Tensor]) -> Tensor:
    """Feed-forward block with a depthwise 3x3 conv between the projections."""
    b, c, n = tokens.shape
    if n != h * w:
        raise ShapeError(f"token count {n} != {h}x{w}")
    x = _project(tokens, p["fc1_weight"], p["fc1_bias"])
    e = x.shape[1]
    x = T.conv2d(x.reshape(b, e, h, w), p["dw_weight"], p["dw_bias"], stride=1,
                 padding=1, groups=e)
    x = T.gelu(x)
    return _project(x.reshape(b, e, n), p["fc2_weight"], p["fc2_bias"])


def encoder_forward(image: Tensor, params: dict[str, Tensor],
                    config: ModelConfig) -> list[Tensor]:
    """Run all four stages; returns the four feature maps [B,Ci,Hi,Wi]."""
    expected = (IN_CHANNELS,) + config.input_size
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
                                  params[f"{blk}.norm1.beta"], axis=1)
            tokens = tokens + efficient_attention(
                normed, h, w, attn_p, REDUCTION_FACTORS[i], config.num_heads[i])
            normed = T.layer_norm(tokens, params[f"{blk}.norm2.gamma"],
                                  params[f"{blk}.norm2.beta"], axis=1)
            tokens = tokens + mix_ffn(normed, h, w, subparams(params, f"{blk}.ffn"))
        tokens = T.layer_norm(tokens, params[f"{stage}.norm.gamma"],
                              params[f"{stage}.norm.beta"], axis=1)
        x = tokens.reshape(tokens.shape[0], config.stage_channels[i], h, w)
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


def _derived_keys(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Header keys that the architecture fixes, at their values for ``config``."""
    return {"reduction_factors": REDUCTION_FACTORS,
            "decoder_channels": config.stage_channels}


def save_checkpoint(path, params: dict[str, Tensor], config: ModelConfig) -> None:
    """Write the container atomically."""
    header = dict(asdict(config), **_derived_keys(config))
    # the values as a flat byte view of each parameter, not a copy
    write_blob(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header,
               [(name, [struct.pack(f"<B{p.ndim}I", p.ndim, *p.shape),
                        np.ascontiguousarray(p.data, dtype="<f4")
                        .reshape(-1).view(np.uint8)])
                for name, p in params.items()])


def write_blob(path, magic: bytes, version: int, header: dict,
               records: list[tuple[str, list]]) -> None:
    """Write a checkpoint or train-state file atomically, in the framing
    that ``BlobReader`` reads.

    The file is the magic, the u32 version, the JSON header (sorted keys)
    after its u32 byte length, the u32 record count, then each record: its
    name after a u16 byte length, followed by its payload chunks.
    """
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [magic, struct.pack("<II", version, len(head)), head,
              struct.pack("<I", len(records))]
    for name, payload in records:
        enc = name.encode("utf-8")
        chunks += [struct.pack("<H", len(enc)), enc, *payload]
    with atomic_write(path) as fh:
        fh.writelines(chunks)


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
    header = r.json()
    try:
        fixed_keys = (*_FIXED_KEYS, "reduction_factors", "decoder_channels")
        found = {key: header.pop(key) for key in fixed_keys
                 if key in header} if isinstance(header, dict) else {}
        config = ModelConfig(**header)
        for key, fixed in dict(_FIXED_KEYS, **_derived_keys(config)).items():
            # compared as JSON text, so 4.0 and true are not 4 and 1
            if key in found and json.dumps(found[key]) != json.dumps(fixed):
                raise ConfigError(f"{key} must be {json.dumps(fixed)}, "
                                  f"got {found[key]!r}")
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
