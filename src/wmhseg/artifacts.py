"""Deterministic MR artifact simulation: noise, bias field, ghosting.

Each corruption is a pure function of (volume, spec); the spec's seed fully
determines both the sampled parameters and the random fields, so a sidecar
recording the spec replays the output bit for bit. ``corrupt_scan`` emits
the four standard companions of a clean scan: noise, bias, ghosting, and
bias followed by noise.

Models:
  * noise      - additive Gaussian, sigma = noise_std * intensity range,
                 clipped to >= 0
  * bias       - multiplicative exp(P(x,y,z)) with P a random polynomial of
                 total degree <= bias_order over coordinates in [-1,1]
                 (positivity guaranteed by the exponential)
  * ghosting   - per axial slice, attenuate every ghost_count-th k-space
                 line along the ghost axis by (1 - ghost_intensity), keeping
                 the central 5% of lines so gross contrast survives
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataFormatError, ValidationError
from .fourier import fft2, ifft2
from .nifti import Volume
from .seeding import derive_seed

KINDS = ("noise", "bias", "ghosting", "noise_bias")

NOISE_STD_RANGE = (0.02, 0.10)
BIAS_ORDER = 3
BIAS_COEFF_RANGE = (-0.5, 0.5)
GHOST_COUNT_RANGE = (2, 6)
GHOST_INTENSITY_RANGE = (0.3, 0.9)
GHOST_CENTER_FRACTION = 0.05


@dataclass
class ArtifactSpec:
    """One corruption with its realized parameters and seed."""
    kind: str
    seed: int
    noise_std: float = 0.0
    bias_order: int = BIAS_ORDER
    bias_coeffs: Optional[np.ndarray] = None
    ghost_count: int = 0
    ghost_axis: str = "row"
    ghost_intensity: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown artifact kind '{self.kind}'; "
                                  f"valid kinds: {', '.join(KINDS)}")


def _param_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, 0))


def _field_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, 1))


def _num_bias_coeffs(order: int) -> int:
    # monomials x^i y^j z^k with i+j+k <= order
    return sum(1 for i in range(order + 1) for j in range(order + 1 - i)
               for k in range(order + 1 - i - j))


def sample_spec(kind: str, seed: int) -> ArtifactSpec:
    """Draw an ArtifactSpec with parameters from the default ranges."""
    rng = _param_rng(seed)
    spec = ArtifactSpec(kind=kind, seed=seed)
    if kind in ("noise", "noise_bias"):
        spec.noise_std = float(rng.uniform(*NOISE_STD_RANGE))
    if kind in ("bias", "noise_bias"):
        spec.bias_coeffs = rng.uniform(*BIAS_COEFF_RANGE,
                                       size=_num_bias_coeffs(BIAS_ORDER))
    if kind == "ghosting":
        spec.ghost_count = int(rng.integers(GHOST_COUNT_RANGE[0],
                                            GHOST_COUNT_RANGE[1] + 1))
        spec.ghost_axis = "row" if rng.integers(2) == 0 else "col"
        spec.ghost_intensity = float(rng.uniform(*GHOST_INTENSITY_RANGE))
    return spec


def add_noise(vol: Volume, spec: ArtifactSpec) -> Volume:
    """Additive seeded Gaussian noise scaled by the volume intensity range."""
    data = vol.data
    if spec.noise_std == 0.0:
        return vol.with_data(data.copy())
    sigma = spec.noise_std * float(data.max() - data.min())
    noise = _field_rng(spec.seed).normal(0.0, sigma, size=data.shape)
    out = np.clip(data + noise, 0.0, None).astype(data.dtype)
    return vol.with_data(out)


def _normalized_coords(n: int) -> np.ndarray:
    if n == 1:
        return np.zeros(1)
    return 2.0 * np.arange(n) / (n - 1) - 1.0


def bias_field(shape: tuple[int, int, int], order: int,
               coeffs: np.ndarray) -> np.ndarray:
    """exp of a degree-<=order polynomial over [-1,1]^3 coordinates."""
    expected = _num_bias_coeffs(order)
    if coeffs is None or len(coeffs) != expected:
        raise ValidationError(f"bias field of order {order} needs {expected} "
                              "coefficients")
    xs = _normalized_coords(shape[0])[:, None, None]
    ys = _normalized_coords(shape[1])[None, :, None]
    zs = _normalized_coords(shape[2])[None, None, :]
    poly = np.zeros(shape)
    idx = 0
    for i in range(order + 1):
        for j in range(order + 1 - i):
            for k in range(order + 1 - i - j):
                if coeffs[idx] != 0.0:
                    poly = poly + coeffs[idx] * (xs ** i) * (ys ** j) * (zs ** k)
                idx += 1
    return np.exp(poly)


def apply_bias_field(vol: Volume, spec: ArtifactSpec) -> Volume:
    """Multiplicative smooth inhomogeneity; strictly positive field."""
    if spec.bias_order < 0:
        raise ValidationError("bias_order must be >= 0")
    coeffs = spec.bias_coeffs
    if coeffs is None:
        coeffs = np.zeros(_num_bias_coeffs(spec.bias_order))
    out = vol.data * bias_field(vol.shape, spec.bias_order, np.asarray(coeffs))
    return vol.with_data(out.astype(vol.data.dtype))


def _ghost_line_mask(n: int, count: int) -> np.ndarray:
    """Boolean mask of attenuated k-space line indices (FFT order)."""
    idx = np.arange(n)
    freq = np.where(idx <= n // 2, idx, idx - n)
    central = np.abs(freq) <= GHOST_CENTER_FRACTION * n / 2.0
    return (idx % count == 0) & ~central


def apply_ghosting(vol: Volume, spec: ArtifactSpec) -> Volume:
    """Periodic k-space line attenuation producing shifted anatomy replicas."""
    if spec.ghost_count < 1:
        raise ValidationError("ghost_count must be >= 1")
    if spec.ghost_axis not in ("row", "col"):
        raise ValidationError(f"ghost_axis must be row|col, got '{spec.ghost_axis}'")
    axis = 0 if spec.ghost_axis == "row" else 1
    factor = 1.0 - spec.ghost_intensity
    lines = _ghost_line_mask(vol.shape[axis], spec.ghost_count)
    out = np.empty_like(vol.data)
    for k in range(vol.shape[2]):
        spectrum = fft2(vol.data[:, :, k])
        if axis == 0:
            spectrum[lines, :] *= factor
        else:
            spectrum[:, lines] *= factor
        out[:, :, k] = np.abs(ifft2(spectrum)).astype(vol.data.dtype)
    return vol.with_data(out)


def apply_artifact(vol: Volume, spec: ArtifactSpec) -> Volume:
    """Dispatch on spec.kind; noise_bias composes bias then noise."""
    if spec.kind == "noise":
        return add_noise(vol, spec)
    if spec.kind == "bias":
        return apply_bias_field(vol, spec)
    if spec.kind == "ghosting":
        return apply_ghosting(vol, spec)
    if spec.kind == "noise_bias":
        return add_noise(apply_bias_field(vol, spec), spec)
    raise ValidationError(f"unknown artifact kind '{spec.kind}'")


def corrupt_scan(vol: Volume, master_seed: int) -> list[tuple[Volume, ArtifactSpec]]:
    """The four corrupted companions of one scan, seeded from master_seed."""
    out = []
    for i, kind in enumerate(KINDS):
        spec = sample_spec(kind, derive_seed(master_seed, i))
        out.append((apply_artifact(vol, spec), spec))
    return out


# ---- sidecar provenance -------------------------------------------------


def write_sidecar(path, spec: ArtifactSpec) -> None:
    """Record the exact spec (kind, seed, realized values) as key=value text."""
    lines = [f"kind={spec.kind}", f"seed={spec.seed}"]
    if spec.kind in ("noise", "noise_bias"):
        lines.append(f"noise_std={spec.noise_std!r}")
    if spec.kind in ("bias", "noise_bias"):
        lines.append(f"bias_order={spec.bias_order}")
        lines.append("bias_coeffs=" + ",".join(repr(float(c))
                                               for c in spec.bias_coeffs))
    if spec.kind == "ghosting":
        lines.append(f"ghost_count={spec.ghost_count}")
        lines.append(f"ghost_axis={spec.ghost_axis}")
        lines.append(f"ghost_intensity={spec.ghost_intensity!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_SIDECAR_FIELDS = {
    "kind": str, "seed": int, "noise_std": float, "bias_order": int,
    "bias_coeffs": lambda v: np.array([float(c) for c in v.split(",")]),
    "ghost_count": int, "ghost_axis": str, "ghost_intensity": float,
}


def read_sidecar(path) -> ArtifactSpec:
    """Parse a sidecar written by :func:`write_sidecar`; unknown keys are ignored."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: undecodable text ({exc.reason})") from None
    kv: dict[str, str] = {}
    for line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            kv[key] = value
    for key in ("kind", "seed"):
        if key not in kv:
            raise DataFormatError(f"{path}: missing key '{key}'")
    fields = {}
    for key, parse in _SIDECAR_FIELDS.items():
        if key in kv:
            try:
                fields[key] = parse(kv[key])
            except ValueError:
                raise DataFormatError(f"{path}: key '{key}' has invalid value "
                                      f"{kv[key]!r}") from None
    return ArtifactSpec(**fields)
