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
from .fileio import atomic_write
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


def _num_bias_coeffs(order: int) -> int:
    """Number of monomials x^i y^j z^k with i+j+k <= order."""
    return (order + 1) * (order + 2) * (order + 3) // 6


def _bias_terms(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponents (i, j, k) of the monomials of total degree <= order.

    Three index arrays in coefficient order: i, then j, then k, each
    ascending, which is ``np.indices`` order over the (order+1)^3 cube with
    i+j+k > order left out.
    """
    i, j, k = np.indices((order + 1,) * 3).reshape(3, -1)
    keep = i + j + k <= order
    return i[keep], j[keep], k[keep]


def sample_spec(kind: str, seed: int) -> ArtifactSpec:
    """Draw an ArtifactSpec with parameters from the default ranges."""
    rng = np.random.default_rng(derive_seed(seed, 0))
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


# voxels of float64 noise drawn at a time (1 MiB); consecutive draws of one
# generator continue one stream, so the blocks give the one-shot draw's bits
NOISE_BLOCK_VOXELS = 1 << 17


def add_noise(vol: Volume, spec: ArtifactSpec) -> Volume:
    """Additive seeded Gaussian noise scaled by the volume intensity range.

    The float64 noise is drawn in blocks of whole rows (first axis) and
    added, clipped and cast into the output block by block, so no
    full-volume float64 array is made.
    """
    data = vol.data
    if spec.noise_std == 0.0:
        return vol.with_data(data.copy())
    sigma = spec.noise_std * float(data.max() - data.min())
    rng = np.random.default_rng(derive_seed(spec.seed, 1))
    out = np.empty_like(data)
    rows = max(1, NOISE_BLOCK_VOXELS // data[0].size)
    for lo in range(0, data.shape[0], rows):
        noise = rng.normal(0.0, sigma, size=data[lo:lo + rows].shape)
        noise += data[lo:lo + rows]
        np.maximum(noise, 0.0, out=noise)
        out[lo:lo + rows] = noise
    return vol.with_data(out)


def _normalized_coords(n: int) -> np.ndarray:
    if n == 1:
        return np.zeros(1)
    return 2.0 * np.arange(n) / (n - 1) - 1.0


def bias_field(shape: tuple[int, int, int], order: int,
               coeffs: np.ndarray) -> np.ndarray:
    """exp of a degree-<=order polynomial over [-1,1]^3 coordinates.

    The polynomial is separable: with the coefficients scattered into an
    (order+1)^3 cube C and one Vandermonde matrix V per axis, it is
    sum_abc Vx[i,a] Vy[j,b] Vz[k,c] C[a,b,c]: one einsum whose only
    full-volume array is its output. All-zero coefficients give exactly 1.
    """
    expected = _num_bias_coeffs(order)
    if coeffs is None or len(coeffs) != expected:
        raise ValidationError(f"bias field of order {order} needs {expected} "
                              "coefficients")
    cube = np.zeros((order + 1,) * 3)
    cube[_bias_terms(order)] = coeffs
    vx, vy, vz = (np.vander(_normalized_coords(n), order + 1, increasing=True)
                  for n in shape)
    field = np.einsum("ia,jb,kc,abc->ijk", vx, vy, vz, cube, optimize=True)
    return np.exp(field, out=field)


def apply_bias_field(vol: Volume, spec: ArtifactSpec) -> Volume:
    """Multiplicative smooth inhomogeneity; strictly positive field."""
    if spec.bias_order < 0:
        raise ValidationError("bias_order must be >= 0")
    coeffs = spec.bias_coeffs
    if coeffs is None:
        coeffs = np.zeros(_num_bias_coeffs(spec.bias_order))
    field = bias_field(vol.shape, spec.bias_order, np.asarray(coeffs))
    try:
        with np.errstate(over="raise"):
            field *= vol.data
            return vol.with_data(field.astype(vol.data.dtype))
    except FloatingPointError:
        raise ValidationError("bias field times the volume overflows "
                              f"{vol.data.dtype}") from None


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


def companion_specs(master_seed: int) -> list[ArtifactSpec]:
    """The specs of a scan's four corrupted companions, in ``KINDS`` order."""
    return [sample_spec(kind, derive_seed(master_seed, i))
            for i, kind in enumerate(KINDS)]


def corrupt_scan(vol: Volume, master_seed: int) -> list[tuple[Volume, ArtifactSpec]]:
    """The four corrupted companions of one scan, seeded from master_seed."""
    return [(apply_artifact(vol, spec), spec)
            for spec in companion_specs(master_seed)]


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
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def _floats(text: str) -> np.ndarray:
    return np.array([float(c) for c in text.split(",")])


_MAX_BIAS_EXPONENT = float(np.log(np.finfo(np.float32).max))


def _bias_exponent_bounded(coeffs: np.ndarray) -> bool:
    # |P| <= sum |c| on [-1,1]^3, so the bound keeps exp(P) finite in
    # float32; each |c| is checked first so that the sum cannot overflow
    mags = np.abs(coeffs)
    return bool((mags <= _MAX_BIAS_EXPONENT).all()) \
        and mags.sum() <= _MAX_BIAS_EXPONENT

# key -> (parser, test the parsed value must pass, what the test asks for);
# a replayed spec drives allocations and RNG calls, so every value is checked
_SIDECAR_FIELDS = {
    "kind": (str, lambda v: v in KINDS, "one of " + ", ".join(KINDS)),
    "seed": (int, lambda v: True, "an integer"),
    "noise_std": (float, lambda v: 0.0 <= v < np.inf, "a finite number >= 0"),
    "bias_order": (int, lambda v: v >= 0, "an integer >= 0"),
    "bias_coeffs": (_floats, _bias_exponent_bounded,
                    f"comma-separated finite numbers whose absolute values sum "
                    f"to at most {_MAX_BIAS_EXPONENT:.2f}"),
    "ghost_count": (int, lambda v: v >= 1, "an integer >= 1"),
    "ghost_axis": (str, lambda v: v in ("row", "col"), "row or col"),
    "ghost_intensity": (float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
}


def read_sidecar(path) -> ArtifactSpec:
    """Parse a sidecar written by :func:`write_sidecar`; unknown keys are ignored.

    Raises DataFormatError naming the file and the key for a missing or
    out-of-range value, and for bias coefficients that do not match the
    bias order.
    """
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
    for key, (parse, valid, expected) in _SIDECAR_FIELDS.items():
        if key in kv:
            try:
                value = parse(kv[key])
            except ValueError:
                value = None
            if value is None or not valid(value):
                raise DataFormatError(f"{path}: key '{key}' has invalid value "
                                      f"{kv[key]!r}, expected {expected}")
            fields[key] = value
    if fields["kind"] in ("bias", "noise_bias"):
        if "bias_coeffs" not in fields:
            raise DataFormatError(f"{path}: missing key 'bias_coeffs'")
        order = fields.get("bias_order", BIAS_ORDER)
        expected = _num_bias_coeffs(order)
        if len(fields["bias_coeffs"]) != expected:
            raise DataFormatError(
                f"{path}: key 'bias_coeffs' has {len(fields['bias_coeffs'])} "
                f"values, bias_order {order} needs {expected}")
    return ArtifactSpec(**fields)
