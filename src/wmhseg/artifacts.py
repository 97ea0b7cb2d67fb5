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
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .errors import DataFormatError, ValidationError
from .fileio import atomic_write, read_key_values
from .fourier import fft2, ifft2
from .nifti import Volume
from .seeding import derive_seed

# the keys each kind records after kind and seed, in sidecar order: the
# parameters its corruption reads, which the spec checks and the sidecar holds
KIND_KEYS = {
    "noise": ("noise_std",),
    "bias": ("bias_order", "bias_coeffs"),
    "ghosting": ("ghost_count", "ghost_axis", "ghost_intensity"),
    "noise_bias": ("noise_std", "bias_order", "bias_coeffs"),
}
KINDS = tuple(KIND_KEYS)

NOISE_STD_RANGE = (0.02, 0.10)
BIAS_ORDER = 3
BIAS_COEFF_RANGE = (-0.5, 0.5)
GHOST_COUNT_RANGE = (2, 6)
GHOST_INTENSITY_RANGE = (0.3, 0.9)
GHOST_CENTER_FRACTION = 0.05

_FLOAT_MAX = float(np.finfo(np.float64).max)
_MAX_BIAS_EXPONENT = float(np.log(np.finfo(np.float32).max))


def _bias_exponent_bounded(coeffs) -> bool:
    # |P| <= sum |c| on [-1,1]^3, so the bound keeps exp(P) finite in
    # float32; each |c| is checked first so that the sum cannot overflow
    mags = np.abs(np.asarray(coeffs, dtype=np.float64))
    return mags.ndim == 1 and bool((mags <= _MAX_BIAS_EXPONENT).all()) \
        and mags.sum() <= _MAX_BIAS_EXPONENT


def _number(kind, lo, hi):
    return lambda v: isinstance(v, kind) and lo <= v <= hi


def _text(value) -> str:
    """A value as its sidecar text."""
    if np.ndim(value):
        return ",".join(repr(float(c)) for c in value)
    return str(value)


# key -> (parser of its sidecar text, rule its value must pass, what the rule
# asks for); a replayed spec drives allocations and RNG calls, so every value
# a kind reads is checked
_FIELDS = {
    "kind": (str, lambda v: v in KINDS, "one of " + ", ".join(KINDS)),
    "seed": (int, _number(Integral, -np.inf, np.inf), "an integer"),
    "noise_std": (float, _number(Real, 0.0, _FLOAT_MAX), "a finite number >= 0"),
    "bias_order": (int, _number(Integral, 0, np.inf), "an integer >= 0"),
    "bias_coeffs": (lambda t: np.array([float(c) for c in t.split(",")]),
                    _bias_exponent_bounded,
                    f"comma-separated finite numbers whose absolute values sum "
                    f"to at most {_MAX_BIAS_EXPONENT:.2f}"),
    "ghost_count": (int, _number(Integral, 1, 2 ** 63 - 1),
                    "an integer in [1, 2**63)"),
    "ghost_axis": (str, lambda v: v in ("row", "col"), "row or col"),
    "ghost_intensity": (float, _number(Real, 0.0, 1.0), "a number in [0, 1]"),
}


@dataclass(frozen=True)
class ArtifactSpec:
    """One corruption with its realized parameters and seed.

    Valid by construction: ``kind``, ``seed`` and the keys the kind records
    (``KIND_KEYS``) must pass their rules, and ``bias_coeffs`` must hold one
    coefficient per monomial of degree <= ``bias_order``. Parameters the kind
    does not read keep their defaults. Raises ValidationError naming the key.
    """
    kind: str
    seed: int
    noise_std: float = 0.0
    bias_order: int = BIAS_ORDER
    bias_coeffs: Optional[np.ndarray] = None
    ghost_count: int = 0
    ghost_axis: str = "row"
    ghost_intensity: float = 0.0

    def __post_init__(self):
        for key in ("kind", "seed") + KIND_KEYS.get(self.kind, ()):
            _, valid, expected = _FIELDS[key]
            if not valid(getattr(self, key)):
                raise ValidationError(f"key '{key}' has invalid value "
                                      f"{_text(getattr(self, key))!r}, "
                                      f"expected {expected}")
        if "bias_coeffs" in KIND_KEYS[self.kind]:
            count, needed = len(self.bias_coeffs), _num_bias_coeffs(self.bias_order)
            if count != needed:
                raise ValidationError(f"key 'bias_coeffs' has {count} values, "
                                      f"bias_order {self.bias_order} needs {needed}")


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
    params = {}
    if kind in ("noise", "noise_bias"):
        params["noise_std"] = float(rng.uniform(*NOISE_STD_RANGE))
    if kind in ("bias", "noise_bias"):
        params["bias_coeffs"] = rng.uniform(*BIAS_COEFF_RANGE,
                                            size=_num_bias_coeffs(BIAS_ORDER))
    if kind == "ghosting":
        params["ghost_count"] = int(rng.integers(GHOST_COUNT_RANGE[0],
                                                 GHOST_COUNT_RANGE[1] + 1))
        params["ghost_axis"] = "row" if rng.integers(2) == 0 else "col"
        params["ghost_intensity"] = float(rng.uniform(*GHOST_INTENSITY_RANGE))
    return ArtifactSpec(kind=kind, seed=seed, **params)


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
    if len(coeffs) != expected:
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
    field = bias_field(vol.shape, spec.bias_order, spec.bias_coeffs)
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
    return add_noise(apply_bias_field(vol, spec), spec)


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
    lines = [f"{key}={_text(getattr(spec, key))}"
             for key in ("kind", "seed") + KIND_KEYS[spec.kind]]
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def read_sidecar(path) -> ArtifactSpec:
    """Parse a sidecar written by :func:`write_sidecar`: ``kind``, ``seed``
    and every key the kind records are required, other keys are ignored.

    Raises DataFormatError naming the file, and the key or the line.
    """
    entries = read_key_values(path, DataFormatError)
    fields = {}
    kind = entries.get("kind", (0, ""))[1]
    for key in ("kind", "seed") + KIND_KEYS.get(kind, ()):
        if key not in entries:
            raise DataFormatError(f"{path}: missing key '{key}'")
        number, text = entries[key]
        parse, _, expected = _FIELDS[key]
        try:
            fields[key] = parse(text)
        except ValueError:
            raise DataFormatError(f"{path}, line {number}: key '{key}' has "
                                  f"invalid value {text!r}, expected "
                                  f"{expected}") from None
    try:
        return ArtifactSpec(**fields)
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
