"""Dense tensors with reverse-mode automatic differentiation.

Only the operations the segmentation network needs are provided: elementwise
arithmetic, matmul, conv2d, softmax, layer norm, GELU, sigmoid, bilinear
resize, concatenation, reshaping and reductions. Each differentiable op
attaches a backward closure; ``Tensor.backward`` replays them in reverse
topological order via a ``GradTape``.

Conventions:
  * default dtype is float32; pass ``dtype=np.float64`` for gradient checking
  * convolution is cross-correlation (no kernel flip)
  * every public op raises ``NumericsError`` if it produces NaN/Inf

Tensors are immutable once produced by an op except for gradient
accumulation, which is single-writer. Sharing read-only across threads is
safe; concurrent mutation is not.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import NumericsError, ShapeError, UsageError

DEFAULT_DTYPE = np.float32

_grad_enabled = True
_flop_counters: list["FlopCounter"] = []


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class FlopCounter:
    """Counts floating-point operations executed by matmul/conv2d.

    Use as a context manager; nested counters all observe the same ops.
    """

    def __init__(self):
        self.flops = 0

    def __enter__(self):
        _flop_counters.append(self)
        return self

    def __exit__(self, *exc):
        _flop_counters.remove(self)
        return False


def _count_flops(n: int) -> None:
    for c in _flop_counters:
        c.flops += n


def _check_finite(data: np.ndarray, op: str) -> None:
    # single-pass reduction: NaN/Inf in any element poisons the sum
    if not math.isfinite(float(data.sum())):
        if not np.isfinite(data).all():
            raise NumericsError(f"non-finite values produced by '{op}'")


class Tensor:
    """N-dimensional array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        # float32/float64 numpy inputs keep their precision; anything else
        # becomes float32 unless a dtype is requested explicitly
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[], None]] = None
        self._op = "leaf"

    # ---- bookkeeping ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise UsageError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        # ``owned`` marks arrays this tensor may keep (and later add into)
        # without copying: fresh temporaries or views of already-consumed
        # gradients. Pass-through gradients must be copied to avoid aliasing
        # two live accumulators.
        if self.grad is None:
            if owned and isinstance(g, np.ndarray) and g.dtype == self.data.dtype \
                    and g.flags.writeable:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={self._op})"

    # ---- backward -------------------------------------------------------

    def backward(self, seed: Optional[np.ndarray] = None) -> None:
        """Accumulate gradients of self w.r.t. every tracked ancestor.

        ``seed`` may be omitted only for scalar outputs (implied seed 1).
        The graph is released afterwards; intermediate gradients are dropped
        as soon as they are consumed and only leaf gradients survive.
        """
        if seed is None:
            if self.size != 1:
                raise UsageError(
                    "backward() on non-scalar output requires an explicit seed gradient"
                )
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=self.data.dtype)
            if seed.shape != self.shape:
                raise ShapeError(f"seed shape {seed.shape} != output shape {self.shape}")
        self._accumulate(seed)
        tape = GradTape.from_output(self)
        tape.replay()
        for node in tape.nodes:
            node._backward = None
            node._parents = ()

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return _binary(self, other, np.add, "add",
                       lambda a, b, g: g, lambda a, b, g: g)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, other, np.subtract, "sub",
                       lambda a, b, g: g, lambda a, b, g: -g)

    def __rsub__(self, other):
        return _as_tensor(other, self.dtype) - self

    def __mul__(self, other):
        return _binary(self, other, np.multiply, "mul",
                       lambda a, b, g: g * b, lambda a, b, g: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary(self, other, np.divide, "div",
                       lambda a, b, g: g / b,
                       lambda a, b, g: -g * a / (b * b))

    def __rtruediv__(self, other):
        return _as_tensor(other, self.dtype) / self

    def __neg__(self):
        return _unary(self, lambda a: -a, "neg", lambda a, y, g: -g)

    def __matmul__(self, other):
        return matmul(self, other)

    # ---- shape ops ------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        out = _make(np.ascontiguousarray(self.data).reshape(shape), (self,),
                    "reshape", check=False)
        if out.requires_grad:
            def backward():
                self._accumulate(out.grad.reshape(old), owned=True)
            out._backward = backward
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = tuple(np.argsort(axes))
        out = _make(self.data.transpose(axes), (self,), "transpose", check=False)
        if out.requires_grad:
            def backward():
                self._accumulate(out.grad.transpose(inv), owned=True)
            out._backward = backward
        return out

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, scale=False)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, scale=True)


class GradTape:
    """Ordered record of the differentiable ops reachable from one output.

    ``nodes`` is in forward topological order; ``replay`` visits each node
    exactly once in reverse, invoking its backward closure.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def from_output(cls, out: Tensor) -> "GradTape":
        nodes: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(out, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                nodes.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return cls(nodes)

    def replay(self) -> None:
        for node in reversed(self.nodes):
            if node._backward is not None and node.grad is not None:
                node._backward()
                if node._parents:
                    node.grad = None  # consumed; only leaf grads survive


# ---- op construction helpers -------------------------------------------


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents: Sequence[Tensor], op: str,
          check: bool = True) -> Tensor:
    if check:
        _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward = None
    out._op = op
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
    else:
        out.requires_grad = False
        out._parents = ()
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(a, b, fn, op, grad_a, grad_b) -> Tensor:
    a = _as_tensor(a, getattr(b, "dtype", DEFAULT_DTYPE))
    b = _as_tensor(b, a.dtype)
    try:
        data = fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from exc
    out = _make(data, (a, b), op)
    if out.requires_grad:
        def backward():
            g = out.grad
            if a.requires_grad:
                res = _unbroadcast(grad_a(a.data, b.data, g), a.shape)
                a._accumulate(res, owned=res is not g)
            if b.requires_grad:
                res = _unbroadcast(grad_b(a.data, b.data, g), b.shape)
                b._accumulate(res, owned=res is not g)
        out._backward = backward
    return out


def _unary(x: Tensor, fn, op, grad_fn) -> Tensor:
    data = fn(x.data)
    out = _make(data, (x,), op)
    if out.requires_grad:
        def backward():
            res = grad_fn(x.data, data, out.grad)
            x._accumulate(res, owned=res is not out.grad)
        out._backward = backward
    return out


def _reduce(x: Tensor, axis, keepdims: bool, scale: bool) -> Tensor:
    data = x.data.mean(axis=axis, keepdims=keepdims) if scale \
        else x.data.sum(axis=axis, keepdims=keepdims)
    data = np.asarray(data, dtype=x.dtype)
    out = _make(data, (x,), "mean" if scale else "sum")
    if out.requires_grad:
        axes = tuple(range(x.ndim)) if axis is None else (
            (axis,) if isinstance(axis, int) else tuple(axis))
        axes = tuple(a % x.ndim for a in axes)
        count = 1
        for a in axes:
            count *= x.shape[a]

        def backward():
            g = out.grad
            if not keepdims:
                g = np.expand_dims(g, axes)
            g = np.broadcast_to(g, x.shape)
            if scale:
                x._accumulate(g / count, owned=True)
            else:
                x._accumulate(g)
        out._backward = backward
    return out


# ---- elementwise functions -----------------------------------------------


def exp(x: Tensor) -> Tensor:
    return _unary(x, np.exp, "exp", lambda a, y, g: g * y)


def log(x: Tensor) -> Tensor:
    return _unary(x, np.log, "log", lambda a, y, g: g / a)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes where lo <= x <= hi."""
    return _unary(x, lambda a: np.clip(a, lo, hi), "clip",
                  lambda a, y, g: g * ((a >= lo) & (a <= hi)))


def sigmoid(x: Tensor) -> Tensor:
    def fn(a):
        out = np.empty_like(a)
        pos = a >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
        e = np.exp(a[~pos])
        out[~pos] = e / (1.0 + e)
        return out
    return _unary(x, fn, "sigmoid", lambda a, y, g: g * y * (1.0 - y))


# float32 erf(t) ~ t*P(t^2)/Q(t^2) on t clamped to [-4, 4], beyond which
# erf rounds to +-1 in float32 (Eigen's generic_fast_erf_float coefficients,
# highest power first); max abs error 4.4e-7 against the float64 erf
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)
_ERF_BLOCK = 1 << 15  # elements per pass: the temporaries stay in L1/L2


def _normal_cdf32(a: np.ndarray) -> np.ndarray:
    """Phi(a) = 0.5 * (1 + erf(a / sqrt 2)) for float32 ``a``, in blocks."""
    cdf = np.empty(a.shape, dtype=np.float32)
    af, cf = a.reshape(-1), cdf.reshape(-1)
    m = min(_ERF_BLOCK, af.size)
    s_buf, p_buf, q_buf = (np.empty(m, dtype=np.float32) for _ in range(3))
    for lo in range(0, af.size, _ERF_BLOCK):
        t = cf[lo:lo + _ERF_BLOCK]
        s, p, q = s_buf[:t.size], p_buf[:t.size], q_buf[:t.size]
        np.multiply(af[lo:lo + _ERF_BLOCK], 1.0 / math.sqrt(2.0), out=t)
        np.clip(t, -4.0, 4.0, out=t)
        np.multiply(t, t, out=s)
        np.multiply(s, _ERF_P[0], out=p)
        for c in _ERF_P[1:-1]:
            p += c
            p *= s
        p += _ERF_P[-1]
        p *= t
        np.multiply(s, _ERF_Q[0], out=q)
        for c in _ERF_Q[1:-1]:
            q += c
            q *= s
        q += _ERF_Q[-1]
        np.divide(p, q, out=t)
        np.clip(t, -1.0, 1.0, out=t)  # the ratio exceeds 1 by 2.4e-7 on 3.6-4
        t += 1.0
        t *= 0.5
    return cdf


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit x * Phi(x) in the erf form (not tanh).

    float32 takes erf from the rational approximation above (GELU within
    1.4e-6 of float64); float64 keeps the exact ``scipy.special.erf``.
    """
    inv_sqrt2pi = np.asarray(1.0 / math.sqrt(2.0 * math.pi), dtype=x.dtype)
    if x.dtype == np.float32:
        cdf = _normal_cdf32(x.data)
    else:
        cdf = x.data * (1.0 / math.sqrt(2.0))
        _erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
    out = _make(x.data * cdf, (x,), "gelu")
    if out.requires_grad:
        def backward():
            a = x.data
            pdf = np.exp(-0.5 * a * a) * inv_sqrt2pi
            gx = out.grad * (cdf + a * pdf)
            # flush subnormals: they make every later matmul on them slow
            gx[np.abs(gx) < np.finfo(gx.dtype).tiny] = 0.0
            x._accumulate(gx, owned=True)
        out._backward = backward
    return out


# ---- matmul ----------------------------------------------------------------


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # flatten leading batch dims into one GEMM when the right operand is 2D
    if b.ndim == 2 and a.ndim > 2 and a.flags.c_contiguous:
        lead = a.shape[:-1]
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(lead + (b.shape[-1],))
    return np.matmul(a, b)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product [..,M,K] x [..,K,P] -> [..,M,P]."""
    a = _as_tensor(a, DEFAULT_DTYPE)
    b = _as_tensor(b, a.dtype)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires >=2D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    data = _mm(a.data, b.data)
    _count_flops(2 * data.shape[-2] * data.shape[-1] * a.shape[-1]
                 * int(np.prod(data.shape[:-2], dtype=np.int64)))
    out = _make(data, (a, b), "matmul")
    if out.requires_grad:
        def backward():
            g = out.grad
            if a.requires_grad:
                ga = _mm(g, b.data.swapaxes(-1, -2)) if b.ndim == 2 \
                    else np.matmul(g, np.swapaxes(b.data, -1, -2))
                a._accumulate(_unbroadcast(ga, a.shape), owned=True)
            if b.requires_grad:
                if b.ndim == 2 and a.ndim > 2:
                    gb = a.data.reshape(-1, a.shape[-1]).T \
                        @ g.reshape(-1, g.shape[-1])
                else:
                    gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                b._accumulate(_unbroadcast(gb, b.shape), owned=True)
        out._backward = backward
    return out


# ---- conv2d ----------------------------------------------------------------


def _pair(v) -> tuple[int, int]:
    return (v, v) if isinstance(v, int) else (int(v[0]), int(v[1]))


def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            hout: int, wout: int) -> np.ndarray:
    b, c = xp.shape[:2]
    cols = np.empty((b, c, kh, kw, hout, wout), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * hout:sh, j:j + sw * wout:sw]
    return cols


# im2col buffers below this size are kept alive for the backward pass;
# larger ones are recomputed to bound graph memory
_CONV_CACHE_BYTES = 128 * 1024 * 1024


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride=1, padding=0, groups: int = 1) -> Tensor:
    """2D cross-correlation with zero padding and optional channel groups.

    x: [B,Cin,H,W], weight: [Cout,Cin/groups,kh,kw], bias: [Cout] or None.
    1x1 convs are one matmul; depthwise convs (groups == Cin == Cout) are kh
    batched matmuls of the input rows with banded [W+2p, Wout] matrices, one
    per kernel row and channel; all others are im2col + matmul. FlopCounter
    records the logical 2*B*Cout*(Cin/groups)*kh*kw*Hout*Wout in every case.
    """
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4D input/weight, got {x.shape}, {weight.shape}")
    b, cin, h, w = x.shape
    cout, cg, kh, kw = weight.shape
    if cin % groups != 0 or cout % groups != 0:
        raise ShapeError(f"channels ({cin}->{cout}) not divisible by groups={groups}")
    if cg * groups != cin:
        raise ShapeError(f"weight expects {cg * groups} input channels, input has {cin}")
    hout = (h + 2 * ph - kh) // sh + 1
    wout = (w + 2 * pw - kw) // sw + 1
    if hout < 1 or wout < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input "
                         f"{h + 2 * ph}x{w + 2 * pw}")
    _count_flops(2 * b * cout * cg * kh * kw * hout * wout)

    pointwise = kh == kw == 1 and sh == sw == 1 and ph == pw == 0 and groups == 1
    if pointwise:
        wm = weight.data.reshape(cout, cin)
        data = np.matmul(wm[None], x.data.reshape(b, cin, h * w)) \
            .reshape(b, cout, h, w)
        if bias is not None:
            data += bias.data[None, :, None, None]
        parents = (x, weight) if bias is None else (x, weight, bias)
        out = _make(data, parents, "conv2d")
        if out.requires_grad:
            def backward_pw():
                g = out.grad
                gg = g.reshape(b, cout, h * w)
                if bias is not None and bias.requires_grad:
                    bias._accumulate(g.sum(axis=(0, 2, 3)), owned=True)
                if weight.requires_grad:
                    dw = np.matmul(gg, x.data.reshape(b, cin, h * w)
                                   .swapaxes(-1, -2)).sum(axis=0)
                    weight._accumulate(dw.reshape(weight.shape), owned=True)
                if x.requires_grad:
                    dx = np.matmul(wm.T[None], gg).reshape(x.shape)
                    x._accumulate(dx, owned=True)
            out._backward = backward_pw
        return out

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data
    depthwise = cg == 1 and cout == cin == groups

    cols = None
    if depthwise:
        # kernel row i of channel c as a banded [W+2p, Wout] matrix,
        # band[i, c, o*sw + j, o] = w[c, i, j]: each output row is then kh
        # batched GEMMs of the strided padded input rows with the bands
        band = np.zeros((kh, cout, xp.shape[3], wout), dtype=x.dtype)
        o = np.arange(wout)
        for j in range(kw):
            band[:, :, o * sw + j, o] = weight.data[:, 0, :, j].T[:, :, None]
        data = np.matmul(xp[:, :, 0:sh * hout:sh], band[0])
        for i in range(1, kh):
            data += np.matmul(xp[:, :, i:i + sh * hout:sh], band[i])
    else:
        cols = _im2col(xp, kh, kw, sh, sw, hout, wout)
        cols = cols.reshape(b, groups, cg * kh * kw, hout * wout)
        wg = weight.data.reshape(groups, cout // groups, cg * kh * kw)
        data = np.matmul(wg[None], cols).reshape(b, cout, hout, wout)
    if bias is not None:
        data += bias.data[None, :, None, None]

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(data, parents, "conv2d")
    if out.requires_grad:
        keep_cols = cols if (cols is not None
                             and cols.nbytes <= _CONV_CACHE_BYTES) else None
        keep_xp = xp if (xp is not x.data and xp.nbytes <= _CONV_CACHE_BYTES) \
            else None

        def backward():
            g = out.grad
            if bias is not None and bias.requires_grad:
                bias._accumulate(g.sum(axis=(0, 2, 3)), owned=True)
            if keep_xp is not None:
                xpad = keep_xp
            else:
                xpad = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) \
                    if (ph or pw) else x.data
            if depthwise:
                if weight.requires_grad:
                    dw = np.empty_like(weight.data)
                    for i in range(kh):
                        for j in range(kw):
                            win = xpad[:, :, i:i + sh * hout:sh, j:j + sw * wout:sw]
                            dw[:, 0, i, j] = np.einsum("bchw,bchw->c", g, win)
                    weight._accumulate(dw, owned=True)
                if x.requires_grad:
                    dxp = np.zeros_like(xpad)
                    wd = weight.data
                    for i in range(kh):
                        for j in range(kw):
                            dxp[:, :, i:i + sh * hout:sh, j:j + sw * wout:sw] += \
                                wd[None, :, 0, i, j, None, None] * g
                    x._accumulate(dxp[:, :, ph:ph + h, pw:pw + w]
                                  if (ph or pw) else dxp, owned=True)
            else:
                gg = g.reshape(b, groups, cout // groups, hout * wout)
                if weight.requires_grad:
                    wcols = keep_cols
                    if wcols is None:
                        wcols = _im2col(xpad, kh, kw, sh, sw, hout, wout) \
                            .reshape(b, groups, cg * kh * kw, hout * wout)
                    dw = np.matmul(gg, np.swapaxes(wcols, -1, -2)).sum(axis=0)
                    weight._accumulate(dw.reshape(weight.shape), owned=True)
                if x.requires_grad and sh == sw == 1 and groups == 1 \
                        and ph < kh and pw < kw:
                    # transposed conv: correlate g, padded by k-1-p, with the
                    # flipped kernel whose in/out channels are swapped
                    qh, qw = kh - 1 - ph, kw - 1 - pw
                    gp = np.pad(g, ((0, 0), (0, 0), (qh, qh), (qw, qw))) \
                        if (qh or qw) else g
                    wt = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3) \
                        .reshape(cin, cout * kh * kw)
                    gcols = _im2col(gp, kh, kw, 1, 1, h, w) \
                        .reshape(b, cout * kh * kw, h * w)
                    dx = np.matmul(wt[None], gcols).reshape(x.shape)
                    x._accumulate(dx, owned=True)
                elif x.requires_grad:
                    wg = weight.data.reshape(groups, cout // groups, cg * kh * kw)
                    dcols = np.matmul(np.swapaxes(wg, -1, -2)[None], gg)
                    dcols = dcols.reshape(b, cin, kh, kw, hout, wout)
                    dxp = np.zeros_like(xpad)
                    for i in range(kh):
                        for j in range(kw):
                            dxp[:, :, i:i + sh * hout:sh, j:j + sw * wout:sw] += \
                                dcols[:, :, i, j]
                    x._accumulate(dxp[:, :, ph:ph + h, pw:pw + w]
                                  if (ph or pw) else dxp, owned=True)
        out._backward = backward
    return out


# ---- softmax / layer norm ---------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Shift-stable softmax along ``axis``."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of bounds for shape {x.shape}")
    data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)
    out = _make(data, (x,), "softmax")
    if out.requires_grad:
        def backward():
            g = out.grad
            dot = (g * data).sum(axis=axis, keepdims=True)
            x._accumulate(data * (g - dot), owned=True)
        out._backward = backward
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be > 0")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},), got "
                         f"{gamma.shape}/{beta.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = xc * inv
    data = gamma.data * xhat + beta.data
    out = _make(data, (x, gamma, beta), "layer_norm")
    if out.requires_grad:
        def backward():
            g = out.grad
            lead = tuple(range(g.ndim - 1))
            if beta.requires_grad:
                beta._accumulate(g.sum(axis=lead), owned=True)
            if gamma.requires_grad:
                gamma._accumulate((g * xhat).sum(axis=lead), owned=True)
            if x.requires_grad:
                dxhat = g * gamma.data
                m1 = dxhat.mean(axis=-1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
                x._accumulate((dxhat - m1 - xhat * m2) * inv, owned=True)
        out._backward = backward
    return out


# ---- bilinear resize --------------------------------------------------------


def _resize_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Interpolation matrix W [n_out, n_in], align-corners-false convention."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    i1 = np.minimum(i0 + 1, n_in - 1)
    w = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    np.add.at(w, (rows, i0), 1.0 - frac)
    np.add.at(w, (rows, i1), frac)
    return w.astype(dtype)


def resize_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resize of [B,C,H,W] maps (align-corners-false)."""
    if x.ndim != 4:
        raise ShapeError(f"resize_bilinear expects [B,C,H,W], got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError("output dims must be >= 1")
    _, _, h, w = x.shape
    if (out_h, out_w) == (h, w):
        wy = wx = None
        data = x.data.copy()
    else:
        wy = _resize_matrix(h, out_h, x.dtype)
        wx = _resize_matrix(w, out_w, x.dtype)
        data = np.matmul(np.matmul(wy, x.data), wx.T)
    out = _make(data, (x,), "resize_bilinear", check=False)
    if out.requires_grad:
        def backward():
            g = out.grad
            if wy is None:
                x._accumulate(g)
            else:
                x._accumulate(np.matmul(np.matmul(wy.T, g), wx), owned=True)
        out._backward = backward
    return out


# ---- concat -----------------------------------------------------------------


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise UsageError("concat of empty sequence")
    data = np.concatenate([t.data for t in ts], axis=axis)
    out = _make(data, tuple(ts), "concat", check=False)
    if out.requires_grad:
        sizes = [t.shape[axis] for t in ts]
        offsets = np.cumsum([0] + sizes)

        def backward():
            g = out.grad
            idx: list = [slice(None)] * g.ndim
            for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx[axis] = slice(lo, hi)
                    t._accumulate(g[tuple(idx)], owned=True)
        out._backward = backward
    return out
