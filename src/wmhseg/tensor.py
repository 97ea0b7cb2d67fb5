"""Dense tensors with reverse-mode automatic differentiation.

Only the operations the segmentation network needs are provided: elementwise
arithmetic, matmul, conv2d, softmax, layer norm, GELU, sigmoid, bilinear
resize, concatenation, reshaping and reductions. Each differentiable op
attaches a backward closure; ``Tensor.backward`` replays them in reverse
topological order.

The graph holds no data. Its vertices are ``_Node``s (gradient, parent
nodes, backward closure, dtype), one per tensor, and a tensor's array is
reachable only from the tensor itself and from the closures that read it.
Each closure keeps exactly the arrays its gradient formula reads: ``mul``
and ``div`` the operands read by the gradients they take, ``matmul`` each
operand only for the other's gradient, ``conv2d`` the input (its padded
copy on the im2col path) only for the weight gradient and the weight only
for the input gradient, ``gelu`` its input and Phi, ``clip`` and ``log``
their input, ``exp``, ``sigmoid`` and ``softmax`` their output,
``layer_norm`` the normalized input, the inverse deviation and gamma; the
shape ops, ``add``, ``sub``, ``neg``, the reductions, ``resize_bilinear``
and ``concat`` keep none. So an op output that no backward reads dies in
the forward pass once its consumers have run, and ``Tensor.backward``
frees the arrays a closure kept as soon as that closure has run.

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
import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.special import erf as _erf, expit as _expit

from .errors import NumericsError, ShapeError, UsageError

DEFAULT_DTYPE = np.float32

_grad_enabled = True
_flop_counters: list["FlopCounter"] = []
_flop_lock = threading.Lock()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode).

    The flag is process-wide: it applies to every thread. A thread that
    runs a pool of workers enters the block once around the pool, and the
    workers never enter it themselves.
    """
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class FlopCounter:
    """Counts floating-point operations executed by matmul/conv2d.

    Use as a context manager; nested counters all observe the same ops, on
    every thread, and counts from concurrent ops are exact.
    """

    def __init__(self):
        self.flops = 0

    def __enter__(self):
        with _flop_lock:
            _flop_counters.append(self)
        return self

    def __exit__(self, *exc):
        with _flop_lock:
            _flop_counters.remove(self)
        return False


def _count_flops(n: int) -> None:
    with _flop_lock:
        for c in _flop_counters:
            c.flops += n


def _check_finite(data: np.ndarray, op: str) -> None:
    # single-pass reduction: NaN/Inf in any element poisons the sum
    if not math.isfinite(float(data.sum())):
        if not np.isfinite(data).all():
            raise NumericsError(f"non-finite values produced by '{op}'")


class _Node:
    """One vertex of the autograd graph; it holds no array but the gradient.

    ``backward`` reads this node's ``grad`` and adds into the parents'
    nodes; it is None for leaves and once the node has been consumed.
    """

    __slots__ = ("grad", "parents", "backward", "dtype")

    def __init__(self, dtype):
        self.grad: Optional[np.ndarray] = None
        self.parents: tuple[_Node, ...] = ()
        self.backward: Optional[Callable[[], None]] = None
        self.dtype = dtype

    def accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        # ``owned`` marks arrays this node may keep (and later add into)
        # without copying: fresh temporaries or views of already-consumed
        # gradients. Pass-through gradients must be copied to avoid aliasing
        # two live accumulators. A leaf keeps its gradient C-ordered, for
        # the optimizer's elementwise passes.
        if self.grad is not None:
            self.grad += g
        elif owned and isinstance(g, np.ndarray) and g.dtype == self.dtype \
                and g.flags.writeable \
                and (self.backward is not None or g.flags.c_contiguous):
            self.grad = g
        else:
            self.grad = np.array(g, dtype=self.dtype,
                                 order="K" if self.backward is not None else "C")


class Tensor:
    """N-dimensional array with optional gradient tracking.

    ``grad`` and ``_backward`` live on the tensor's graph node and can be
    set through the tensor.
    """

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        # float32/float64 numpy inputs keep their precision; anything else
        # becomes float32 unless a dtype is requested explicitly
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self._node = _Node(arr.dtype)

    # ---- bookkeeping ----------------------------------------------------

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._node.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self._node.grad = value

    @property
    def _backward(self) -> Optional[Callable[[], None]]:
        return self._node.backward

    @_backward.setter
    def _backward(self, fn: Optional[Callable[[], None]]) -> None:
        self._node.backward = fn

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"

    # ---- backward -------------------------------------------------------

    def backward(self, seed: Optional[np.ndarray] = None) -> None:
        """Accumulate gradients of self w.r.t. every tracked ancestor.

        ``seed`` may be omitted only for scalar outputs (implied seed 1).
        The nodes run in reverse topological order, and each one drops its
        closure and its parents right after its turn: the arrays that the
        closure kept are freed as the pass moves toward the inputs, and an
        intermediate gradient as soon as it is consumed. Only leaf
        gradients survive.
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
        self._node.accumulate(seed)
        # the nodes reachable from self, in forward topological order
        nodes: list[_Node] = []
        visited: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._node, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                nodes.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        for node in reversed(nodes):
            if node.backward is not None and node.grad is not None:
                node.backward()
            if node.parents:
                node.grad = None  # consumed; only leaf grads survive
            node.backward = None
            node.parents = ()

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
                       lambda a, b, g: g * b, lambda a, b, g: g * a,
                       reads=("b", "a"))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary(self, other, np.divide, "div",
                       lambda a, b, g: g / b,
                       lambda a, b, g: -g * a / (b * b), reads=("b", "ab"))

    def __rtruediv__(self, other):
        return _as_tensor(other, self.dtype) / self

    def __neg__(self):
        return _unary(self, lambda a: -a, "neg", lambda kept, g: -g)

    def __matmul__(self, other):
        return matmul(self, other)

    # ---- shape ops ------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        old = self.data.shape
        out = _make(np.ascontiguousarray(self.data).reshape(shape), (self,),
                    "reshape", check=False)
        if out.requires_grad:
            node, nx = out._node, self._node

            def backward():
                nx.accumulate(node.grad.reshape(old), owned=True)
            node.backward = backward
        return out

    def transpose(self, *axes) -> "Tensor":
        inv = tuple(np.argsort(axes))
        out = _make(self.data.transpose(axes), (self,), "transpose", check=False)
        if out.requires_grad:
            node, nx = out._node, self._node

            def backward():
                nx.accumulate(node.grad.transpose(inv), owned=True)
            node.backward = backward
        return out

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, scale=False)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, scale=True)


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
    out._node = _Node(data.dtype)
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._node.parents = tuple(p._node for p in parents)
    return out


def _grad_node(t: Tensor) -> Optional[_Node]:
    """The node a backward closure adds t's gradient into, or None."""
    return t._node if t.requires_grad else None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(a, b, fn, op, grad_a, grad_b, reads=("", "")) -> Tensor:
    """``grad_a``/``grad_b`` map (a, b, g) to each operand's gradient and
    read the operands named in ``reads[0]``/``reads[1]``. The closure keeps
    an operand only if a gradient it takes reads it; otherwise it is None."""
    a = _as_tensor(a, getattr(b, "dtype", DEFAULT_DTYPE))
    b = _as_tensor(b, a.dtype)
    try:
        data = fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from exc
    out = _make(data, (a, b), op)
    if out.requires_grad:
        node, na, nb = out._node, _grad_node(a), _grad_node(b)
        taken = (reads[0] if na is not None else "") \
            + (reads[1] if nb is not None else "")
        ad = a.data if "a" in taken else None
        bd = b.data if "b" in taken else None
        ashape, bshape = a.shape, b.shape

        def backward():
            g = node.grad
            if na is not None:
                res = _unbroadcast(grad_a(ad, bd, g), ashape)
                na.accumulate(res, owned=res is not g)
            if nb is not None:
                res = _unbroadcast(grad_b(ad, bd, g), bshape)
                nb.accumulate(res, owned=res is not g)
        node.backward = backward
    return out


def _unary(x: Tensor, fn, op, grad_fn, reads: Optional[str] = None) -> Tensor:
    """``grad_fn`` maps (kept, g) to the input gradient, where the closure
    keeps the input if it ``reads="input"``, the output if ``"output"``,
    and nothing (None) otherwise."""
    data = fn(x.data)
    out = _make(data, (x,), op)
    if out.requires_grad:
        node, nx = out._node, x._node
        kept = x.data if reads == "input" else data if reads == "output" else None

        def backward():
            g = node.grad
            res = grad_fn(kept, g)
            nx.accumulate(res, owned=res is not g)
        node.backward = backward
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
        node, nx, shape = out._node, x._node, x.shape

        def backward():
            g = node.grad
            if not keepdims:
                g = np.expand_dims(g, axes)
            g = np.broadcast_to(g, shape)
            if scale:
                nx.accumulate(g / count, owned=True)
            else:
                nx.accumulate(g)
        node.backward = backward
    return out


# ---- elementwise functions -----------------------------------------------


def exp(x: Tensor) -> Tensor:
    return _unary(x, np.exp, "exp", lambda y, g: g * y, reads="output")


def log(x: Tensor) -> Tensor:
    return _unary(x, np.log, "log", lambda a, g: g / a, reads="input")


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes where lo <= x <= hi."""
    return _unary(x, lambda a: np.clip(a, lo, hi), "clip",
                  lambda a, g: g * ((a >= lo) & (a <= hi)), reads="input")


def sigmoid(x: Tensor) -> Tensor:
    return _unary(x, _expit, "sigmoid", lambda y, g: g * y * (1.0 - y),
                  reads="output")


# float32 erf(t) ~ t*P(t^2)/Q(t^2) on t clamped to [-4, 4], beyond which
# erf rounds to +-1 in float32 (Eigen's generic_fast_erf_float coefficients,
# highest power first); max abs error 4.4e-7 against the float64 erf
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)
# elements per pass, sized so that each of Phi's ~30 numpy calls per block
# does enough work for two pool threads not to serialize on the GIL
_ERF_BLOCK = 1 << 17


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
    # without a graph nothing reads cdf again, so the product overwrites it
    graph = _grad_enabled and x.requires_grad
    out = _make(np.multiply(x.data, cdf, out=None if graph else cdf), (x,), "gelu")
    if out.requires_grad:
        node, nx, a = out._node, x._node, x.data

        def backward():
            pdf = np.exp(-0.5 * a * a) * inv_sqrt2pi
            gx = node.grad * (cdf + a * pdf)
            # flush subnormals: they make every later matmul on them slow
            gx[np.abs(gx) < np.finfo(gx.dtype).tiny] = 0.0
            nx.accumulate(gx, owned=True)
        node.backward = backward
    return out


# ---- matmul ----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Batched matrix product [..,M,K] x [..,K,P] -> [..,M,P].

    ``bias`` [M], if given, is added in place to every column of the
    product, so ``matmul(a, b, bias)`` equals ``matmul(a, b) +
    bias.reshape(-1, 1)`` bit for bit, gradients included, without keeping
    the product before the add. Its gradient sums the leading axes one at a
    time, then the columns, as that composition's backward does.
    """
    a = _as_tensor(a, DEFAULT_DTYPE)
    b = _as_tensor(b, a.dtype)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires >=2D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    m = a.shape[-2]
    if bias is not None and bias.shape != (m,):
        raise ShapeError(f"matmul bias must have shape ({m},), got {bias.shape}")
    data = np.matmul(a.data, b.data)
    _count_flops(2 * data.shape[-2] * data.shape[-1] * a.shape[-1]
                 * int(np.prod(data.shape[:-2], dtype=np.int64)))
    if bias is not None:
        data += bias.data[:, None]
    out = _make(data, (a, b) if bias is None else (a, b, bias), "matmul")
    if out.requires_grad:
        node, na, nb = out._node, _grad_node(a), _grad_node(b)
        nbias = None if bias is None else _grad_node(bias)
        # each operand is kept only for the other's gradient
        ad = a.data if nb is not None else None
        bd = b.data if na is not None else None
        ashape, bshape = a.shape, b.shape

        def backward():
            g = node.grad
            if nbias is not None:
                gb = _unbroadcast(g, (m, 1))
                nbias.accumulate(gb.reshape(m), owned=gb is not g)
            if na is not None:
                ga = np.matmul(g, np.swapaxes(bd, -1, -2))
                na.accumulate(_unbroadcast(ga, ashape), owned=True)
            if nb is not None:
                gb = np.matmul(np.swapaxes(ad, -1, -2), g)
                nb.accumulate(_unbroadcast(gb, bshape), owned=True)
        node.backward = backward
    return out


# ---- conv2d ----------------------------------------------------------------


# padded input elements per channel block of the depthwise forward: the
# block's padded copy and partial sums stay near 0.5 MB each in float32
_DW_BLOCK = 1 << 17


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


def _tiles(a: np.ndarray, n: int, step: int, rows: int, width: int) -> np.ndarray:
    """[B,C,n,rows,width] view of a [B,C,H,W] array: element (q, y, m) of a
    channel is a[y, q*step + m]. The caller keeps it in bounds."""
    sb, sc, sh, sw = a.strides
    return np.lib.stride_tricks.as_strided(
        a, (a.shape[0], a.shape[1], n, rows, width), (sb, sc, step * sw, sh, sw))


def _depthwise(x: np.ndarray, w: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Stride-1 depthwise cross-correlation of x [B,C,H,W] with w [C,kh,kw]
    under zero padding (ph, pw), ph < kh and pw < kw.

    Output tile q holds columns q*t .. q*t+t-1 (t the largest divisor of
    Wout up to 16) and reads the t+kw-1 padded input columns from q*t;
    kernel row i of channel c is one banded matrix, band[i, c, o + j, o] =
    w[c, i, j], shared by every tile, so the conv is kh batched matmuls.
    The input is padded 0.5 MB of channels at a time.
    """
    b, c, h, wd = x.shape
    kh, kw = w.shape[1:]
    hout, wout = h + 2 * ph - kh + 1, wd + 2 * pw - kw + 1
    t = max(d for d in range(1, min(wout, 16) + 1) if wout % d == 0)
    nt, tw = wout // t, t + kw - 1
    band = np.zeros((kh, c, tw, t), dtype=x.dtype)
    o = np.arange(t)
    for j in range(kw):
        band[:, :, o + j, o] = w[:, :, j].T[:, :, None]
    out = np.empty((b, c, hout, wout), dtype=x.dtype)
    pads = ((0, 0), (0, 0), (ph, ph), (pw, pw))
    block = max(1, _DW_BLOCK // (b * (h + 2 * ph) * (wd + 2 * pw)))
    for c0 in range(0, c, block):
        cs = slice(c0, c0 + block)
        xb = np.pad(x[:, cs], pads) if (ph or pw) else x[:, cs]
        acc = _tiles(out[:, cs], nt, t, hout, t)
        np.matmul(_tiles(xb, nt, t, hout, tw), band[0, cs, None], out=acc)
        part = np.empty_like(acc) if kh > 1 else None
        for i in range(1, kh):
            np.matmul(_tiles(xb[:, :, i:], nt, t, hout, tw), band[i, cs, None],
                      out=part)
            acc += part
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride=1, padding=0, groups: int = 1) -> Tensor:
    """2D cross-correlation with zero padding and optional channel groups.

    x: [B,Cin,H,W], weight: [Cout,Cin/groups,kh,kw], bias: [Cout] or None.
    Only stride-1 convs with padding < kernel take a fast path: depthwise
    ones (groups == Cin == Cout) are the tiled banded matmuls of
    ``_depthwise``, and dense ones (groups == 1, 1x1 included) are kh*kw
    GEMMs over shifted slices of the flattened padded input, with no im2col
    buffer. Everything else (strided, other groups, padding >= kernel) is
    im2col + matmul. FlopCounter records the logical
    2*B*Cout*(Cin/groups)*kh*kw*Hout*Wout in every case.

    Backward: a stride-1 conv's input gradient is the correlation of the
    output gradient, padded by k-1-p, with the flipped kernel. Depthwise
    convs run ``_depthwise`` on it and take the weight gradient from one
    einsum per tap; dense ones take both gradients from one im2col of the
    padded output gradient; the rest recompute the input columns and
    scatter the input gradient back with col2im. The backward closure keeps
    the input only for the weight gradient (the im2col convs keep its
    padded copy instead) and the weight only for the input gradient; no
    im2col buffer outlives the forward pass.
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

    fast = sh == sw == 1 and ph < kh and pw < kw
    depthwise = fast and cg == 1 and cout == cin == groups
    transposed = fast and groups == 1 and not depthwise
    im2col = not (depthwise or transposed)
    # one spare zero row below the padded input keeps the last tap's
    # flattened slice in bounds on the shifted-GEMM path
    spare = 1 if transposed and kw > 1 else 0
    pads = ((0, 0), (0, 0), (ph, ph + spare), (pw, pw))
    # depthwise convs pad a block of channels at a time, so a padded copy of
    # the whole input is never kept
    xp = None if depthwise else np.pad(x.data, pads) if (ph or pw or spare) else x.data

    if depthwise:
        data = _depthwise(x.data, weight.data[:, 0], ph, pw)
    elif transposed:
        # tap (i, j) is one GEMM of its weights with the flattened padded
        # input shifted by i*Wp + j: output pixel (y, x) lands in column
        # y*Wp + x, and the Wp - Wout columns that wrap into the next row
        # are dropped at the end
        wp = xp.shape[3]
        n = hout * wp
        xf = xp.reshape(b, cin, -1)
        taps = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))
        wide = np.matmul(taps[0, 0], xf[:, :, :n])
        part = np.empty_like(wide) if kh * kw > 1 else None
        for i in range(kh):
            for j in range(kw):
                if i or j:
                    off = i * wp + j
                    np.matmul(taps[i, j], xf[:, :, off:off + n], out=part)
                    wide += part
        data = np.ascontiguousarray(wide.reshape(b, cout, hout, wp)[..., :wout])
    else:
        cols = _im2col(xp, kh, kw, sh, sw, hout, wout) \
            .reshape(b, groups, cg * kh * kw, hout * wout)
        wg = weight.data.reshape(groups, cout // groups, cg * kh * kw)
        data = np.matmul(wg[None], cols).reshape(b, cout, hout, wout)
    if bias is not None:
        data += bias.data[None, :, None, None]

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(data, parents, "conv2d")
    if out.requires_grad:
        node, nx, nw = out._node, _grad_node(x), _grad_node(weight)
        nb = None if bias is None else _grad_node(bias)
        xd = x.data if nw is not None and not im2col else None
        xp = xp if nw is not None and im2col else None
        wd = weight.data if nx is not None else None
        xshape, wshape = x.shape, weight.shape

        def backward():
            g = node.grad
            if nb is not None:
                nb.accumulate(g.sum(axis=(0, 2, 3)), owned=True)
            if depthwise:
                if nw is not None:
                    xpd = np.pad(xd, pads) if (ph or pw) else xd
                    dw = np.empty(wshape, dtype=nw.dtype)
                    for i in range(kh):
                        for j in range(kw):
                            win = xpd[:, :, i:i + hout, j:j + wout]
                            dw[:, 0, i, j] = np.einsum("bchw,bchw->c", g, win)
                    nw.accumulate(dw, owned=True)
                if nx is not None:
                    nx.accumulate(_depthwise(g, wd[:, 0, ::-1, ::-1],
                                             kh - 1 - ph, kw - 1 - pw), owned=True)
            elif transposed:
                # gcols[b, (o,i,j), (y,x)] = g[b, o, y+i-qh, x+j-qw], g padded
                # by q = k-1-p: the input gradient correlates it with the
                # flipped, channel-swapped kernel, and gcols . x^T holds the
                # weight gradient with its taps flipped
                qh, qw = kh - 1 - ph, kw - 1 - pw
                gp = np.pad(g, ((0, 0), (0, 0), (qh, qh), (qw, qw))) \
                    if (qh or qw) else g
                gcols = _im2col(gp, kh, kw, 1, 1, h, w) \
                    .reshape(b, cout * kh * kw, h * w)
                if nw is not None:
                    xs = xd.reshape(b, cin, h * w)
                    dw = np.matmul(gcols, xs.swapaxes(-1, -2)).sum(axis=0)
                    dw = dw.reshape(cout, kh, kw, cin)[:, ::-1, ::-1] \
                        .transpose(0, 3, 1, 2)
                    nw.accumulate(np.ascontiguousarray(dw), owned=True)
                if nx is not None:
                    wt = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3) \
                        .reshape(cin, cout * kh * kw)
                    dx = np.matmul(wt[None], gcols).reshape(xshape)
                    nx.accumulate(dx, owned=True)
            else:
                gg = g.reshape(b, groups, cout // groups, hout * wout)
                if nw is not None:
                    cols = _im2col(xp, kh, kw, sh, sw, hout, wout) \
                        .reshape(b, groups, cg * kh * kw, hout * wout)
                    dw = np.matmul(gg, np.swapaxes(cols, -1, -2)).sum(axis=0)
                    nw.accumulate(dw.reshape(wshape), owned=True)
                if nx is not None:
                    wg = wd.reshape(groups, cout // groups, cg * kh * kw)
                    dcols = np.matmul(np.swapaxes(wg, -1, -2)[None], gg)
                    dcols = dcols.reshape(b, cin, kh, kw, hout, wout)
                    dxp = np.zeros((b, cin, h + 2 * ph, w + 2 * pw), dtype=nx.dtype)
                    for i in range(kh):
                        for j in range(kw):
                            dxp[:, :, i:i + sh * hout:sh, j:j + sw * wout:sw] += \
                                dcols[:, :, i, j]
                    nx.accumulate(dxp[:, :, ph:ph + h, pw:pw + w]
                                  if (ph or pw) else dxp, owned=True)
        node.backward = backward
    return out




# ---- softmax / layer norm ---------------------------------------------------


def softmax(x: Tensor, axis: int = -1, scale: Optional[float] = None) -> Tensor:
    """Shift-stable softmax along ``axis`` of ``x * scale``.

    The scale is one multiply in the input's dtype, forward and backward,
    so the result and gradient equal ``softmax(x * scale)`` bit for bit;
    the scaled copy becomes the output instead of staying in the graph.
    """
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of bounds for shape {x.shape}")
    s = None if scale is None else np.asarray(scale, dtype=x.dtype)
    data = x.data if s is None else x.data * s
    data = np.subtract(data, data.max(axis=axis, keepdims=True),
                       out=None if s is None else data)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)
    out = _make(data, (x,), "softmax")
    if out.requires_grad:
        node, nx = out._node, x._node

        def backward():
            g = node.grad
            dot = (g * data).sum(axis=axis, keepdims=True)
            gx = data * (g - dot)
            if s is not None:
                gx *= s
            nx.accumulate(gx, owned=True)
        node.backward = backward
    return out


LN_EPS = 1e-5  # added to the variance before the square root


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, axis: int = -1) -> Tensor:
    """Normalize ``axis`` to zero mean / unit variance, then affine.

    gamma and beta have one entry per position along ``axis`` and broadcast
    over the other axes.
    """
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"layer_norm axis {axis} out of bounds for shape {x.shape}")
    axis %= x.ndim
    c = x.shape[axis]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},), got "
                         f"{gamma.shape}/{beta.shape}")
    affine = (c,) + (1,) * (x.ndim - 1 - axis)
    gam = gamma.data.reshape(affine)
    mu = x.data.mean(axis=axis, keepdims=True)
    xhat = x.data - mu
    var = (xhat * xhat).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(LN_EPS, dtype=x.dtype))
    xhat *= inv
    data = xhat * gam
    data += beta.data.reshape(affine)
    out = _make(data, (x, gamma, beta), "layer_norm")
    if out.requires_grad:
        node, nx, ngamma, nbeta = (out._node, _grad_node(x), _grad_node(gamma),
                                   _grad_node(beta))

        def backward():
            g = node.grad
            rest = tuple(i for i in range(g.ndim) if i != axis)
            if nbeta is not None:
                nbeta.accumulate(g.sum(axis=rest), owned=True)
            if ngamma is not None:
                ngamma.accumulate((g * xhat).sum(axis=rest), owned=True)
            if nx is not None:
                dxhat = g * gam
                m1 = dxhat.mean(axis=axis, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=axis, keepdims=True)
                dx = dxhat - m1
                dx -= xhat * m2
                dx *= inv
                nx.accumulate(dx, owned=True)
        node.backward = backward
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
    wy = _resize_matrix(h, out_h, x.dtype)
    wx = _resize_matrix(w, out_w, x.dtype)
    data = np.matmul(np.matmul(wy, x.data), wx.T)
    out = _make(data, (x,), "resize_bilinear", check=False)
    if out.requires_grad:
        node, nx = out._node, x._node

        def backward():
            nx.accumulate(np.matmul(np.matmul(wy.T, node.grad), wx), owned=True)
        node.backward = backward
    return out


# ---- concat -----------------------------------------------------------------


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    data = np.concatenate([t.data for t in ts], axis=axis)
    out = _make(data, tuple(ts), "concat", check=False)
    if out.requires_grad:
        node, nodes = out._node, [_grad_node(t) for t in ts]
        offsets = np.cumsum([0] + [t.shape[axis] for t in ts])

        def backward():
            g = node.grad
            idx: list = [slice(None)] * g.ndim
            for nt, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
                if nt is not None:
                    idx[axis] = slice(lo, hi)
                    nt.accumulate(g[tuple(idx)], owned=True)
        node.backward = backward
    return out
