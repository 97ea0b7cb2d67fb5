"""Per-layer tracing of wmhseg from outside the package.

``Tracer.install()`` replaces the public functions of each ``wmhseg`` module
with timed wrappers, in every module that holds a reference to them (names
imported with ``from ... import`` are copies, e.g. ``wmhseg.artifacts.fft2``
or ``wmhseg.training.model_forward``). ``uninstall()`` puts the originals
back. Nothing in ``src/`` is changed.

Tensor ops are timed as the outermost op only, so an op that calls another
(``__rsub__`` calls ``__sub__``) is counted once. Each op's returned tensor
gets its ``_backward`` closure replaced by a timed one, so backward time is
charged both to the op and to the model scope (the ``model`` function or
``losses.combined_loss``) that was active when the op ran forward. The stage
of ``efficient_attention`` and ``mix_ffn`` is the ``stage_idx`` argument of
the ``overlap_patch_embed`` call that opened the stage. FLOPs come from
``tensor.FlopCounter``; the peak memory of one training step from
``tracemalloc``, which sees numpy's allocations.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from collections import defaultdict

from wmhseg import (artifacts, cli, fourier, losses, metrics, model, nifti,
                    phantom, training)
from wmhseg import tensor as T

perf = time.perf_counter

OP_KINDS = ("conv2d.depthwise", "conv2d.dense", "conv2d.pointwise", "matmul", "gelu",
            "layer_norm", "softmax", "resize_bilinear", "elementwise")
ELEMENTWISE_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                       "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                       "reshape", "transpose", "sum", "mean")
ELEMENTWISE_FUNCTIONS = ("exp", "log", "clip", "sigmoid", "concat")
SCOPES = [f"model.stage{i}.{part}" for i in range(1, 5)
          for part in ("patch_embed", "attention", "mix_ffn")] + ["model.decoder"]


def _unit(name: str) -> str:
    if name.endswith("bytes"):
        return "B"
    if name.endswith("flops"):
        return "flop"
    if name.endswith((".ops", ".calls")):
        return "count"
    return "s"


def _metric_names() -> list[str]:
    names = []
    for kind in OP_KINDS:
        names += [f"tensor.{kind}.fwd_s", f"tensor.{kind}.bwd_s"]
    names += ["tensor.conv2d.depthwise.flops", "tensor.conv2d.dense.flops",
              "tensor.matmul.flops", "tensor.resize_bilinear.out_bytes",
              "tensor.backward.s", "tensor.ops", "tensor.out_bytes"]
    for scope in SCOPES + ["losses.combined_loss"]:
        names += [f"{scope}.fwd_s", f"{scope}.bwd_s"]
    names += ["model.load_checkpoint.s", "model.save_checkpoint.s",
              "training.step.s", "training.adam_step.s", "training.eval_forward.s",
              "training.load_slice_arrays.s", "training.step_peak_bytes",
              "training.infer_volume.s",
              "nifti.read_nifti.s", "nifti.read_nifti.bytes",
              "nifti.write_nifti.s", "nifti.write_nifti.bytes",
              "nifti.make_slice_batch.s",
              "artifacts.add_noise.s", "artifacts.apply_bias_field.s",
              "artifacts.apply_ghosting.pow2.s", "artifacts.apply_ghosting.other.s",
              "fourier.fft2.s", "fourier.fft2.calls", "fourier.ifft2.s",
              "fourier.ifft2.calls", "phantom.generate_phantom.s",
              "metrics.dice_score.s", "metrics.lesion_volume.s", "cli.main.self_s"]
    return names


# every per-layer metric, in report order, with its unit; values are per round
PER_LAYER = [(name, _unit(name)) for name in _metric_names()]
# metrics that are a maximum over the run rather than a per-round total
MAXIMA = {"training.step_peak_bytes"}


def active_on(name: str) -> set[str]:
    """The workloads on which a per-layer metric measures work (zero elsewhere)."""
    if name.startswith(("artifacts.", "fourier.", "phantom.")):
        return {"augment"}
    if name.startswith("nifti.write_nifti"):
        return {"segment", "augment"}
    if name.startswith(("model.load_checkpoint", "training.infer_volume", "metrics.",
                        "cli.")):
        return {"segment"}
    if name.endswith(".bwd_s") or name.startswith(
            ("tensor.backward", "losses.", "training.", "model.save_checkpoint")):
        return {"train"}
    return {"train", "segment"}


def _pair(v) -> tuple[int, int]:
    return (v, v) if isinstance(v, int) else (int(v[0]), int(v[1]))


def _conv_kind(x, weight, bias=None, stride=1, padding=0, groups=1) -> str:
    _, cg, kh, kw = weight.shape
    if (kh, kw) == (1, 1) and _pair(stride) == (1, 1) and _pair(padding) == (0, 0) \
            and groups == 1:
        return "conv2d.pointwise"
    return "conv2d.depthwise" if groups > 1 and cg == 1 else "conv2d.dense"


def _is_pow2(n: int) -> bool:
    return n & (n - 1) == 0


class Tracer:
    """Accumulates per-layer time, counts and bytes while installed."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._in_op = False
        self._scopes: list[str] = []
        self._child_time: list[float] = []
        self._stage = 0
        self._in_train = 0
        self._step_start = None
        self._steps = 0

    # ---- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch(self, module, name: str, make_wrapper) -> None:
        """Wrap module.name everywhere the package holds that function."""
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = original.__doc__
        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.split(".")[0] == "wmhseg":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)

    def install(self) -> "Tracer":
        for name in ELEMENTWISE_METHODS:
            self._replace(T.Tensor, name, self._op("elementwise")(getattr(T.Tensor, name)))
        self._replace(T.Tensor, "__matmul__", self._op("matmul")(T.Tensor.__matmul__))
        self._replace(T.Tensor, "backward",
                      self._span("tensor.backward.s")(T.Tensor.backward))
        for name in ELEMENTWISE_FUNCTIONS:
            self._patch(T, name, self._op("elementwise"))
        for name in ("matmul", "gelu", "layer_norm", "softmax", "resize_bilinear"):
            self._patch(T, name, self._op(name))
        self._patch(T, "conv2d", self._op(_conv_kind))

        self._patch(model, "overlap_patch_embed", self._span(
            self._enter_stage, scope=True))
        self._patch(model, "efficient_attention", self._span(
            lambda *a, **k: f"model.stage{self._stage}.attention.fwd_s", scope=True))
        self._patch(model, "mix_ffn", self._span(
            lambda *a, **k: f"model.stage{self._stage}.mix_ffn.fwd_s", scope=True))
        self._patch(model, "decoder_forward", self._span("model.decoder.fwd_s", scope=True))
        self._patch(losses, "combined_loss",
                    self._span("losses.combined_loss.fwd_s", scope=True))
        self._patch(model, "model_forward", self._model_forward)
        self._patch(model, "load_checkpoint", self._span("model.load_checkpoint.s"))
        self._patch(model, "save_checkpoint", self._span("model.save_checkpoint.s"))

        self._patch(training, "train", self._train)
        self._patch(training, "adam_step", self._adam_step)
        self._patch(training, "load_slice_arrays",
                    self._span("training.load_slice_arrays.s"))
        self._patch(training, "infer_volume", self._span("training.infer_volume.s"))

        self._patch(nifti, "read_nifti", self._file_span("nifti.read_nifti", 0))
        self._patch(nifti, "write_nifti", self._file_span("nifti.write_nifti", 1))
        self._patch(nifti, "make_slice_batch", self._span("nifti.make_slice_batch.s"))

        self._patch(artifacts, "add_noise", self._span("artifacts.add_noise.s"))
        self._patch(artifacts, "apply_bias_field", self._span("artifacts.apply_bias_field.s"))
        self._patch(artifacts, "apply_ghosting", self._span(
            lambda vol, spec: "artifacts.apply_ghosting." +
            ("pow2" if _is_pow2(vol.shape[0]) and _is_pow2(vol.shape[1]) else "other") +
            ".s"))
        for name in ("fft2", "ifft2"):
            self._patch(fourier, name, self._span(f"fourier.{name}.s",
                                                  count=f"fourier.{name}.calls"))
        self._patch(phantom, "generate_phantom", self._span("phantom.generate_phantom.s"))
        self._patch(metrics, "dice_score", self._span("metrics.dice_score.s"))
        self._patch(metrics, "lesion_volume", self._span("metrics.lesion_volume.s"))
        self._patch(cli, "main", self._span(None, self_time="cli.main.self_s"))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    # ---- wrappers ----------------------------------------------------------

    def _op(self, kind):
        """Time one tensor op forward, and its backward closure when it runs."""
        values = self.values

        def make(fn):
            def wrapper(*args, **kwargs):
                if self._in_op:
                    return fn(*args, **kwargs)
                self._in_op = True
                counter = T.FlopCounter()
                t0 = perf()
                try:
                    with counter:
                        out = fn(*args, **kwargs)
                finally:
                    self._in_op = False
                dt = perf() - t0
                name = "tensor." + (kind(*args, **kwargs) if callable(kind) else kind)
                nbytes = out.data.nbytes
                values[name + ".fwd_s"] += dt
                values[name + ".flops"] += counter.flops
                values[name + ".out_bytes"] += nbytes
                values["tensor.ops"] += 1
                values["tensor.out_bytes"] += nbytes
                if out._backward is not None:
                    out._backward = self._timed_backward(
                        out._backward, name, self._scopes[-1] if self._scopes else None)
                return out
            return wrapper
        return make

    def _timed_backward(self, inner, name: str, scope):
        values = self.values

        def backward():
            t0 = perf()
            inner()
            dt = perf() - t0
            values[name + ".bwd_s"] += dt
            if scope is not None:
                values[scope + ".bwd_s"] += dt
        return backward

    def _span(self, metric, scope=False, count=None, self_time=None):
        """Time calls into a function; ``metric`` may be computed from its args.

        Scope spans name ``<scope>.fwd_s`` and collect the backward time of
        the ops created inside them under ``<scope>.bwd_s``.
        """
        values = self.values

        def make(fn):
            def wrapper(*args, **kwargs):
                name = metric(*args, **kwargs) if callable(metric) else metric
                if scope:
                    self._scopes.append(name[:-len(".fwd_s")])
                self._child_time.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    children = self._child_time.pop()
                    if self._child_time:
                        self._child_time[-1] += dt
                    if scope:
                        self._scopes.pop()
                    if name is not None:
                        values[name] += dt
                    if count is not None:
                        values[count] += 1
                    if self_time is not None:
                        values[self_time] += dt - children
            return wrapper
        return make

    def _enter_stage(self, x, params, config, stage_idx):
        self._stage = stage_idx + 1
        return f"model.stage{self._stage}.patch_embed.fwd_s"

    def _file_span(self, prefix: str, path_arg: int):
        """Time a NIfTI read or write and count the bytes of the file."""
        timed = self._span(prefix + ".s")

        def make(fn):
            inner = timed(fn)

            def wrapper(*args, **kwargs):
                out = inner(*args, **kwargs)
                path = args[path_arg] if len(args) > path_arg else kwargs["path"]
                self.values[prefix + ".bytes"] += os.path.getsize(path)
                return out
            return wrapper
        return make

    def _train(self, fn):
        def wrapper(*args, **kwargs):
            self._in_train += 1
            self._steps = 0
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_train -= 1
        return wrapper

    def _model_forward(self, fn):
        """Open a training step (forward with a graph inside ``train``), or
        time a validation forward pass (no graph inside ``train``)."""
        def wrapper(*args, **kwargs):
            if not self._in_train:
                return fn(*args, **kwargs)
            if T._grad_enabled:
                # the second step: Adam's moments exist, shapes are steady
                if self._steps == 1:
                    tracemalloc.start()
                self._step_start = perf()
                return fn(*args, **kwargs)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.values["training.eval_forward.s"] += perf() - t0
        return wrapper

    def _adam_step(self, fn):
        timed = self._span("training.adam_step.s")(fn)

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            if self._step_start is not None:
                self.values["training.step.s"] += perf() - self._step_start
                self._step_start = None
            if tracemalloc.is_tracing():
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.values["training.step_peak_bytes"] = max(
                    self.values["training.step_peak_bytes"], peak)
            self._steps += 1
            return out
        return wrapper

    # ---- results -----------------------------------------------------------

    def per_round(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, as a total per round (maxima as measured)."""
        return {name: self.values.get(name, 0.0) / (1 if name in MAXIMA else rounds)
                for name, _ in PER_LAYER}
