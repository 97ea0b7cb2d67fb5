"""Numeric core: forward oracles and finite-difference gradient checks."""

import gc
import math
import weakref

import numpy as np
import pytest

from wmhseg import tensor as T
from wmhseg.errors import NumericsError, ShapeError, UsageError
from wmhseg.tensor import FlopCounter, Tensor

from conftest import check_grad, rel_err


# ---- matmul -----------------------------------------------------------------

def matmul_oracle(a, b):
    """Naive triple-loop matrix product."""
    m, k = a.shape
    k2, p = b.shape
    out = np.zeros((m, p), dtype=np.float64)
    for i in range(m):
        for j in range(p):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestMatmul:
    def test_identity(self, rng):
        a = rng.standard_normal((3, 3))
        out = T.matmul(Tensor(np.eye(3), dtype=np.float64),
                       Tensor(a, dtype=np.float64))
        np.testing.assert_array_equal(out.data, a)

    def test_zeros(self, rng):
        a = rng.standard_normal((3, 4))
        out = T.matmul(Tensor(a, dtype=np.float64),
                       Tensor(np.zeros((4, 2)), dtype=np.float64))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_against_triple_loop_oracle(self, rng):
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        got = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        assert np.abs(got.data - matmul_oracle(a, b)).max() < 1e-12

    def test_batched_against_oracle(self, rng):
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((2, 3, 5, 3))
        got = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        for i in range(2):
            for j in range(3):
                assert np.abs(got.data[i, j] - matmul_oracle(a[i, j], b[i, j])).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self, rng):
        with pytest.raises(ShapeError) as exc:
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)

    def test_gradients(self, rng):
        w = Tensor(rng.standard_normal((5, 3)), dtype=np.float64)
        check_grad(lambda x: T.matmul(x, w), rng.standard_normal((4, 5)), rng)
        a = Tensor(rng.standard_normal((4, 5)), dtype=np.float64)
        check_grad(lambda x: T.matmul(a, x), rng.standard_normal((5, 3)), rng)

    @pytest.mark.parametrize("a_shape,b_shape,transposed", [
        ((4, 5), (5, 3), False),
        ((6, 5), (2, 5, 7), True),    # a projection: W^T [Cout,Cin] @ x [B,Cin,N]
        ((2, 3, 4, 5), (2, 3, 5, 6), False),
        ((3, 2), (2, 1), False)])     # one column: the bias gradient is g itself
    def test_bias_matches_add_composition(self, rng, a_shape, b_shape,
                                          transposed):
        # float32, as in the model: output and all three gradients bit for bit
        a0, b0 = (rng.standard_normal(s).astype(np.float32)
                  for s in (a_shape[::-1] if transposed else a_shape, b_shape))
        c0 = rng.standard_normal(a_shape[-2]).astype(np.float32)
        probe = rng.standard_normal(np.matmul(np.zeros(a_shape), b0).shape) \
            .astype(np.float32)

        def run(fused):
            a, b, c = (Tensor(v, requires_grad=True) for v in (a0, b0, c0))
            w = a.transpose(1, 0) if transposed else a
            out = T.matmul(w, b, bias=c) if fused \
                else T.matmul(w, b) + c.reshape(-1, 1)
            (out * Tensor(probe)).sum().backward()
            return out.data, a.grad, b.grad, c.grad

        for got, want in zip(run(True), run(False)):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_bias_gradients_against_finite_differences(self, rng):
        w = Tensor(rng.standard_normal((3, 5)), dtype=np.float64)
        x = Tensor(rng.standard_normal((2, 5, 4)), dtype=np.float64)
        c = Tensor(rng.standard_normal(3), dtype=np.float64)
        check_grad(lambda v: T.matmul(v, x, bias=c), rng.standard_normal((3, 5)), rng)
        check_grad(lambda v: T.matmul(w, v, bias=c),
                   rng.standard_normal((2, 5, 4)), rng)
        check_grad(lambda v: T.matmul(w, x, bias=v), rng.standard_normal(3), rng)

    def test_bias_is_one_node_counted_as_the_gemm(self, rng):
        w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 5, 4)))
        c = Tensor(rng.standard_normal(3), requires_grad=True)
        with FlopCounter() as counter:
            out = T.matmul(w, x, bias=c)
        assert counter.flops == 2 * 2 * 3 * 4 * 5
        assert out._op == "matmul" and out._parents == (w._node, x._node, c._node)

    def test_bias_of_wrong_shape_rejected(self):
        with pytest.raises(ShapeError, match=r"bias must have shape \(3,\)"):
            T.matmul(Tensor(np.zeros((3, 5))), Tensor(np.zeros((5, 4))),
                     bias=Tensor(np.zeros(4)))


# ---- conv2d -----------------------------------------------------------------

def conv2d_oracle(x, w, bias, stride, padding, groups=1):
    """Direct 6-loop summation convolution (cross-correlation)."""
    b, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    sh = sw = stride
    ph = pw = padding
    hout = (h + 2 * ph - kh) // sh + 1
    wout = (wd + 2 * pw - kw) // sw + 1
    xp = np.zeros((b, cin, h + 2 * ph, wd + 2 * pw))
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    out = np.zeros((b, cout, hout, wout))
    cpg = cout // groups
    for bi in range(b):
        for co in range(cout):
            gi = co // cpg
            for i in range(hout):
                for j in range(wout):
                    acc = 0.0
                    for ci in range(cg):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += w[co, ci, ki, kj] * \
                                    xp[bi, gi * cg + ci, i * sh + ki, j * sw + kj]
                    out[bi, co, i, j] = acc + (bias[co] if bias is not None else 0.0)
    return out


class TestConv2d:
    def test_1x1_identity(self, rng):
        x = rng.standard_normal((2, 1, 5, 5))
        w = np.ones((1, 1, 1, 1))
        out = T.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64))
        np.testing.assert_allclose(out.data, x)

    def test_allones_3x3_constant_interior(self):
        c = 2.5
        x = np.full((1, 1, 6, 6), c)
        w = np.ones((1, 1, 3, 3))
        out = T.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                       stride=1, padding=0)
        np.testing.assert_allclose(out.data, np.full((1, 1, 4, 4), 9 * c))

    @pytest.mark.parametrize("stride,padding,groups", [(1, 0, 1), (2, 1, 1), (1, 1, 2)])
    def test_against_six_loop_oracle(self, rng, stride, padding, groups):
        x = rng.standard_normal((2, 4, 6, 7))
        w = rng.standard_normal((6, 4 // groups, 3, 3))
        bias = rng.standard_normal(6)
        got = T.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                       Tensor(bias, dtype=np.float64), stride=stride,
                       padding=padding, groups=groups)
        want = conv2d_oracle(x, w, bias, stride, padding, groups)
        assert rel_err(got.data, want) < 1e-10

    def test_depthwise_against_oracle(self, rng):
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((3, 1, 3, 3))
        got = T.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                       stride=1, padding=1, groups=3)
        want = conv2d_oracle(x, w, None, 1, 1, 3)
        assert rel_err(got.data, want) < 1e-10

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_gradients(self, rng):
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), dtype=np.float64)
        b = Tensor(rng.standard_normal(4), dtype=np.float64)
        check_grad(lambda x: T.conv2d(x, w, b, stride=2, padding=1),
                   rng.standard_normal((2, 3, 6, 6)), rng)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), dtype=np.float64)
        check_grad(lambda v: T.conv2d(x, v, b, stride=1, padding=1),
                   rng.standard_normal((4, 3, 3, 3)), rng)
        wd = Tensor(rng.standard_normal((3, 1, 3, 3)), dtype=np.float64)
        check_grad(lambda v: T.conv2d(v, wd, None, padding=1, groups=3),
                   rng.standard_normal((2, 3, 5, 5)), rng)
        # depthwise input gradients: stride 2 runs im2col, the 5x3 kernel at
        # stride 1 the banded correlation with the flipped kernel
        for kernel, stride, padding in (((3, 3), 2, 1), ((5, 3), 1, (2, 1)),
                                        ((5, 3), 2, 2)):
            wd = Tensor(rng.standard_normal((3, 1) + kernel), dtype=np.float64)
            check_grad(lambda v: T.conv2d(v, wd, None, stride=stride,
                                          padding=padding, groups=3),
                       rng.standard_normal((2, 3, 7, 6)), rng)
        # groups=2 recomputes its input columns and scatters with col2im
        wg = Tensor(rng.standard_normal((6, 2, 3, 3)), dtype=np.float64)
        bg = Tensor(rng.standard_normal(6), dtype=np.float64)
        check_grad(lambda v: T.conv2d(v, wg, bg, padding=1, groups=2),
                   rng.standard_normal((2, 4, 5, 6)), rng)
        xg = Tensor(rng.standard_normal((2, 4, 5, 6)), dtype=np.float64)
        check_grad(lambda v: T.conv2d(xg, v, bg, padding=1, groups=2),
                   rng.standard_normal((6, 2, 3, 3)), rng)

    @pytest.mark.parametrize("kernel,padding", [
        pytest.param((3, 3), 0, id="0"), pytest.param((3, 3), 1, id="1"),
        pytest.param((3, 3), 3, id="3"),
        pytest.param((3, 2), (1, 0), id="k3x2-p1x0"),
        pytest.param((1, 3), (0, 1), id="k1x3-p0x1"),
        pytest.param((2, 3), (1, 2), id="k2x3-p1x2"),
        pytest.param((1, 1), 0, id="k1x1-p0")])
    @pytest.mark.parametrize("cin,cout", [(5, 2), (2, 5)])
    def test_stride1_input_gradient(self, rng, kernel, padding, cin, cout):
        # stride-1 dense convs take both gradients from one im2col of the
        # output gradient, except when padding >= kernel size (padding 3)
        w0 = rng.standard_normal((cout, cin) + kernel)
        w = Tensor(w0, dtype=np.float64)
        b = Tensor(rng.standard_normal(cout), dtype=np.float64)
        x0 = rng.standard_normal((2, cin, 5, 7))
        check_grad(lambda x: T.conv2d(x, w, b, stride=1, padding=padding),
                   x0, rng)
        x = Tensor(x0, dtype=np.float64)
        check_grad(lambda v: T.conv2d(x, v, b, stride=1, padding=padding),
                   w0, rng)

    @pytest.mark.parametrize("kernel,padding", [
        pytest.param((3, 3), 0, id="0"), pytest.param((3, 3), 1, id="1"),
        pytest.param((3, 3), 3, id="3"),
        pytest.param((3, 2), (1, 0), id="k3x2-p1x0"),
        pytest.param((1, 3), (0, 1), id="k1x3-p0x1"),
        pytest.param((2, 3), (1, 2), id="k2x3-p1x2"),
        pytest.param((1, 1), 0, id="k1x1-p0")])
    @pytest.mark.parametrize("cin,cout", [(5, 2), (2, 5)])
    def test_stride1_forward_against_oracle(self, rng, kernel, padding, cin, cout):
        # padding < kernel runs the shifted-GEMM forward, whose wrapped
        # columns must all be dropped; padding 3 runs im2col
        w = rng.standard_normal((cout, cin) + kernel)
        bias = rng.standard_normal(cout)
        x = rng.standard_normal((2, cin, 5, 7))
        got = T.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                       Tensor(bias, dtype=np.float64), stride=1, padding=padding)
        ph, pw = (padding, padding) if isinstance(padding, int) else padding
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        want = conv2d_oracle(xp, w, bias, 1, 0)
        assert got.shape == want.shape
        assert rel_err(got.data, want) < 1e-10

    # output widths 20, 33 and 40 split into tiles of 10, 11 and 10 columns
    # and the prime 31 into tiles of 1; at stride 1 the input gradient is the
    # forward on the flipped kernel padded by k-1-p, so paddings 0 and k-1
    # take its widest and narrowest padding; stride 2 and padding >= kernel
    # run im2col, and a 1x1 kernel at stride 2 leaves input columns no
    # output reads
    @pytest.mark.parametrize("wout", [20, 31, 33, 40])
    @pytest.mark.parametrize("stride,kernel,padding", [
        pytest.param(1, (3, 3), 1, id="1-3"), pytest.param(2, (3, 3), 1, id="2-3"),
        pytest.param(2, (1, 1), 1, id="2-1"), pytest.param(1, (3, 3), 0, id="1-3-p0"),
        pytest.param(1, (3, 3), 2, id="1-3-p2"),
        pytest.param(1, (5, 3), (2, 1), id="1-5x3-p2x1")])
    def test_depthwise_wide_forward_and_input_gradient(self, rng, wout, stride,
                                                       kernel, padding):
        b, c, h, (kh, kw) = 2, 3, 5, kernel
        ph, pw = (padding, padding) if isinstance(padding, int) else padding
        w = (wout - 1) * stride + kw - 2 * pw
        x = rng.standard_normal((b, c, h, w))
        wt = rng.standard_normal((c, 1, kh, kw))
        bias = rng.standard_normal(c)
        xt = Tensor(x, dtype=np.float64, requires_grad=True)
        out = T.conv2d(xt, Tensor(wt, dtype=np.float64),
                       Tensor(bias, dtype=np.float64), stride=stride,
                       padding=padding, groups=c)
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        want = conv2d_oracle(xp, wt, bias, stride, 0, groups=c)
        assert out.shape == want.shape and out.shape[3] == wout
        assert rel_err(out.data, want) < 1e-10
        # the conv is linear in x: the input gradient of sum(out * probe)
        # is the adjoint applied to probe, summed tap by tap
        probe = rng.standard_normal(out.shape)
        (out * Tensor(probe, dtype=np.float64)).sum().backward()
        dxp = np.zeros((b, c, h + 2 * ph, w + 2 * pw))
        hout = out.shape[2]
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + stride * hout:stride, j:j + stride * wout:stride] += \
                    probe * wt[None, :, 0, i, j, None, None]
        assert rel_err(xt.grad, dxp[:, :, ph:ph + h, pw:pw + w]) < 1e-10

    def test_only_im2col_backward_keeps_the_padded_input(self, rng, monkeypatch):
        # a stride-1 dense conv (a decoder fuse conv) takes both gradients
        # from x and the output gradient, so its padded copy dies with the
        # forward; a strided one (a patch embedding) recomputes its columns
        # from the padded copy in the backward
        copies, pad = [], np.pad

        def recording_pad(*args, **kwargs):
            out = pad(*args, **kwargs)
            copies.append(weakref.ref(out))
            return out

        monkeypatch.setattr(np, "pad", recording_pad)
        x = Tensor(rng.standard_normal((2, 4, 16, 16)), requires_grad=True)
        fuse = T.conv2d(x, Tensor(rng.standard_normal((3, 4, 3, 3)),
                                  requires_grad=True), padding=1)
        embed = T.conv2d(x, Tensor(rng.standard_normal((5, 4, 7, 7)),
                                   requires_grad=True), stride=4, padding=3)
        fuse_copy, embed_copy = copies
        gc.collect()
        assert fuse_copy() is None
        assert embed_copy() is not None
        (fuse.sum() + embed.sum()).backward()
        assert x.grad is not None and np.isfinite(x.grad).all()

    def test_depthwise_weight_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 5, 6)), dtype=np.float64)
        check_grad(lambda v: T.conv2d(x, v, None, padding=1, groups=3),
                   rng.standard_normal((3, 1, 3, 3)), rng)

    # (input HxW, kernel, stride, padding); the first is the Mix-FFN case;
    # the strided ones and padding >= kernel run im2col
    @pytest.mark.parametrize("hw,kernel,stride,padding", [
        ((6, 6), (3, 3), 1, 1), ((7, 9), (3, 3), 2, 1), ((6, 8), (3, 3), 1, 0),
        ((5, 7), (3, 3), 1, 2), ((8, 6), (5, 3), 1, 1), ((9, 7), (5, 3), 2, 2),
        ((4, 5), (3, 3), 1, 3)])
    def test_depthwise_forward_against_channel_loop(self, rng, hw, kernel,
                                                    stride, padding):
        b, c, (h, w), (kh, kw) = 2, 3, hw, kernel
        x = rng.standard_normal((b, c, h, w))
        wt = rng.standard_normal((c, 1, kh, kw))
        bias = rng.standard_normal(c)
        with FlopCounter() as fc:
            got = T.conv2d(Tensor(x, dtype=np.float64), Tensor(wt, dtype=np.float64),
                           Tensor(bias, dtype=np.float64), stride=stride,
                           padding=padding, groups=c)
        hout = (h + 2 * padding - kh) // stride + 1
        wout = (w + 2 * padding - kw) // stride + 1
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        want = np.empty((b, c, hout, wout))
        for ch in range(c):
            for i in range(hout):
                for j in range(wout):
                    win = xp[:, ch, i * stride:i * stride + kh,
                             j * stride:j * stride + kw]
                    want[:, ch, i, j] = (win * wt[ch, 0]).sum(axis=(1, 2)) + bias[ch]
        assert got.shape == want.shape
        assert np.abs(got.data - want).max() < 1e-12
        assert fc.flops == 2 * b * c * kh * kw * hout * wout


# ---- softmax / layer_norm ----------------------------------------------------

class TestSoftmax:
    def test_two_zeros(self):
        out = T.softmax(Tensor(np.array([0.0, 0.0]), dtype=np.float64).reshape(1, 2),
                        axis=-1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 7))
        a = T.softmax(Tensor(x, dtype=np.float64), axis=-1)
        b = T.softmax(Tensor(x + 17.3, dtype=np.float64), axis=-1)
        assert np.abs(a.data - b.data).max() < 1e-12

    def test_against_exp_sum_oracle(self, rng):
        x = rng.standard_normal(11)
        got = T.softmax(Tensor(x, dtype=np.float64).reshape(1, 11), axis=-1)
        want = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(got.data[0], want, rtol=1e-13)

    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((4, 9)) * 10
        out = T.softmax(Tensor(x, dtype=np.float64), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_axis_out_of_bounds(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor(np.zeros((2, 2))), axis=5)

    def test_gradient(self, rng):
        check_grad(lambda x: T.softmax(x, axis=-1),
                   rng.standard_normal((3, 6)), rng)

    def test_gradient_axis_minus_2(self, rng):
        check_grad(lambda x: T.softmax(x, axis=-2),
                   rng.standard_normal((2, 3, 5, 4)), rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_scale_matches_softmax_of_scaled_input(self, rng, dtype, axis):
        # forward and backward bit for bit against softmax(x * s)
        x0 = (rng.standard_normal((2, 3, 5, 4)) * 4).astype(dtype)
        kept = x0.copy()
        probe = rng.standard_normal(x0.shape).astype(dtype)
        s = 1.0 / math.sqrt(8)

        def run(fused):
            x = Tensor(x0, requires_grad=True)
            out = T.softmax(x, axis=axis, scale=s) if fused \
                else T.softmax(x * s, axis=axis)
            (out * Tensor(probe)).sum().backward()
            return out.data, x.grad

        for got, want in zip(run(True), run(False)):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(x0, kept)  # the input is not written

    def test_scale_gradient(self, rng):
        check_grad(lambda x: T.softmax(x, axis=-2, scale=0.37),
                   rng.standard_normal((2, 3, 5, 4)), rng)

    def test_unscaled_input_not_written(self, rng):
        x0 = rng.standard_normal((3, 6))
        kept = x0.copy()
        T.softmax(Tensor(x0, dtype=np.float64), axis=-1)
        np.testing.assert_array_equal(x0, kept)


class TestLayerNorm:
    def test_constant_row_zeros(self):
        x = Tensor(np.full((2, 5), 3.3), dtype=np.float64)
        out = T.layer_norm(x, Tensor(np.ones(5), dtype=np.float64),
                           Tensor(np.zeros(5), dtype=np.float64))
        np.testing.assert_allclose(out.data, np.zeros((2, 5)), atol=1e-6)

    def test_standardizes(self, rng):
        x = rng.standard_normal((8, 64)) * 4 + 2
        out = T.layer_norm(Tensor(x, dtype=np.float64),
                           Tensor(np.ones(64), dtype=np.float64),
                           Tensor(np.zeros(64), dtype=np.float64))
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-4

    def test_against_two_pass_oracle(self, rng):
        x = rng.standard_normal((3, 10))
        gamma = rng.standard_normal(10)
        beta = rng.standard_normal(10)
        got = T.layer_norm(Tensor(x, dtype=np.float64),
                           Tensor(gamma, dtype=np.float64),
                           Tensor(beta, dtype=np.float64))
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        want = gamma * (x - mu) / np.sqrt(var + 1e-5) + beta
        np.testing.assert_allclose(got.data, want, rtol=1e-12)

    def test_gradients(self, rng):
        gamma = Tensor(rng.standard_normal(6), dtype=np.float64)
        beta = Tensor(rng.standard_normal(6), dtype=np.float64)
        check_grad(lambda x: T.layer_norm(x, gamma, beta),
                   rng.standard_normal((4, 6)), rng)
        x = Tensor(rng.standard_normal((4, 6)), dtype=np.float64)
        check_grad(lambda g: T.layer_norm(x, g, beta), rng.standard_normal(6), rng)

    def test_gradients_axis_1(self, rng):
        c = 5
        gamma = Tensor(rng.standard_normal(c), dtype=np.float64)
        beta = Tensor(rng.standard_normal(c), dtype=np.float64)
        x0 = rng.standard_normal((2, c, 7))
        check_grad(lambda x: T.layer_norm(x, gamma, beta, axis=1), x0, rng)
        x = Tensor(x0, dtype=np.float64)
        check_grad(lambda g: T.layer_norm(x, g, beta, axis=1),
                   rng.standard_normal(c), rng)
        check_grad(lambda b: T.layer_norm(x, gamma, b, axis=1),
                   rng.standard_normal(c), rng)

    def test_axis_1_equals_last_axis_on_swapped_input(self, rng):
        x = rng.standard_normal((2, 6, 9))
        gamma, beta = rng.standard_normal(6), rng.standard_normal(6)
        got = T.layer_norm(Tensor(x, dtype=np.float64),
                           Tensor(gamma, dtype=np.float64),
                           Tensor(beta, dtype=np.float64), axis=1)
        want = T.layer_norm(Tensor(x.swapaxes(1, 2), dtype=np.float64),
                            Tensor(gamma, dtype=np.float64),
                            Tensor(beta, dtype=np.float64))
        np.testing.assert_allclose(got.data, want.data.swapaxes(1, 2), rtol=1e-12,
                                   atol=1e-14)


# ---- gelu ---------------------------------------------------------------------

def erf_series(x: float, terms: int = 60) -> float:
    """Maclaurin series for erf with large-|x| saturation (independent of scipy)."""
    if x < 0:
        return -erf_series(-x, terms)
    if x > 6.0:
        return 1.0
    total = 0.0
    for n in range(terms):
        total += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor(np.array([0.0]), dtype=np.float64)).data[0] == 0.0

    def test_large_asymptote(self):
        out = T.gelu(Tensor(np.array([10.0]), dtype=np.float64))
        assert abs(out.data[0] - 10.0) < 1e-6

    def test_grid_against_series_erf_oracle(self):
        xs = np.linspace(-4.0, 4.0, 33)
        got = T.gelu(Tensor(xs, dtype=np.float64)).data
        want = np.array([0.5 * x * (1.0 + erf_series(x / math.sqrt(2.0)))
                         for x in xs])
        assert np.abs(got - want).max() < 1e-12

    def test_gradient(self, rng):
        check_grad(lambda x: T.gelu(x), rng.standard_normal((4, 5)), rng)

    def test_float32_within_2e6_of_float64(self):
        # float32 takes the rational erf; the grid spans many erf blocks
        xs = np.linspace(-8.0, 8.0, 400001).astype(np.float32)
        got = T.gelu(Tensor(xs)).data
        want = T.gelu(Tensor(xs.astype(np.float64))).data
        assert got.dtype == np.float32
        assert np.abs(got - want).max() < 2e-6
        # Phi stays within [0, 1]: x <= gelu(x) <= 0 below 0, 0 <= gelu(x) <= x above
        neg, pos = xs < 0, xs > 0
        assert ((got[neg] <= 0) & (got[neg] >= xs[neg])).all()
        assert ((got[pos] >= 0) & (got[pos] <= xs[pos])).all()
        # erf is exactly +-1 beyond its clamp (|x| >= 4 sqrt 2)
        far = np.abs(xs) >= 6.0
        assert (got[far] == np.where(xs[far] > 0, xs[far], 0.0)).all()

    def test_float32_layout_independent(self, rng):
        x = rng.standard_normal((2, 3, 50, 70)).astype(np.float32)
        strided = T.gelu(Tensor(x.transpose(0, 1, 3, 2))).data
        np.testing.assert_array_equal(strided, T.gelu(Tensor(x)).data
                                      .transpose(0, 1, 3, 2))

    def test_float32_independent_of_block_size(self, monkeypatch, rng):
        # 300,000 elements: the last block is ragged at every size below
        xs = (4.0 * rng.standard_normal((3, 100, 1000))).astype(np.float32)
        g = rng.standard_normal(xs.shape).astype(np.float32)
        runs = []
        for block in (1 << 10, 1 << 15, 1 << 17):
            monkeypatch.setattr(T, "_ERF_BLOCK", block)
            x = Tensor(xs, requires_grad=True)
            out = T.gelu(x)
            out.backward(g)
            runs.append((T._normal_cdf32(xs), out.data, x.grad))
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                np.testing.assert_array_equal(got, want)

    def test_float32_backward_flushes_subnormals(self):
        xs = np.linspace(-20.0, -12.0, 161)
        x = Tensor(xs.astype(np.float32), requires_grad=True)
        T.gelu(x).backward(np.full(xs.shape, 1e-6, np.float32))
        tiny = np.finfo(np.float32).tiny
        assert not ((x.grad != 0) & (np.abs(x.grad) < tiny)).any()
        # float64 oracle: 1e-6 * (Phi(x) + x * phi(x))
        cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in xs])
        want = 1e-6 * (cdf + xs * np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi))
        normal = np.abs(want) >= tiny
        assert normal.any() and not normal.all()
        # no grid point sits at the flush threshold, where rounding decides
        assert (np.abs(np.log(np.abs(want) / tiny)) > 0.05).all()
        np.testing.assert_allclose(x.grad[normal], want[normal], rtol=1e-2)
        assert (x.grad[~normal] == 0).all()


class TestSigmoid:
    def test_values_and_gradient(self, rng):
        x = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
        out = T.sigmoid(Tensor(x, dtype=np.float64))
        np.testing.assert_allclose(out.data[2], 0.5)
        assert (out.data > 0).all() and (out.data < 1).all()
        np.testing.assert_allclose(out.data[1] + out.data[3], 1.0, rtol=1e-14)
        check_grad(lambda v: T.sigmoid(v), rng.standard_normal((3, 4)), rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relative_error_within_rounding(self, dtype):
        # a few roundings of eps/2 each, against an extended-precision oracle
        if np.finfo(np.longdouble).eps >= np.finfo(dtype).eps:
            pytest.skip("long double is no wider than the dtype here")
        x = np.linspace(-40.0, 40.0, 20001).astype(dtype)
        want = 1.0 / (1.0 + np.exp(-x.astype(np.longdouble)))
        got = T.sigmoid(Tensor(x, dtype=dtype)).data
        assert got.dtype == dtype
        assert (np.abs(got - want) / want).max() <= 2 * np.finfo(dtype).eps


# ---- bilinear resize -----------------------------------------------------------

class TestResizeBilinear:
    def test_constant_maps_to_constant(self, rng):
        x = Tensor(np.full((1, 2, 5, 7), 4.25), dtype=np.float64)
        for oh, ow in [(3, 3), (10, 14), (1, 1), (13, 4)]:
            out = T.resize_bilinear(x, oh, ow)
            np.testing.assert_allclose(out.data, np.full((1, 2, oh, ow), 4.25),
                                       rtol=1e-12)

    def test_2x_upsample_of_2x2_hand_derived(self):
        # align-corners-false: src = (dst+0.5)/2 - 0.5, clipped to [0, 1];
        # per-axis weights for dst 0..3 -> (1,0), (.75,.25), (.25,.75), (0,1)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        wts = [(0, 1.0), (0, 0.75), (0, 0.25), (1, 1.0)]
        want = np.zeros((4, 4))
        for i, (iy, fy) in enumerate(wts):
            for j, (jx, fx) in enumerate(wts):
                want[i, j] = (
                    x[iy, jx] * fy * fx
                    + x[min(iy + 1, 1), jx] * (1 - fy) * fx
                    + x[iy, min(jx + 1, 1)] * fy * (1 - fx)
                    + x[min(iy + 1, 1), min(jx + 1, 1)] * (1 - fy) * (1 - fx))
        got = T.resize_bilinear(Tensor(x.reshape(1, 1, 2, 2), dtype=np.float64), 4, 4)
        np.testing.assert_allclose(got.data[0, 0], want, rtol=1e-12)

    def test_identity_when_same_dims(self, rng):
        # the interpolation matrices are identities: bit for bit both ways
        for dtype in (np.float32, np.float64):
            x = Tensor(rng.standard_normal((2, 3, 6, 5)), dtype=dtype,
                       requires_grad=True)
            g = rng.standard_normal(x.shape).astype(dtype)
            out = T.resize_bilinear(x, 6, 5)
            np.testing.assert_array_equal(out.data, x.data)
            out.backward(g)
            np.testing.assert_array_equal(x.grad, g)

    def test_bad_dims(self):
        with pytest.raises(ShapeError):
            T.resize_bilinear(Tensor(np.zeros((1, 1, 4, 4))), 0, 4)

    def test_gradient(self, rng):
        check_grad(lambda x: T.resize_bilinear(x, 7, 3),
                   rng.standard_normal((2, 2, 4, 5)), rng)


# ---- autodiff machinery ---------------------------------------------------------

class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), dtype=np.float64,
                   requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_elementwise_product_gradient(self, rng):
        xv = rng.standard_normal(5)
        yv = rng.standard_normal(5)
        x = Tensor(xv, dtype=np.float64, requires_grad=True)
        y = Tensor(yv, dtype=np.float64, requires_grad=True)
        (x * y).sum().backward()
        np.testing.assert_allclose(x.grad, yv)
        np.testing.assert_allclose(y.grad, xv)

    def test_backward_nonscalar_needs_seed(self, rng):
        x = Tensor(rng.standard_normal((2, 2)), dtype=np.float64,
                   requires_grad=True)
        y = x * 2.0
        with pytest.raises(UsageError):
            y.backward()
        y2 = x * 2.0
        y2.backward(np.ones((2, 2)))
        np.testing.assert_allclose(x.grad, np.full((2, 2), 2.0))

    def test_grad_accumulates_across_uses(self, rng):
        x = Tensor(rng.standard_normal(4), dtype=np.float64, requires_grad=True)
        (x * 3.0 + x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(4, 5.0))

    def test_diamond_graph_gradient(self, rng):
        # a feeds two consumers: its gradient is complete only once both
        # have run, and a node replayed twice would double it
        x = Tensor(rng.standard_normal(3), dtype=np.float64, requires_grad=True)
        a = x * 2.0
        b = a + 1.0
        loss = (a * b).sum()   # 4x^2 + 2x
        loss.backward()
        np.testing.assert_allclose(x.grad, 8.0 * x.data + 2.0, rtol=1e-15)
        assert a.grad is None and a._parents == ()  # consumed and released

    def test_no_grad_builds_no_graph(self, rng):
        x = Tensor(rng.standard_normal(3), dtype=np.float64, requires_grad=True)
        with T.no_grad():
            y = x * 2.0
        assert y._parents == () and not y.requires_grad

    def test_chained_ops_gradient(self, rng):
        def f(x):
            return T.gelu(T.matmul(x, x.transpose(1, 0))).mean(axis=1)
        check_grad(f, rng.standard_normal((3, 3)), rng)

    # (op of constant c and tracked y, whether its closure must keep y,
    # d op / d y)
    @pytest.mark.parametrize("fn,keeps_y,dy", [
        (lambda c, y: c * y, False, lambda c, y: c),
        (lambda c, y: y * c, False, lambda c, y: c),
        (lambda c, y: y / c, False, lambda c, y: 1.0 / c),
        (lambda c, y: c / y, True, lambda c, y: -c / (y * y)),
    ])
    def test_binary_op_keeps_only_what_the_taken_gradient_reads(
            self, rng, fn, keeps_y, dy):
        x = Tensor(rng.standard_normal(4), dtype=np.float64, requires_grad=True)
        c = Tensor(rng.uniform(1.0, 2.0, 4), dtype=np.float64)
        y = x + 1.0  # an add keeps no array, so only fn's closure can
        yv, ref = y.data.copy(), weakref.ref(y.data)
        out = fn(c, y)
        del y
        assert (ref() is not None) == keeps_y
        out.sum().backward()
        np.testing.assert_allclose(x.grad, dy(c.data, yv), rtol=1e-15)

    def test_wrapped_closure_sees_the_output_gradient_it_sets(self, rng):
        # the benchmark's hooks replace an op's _backward with a wrapper
        # that reads and rescales out.grad before calling the original
        x0 = rng.standard_normal((3, 4))

        def input_grad(factor):
            x = Tensor(x0, dtype=np.float64, requires_grad=True)
            out = T.gelu(x)
            inner = out._backward

            def backward():
                out.grad = out.grad * factor
                inner()
            out._backward = backward
            out.sum().backward()
            return x.grad
        np.testing.assert_array_equal(input_grad(1.05), 1.05 * input_grad(1.0))
        assert not np.array_equal(input_grad(1.05), input_grad(1.0))


class TestNumerics:
    def test_nan_surfaced_not_propagated(self):
        x = Tensor(np.array([1.0, 0.0]), dtype=np.float64)
        with np.errstate(divide="ignore"), pytest.raises(NumericsError):
            T.log(x * 0.0)           # log(0) -> -inf

    def test_overflow_surfaced(self):
        x = Tensor(np.array([1e308]), dtype=np.float64)
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            T.exp(x)

    def test_div_by_zero_surfaced(self):
        a = Tensor(np.array([1.0]), dtype=np.float64)
        b = Tensor(np.array([0.0]), dtype=np.float64)
        with np.errstate(divide="ignore"), pytest.raises(NumericsError):
            _ = a / b

    def test_finite_ops_do_not_raise(self, rng):
        x = Tensor(rng.standard_normal((5, 5)), dtype=np.float64)
        for out in (T.exp(x), T.gelu(x), T.sigmoid(x), T.softmax(x, -1)):
            assert np.isfinite(out.data).all()


class TestFlopCounter:
    def test_counts_matmul(self, rng):
        a = Tensor(rng.standard_normal((4, 5)), dtype=np.float64)
        b = Tensor(rng.standard_normal((5, 6)), dtype=np.float64)
        with FlopCounter() as fc:
            T.matmul(a, b)
        assert fc.flops == 2 * 4 * 5 * 6


class TestDtype:
    def test_non_float_data_becomes_float32(self):
        assert Tensor(np.arange(3)).dtype == np.float32
        assert Tensor([True, False]).dtype == np.float32

    def test_float_arrays_keep_precision(self, rng):
        assert Tensor(rng.standard_normal(3)).dtype == np.float64
        assert Tensor(rng.standard_normal(3).astype(np.float32)).dtype == np.float32

    def test_float64_mode(self, rng):
        x = Tensor(rng.standard_normal(3), dtype=np.float64)
        assert (x * 2.0).dtype == np.float64
        assert Tensor(rng.standard_normal(3), dtype=np.float32).dtype == np.float32

    def test_concat_and_reshape_roundtrip(self, rng):
        x = rng.standard_normal((2, 3))
        t = Tensor(x, dtype=np.float64, requires_grad=True)
        out = T.concat([t, t], axis=0).reshape(3, 4).transpose(1, 0)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 3), 2.0))
