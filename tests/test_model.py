"""Network architecture: shapes, attention oracle, wiring, init, checkpoints."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from wmhseg import model as model_module, tensor as T
from wmhseg.errors import ConfigError, DataFormatError, ShapeError
from wmhseg.losses import combined_loss
from wmhseg.model import (ModelConfig, PATCH_KERNELS, REDUCTION_FACTORS,
                          decoder_forward, efficient_attention, encoder_forward,
                          init_parameters, load_checkpoint, mix_ffn,
                          model_forward, overlap_patch_embed,
                          parameter_specs, save_checkpoint, subparams)
from wmhseg.metrics import dice_score
from wmhseg.tensor import FlopCounter, Tensor

from conftest import edit_json_header


def attn_params(c, reduction, heads, rng, dtype=np.float64):
    p = {
        "q_weight": Tensor(rng.standard_normal((c, c)) * 0.1, dtype=dtype,
                           requires_grad=True),
        "q_bias": Tensor(rng.standard_normal(c) * 0.1, dtype=dtype),
        "k_weight": Tensor(rng.standard_normal((c, c)) * 0.1, dtype=dtype),
        "k_bias": Tensor(rng.standard_normal(c) * 0.1, dtype=dtype),
        "v_weight": Tensor(rng.standard_normal((c, c)) * 0.1, dtype=dtype),
        "v_bias": Tensor(rng.standard_normal(c) * 0.1, dtype=dtype),
        "out_weight": Tensor(rng.standard_normal((c, c)) * 0.1, dtype=dtype),
        "out_bias": Tensor(rng.standard_normal(c) * 0.1, dtype=dtype),
    }
    if reduction > 1:
        p["sr_weight"] = Tensor(rng.standard_normal((c * reduction, c)) * 0.05,
                                dtype=dtype)
        p["sr_bias"] = Tensor(rng.standard_normal(c) * 0.1, dtype=dtype)
        p["srnorm.gamma"] = Tensor(np.ones(c), dtype=dtype)
        p["srnorm.beta"] = Tensor(np.zeros(c), dtype=dtype)
    return p


def graph_nodes(out):
    """Every autograd node that ``out``'s backward would reach."""
    nodes, stack, seen = [], [out._node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def standard_attention_oracle(tokens, p, heads, kv=None):
    """Plain full self-attention in numpy, independent of the tensor library.

    Keys and values come from ``kv`` ([B,M,C]) when given, else from the
    tokens themselves.
    """
    b, n, c = tokens.shape
    kv = tokens if kv is None else kv
    d = c // heads
    q = tokens @ p["q_weight"].data + p["q_bias"].data
    k = kv @ p["k_weight"].data + p["k_bias"].data
    v = kv @ p["v_weight"].data + p["v_bias"].data

    def split(x):
        return x.reshape(b, -1, heads, d).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q), split(k), split(v)
    scores = qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(d)
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=-1, keepdims=True)
    ctx = (w @ vh).transpose(0, 2, 1, 3).reshape(b, n, c)
    return ctx @ p["out_weight"].data + p["out_bias"].data


def reduced_attention_oracle(tokens, h, w, p, reduction, heads, eps=1e-5):
    """Spatial-reduction attention in plain numpy on [B,N,C] tokens.

    Each sqrt(R) x sqrt(R) tile is flattened in (row, column, channel) order,
    projected by ``sr_weight`` and layer-normalized over C; the shortened
    sequence then feeds standard attention as keys and values.
    """
    b, n, c = tokens.shape
    r = math.isqrt(reduction)
    grid = tokens.reshape(b, h, w, c)
    tiles = []
    for ti in range(h // r):
        for tj in range(w // r):
            tile = grid[:, ti * r:(ti + 1) * r, tj * r:(tj + 1) * r, :]
            tiles.append(tile.reshape(b, reduction * c))  # (row, col, channel)
    red = np.stack(tiles, axis=1) @ p["sr_weight"].data + p["sr_bias"].data
    mu = red.mean(axis=-1, keepdims=True)
    var = ((red - mu) ** 2).mean(axis=-1, keepdims=True)
    red = p["srnorm.gamma"].data * (red - mu) / np.sqrt(var + eps) \
        + p["srnorm.beta"].data
    return standard_attention_oracle(tokens, p, heads, kv=red)


def cf(tokens):
    """Swap [B,N,C] token-last arrays and [B,C,N] channel-first ones."""
    return np.ascontiguousarray(np.swapaxes(tokens, 1, 2))


class TestModelConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.stage_dims(0) == (64, 64)
        assert [cfg.stage_dims(i) for i in range(4)] == \
            [(64, 64), (32, 32), (16, 16), (8, 8)]

    def test_heads_must_divide_channels(self):
        with pytest.raises(ConfigError):
            ModelConfig(stage_channels=(32, 65, 160, 256))

    def test_reduction_must_divide_grid(self):
        # 40x40 input gives a 10x10 stage-1 grid; sqrt(64)=8 does not divide 10
        with pytest.raises(ConfigError):
            ModelConfig(input_size=(40, 40))

    def test_normalization_scope(self):
        assert ModelConfig().normalization_scope == "slice"
        assert ModelConfig(normalization_scope="volume").normalization_scope \
            == "volume"
        with pytest.raises(ConfigError, match="slice|volume"):
            ModelConfig(normalization_scope="patient")

    @pytest.mark.parametrize("field,value", [
        ("num_heads", (1, 0, 4, 8)), ("stage_depths", (1, 1, 1)),
        ("stage_channels", (8, 8, 8, 0)), ("num_heads", (1, 2, 4, 8.0)),
        ("input_size", (32, 64)),
    ])
    def test_sizes_outside_the_contract_rejected(self, field, value):
        from dataclasses import asdict
        kwargs = dict(asdict(ModelConfig.tiny()), **{field: value})
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs)


class TestOverlapPatchEmbed:
    def test_stage_dims_from_256(self, rng):
        cfg = ModelConfig()
        params = init_parameters(cfg, 0)
        x = Tensor(rng.uniform(0, 1, (1, 1, 256, 256)).astype(np.float32))
        tokens, h, w = overlap_patch_embed(x, params, cfg, 0)
        assert (h, w) == (64, 64) and cf(tokens.data).shape == (1, 4096, 32)

    def test_token_count_stage1(self):
        assert ModelConfig().stage_dims(0)[0] * ModelConfig().stage_dims(0)[1] == 4096

    def test_zero_image_bias_only_uniform(self):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 3)
        x = Tensor(np.zeros((2, 1, 32, 32), np.float32))
        tokens, h, w = overlap_patch_embed(x, params, cfg, 0)
        first = cf(tokens.data)[:, :1, :]
        np.testing.assert_allclose(cf(tokens.data), np.broadcast_to(
            first, cf(tokens.data).shape), atol=1e-6)

    def test_input_smaller_than_kernel(self):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        with pytest.raises(ShapeError):
            overlap_patch_embed(Tensor(np.zeros((1, 1, 1, 1), np.float32)),
                                params, cfg, 1)


class TestEfficientAttention:
    def test_r1_matches_standard_attention(self, rng):
        b, h, w, c, heads = 2, 8, 8, 16, 4
        tokens = rng.standard_normal((b, h * w, c)).astype(np.float32)
        p = attn_params(c, 1, heads, rng, dtype=np.float32)
        got = efficient_attention(Tensor(cf(tokens)), h, w, p, 1, heads)
        want = standard_attention_oracle(tokens.astype(np.float64),
                                         p, heads)
        assert np.abs(cf(got.data) - want).max() < 1e-6

    @pytest.mark.parametrize("reduction", [4, 16, 64])
    def test_reduced_matches_token_last_oracle(self, rng, reduction):
        b, h, w, c, heads = 2, 16, 16, 8, 2
        tokens = rng.standard_normal((b, h * w, c))
        p = attn_params(c, reduction, heads, rng)
        p["srnorm.gamma"] = Tensor(1.0 + 0.5 * rng.standard_normal(c),
                                   dtype=np.float64)
        p["srnorm.beta"] = Tensor(0.5 * rng.standard_normal(c), dtype=np.float64)
        got = efficient_attention(Tensor(cf(tokens), dtype=np.float64), h, w, p,
                                  reduction, heads)
        want = reduced_attention_oracle(tokens, h, w, p, reduction, heads)
        assert np.abs(cf(got.data) - want).max() < 1e-12

    def test_kv_length_is_n_over_r(self, rng):
        n, c, r = 4096, 16, 64
        tokens = Tensor(cf(rng.standard_normal((1, n, c)).astype(np.float32)))
        p = attn_params(c, r, 1, rng, dtype=np.float32)
        _, weights = efficient_attention(tokens, 64, 64, p, r, 1,
                                         return_weights=True)
        assert weights.shape == (1, 1, n, n // r)
        assert weights.shape[-1] == 64

    def test_single_token_weight_exactly_one(self, rng):
        c = 8
        tokens = Tensor(rng.standard_normal((1, 1, c)).astype(np.float32))
        p = attn_params(c, 1, 2, rng, dtype=np.float32)
        out, weights = efficient_attention(Tensor(cf(tokens.data)), 1, 1, p, 1, 2,
                                           return_weights=True)
        np.testing.assert_array_equal(weights.data,
                                      np.ones_like(weights.data))
        # output is the out-projection of the value projection of the token
        v = tokens.data @ p["v_weight"].data + p["v_bias"].data
        want = v @ p["out_weight"].data + p["out_bias"].data
        np.testing.assert_allclose(cf(out.data), want, atol=1e-6)

    def test_weight_rows_sum_to_one_every_stage_and_head(self, rng):
        cfg = ModelConfig()
        params = init_parameters(cfg, 5)
        for i in range(4):
            h, w = cfg.stage_dims(i)
            c = cfg.stage_channels[i]
            tokens = Tensor(cf(rng.standard_normal((2, h * w, c))
                               .astype(np.float32)))
            p = subparams(params, f"stage{i + 1}.block0.attn")
            _, wts = efficient_attention(tokens, h, w, p,
                                         REDUCTION_FACTORS[i],
                                         cfg.num_heads[i], return_weights=True)
            sums = wts.data.sum(axis=-1)
            assert np.abs(sums - 1.0).max() < 1e-6
            assert wts.shape[1] == cfg.num_heads[i]

    @pytest.mark.parametrize("n,h,w,reduction,heads,error,match", [
        (12, 3, 4, 4, 1, ConfigError, "does not divide token grid 3x4"),
        (12, 4, 4, 1, 1, ShapeError, "token count 12 != 4x4"),
        (16, 4, 4, 1, 3, ConfigError, "not divisible by 3 heads"),
        (16, 4, 4, 2, 1, ConfigError, "2 is not a perfect square"),
    ], ids=["r-not-dividing-grid", "n-not-h-times-w", "heads-not-dividing-c",
            "r-not-square"])
    def test_bad_geometry_rejected(self, rng, n, h, w, reduction, heads, error,
                                   match):
        c = 8
        tokens = Tensor(cf(rng.standard_normal((1, n, c)).astype(np.float32)))
        p = attn_params(c, reduction, heads, rng, dtype=np.float32)
        with pytest.raises(error, match=match):
            efficient_attention(tokens, h, w, p, reduction, heads)

    def test_cost_scales_with_reduction(self, rng):
        c, heads = 16, 1
        n, h, w = 1024, 32, 32
        tokens = Tensor(cf(rng.standard_normal((1, n, c)).astype(np.float32)))
        flops = {}
        for r in (1, 16):
            p = attn_params(c, r, heads, rng, dtype=np.float32)
            with FlopCounter() as fc:
                efficient_attention(tokens, h, w, p, r, heads)
            flops[r] = fc.flops
        assert flops[1] / flops[16] >= 8.0


class TestMixFfn:
    def test_zero_input_bias_pattern_uniform_interior(self, rng):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 4)
        h, w = 8, 8
        tokens = Tensor(cf(np.zeros((1, h * w, 8), np.float32)))
        out = mix_ffn(tokens, h, w, subparams(params, "stage1.block0.ffn"))
        grid = cf(out.data).reshape(h, w, 8)
        # zero padding makes border positions differ; the interior is uniform
        interior = grid[1:-1, 1:-1]
        np.testing.assert_allclose(
            interior, np.broadcast_to(interior[:1, :1], interior.shape),
            atol=1e-6)

    def test_shape_preserved_all_stages(self, rng):
        cfg = ModelConfig()
        params = init_parameters(cfg, 1)
        for i in range(4):
            h, w = cfg.stage_dims(i)
            c = cfg.stage_channels[i]
            tokens = Tensor(cf(rng.standard_normal((2, h * w, c))
                               .astype(np.float32)))
            out = mix_ffn(tokens, h, w,
                          subparams(params, f"stage{i + 1}.block0.ffn"))
            assert out.shape == tokens.shape

    def test_token_swap_changes_neighbors_only(self, rng):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 9)
        h, w, c = 8, 8, 8
        p = subparams(params, "stage1.block0.ffn")
        base = rng.standard_normal((1, h * w, c)).astype(np.float32)
        swapped = base.copy()
        a, b = 2 * w + 2, 5 * w + 5  # grid positions (2,2) and (5,5)
        swapped[0, [a, b]] = swapped[0, [b, a]]
        out_a = cf(mix_ffn(Tensor(cf(base)), h, w, p).data).reshape(h, w, c)
        out_b = cf(mix_ffn(Tensor(cf(swapped)), h, w, p).data).reshape(h, w, c)
        diff = np.abs(out_a - out_b).max(axis=-1)
        assert diff[2, 3] > 1e-6 and diff[5, 4] > 1e-6  # neighbors affected
        assert diff[0, 7] < 1e-7                        # far corner untouched

    def test_token_count_must_match_grid(self):
        params = init_parameters(ModelConfig.tiny(), 0)
        tokens = Tensor(np.zeros((1, 8, 12), np.float32))
        with pytest.raises(ShapeError, match="token count 12 != 4x4"):
            mix_ffn(tokens, 4, 4, subparams(params, "stage1.block0.ffn"))


class TestEncoderDecoder:
    def test_default_config_output_shapes(self, rng):
        cfg = ModelConfig()
        params = init_parameters(cfg, 0)
        x = Tensor(rng.uniform(0, 1, (1, 1, 256, 256)).astype(np.float32))
        feats = encoder_forward(x, params, cfg)
        assert [f.shape for f in feats] == [
            (1, 32, 64, 64), (1, 64, 32, 32), (1, 160, 16, 16), (1, 256, 8, 8)]

    def test_deterministic_forward(self, rng):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        x = Tensor(rng.uniform(0, 1, (2, 1, 32, 32)).astype(np.float32))
        a = model_forward(x, params, cfg)
        b = model_forward(x, params, cfg)
        np.testing.assert_array_equal(a.data, b.data)

    def test_wrong_input_size_rejected(self, rng):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        with pytest.raises(ShapeError):
            encoder_forward(Tensor(np.zeros((1, 1, 64, 64), np.float32)),
                            params, cfg)

    def test_decoder_output_shape(self, rng):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        for batch in (1, 3):
            x = Tensor(rng.uniform(0, 1, (batch, 1, 32, 32)).astype(np.float32))
            logits = decoder_forward(encoder_forward(x, params, cfg), params, cfg)
            assert logits.shape == (batch, 1, 32, 32)

    def test_zero_features_give_constant_bias_logits(self):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        feats = [Tensor(np.zeros((1, cfg.stage_channels[i]) + cfg.stage_dims(i),
                                 np.float32)) for i in range(4)]
        logits = decoder_forward(feats, params, cfg)
        # zero maps -> convs emit their bias; gelu/upsampling keep the map
        # constant, so logits are one constant everywhere
        assert np.ptp(logits.data) < 1e-6

    def test_head_before_upsample_equals_upsample_before_head(self, rng):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 3, dtype=np.float64)
        x = Tensor(rng.uniform(0, 1, (2, 1, 32, 32)), dtype=np.float64)
        feats = encoder_forward(x, params, cfg)
        got = decoder_forward(feats, params, cfg).data
        d = feats[3]
        for j, si in enumerate((2, 1, 0)):
            d = T.resize_bilinear(d, *feats[si].shape[2:])
            d = T.gelu(T.conv2d(T.concat([d, feats[si]], axis=1),
                                params[f"decoder.fuse{j}.weight"],
                                params[f"decoder.fuse{j}.bias"], padding=1))
        d = T.resize_bilinear(d, *cfg.input_size)
        want = T.conv2d(d, params["decoder.head.weight"],
                        params["decoder.head.bias"]).data
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    @pytest.mark.parametrize("damage,match", [
        ("wrong-shape", "feature 2 has shape"),
        ("three-maps", "expects 4 feature maps, got 3"),
    ])
    def test_mismatched_features_rejected(self, damage, match):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        feats = [Tensor(np.zeros((1, cfg.stage_channels[i]) + cfg.stage_dims(i),
                                 np.float32)) for i in range(4)]
        if damage == "wrong-shape":
            feats[2] = Tensor(np.zeros((1, 99, 2, 2), np.float32))
        else:
            feats = feats[:3]
        with pytest.raises(ShapeError, match=match):
            decoder_forward(feats, params, cfg)

    def test_residual_wiring(self, rng):
        # a block whose attention contributes nothing must pass tokens through
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 2)
        h, w, c = 8, 8, 8
        tokens = rng.standard_normal((1, h * w, c)).astype(np.float32)
        p = subparams(params, "stage1.block0.attn")
        normed = T.layer_norm(Tensor(tokens),
                              params["stage1.block0.norm1.gamma"],
                              params["stage1.block0.norm1.beta"])
        zeroed = dict(p)
        zeroed["out_weight"] = Tensor(np.zeros((c, c), np.float32))
        zeroed["out_bias"] = Tensor(np.zeros(c, np.float32))
        att0 = efficient_attention(normed.transpose(0, 2, 1), h, w, zeroed,
                                   REDUCTION_FACTORS[0], 1)
        block_out = Tensor(tokens) + att0.transpose(0, 2, 1)
        np.testing.assert_allclose(block_out.data, tokens, atol=1e-7)
        # with live attention, output differs from both branch and identity
        att = efficient_attention(normed.transpose(0, 2, 1), h, w, p,
                                  REDUCTION_FACTORS[0], 1).transpose(0, 2, 1)
        full = Tensor(tokens) + att
        assert np.abs(full.data - tokens).max() > 1e-6
        assert np.abs(full.data - att.data).max() > 1e-6


class TestModelForward:
    def test_probabilities_in_unit_interval(self, rng):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        x = Tensor(rng.uniform(0, 1, (2, 1, 32, 32)).astype(np.float32))
        probs = model_forward(x, params, cfg)
        assert probs.data.min() > 0.0 and probs.data.max() < 1.0

    def test_binarized_output_feeds_dice(self, rng):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        x = Tensor(rng.uniform(0, 1, (1, 1, 32, 32)).astype(np.float32))
        mask = model_forward(x, params, cfg).data[0, 0] >= 0.5
        ref = rng.uniform(size=(32, 32)) > 0.8
        d = dice_score(mask, ref)
        assert 0.0 <= d <= 1.0

    def test_untrained_model_on_phantom_is_finite(self):
        from wmhseg.phantom import PhantomConfig, generate_phantom
        from wmhseg.nifti import crop_pad_volume, make_slice_batch
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 123)
        vol, mask = generate_phantom(PhantomConfig(
            size=(64, 64, 3), seed=7, num_lesions_range=(1, 3),
            lesion_radius_mm=(1.5, 2.5)))
        batch = make_slice_batch(vol, target=32)
        probs = model_forward(Tensor(batch), params, cfg)
        assert np.isfinite(probs.data).all()
        pred = probs.data[:, 0] >= 0.5
        ref = crop_pad_volume(mask.data, 32) > 0.5
        d = dice_score(pred, ref)
        assert 0.0 <= d <= 1.0

    def test_graph_keeps_no_matmul_output_that_no_backward_reads(
            self, rng, monkeypatch):
        # a bias add broadcast onto a projection, or a constant scale of the
        # attention scores, would keep the GEMM output alive for a backward
        # that reads only the output gradient; the bias and the scale live
        # inside matmul and softmax instead. Residual adds of a projection
        # to the token stream (same shapes, no broadcast) stay.
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        x = Tensor(rng.uniform(0, 1, (2, 1, 32, 32)).astype(np.float32))
        # op and shape by node id; each entry holds its node, so no id is
        # reused while the test runs
        kinds = {id(t._node): (t._node, "leaf", t.shape)
                 for t in [x, *params.values()]}
        make = T._make

        def recording_make(data, parents, op, check=True):
            out = make(data, parents, op, check)
            kinds[id(out._node)] = (out._node, op, data.shape)
            return out
        monkeypatch.setattr(T, "_make", recording_make)
        nodes = graph_nodes(model_forward(x, params, cfg))

        def op(n):
            return kinds[id(n)][1]

        def shape(n):
            return kinds[id(n)][2]
        for n in nodes:
            if op(n) in ("add", "mul") and any(op(p) == "matmul"
                                               for p in n.parents):
                assert op(n) == "add" and all(
                    shape(p) == shape(n) for p in n.parents), \
                    f"{op(n)} of {[shape(p) for p in n.parents]}"
        ops = [op(n) for n in nodes]
        biased = [n for n in nodes if op(n) == "matmul" and len(n.parents) == 3]
        # q, k, v, out, fc1, fc2 per block, plus sr where reduction > 1
        assert len(biased) == 4 * 6 + sum(r > 1 for r in REDUCTION_FACTORS)
        assert ops.count("softmax") == 4


class TestGraphMemory:
    """The graph holds no arrays: a closure keeps only what its backward
    reads, and the backward frees it once it has run."""

    @staticmethod
    def names(params):
        return {id(p): name for name, p in params.items()}

    def test_residual_operands_die_in_the_forward(self, rng, monkeypatch):
        # a residual add reads only its output gradient, so the GEMM outputs
        # of attention's out projection and of Mix-FFN's fc2 die once added
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        names = self.names(params)
        outputs = []
        project = model_module._project

        def recording_project(x, weight, bias):
            out = project(x, weight, bias)
            if names[id(weight)].endswith(("out_weight", "fc2_weight")):
                outputs.append(weakref.ref(out.data))
            return out
        monkeypatch.setattr(model_module, "_project", recording_project)
        x = Tensor(rng.uniform(0, 1, (2, 1, 32, 32)).astype(np.float32))
        probs = model_forward(x, params, cfg)
        assert probs.requires_grad
        assert len(outputs) == 2 * sum(cfg.stage_depths)
        assert all(r() is None for r in outputs)

    def test_decoder_inputs_die_before_the_first_stage_backward(
            self, rng, monkeypatch):
        # a fuse conv keeps its input for its weight gradient, and drops it
        # with its closure once that has run, long before the backward
        # reaches stage 1
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        names = self.names(params)
        fuse_inputs, live = [], []
        conv2d = T.conv2d

        def recording_conv2d(x, weight, bias=None, **kwargs):
            out = conv2d(x, weight, bias, **kwargs)
            name = names.get(id(weight), "")
            if name.startswith("decoder.fuse"):
                fuse_inputs.append(weakref.ref(x.data))
            elif name == "stage1.embed.weight":
                inner = out._backward

                def backward():
                    live.append(sum(r() is not None for r in fuse_inputs))
                    inner()
                out._backward = backward
            return out
        monkeypatch.setattr(T, "conv2d", recording_conv2d)
        x = Tensor(rng.uniform(0, 1, (2, 1, 32, 32)).astype(np.float32))
        y = Tensor((rng.uniform(0, 1, (2, 1, 32, 32)) > 0.8).astype(np.float32))
        combined_loss(model_forward(x, params, cfg), y).total.backward()
        assert len(fuse_inputs) == 3
        assert live == [0]

    def test_each_closure_is_released_once_it_has_run(self, rng):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        x = Tensor(rng.uniform(0, 1, (2, 1, 32, 32)).astype(np.float32))
        y = Tensor((rng.uniform(0, 1, (2, 1, 32, 32)) > 0.8).astype(np.float32))
        loss = combined_loss(model_forward(x, params, cfg), y).total
        nodes = graph_nodes(loss)
        ran, live = [], []

        def wrap(inner):
            def backward():
                live.append(sum(r() is not None for r in ran))
                inner()
                ran.append(weakref.ref(inner))
            return backward
        for node in nodes:
            if node.backward is not None:
                node.backward = wrap(node.backward)
        loss.backward()
        assert len(ran) == len(live) > 100
        assert max(live) == 0
        assert all(n.backward is None and n.parents == () for n in nodes)
        assert all(p.grad is not None for p in params.values())

    def test_leaf_gradients_are_c_ordered(self, rng):
        # every projection weight enters through a transposed view, whose
        # backward hands the leaf an F-ordered gradient
        cfg = ModelConfig.reduced()
        params = init_parameters(cfg, 0)
        x = Tensor(rng.uniform(0, 1, (1, 1) + cfg.input_size).astype(np.float32))
        y = Tensor((rng.uniform(0, 1, x.shape) > 0.9).astype(np.float32))
        combined_loss(model_forward(x, params, cfg), y).total.backward()
        assert all(p.grad.flags.c_contiguous for p in params.values())

    def test_retained_graph_and_backward_peak_within_budget(self, rng):
        # reduced model, 2 samples at 256^2: 52.8 MiB retained and a 64.0 MiB
        # backward peak when the graph held its tensors; 36.8 and 39.8 MiB
        # when closures keep only what they read
        cfg = ModelConfig.reduced()
        params = init_parameters(cfg, 0)
        x = Tensor(rng.uniform(0, 1, (2, 1) + cfg.input_size).astype(np.float32))
        y = Tensor((rng.uniform(0, 1, x.shape) > 0.9).astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = combined_loss(model_forward(x, params, cfg), y).total
            retained = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        mib = 1 << 20
        assert retained <= 42 * mib, retained / mib
        assert peak <= 44 * mib, peak / mib


class TestInitParameters:
    def test_same_seed_bitwise_identical(self):
        cfg = ModelConfig.tiny()
        a = init_parameters(cfg, 42)
        b = init_parameters(cfg, 42)
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)

    def test_different_seeds_differ(self):
        cfg = ModelConfig.tiny()
        a = init_parameters(cfg, 1)
        b = init_parameters(cfg, 2)
        assert any(not np.array_equal(a[k].data, b[k].data) for k in a)

    def test_parameter_count_against_scripted_formula(self):
        for cfg in (ModelConfig(), ModelConfig.tiny(), ModelConfig.reduced()):
            total = 0
            cin = 1                                        # one FLAIR channel
            for i in range(4):
                c = cfg.stage_channels[i]
                k = PATCH_KERNELS[i][0]
                r = REDUCTION_FACTORS[i]
                e = c * 4                                  # Mix-FFN expansion
                total += c * cin * k * k + c + 2 * c       # embed conv + norm
                per_block = (2 * c                         # norm1
                             + 4 * (c * c + c)             # q,k,v,out
                             + 2 * c                       # norm2
                             + (c * e + e)                 # fc1
                             + (e * 9 + e)                 # dw 3x3
                             + (e * c + c))                # fc2
                if r > 1:
                    per_block += (c * r) * c + c + 2 * c   # sr + srnorm
                total += cfg.stage_depths[i] * per_block
                total += 2 * c                             # stage norm
                cin = c
            d_in = cfg.stage_channels[3]
            for si in (2, 1, 0):
                cout = cfg.stage_channels[si]
                total += cout * (d_in + cfg.stage_channels[si]) * 9 + cout
                d_in = cout
            total += d_in + 1                              # 1x1 head to 1 logit
            assert sum(int(np.prod(shape)) for _, shape, _
                       in parameter_specs(cfg)) == total

    def test_count_matches_init(self):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        assert sum(p.size for p in params.values()) == \
            sum(int(np.prod(shape)) for _, shape, _ in parameter_specs(cfg))
        assert set(params) == {path for path, _, _ in parameter_specs(cfg)}


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 77)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert list(loaded) == list(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k].data, params[k].data)
        path2 = tmp_path / "again.ckpt"
        save_checkpoint(path2, loaded, cfg2)
        assert path.read_bytes() == path2.read_bytes()

    def test_scope_recorded(self, tmp_path):
        from dataclasses import replace
        cfg = replace(ModelConfig.tiny(), normalization_scope="volume")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_parameters(cfg, 0), cfg)
        assert load_checkpoint(path)[1].normalization_scope == "volume"

    def test_header_without_scope_loads_as_slice(self, tmp_path):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, cfg)
        path.write_bytes(edit_json_header(
            path.read_bytes(), lambda h: h.pop("normalization_scope")))
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg and cfg2.normalization_scope == "slice"
        for k in params:
            np.testing.assert_array_equal(loaded[k].data, params[k].data)

    @pytest.mark.parametrize("key,value", [
        (None, None), ("in_channels", 2), ("out_channels", 2),
        ("ffn_expansion", 0), ("ffn_expansion", 4.0), ("in_channels", True),
        ("reduction_factors", [64, 16, 4, 4]),
        ("reduction_factors", [64, 16, 4, 1.0]),
        ("decoder_channels", [8, 8, 8, 16]),
        # the default model's widths, which a header without the key got
        ("decoder_channels", [32, 64, 160, 256]),
    ], ids=["fixed-values", "in_channels-2", "out_channels-2",
            "ffn_expansion-0", "ffn_expansion-float", "in_channels-bool",
            "reduction-other", "reduction-float", "decoder-other",
            "decoder-default-widths"])
    def test_former_config_keys_only_at_fixed_values(self, tmp_path, key, value):
        # headers from before the channel counts and the expansion were
        # constants carry them, and every header carries the reduction and
        # decoder widths; they load only at the architecture's values
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, cfg)
        fixed = {"in_channels": 1, "out_channels": 1, "ffn_expansion": 4}
        if key is not None:
            fixed[key] = value
        path.write_bytes(edit_json_header(path.read_bytes(),
                                          lambda h: h.update(fixed)))
        if key is None:
            loaded, cfg2 = load_checkpoint(path)
            assert cfg2 == cfg
            for k in params:
                np.testing.assert_array_equal(loaded[k].data, params[k].data)
        else:
            with pytest.raises(DataFormatError, match=f"m.ckpt: .*{key}"):
                load_checkpoint(path)

    @pytest.mark.parametrize("preset", ["tiny", "reduced", "default"])
    def test_header_without_architecture_keys_loads(self, tmp_path, preset):
        cfg = ModelConfig() if preset == "default" else getattr(ModelConfig,
                                                                preset)()
        params = init_parameters(cfg, 0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, cfg)

        def drop_keys(header):
            # written from the architecture, and dropped here
            assert header.pop("reduction_factors") == list(REDUCTION_FACTORS)
            assert header.pop("decoder_channels") == list(cfg.stage_channels)
        path.write_bytes(edit_json_header(path.read_bytes(), drop_keys))
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        for k in params:
            np.testing.assert_array_equal(loaded[k].data, params[k].data)

    def test_magic_bytes(self, tmp_path):
        cfg = ModelConfig.tiny()
        save_checkpoint(tmp_path / "m.ckpt", init_parameters(cfg, 0), cfg)
        assert (tmp_path / "m.ckpt").read_bytes()[:4] == b"WMHS"

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataFormatError):
            load_checkpoint(p)

    @pytest.mark.parametrize("cut", [2, 6, 20, 0.5, -1])
    def test_truncation_names_file(self, tmp_path, cut):
        cfg = ModelConfig.tiny()
        save_checkpoint(tmp_path / "m.ckpt", init_parameters(cfg, 0), cfg)
        blob = (tmp_path / "m.ckpt").read_bytes()
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(blob[:int(len(blob) * cut) if isinstance(cut, float) else cut])
        with pytest.raises(DataFormatError, match="cut.ckpt"):
            load_checkpoint(bad)

    def test_trailing_bytes_and_bad_utf8_rejected(self, tmp_path):
        cfg = ModelConfig.tiny()
        save_checkpoint(tmp_path / "m.ckpt", init_parameters(cfg, 0), cfg)
        blob = (tmp_path / "m.ckpt").read_bytes()
        (tmp_path / "tail.ckpt").write_bytes(blob + b"\x00")
        with pytest.raises(DataFormatError, match="trailing"):
            load_checkpoint(tmp_path / "tail.ckpt")
        broken = bytearray(blob)
        broken[12] = 0xFF  # first byte of the JSON config
        (tmp_path / "utf8.ckpt").write_bytes(bytes(broken))
        with pytest.raises(DataFormatError, match="UTF-8"):
            load_checkpoint(tmp_path / "utf8.ckpt")


    def test_unknown_parameter_rejected(self, tmp_path):
        # wrong shapes and missing parameters are checked through the CLI
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        params["stage5.weight"] = Tensor(np.zeros((2, 2), np.float32))
        save_checkpoint(tmp_path / "m.ckpt", params, cfg)
        with pytest.raises(DataFormatError,
                           match="m.ckpt: unexpected parameter 'stage5.weight'"):
            load_checkpoint(tmp_path / "m.ckpt")


class TestFullModelGradient:
    def test_tiny_config_finite_difference(self, rng):
        """Forward+backward through every layer vs central differences."""
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 7, dtype=np.float64)
        x = Tensor(rng.uniform(0, 1, (1, 1, 32, 32)), dtype=np.float64)
        y = Tensor((rng.uniform(size=(1, 1, 32, 32)) > 0.85).astype(np.float64))

        def loss_value():
            with T.no_grad():
                probs = model_forward(x, params, cfg)
            return combined_loss(probs, y).total.item()

        probs = model_forward(x, params, cfg)
        combined_loss(probs, y).total.backward()

        picks = ["stage1.embed.weight", "stage2.block0.attn.sr_weight",
                 "stage3.block0.ffn.dw_weight", "stage4.block0.attn.q_weight",
                 "decoder.fuse1.weight", "decoder.head.bias",
                 "stage1.block0.norm1.gamma"]
        step = 1e-5
        for path in picks:
            p = params[path]
            flat = p.data.reshape(-1)
            idx = int(rng.integers(flat.size))
            orig = flat[idx]
            flat[idx] = orig + step
            fp = loss_value()
            flat[idx] = orig - step
            fm = loss_value()
            flat[idx] = orig
            num = (fp - fm) / (2 * step)
            ana = p.grad.reshape(-1)[idx]
            assert abs(ana - num) / max(1.0, abs(num)) < 1e-4, path


# SHA-256 of save_checkpoint(init_parameters(cfg, 0), cfg) per preset and
# normalization scope: any drift of the checkpoint format or of the
# initialization shows here
CHECKPOINT_SHA256 = {
    ("tiny", "slice"):
        "3f6d66b189bd416dd1d2d78746824ba2299ede0e5dc0a0ef481e736f68ee47f5",
    ("tiny", "volume"):
        "c1ae9889aad458a32aa4aee6a3a8037c40ffde0cede362eaacef9fb3a8128adb",
    ("reduced", "slice"):
        "25a3ab35d5dab0b4aee447da5739380e59d55b24f94ec7b79d80325d7476d1c7",
    ("reduced", "volume"):
        "d833f139665ee236a55849befc6875a42f5eb9120e1c6ee6a759b83928a5bb17",
    ("default", "slice"):
        "b2390c0778da2f2dbfedd38bc85d37299a89cb644e691672163530d0703fa84d",
    ("default", "volume"):
        "bcf70515d3df0d57bd552338abe82c3e73acbcc24aacc919602ec7250499c711",
}


@pytest.mark.parametrize("preset,scope", list(CHECKPOINT_SHA256))
def test_initial_checkpoint_bytes_pinned(tmp_path, preset, scope):
    import hashlib
    from dataclasses import replace
    base = ModelConfig() if preset == "default" else getattr(ModelConfig, preset)()
    cfg = replace(base, normalization_scope=scope)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_parameters(cfg, 0), cfg)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        CHECKPOINT_SHA256[preset, scope]
