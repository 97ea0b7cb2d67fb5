"""Network architecture: shapes, attention oracle, wiring, init, checkpoints."""

import math

import numpy as np
import pytest

from wmhseg import tensor as T
from wmhseg.errors import ConfigError, DataFormatError, ShapeError
from wmhseg.losses import combined_loss
from wmhseg.model import (ModelConfig, PATCH_KERNELS, decoder_forward,
                          efficient_attention, encoder_forward,
                          init_parameters, load_checkpoint, mix_ffn,
                          model_forward, overlap_patch_embed, parameter_count,
                          parameter_specs, save_checkpoint, subparams)
from wmhseg.metrics import dice_score
from wmhseg.tensor import FlopCounter, Tensor


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


def standard_attention_oracle(tokens, p, heads):
    """Plain full self-attention in numpy, independent of the tensor library."""
    b, n, c = tokens.shape
    d = c // heads
    q = tokens @ p["q_weight"].data + p["q_bias"].data
    k = tokens @ p["k_weight"].data + p["k_bias"].data
    v = tokens @ p["v_weight"].data + p["v_bias"].data

    def split(x):
        return x.reshape(b, n, heads, d).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q), split(k), split(v)
    scores = qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(d)
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=-1, keepdims=True)
    ctx = (w @ vh).transpose(0, 2, 1, 3).reshape(b, n, c)
    return ctx @ p["out_weight"].data + p["out_bias"].data


class TestModelConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.stage_dims(0) == (64, 64)
        assert [cfg.stage_dims(i) for i in range(4)] == \
            [(64, 64), (32, 32), (16, 16), (8, 8)]

    def test_heads_must_divide_channels(self):
        with pytest.raises(ConfigError):
            ModelConfig(stage_channels=(32, 65, 160, 256))

    def test_reduction_must_be_perfect_square(self):
        with pytest.raises(ConfigError):
            ModelConfig(reduction_factors=(32, 16, 4, 1))

    def test_reduction_must_divide_grid(self):
        # 40x40 input gives a 10x10 stage-1 grid; sqrt(64)=8 does not divide 10
        with pytest.raises(ConfigError):
            ModelConfig(input_size=(40, 40))


class TestOverlapPatchEmbed:
    def test_stage_dims_from_256(self, rng):
        cfg = ModelConfig()
        params = init_parameters(cfg, 0)
        x = Tensor(rng.uniform(0, 1, (1, 1, 256, 256)).astype(np.float32))
        tokens, h, w = overlap_patch_embed(x, params, cfg, 0)
        assert (h, w) == (64, 64) and tokens.shape == (1, 4096, 32)

    def test_token_count_stage1(self):
        assert ModelConfig().stage_dims(0)[0] * ModelConfig().stage_dims(0)[1] == 4096

    def test_zero_image_bias_only_uniform(self):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 3)
        x = Tensor(np.zeros((2, 1, 32, 32), np.float32))
        tokens, h, w = overlap_patch_embed(x, params, cfg, 0)
        first = tokens.data[:, :1, :]
        np.testing.assert_allclose(tokens.data, np.broadcast_to(
            first, tokens.shape), atol=1e-6)

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
        got = efficient_attention(Tensor(tokens), h, w, p, 1, heads)
        want = standard_attention_oracle(tokens.astype(np.float64),
                                         p, heads)
        assert np.abs(got.data - want).max() < 1e-6

    def test_kv_length_is_n_over_r(self, rng):
        n, c, r = 4096, 16, 64
        tokens = Tensor(rng.standard_normal((1, n, c)).astype(np.float32))
        p = attn_params(c, r, 1, rng, dtype=np.float32)
        _, weights = efficient_attention(tokens, 64, 64, p, r, 1,
                                         return_weights=True)
        assert weights.shape == (1, 1, n, n // r)
        assert weights.shape[-1] == 64

    def test_single_token_weight_exactly_one(self, rng):
        c = 8
        tokens = Tensor(rng.standard_normal((1, 1, c)).astype(np.float32))
        p = attn_params(c, 1, 2, rng, dtype=np.float32)
        out, weights = efficient_attention(tokens, 1, 1, p, 1, 2,
                                           return_weights=True)
        np.testing.assert_array_equal(weights.data,
                                      np.ones_like(weights.data))
        # output is the out-projection of the value projection of the token
        v = tokens.data @ p["v_weight"].data + p["v_bias"].data
        want = v @ p["out_weight"].data + p["out_bias"].data
        np.testing.assert_allclose(out.data, want, atol=1e-6)

    def test_weight_rows_sum_to_one_every_stage_and_head(self, rng):
        cfg = ModelConfig()
        params = init_parameters(cfg, 5)
        for i in range(4):
            h, w = cfg.stage_dims(i)
            c = cfg.stage_channels[i]
            tokens = Tensor(rng.standard_normal((2, h * w, c))
                            .astype(np.float32))
            p = subparams(params, f"stage{i + 1}.block0.attn")
            _, wts = efficient_attention(tokens, h, w, p,
                                         cfg.reduction_factors[i],
                                         cfg.num_heads[i], return_weights=True)
            sums = wts.data.sum(axis=-1)
            assert np.abs(sums - 1.0).max() < 1e-6
            assert wts.shape[1] == cfg.num_heads[i]

    def test_r_not_dividing_grid_rejected(self, rng):
        c = 8
        tokens = Tensor(rng.standard_normal((1, 12, c)).astype(np.float32))
        p = attn_params(c, 4, 1, rng, dtype=np.float32)
        with pytest.raises(ConfigError):
            efficient_attention(tokens, 3, 4, p, 4, 1)

    def test_cost_scales_with_reduction(self, rng):
        c, heads = 16, 1
        n, h, w = 1024, 32, 32
        tokens = Tensor(rng.standard_normal((1, n, c)).astype(np.float32))
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
        tokens = Tensor(np.zeros((1, h * w, 8), np.float32))
        out = mix_ffn(tokens, h, w, subparams(params, "stage1.block0.ffn"))
        grid = out.data.reshape(h, w, 8)
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
            tokens = Tensor(rng.standard_normal((2, h * w, c))
                            .astype(np.float32))
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
        out_a = mix_ffn(Tensor(base), h, w, p).data.reshape(h, w, c)
        out_b = mix_ffn(Tensor(swapped), h, w, p).data.reshape(h, w, c)
        diff = np.abs(out_a - out_b).max(axis=-1)
        assert diff[2, 3] > 1e-6 and diff[5, 4] > 1e-6  # neighbors affected
        assert diff[0, 7] < 1e-7                        # far corner untouched


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

    def test_mismatched_features_rejected(self):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        feats = [Tensor(np.zeros((1, cfg.stage_channels[i]) + cfg.stage_dims(i),
                                 np.float32)) for i in range(4)]
        feats[2] = Tensor(np.zeros((1, 99, 2, 2), np.float32))
        with pytest.raises(ShapeError):
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
        att0 = efficient_attention(normed, h, w, zeroed,
                                   cfg.reduction_factors[0], 1)
        block_out = Tensor(tokens) + att0
        np.testing.assert_allclose(block_out.data, tokens, atol=1e-7)
        # with live attention, output differs from both branch and identity
        att = efficient_attention(normed, h, w, p, cfg.reduction_factors[0], 1)
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
        from wmhseg.nifti import crop_pad_slice, make_slice_batch
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 123)
        vol, mask = generate_phantom(PhantomConfig(
            size=(64, 64, 3), seed=7, num_lesions_range=(1, 3),
            lesion_radius_mm=(1.5, 2.5)))
        batch = make_slice_batch(vol, "p", target=32)
        probs = model_forward(Tensor(batch.tensor), params, cfg)
        assert np.isfinite(probs.data).all()
        pred = probs.data[:, 0] >= 0.5
        ref = np.stack([crop_pad_slice(mask.data[:, :, k], 32) > 0.5
                        for k in range(3)])
        d = dice_score(pred, ref)
        assert 0.0 <= d <= 1.0


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
            cin = cfg.in_channels
            for i in range(4):
                c = cfg.stage_channels[i]
                k = PATCH_KERNELS[i][0]
                r = cfg.reduction_factors[i]
                e = c * cfg.ffn_expansion
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
                cout = cfg.decoder_channels[si]
                total += cout * (d_in + cfg.stage_channels[si]) * 9 + cout
                d_in = cout
            total += cfg.out_channels * d_in + cfg.out_channels
            assert parameter_count(cfg) == total

    def test_count_matches_init(self):
        cfg = ModelConfig.tiny()
        params = init_parameters(cfg, 0)
        assert sum(p.size for p in params.values()) == parameter_count(cfg)
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
