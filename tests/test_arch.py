import warnings

import pytest

from shardsim import (
    CHECKPOINTED,
    FULL_CACHE,
    ConfigError,
    MAEConfig,
    NOMINAL_PARAMS_M,
    PRESETS,
    ViTConfig,
    activation_bytes,
    block_forward_flops,
    flops,
    get_model,
    param_count,
    reference_report,
    token_count,
)

TINY = ViTConfig(width=8, depth=1, mlp=16, heads=2, patch_size=2, image_size=4)


def enumerate_block_tensors(width, mlp):
    """Independent oracle: list every tensor in one block and sum sizes."""
    shapes = {
        "qkv_weight": 3 * width * width,
        "qkv_bias": 3 * width,
        "proj_weight": width * width,
        "proj_bias": width,
        "fc1_weight": width * mlp,
        "fc1_bias": mlp,
        "fc2_weight": mlp * width,
        "fc2_bias": width,
        "norm1": 2 * width,
        "norm2": 2 * width,
    }
    return sum(shapes.values())


class TestTokenCount:
    def test_exact_division(self):
        assert token_count(512, 16, True) == (1024, 1025)
        assert token_count(224, 14, True) == (256, 257)

    def test_no_cls(self):
        assert token_count(224, 14, False) == (256, 256)

    def test_truncation_warns(self):
        with pytest.warns(UserWarning, match="truncating"):
            assert token_count(512, 14, True) == (1296, 1297)

    def test_zero_patch_rejected(self):
        with pytest.raises(ConfigError):
            token_count(512, 0, True)
        with pytest.raises(ConfigError):
            token_count(8, 16, True)


class TestParamCount:
    def test_tiny_block_matches_enumeration(self):
        breakdown = param_count(TINY)
        assert breakdown.per_block == 600
        assert breakdown.per_block == enumerate_block_tensors(8, 16)

    def test_component_fields(self):
        b = param_count(TINY)
        # patch embed 2*2*3*8+8, pos (4+1)*8, cls 8, final norm 16, no head
        assert b.patch_embed == 2 * 2 * 3 * 8 + 8
        assert b.pos_embed == 5 * 8
        assert b.cls_token == 8
        assert b.final_norm == 16
        assert b.head == 0
        assert b.blocks_total == b.per_block * TINY.depth
        assert b.grand_total == sum(b.components().values())

    @pytest.mark.parametrize("name", ["vit-base", "vit-huge", "vit-1b",
                                      "vit-3b", "vit-15b"])
    def test_nominal_rows_within_tolerance(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            total = param_count(PRESETS[name]).grand_total
        nominal = NOMINAL_PARAMS_M[name] * 1_000_000
        assert abs(total - nominal) / nominal <= 0.025

    def test_5b_deviation_is_reported_not_hidden(self):
        rows = {r["model"]: r for r in reference_report()}
        assert "vit-5b" in rows
        # The 5b row cannot be reproduced from its dimensions; the report
        # carries the deviation explicitly.
        assert rows["vit-5b"]["relative_deviation"] < -0.25
        for name in ("vit-base", "vit-huge", "vit-1b", "vit-3b", "vit-15b"):
            assert abs(rows[name]["relative_deviation"]) <= 0.025

    def test_monotone_in_dimensions(self):
        base = ViTConfig(width=64, depth=4, mlp=128, heads=4,
                         patch_size=8, image_size=64)
        total = param_count(base).grand_total
        grown = [
            ViTConfig(width=128, depth=4, mlp=128, heads=4, patch_size=8, image_size=64),
            ViTConfig(width=64, depth=8, mlp=128, heads=4, patch_size=8, image_size=64),
            ViTConfig(width=64, depth=4, mlp=256, heads=4, patch_size=8, image_size=64),
            ViTConfig(width=64, depth=4, mlp=128, heads=4, patch_size=8, image_size=128),
        ]
        for cfg in grown:
            assert param_count(cfg).grand_total >= total

    def test_overflow_guard(self):
        absurd = ViTConfig(width=2_000_000, depth=1_000_000, mlp=4_000_000,
                           heads=2, patch_size=16, image_size=64_000)
        with pytest.raises(OverflowError):
            param_count(absurd)

    def test_head_counted_when_configured(self):
        with_head = ViTConfig(width=8, depth=1, mlp=16, heads=2, patch_size=2,
                              image_size=4, num_classes=10)
        assert param_count(with_head).head == 8 * 10 + 10

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ViTConfig(width=10, depth=1, mlp=16, heads=3, patch_size=2, image_size=4)
        with pytest.raises(ConfigError):
            ViTConfig(width=8, depth=0, mlp=16, heads=2, patch_size=2, image_size=4)


class TestMAEParamCount:
    def test_decoder_portion_default_decoder(self):
        encoder = ViTConfig(width=768, depth=12, mlp=3072, heads=12,
                            patch_size=16, image_size=224)
        mae = MAEConfig(encoder=encoder)
        b = param_count(mae)
        assert b.decoder_per_block == 3_152_384
        assert b.decoder_per_block == enumerate_block_tensors(512, 2048)
        assert b.decoder_blocks_total == 8 * 3_152_384
        assert b.decoder_head == 512 * 16 * 16 * 3 + 16 * 16 * 3 == 393_984
        assert b.decoder_embed == 768 * 512 + 512
        assert b.mask_token == 512
        assert b.decoder_pos_embed == 197 * 512

    def test_mask_ratio_never_changes_params(self):
        encoder = PRESETS["vit-base"]
        totals = {param_count(MAEConfig(encoder=encoder, mask_ratio=r)).grand_total
                  for r in (0.0, 0.5, 0.75, 0.9)}
        assert len(totals) == 1

    def test_decoder_overhead_small_for_multi_billion_encoder(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            enc_total = param_count(PRESETS["vit-3b"]).grand_total
            mae_total = param_count(MAEConfig(encoder=PRESETS["vit-3b"])).grand_total
        assert mae_total < 1.15 * enc_total

    def test_grand_total_is_component_sum(self):
        mae = MAEConfig(encoder=TINY)
        b = param_count(mae)
        assert b.grand_total == sum(b.components().values())

    def test_mask_ratio_bounds(self):
        with pytest.raises(ConfigError):
            MAEConfig(encoder=TINY, mask_ratio=1.0)
        with pytest.raises(ConfigError):
            MAEConfig(encoder=TINY, mask_ratio=-0.1)


class TestFlops:
    def test_linear_in_batch(self):
        cfg = PRESETS["vit-base"]
        one = flops(cfg, 1)
        four = flops(cfg, 4)
        assert four.encoder_total == pytest.approx(4 * one.encoder_total, rel=1e-12)
        assert four.per_block_forward == pytest.approx(4 * one.per_block_forward)

    def test_attention_term_quadratic(self):
        # Doubling tokens doubles the linear matmul term and quadruples the
        # attention term; the difference isolates the quadratic part.
        w, m, t = 64, 256, 37
        excess = block_forward_flops(2 * t, w, m) - 2 * block_forward_flops(t, w, m)
        assert excess == 4 * w * (2 * t) ** 2 - 2 * (4 * w * t * t)
        assert excess == 8 * t * t * w

    def test_mask_zero_gives_full_sequence(self):
        mae = MAEConfig(encoder=PRESETS["vit-base"], mask_ratio=0.0)
        profile = flops(mae, 1)
        assert profile.tokens_encoder == 1025
        assert profile.tokens_decoder == 1025

    def test_default_masking_token_count(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            mae = MAEConfig(encoder=PRESETS["vit-3b"])  # 1296 patches at 512/14
            profile = flops(mae, 1)
        assert profile.tokens_encoder == round(0.25 * 1296) + 1 == 325

    def test_decoder_fraction_below_ten_percent(self):
        # Same token count on both stacks compares per-token cost directly.
        for name in ("vit-large", "vit-huge", "vit-3b"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                mae = MAEConfig(encoder=PRESETS[name], mask_ratio=0.0)
                profile = flops(mae, 1)
            assert profile.decoder_total / profile.encoder_total < 0.10

    def test_backward_multiplier(self):
        profile = flops(PRESETS["vit-base"], 2)
        assert profile.backward_total == 2.0 * profile.forward_total
        assert profile.train_step_total == 3.0 * profile.forward_total


class TestActivationBytes:
    def test_direct_formula_evaluation(self):
        # depth 1, t=2 (1 patch + cls), w=4, heads 1, factor 8, 4-byte:
        # 8*2*4*4 + 1*2*2*4 = 256 + 16 = 272
        cfg = ViTConfig(width=4, depth=1, mlp=8, heads=1, patch_size=4, image_size=4)
        estimate = activation_bytes(cfg, 1, model=FULL_CACHE)
        assert estimate.bytes_per_rank == 272

    def test_batch_linearity(self):
        cfg = PRESETS["vit-base"]
        one = activation_bytes(cfg, 1, model=FULL_CACHE).bytes_per_rank
        two = activation_bytes(cfg, 2, model=FULL_CACHE).bytes_per_rank
        assert two == 2 * one

    @pytest.mark.parametrize("cfg", [
        TINY,
        PRESETS["vit-base"],
        MAEConfig(encoder=PRESETS["vit-base"]),
    ])
    def test_checkpointed_never_exceeds_full_cache(self, cfg):
        full = activation_bytes(cfg, 3, model=FULL_CACHE).bytes_per_rank
        ckpt = activation_bytes(cfg, 3, model=CHECKPOINTED).bytes_per_rank
        assert ckpt <= full

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            activation_bytes(TINY, 0)
        with pytest.raises(ConfigError):
            activation_bytes(TINY, 1, model="mystery")


class TestPresets:
    def test_every_nominal_row_addressable(self):
        for name in NOMINAL_PARAMS_M:
            assert isinstance(get_model(name), ViTConfig)

    def test_mae_wrapper(self):
        mae = get_model("mae-3b")
        assert isinstance(mae, MAEConfig)
        assert mae.encoder == PRESETS["vit-3b"]
        assert mae.decoder_width == 512 and mae.decoder_depth == 8
        assert mae.mask_ratio == 0.75

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            get_model("vit-9000")
