"""Closed-form workload accounting for ViT encoders and MAE encoder-decoder models.

Everything in this module is integer/float arithmetic over architecture
hyper-parameters: parameter tensors, forward/backward FLOPs, token counts, and
a declared activation-memory model. No tensors are allocated and no ML
framework is involved.

Conventions:
  * a transformer block is qkv + attention projection + two-layer MLP + two
    layernorms, all with biases;
  * FLOPs count one multiply-add as 2 ops;
  * backward FLOPs are 2x forward (`BACKWARD_MULTIPLIER`);
  * byte figures are decimal (1 GB = 1e9 B) unless a caller converts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

from .errors import ConfigError, check_field_types

_INT64_MAX = 2**63 - 1

FULL_CACHE = "full-cache"
CHECKPOINTED = "checkpointed"

BACKWARD_MULTIPLIER = 2.0   # backward FLOPs per forward FLOP
ACTIVATION_PRECISION = 4    # bytes per activation value (fp32)
ACTIVATION_FACTOR = 8       # (tokens, width) tensors one block keeps


@dataclass(frozen=True)
class ViTConfig:
    """Encoder hyper-parameters.

    `width` is the embedding dimension, `mlp` the hidden width of the
    feed-forward sublayer.  `num_classes=0` means a pretraining backbone with
    no classifier head, which is the default everywhere here.
    """

    width: int
    depth: int
    mlp: int
    heads: int
    patch_size: int
    image_size: int
    in_channels: int = 3
    include_cls_token: bool = True
    num_classes: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("width", "depth", "mlp", "heads", "patch_size",
                     "image_size", "in_channels"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.width % self.heads:
            raise ConfigError(
                f"width {self.width} is not divisible by heads {self.heads}")
        if self.patch_size > self.image_size:
            raise ConfigError(
                f"patch_size {self.patch_size} exceeds image_size {self.image_size}")
        if self.num_classes < 0:
            raise ConfigError(f"num_classes must be >= 0, got {self.num_classes}")

    @property
    def encoder(self) -> ViTConfig:
        """A plain ViT is its own encoder."""
        return self

    @property
    def decoder_depth(self) -> int:
        """A plain ViT has no decoder blocks."""
        return 0


@dataclass(frozen=True)
class MAEConfig:
    """Masked-autoencoder pretraining workload: encoder + lightweight decoder.

    The decoder defaults to 8 blocks of width 512 with an MLP ratio of 4 and
    16 heads; `mask_ratio` is the fraction of patch tokens hidden from the
    encoder.
    """

    encoder: ViTConfig
    decoder_width: int = 512
    decoder_depth: int = 8
    decoder_heads: int = 16
    mask_ratio: float = 0.75

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ConfigError(
                f"mask_ratio must lie in [0, 1), got {self.mask_ratio}")
        for name in ("decoder_width", "decoder_depth", "decoder_heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.decoder_width % self.decoder_heads:
            raise ConfigError("decoder_width not divisible by decoder_heads")

    @property
    def decoder_mlp(self) -> int:
        return 4 * self.decoder_width


@dataclass(frozen=True)
class ParamBreakdown:
    """Per-component parameter counts; decoder fields stay 0 for plain ViTs.

    `per_block` / `decoder_per_block` are per-unit sizes, the remaining fields
    are totals and sum to `grand_total`.
    """

    per_block: int
    blocks_total: int
    patch_embed: int
    pos_embed: int
    cls_token: int
    final_norm: int
    head: int
    decoder_per_block: int = 0
    decoder_blocks_total: int = 0
    decoder_embed: int = 0
    decoder_pos_embed: int = 0
    mask_token: int = 0
    decoder_head: int = 0

    @property
    def grand_total(self) -> int:
        return sum(self.components().values())

    def components(self) -> dict[str, int]:
        """Total components only (excludes the per-unit helper fields)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("per_block", "decoder_per_block")}


@dataclass(frozen=True)
class FlopProfile:
    """Forward FLOPs split into encoder/decoder stacks, plus token counts.

    All values are scaled by the batch size passed to :func:`flops`.
    `per_block_forward` / `per_decoder_block_forward` are single-block forward
    costs at the stack's token count.
    """

    per_block_forward: float
    encoder_total: float
    decoder_total: float
    tokens_encoder: int
    tokens_decoder: int
    per_decoder_block_forward: float = 0.0

    @property
    def forward_total(self) -> float:
        return self.encoder_total + self.decoder_total

    @property
    def backward_total(self) -> float:
        return BACKWARD_MULTIPLIER * self.forward_total

    @property
    def train_step_total(self) -> float:
        return self.forward_total + self.backward_total


@dataclass(frozen=True)
class ActivationEstimate:
    """Declared activation-memory model.

    full-cache keeps `factor` tensors of shape (tokens, width) per block plus
    the (heads, tokens, tokens) attention maps for every block.  checkpointed
    keeps one (tokens, width) boundary tensor per block plus a single block's
    factor tensors; attention maps are assumed fused (recomputed in streaming
    fashion) and never materialized.  `factor` is `ACTIVATION_FACTOR` and
    every value takes `ACTIVATION_PRECISION` bytes.
    """

    bytes_per_rank: int
    model: str
    factor: int


def token_count(image_size: int, patch_size: int,
                include_cls: bool = True) -> tuple[int, int]:
    """Patch-grid token count and sequence length for one image.

    Non-divisible image/patch combinations truncate the grid to
    floor(image/patch) per side and emit a warning.
    """
    if patch_size < 1:
        raise ConfigError(f"patch_size must be >= 1, got {patch_size}")
    if image_size < patch_size:
        raise ConfigError(
            f"image_size {image_size} smaller than patch_size {patch_size}")
    side = image_size // patch_size
    if image_size % patch_size:
        warnings.warn(
            f"image_size {image_size} is not a multiple of patch_size "
            f"{patch_size}; truncating to a {side}x{side} patch grid",
            UserWarning, stacklevel=2)
    patch_tokens = side * side
    return patch_tokens, patch_tokens + (1 if include_cls else 0)


def block_params(width: int, mlp: int) -> int:
    """Parameters of one transformer block (qkv, proj, fc1, fc2, 2 norms)."""
    qkv = 3 * width * width + 3 * width
    proj = width * width + width
    fc1 = width * mlp + mlp
    fc2 = mlp * width + width
    norms = 2 * (2 * width)
    return qkv + proj + fc1 + fc2 + norms


def _tokens(cfg: ViTConfig | MAEConfig) -> tuple[ViTConfig, int, int, int]:
    """The encoder of a ViT or MAE config, its patch-grid token count, its
    sequence length, and the tokens the encoder runs on: the sequence for a
    ViT, the visible patches (rounded) plus cls for an MAE."""
    enc = cfg.encoder
    patch_tokens, seq = token_count(enc.image_size, enc.patch_size,
                                    enc.include_cls_token)
    if enc is cfg:
        return enc, patch_tokens, seq, seq
    visible = round((1.0 - cfg.mask_ratio) * patch_tokens)
    return enc, patch_tokens, seq, visible + (1 if enc.include_cls_token else 0)


def param_count(cfg: ViTConfig | MAEConfig) -> ParamBreakdown:
    """Exact parameter breakdown of a ViT backbone or a full MAE model.

    An MAE adds its decoder blocks, the encoder-to-decoder projection, decoder
    position embeddings, the mask token, and the pixel-reconstruction head.
    Masking is runtime-only and never changes parameter counts.
    """
    enc, _, seq, _ = _tokens(cfg)
    w = enc.width
    patch_dim = enc.patch_size ** 2 * enc.in_channels
    per_block = block_params(w, enc.mlp)
    decoder = {}
    if isinstance(cfg, MAEConfig):
        wd = cfg.decoder_width
        dec_block = block_params(wd, cfg.decoder_mlp)
        decoder = dict(decoder_per_block=dec_block,
                       decoder_blocks_total=dec_block * cfg.decoder_depth,
                       decoder_embed=w * wd + wd, decoder_pos_embed=seq * wd,
                       mask_token=wd, decoder_head=wd * patch_dim + patch_dim)
    breakdown = ParamBreakdown(
        per_block=per_block,
        blocks_total=per_block * enc.depth,
        patch_embed=patch_dim * w + w,
        pos_embed=seq * w,
        cls_token=w if enc.include_cls_token else 0,
        final_norm=2 * w,
        head=enc.num_classes * w + enc.num_classes if enc.num_classes else 0,
        **decoder,
    )
    # Counts are consumed as 64-bit integers downstream; refuse to emit more.
    if breakdown.grand_total > _INT64_MAX:
        raise OverflowError(f"parameter count {breakdown.grand_total} "
                            "exceeds the 64-bit integer range")
    return breakdown


def block_forward_flops(tokens: int, width: int, mlp: int) -> float:
    """Forward FLOPs of one block on `tokens` tokens.

    2t(4w^2 + 2wm) covers qkv/proj/fc1/fc2 matmuls; 4t^2 w covers attention
    scores and value aggregation.
    """
    return 2.0 * tokens * (4 * width * width + 2 * width * mlp) \
        + 4.0 * tokens * tokens * width


def flops(cfg: ViTConfig | MAEConfig, batch: int) -> FlopProfile:
    """Forward FLOP profile of one training step's model evaluation.

    For MAE configs the encoder runs on the visible tokens only (the config's
    `mask_ratio` decides how many) while the decoder always sees the full
    sequence at decoder width.
    """
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    enc, patch_tokens, seq, t_enc = _tokens(cfg)
    patch_dim = enc.patch_size ** 2 * enc.in_channels
    per_block = batch * block_forward_flops(t_enc, enc.width, enc.mlp)
    # Patch embedding runs over the full grid before masking drops tokens.
    embed = 2.0 * batch * patch_tokens * patch_dim * enc.width
    encoder_total = per_block * enc.depth + embed
    if isinstance(cfg, ViTConfig):
        head = 2.0 * batch * enc.width * enc.num_classes
        return FlopProfile(per_block, encoder_total + head, 0.0, seq, 0)
    dec_block = batch * block_forward_flops(seq, cfg.decoder_width,
                                            cfg.decoder_mlp)
    proj = 2.0 * batch * t_enc * enc.width * cfg.decoder_width
    pixel_head = 2.0 * batch * seq * cfg.decoder_width * patch_dim
    return FlopProfile(
        per_block_forward=per_block,
        encoder_total=encoder_total,
        decoder_total=dec_block * cfg.decoder_depth + proj + pixel_head,
        tokens_encoder=t_enc,
        tokens_decoder=seq,
        per_decoder_block_forward=dec_block,
    )


def _stack_bytes(depth: int, batch: int, tokens: int, width: int, heads: int,
                 model: str) -> int:
    factor, precision = ACTIVATION_FACTOR, ACTIVATION_PRECISION
    per_block = factor * tokens * width + heads * tokens * tokens
    full = depth * batch * per_block * precision
    if model == FULL_CACHE:
        return full
    boundary = depth * batch * tokens * width * precision
    working = batch * factor * tokens * width * precision
    # Checkpointing never costs more than caching everything.
    return min(full, boundary + working)


def activation_bytes(cfg: ViTConfig | MAEConfig, batch: int,
                     model: str = CHECKPOINTED) -> ActivationEstimate:
    """Activation-memory estimate per rank under the declared model."""
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    if model not in (FULL_CACHE, CHECKPOINTED):
        raise ConfigError(f"unknown activation model {model!r}")
    enc, _, seq, t_enc = _tokens(cfg)
    stacks = [(enc.depth, t_enc, enc.width, enc.heads)]
    if isinstance(cfg, MAEConfig):
        stacks.append((cfg.decoder_depth, seq, cfg.decoder_width,
                       cfg.decoder_heads))
    total = sum(_stack_bytes(d, batch, t, w, h, model) for d, t, w, h in stacks)
    return ActivationEstimate(bytes_per_rank=total, model=model,
                              factor=ACTIVATION_FACTOR)


# Named presets.  Image size 512 matches the pretraining workload; the
# base/large variants keep 16-pixel patches, everything larger uses 14.
PRESETS: dict[str, ViTConfig] = {
    "vit-base": ViTConfig(width=768, depth=12, mlp=3072, heads=12,
                          patch_size=16, image_size=512),
    "vit-large": ViTConfig(width=1024, depth=24, mlp=4096, heads=16,
                           patch_size=16, image_size=512),
    "vit-huge": ViTConfig(width=1280, depth=32, mlp=5120, heads=16,
                          patch_size=14, image_size=512),
    "vit-1b": ViTConfig(width=1536, depth=32, mlp=6144, heads=16,
                        patch_size=14, image_size=512),
    "vit-3b": ViTConfig(width=2816, depth=32, mlp=11264, heads=32,
                        patch_size=14, image_size=512),
    "vit-5b": ViTConfig(width=1792, depth=56, mlp=15360, heads=16,
                        patch_size=14, image_size=512),
    "vit-15b": ViTConfig(width=5040, depth=48, mlp=20160, heads=48,
                         patch_size=14, image_size=512),
}

# Nominal backbone totals, in millions, that the presets are expected to
# reproduce.  vit-5b's nominal count is not reproducible from its listed
# dimensions under the standard block formula; its deviation is reported by
# reference_report() rather than hidden.
NOMINAL_PARAMS_M: dict[str, int] = {
    "vit-base": 87,
    "vit-huge": 635,
    "vit-1b": 914,
    "vit-3b": 3067,
    "vit-5b": 5349,
    "vit-15b": 14720,
}


def get_model(name: str) -> ViTConfig | MAEConfig:
    """Resolve a preset name; `mae-<x>` wraps preset `vit-<x>` in a default MAE."""
    key = name.lower()
    if key in PRESETS:
        return PRESETS[key]
    if key.startswith("mae-"):
        enc_key = "vit-" + key[len("mae-"):]
        if enc_key in PRESETS:
            return MAEConfig(encoder=PRESETS[enc_key])
    raise ConfigError(f"unknown model preset {name!r}")


def reference_report() -> list[dict[str, float]]:
    """Computed vs nominal totals for every preset with a nominal count.

    Returns one row per preset with the relative deviation, so disagreements
    (vit-5b in particular) surface instead of being swallowed.
    """
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for name, nominal_m in NOMINAL_PARAMS_M.items():
            total = param_count(PRESETS[name]).grand_total
            nominal = nominal_m * 1_000_000
            rows.append({
                "model": name,
                "computed": total,
                "nominal": nominal,
                "relative_deviation": (total - nominal) / nominal,
            })
    return rows
