"""Tour of the workload accounting: parameters, tokens, and FLOPs.

Run with `python demos/01_model_accounting.py`.
"""

import warnings

from shardsim import (
    MAEConfig,
    PRESETS,
    flops,
    param_count,
    reference_report,
    token_count,
)

warnings.simplefilter("ignore", UserWarning)

print("== Parameter totals for the preset family ==")
print(f"{'model':<10} {'computed':>15} {'nominal':>15} {'deviation':>10}")
for row in reference_report():
    print(f"{row['model']:<10} {row['computed']:>15,} {int(row['nominal']):>15,} "
          f"{row['relative_deviation']:>+9.2%}")
print()
print("Every row lands within 2.5% of its nominal count except vit-5b: its")
print("listed dimensions produce ~3.8B parameters under the standard block")
print("arithmetic, so the deviation is reported rather than hidden.")
print()

print("== Token counts ==")
for image, patch in [(512, 16), (224, 14), (512, 14)]:
    patches, seq = token_count(image, patch)
    print(f"  {image}px / {patch}px patches -> {patches} patches, "
          f"sequence length {seq}")
print("(512/14 is not an exact division: the grid truncates to 36x36 and the")
print("call warns; the warning is silenced for this demo.)")
print()

print("== Where the FLOPs go: masked-autoencoder pretraining of vit-3b ==")
mae = MAEConfig(encoder=PRESETS["vit-3b"])  # 75% mask, 8x512 decoder
profile = flops(mae, batch=1)
print(f"  encoder tokens (25% visible + cls): {profile.tokens_encoder}")
print(f"  decoder tokens (full sequence):     {profile.tokens_decoder}")
print(f"  encoder forward GFLOPs: {profile.encoder_total / 1e9:,.1f}")
print(f"  decoder forward GFLOPs: {profile.decoder_total / 1e9:,.1f}")
print(f"  train step total (fwd + 2x bwd) TFLOPs: "
      f"{profile.train_step_total / 1e12:,.2f}")
print()

print("== The decoder is cheap per token next to a large encoder ==")
large = flops(MAEConfig(encoder=PRESETS["vit-large"], mask_ratio=0.0), batch=1)
print(f"  vit-large, equal token counts: decoder/encoder = "
      f"{large.decoder_total / large.encoder_total:.3f}")
print()

print("== MAE parameter overhead over the bare encoder ==")
for name in ("vit-base", "vit-3b"):
    enc = param_count(PRESETS[name]).grand_total
    full = param_count(MAEConfig(encoder=PRESETS[name])).grand_total
    print(f"  {name}: encoder {enc:,} -> with decoder {full:,} "
          f"(+{(full - enc) / enc:.1%})")
