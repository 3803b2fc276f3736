"""
Counting parameters and multiply-accumulates analytically
=========================================================

The cost model builds the model and reads its layer table, the same table
that names the checkpoint entries, and prints parameters and MACs per layer
for one forward pass. One rule covers every layer: weight elements times
the positions one sample applies them at. Its parameter total is the number
of weights the model allocates, because it counts those very tensors.

The hidden encoder blocks replace each standard convolution with a
pointwise -> depthwise -> pointwise stack; the end of this script shows the
MAC saving that buys.
"""

import dataclasses

from deeptrack.atcn import AtcnConfig
from deeptrack.complexity import complexity_report
from deeptrack.configio import ModelConfig
from deeptrack.model import DeepTrack

cfg = ModelConfig()
report = complexity_report(cfg)
print(report.to_text())

# -- the count is exact, not an estimate --------------------------------------

model = DeepTrack(cfg, seed=0)
allocated = sum(t.data.size for t in model.parameters().values())
print(f"allocated weights: {allocated:,} == counted {report.total_params:,}: "
      f"{allocated == report.total_params}")

# -- MACs scale with grid occupancy -------------------------------------------
# the neighbor encoder runs once per occupied cell

for n in (1, 3, 6):
    macs = complexity_report(cfg, n).total_macs
    print(f"  {n} occupied cells -> {macs:,} MACs")

# -- why the factored blocks exist --------------------------------------------
# conv MACs only (batch norm off), T=16: a hidden block's three layers against
# a one-block encoder whose single standard convolution has the same widths


def conv_macs(enc: AtcnConfig) -> dict:
    enc = dataclasses.replace(enc, use_batch_norm=False)
    report = complexity_report(dataclasses.replace(cfg, ego_atcn=enc))
    return {l.name: l.macs for l in report.layers if l.name.startswith("ego_encoder.")}


print("\nstandard conv vs factored stack (MACs per block, T=16):")
for enc_name, enc in (("neighbor", cfg.neighbor_atcn), ("ego", cfg.ego_atcn)):
    factored_macs = conv_macs(enc)
    for j in range(1, enc.depth):
        c_in, c_out = enc.in_channels_of(j), enc.channels[j]
        single = AtcnConfig(c_in, (c_out,), (enc.kernel_sizes[j],), (1,))
        standard = conv_macs(single)["ego_encoder.block0.conv"]
        factored = sum(factored_macs[f"ego_encoder.block{j}.{part}"]
                       for part in ("pw_in", "dw", "pw_out"))
        print(f"  {enc_name} block {j} ({c_in:>2} -> {c_out:>2}): "
              f"{standard:>7,} vs {factored:>6,}  ({standard / factored:.2f}x)")
