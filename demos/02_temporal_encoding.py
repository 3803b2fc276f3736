"""
Causal temporal encoding and its receptive field
================================================

The trajectory encoders are stacks of dilated 1-d convolutions that preserve
sequence length and never read the future. The stack's receptive field obeys

    rf = 1 + sum_l (k_l - 1) * d_l

and this script confirms the formula empirically by wiggling single input
steps and watching the newest output step. In eval mode, ``summary`` uses
the formula directly: it runs the stack on the last rf steps only, so the
probe reads the full-length ``forward`` instead.
"""

import numpy as np

from deeptrack.atcn import AtcnConfig, AtcnEncoder, receptive_field
from deeptrack.numcore import Tensor

# the production layout: 2 input channels -> 16 -> 32 -> 64, kernel 2 per layer
config = AtcnConfig(input_channels=2, channels=(16, 32, 64),
                    kernel_sizes=(2, 2, 2), dilations=(1, 1, 1))
encoder = AtcnEncoder(config, np.random.default_rng(0))
rf = receptive_field(config)
print("configured receptive field:", rf)

# -- probe it ----------------------------------------------------------------
# eval mode freezes batch-norm, so the encoder is a pure function of x

t = 16
x = np.random.default_rng(1).normal(size=(2, t))


def newest(v):
    return encoder.forward(Tensor(v), "eval").data[:, -1]


base = newest(x)
assert np.allclose(encoder.summary(Tensor(x), "eval").data, base, rtol=0, atol=1e-12)

for offset in range(1, 7):
    poked = x.copy()
    poked[:, t - offset] += 1.0
    moved = not np.allclose(newest(poked), base)
    marker = "inside " if offset <= rf else "outside"
    print(f"  wiggle t-{offset}: newest step moved = {moved}   ({marker} the window)")
    assert moved == (offset <= rf)

# -- causality ---------------------------------------------------------------
# changing the tail of the sequence must not touch earlier outputs at all

full = encoder.forward(Tensor(x), "eval").data
cut = 9
tail = x.copy()
tail[:, cut:] = 0.0
prefix = encoder.forward(Tensor(tail), "eval").data
print("\nfirst", cut, "encoded steps bit-identical after tail edit:",
      np.array_equal(full[..., :cut], prefix[..., :cut]))

# -- the bottleneck trick ----------------------------------------------------
# hidden blocks factor a standard conv into pointwise -> depthwise -> pointwise;
# the unit names show the structure

print("\nblock layout:")
for name in encoder.parameters():
    if name.endswith(".w"):
        print(" ", name)
