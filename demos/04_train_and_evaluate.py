"""
Training the predictor and measuring displacement error
=======================================================

A short run on synthetic constant-velocity traffic: the future is exactly
linear in the history, so a few epochs should crush the standing-still
baseline. Along the way: the plateau learning-rate schedule, best-epoch
weight snapshots, and bit-exact checkpoint round-trips.
"""

import tempfile
from pathlib import Path

from deeptrack.configio import ModelConfig, config_hash
from deeptrack.model import DeepTrack
from deeptrack.numcore import load_weights, save_weights
from deeptrack.synthetic import constant_velocity_samples
from deeptrack.trainer import (
    TrainConfig, evaluate, history_to_text, train, zero_baseline,
)

# -- data and model -----------------------------------------------------------

samples = constant_velocity_samples(320, seed=0)
fit, val = samples[:280], samples[280:]
model = DeepTrack(ModelConfig(), seed=0)

baseline = zero_baseline(val)
print("standing-still baseline by horizon:")
print(baseline.to_text(), end="")

# -- train --------------------------------------------------------------------

result = train(model, fit, val,
               TrainConfig(epochs=5, batch_size=16, learning_rate=3e-3, seed=0),
               log=print)

print("\nhistory:")
print(history_to_text(result.history), end="")
print(f"best epoch {result.best_epoch} at val loss {result.best_val_loss:.4f}")

# -- evaluate the best weights ------------------------------------------------

model.load_state(result.best_params, result.best_buffers)
report = evaluate(model, val)
print("\ntrained model by horizon:")
print(report.to_text(), end="")
print(f"improvement over standing still: "
      f"{100 * (1 - report.ade / baseline.ade):.0f}%")

# -- checkpoints are exact ----------------------------------------------------

path = Path(tempfile.mkdtemp(prefix="train_demo_")) / "checkpoint.bin"
save_weights(path, model.parameters(), model.buffers(),
             config_hash(model.config))
restored = DeepTrack(ModelConfig(), seed=99)
blob = load_weights(path)
restored.load_state(blob.params, blob.buffers)
again = evaluate(restored, val)
print(f"\nreloaded checkpoint reproduces the metrics exactly: "
      f"{again.horizon_rmse == report.horizon_rmse}")
