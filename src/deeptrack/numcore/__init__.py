"""Self-contained numeric core: tensors, autodiff, NN ops, Adam, checkpoints."""

from .tensor import (
    Tensor,
    ConfigurationError,
    GraphError,
    NumericsError,
    as_tensor,
    check_fields,
)
from .functional import (
    Kernel1D,
    RunningStats,
    LstmWeights,
    sigmoid,
    tanh,
    swish,
    relu,
    dense,
    dilated_conv1d,
    conv2d,
    max_pool2d,
    batch_norm,
    lstm_cell,
    lstm_unroll,
    concat,
    stack,
    scatter_grid,
    same_length_padding,
)
from .optim import AdamState, adam_step, global_grad_norm, clip_gradients
from .checkpoint import CheckpointData, save_weights, load_weights, CHECKPOINT_MAGIC

__all__ = [
    "Tensor", "ConfigurationError", "GraphError", "NumericsError", "as_tensor", "check_fields",
    "Kernel1D", "RunningStats", "LstmWeights",
    "sigmoid", "tanh", "swish", "relu", "dense",
    "dilated_conv1d", "conv2d", "max_pool2d", "batch_norm", "lstm_cell", "lstm_unroll",
    "concat", "stack", "scatter_grid", "same_length_padding",
    "AdamState", "adam_step", "global_grad_norm", "clip_gradients",
    "CheckpointData", "save_weights", "load_weights", "CHECKPOINT_MAGIC",
]
