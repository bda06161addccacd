"""Squeeze-and-recursion temporal gates on a small float64 autodiff engine.

The package squeezes activation volumes into per-frame channel embeddings,
filters them with a stacked LSTM, and fuses the filtered stream back into the
volume only when the two embeddings are cycle-consistent. Residual 3D and
(2+1)D backbones host the unit at six insertion points; an analytic counter
prices everything in exact multiply-accumulates.
"""

from srtg.blocks import Block, BlockLayout, Network
from srtg.config import (
    ConfigError,
    NetworkSpec,
    StageSpec,
    SyntheticSpec,
    TrainConfig,
)
from srtg.data import Dataset, generate, load_dataset, save_dataset
from srtg.gate import (
    GateRecord,
    GateVerdict,
    LstmParams,
    cycle_consistent,
    fuse,
    init_lstm_params,
    nearest_frame_index,
    recursion,
    soft_nearest_neighbor,
    squeeze,
    srtg_unit,
)
from srtg.opcount import OpCount, count_macs, report_dict
from srtg.tensor import (
    GraphError,
    NondeterministicError,
    ShapeError,
    Tensor,
    backward,
    grad_check,
    no_grad,
)
# the training-loop function itself stays at srtg.train.train: re-exporting a
# name `train` here would shadow the submodule attribute
from srtg.train import (
    SGD,
    Metrics,
    TrainingDivergedError,
    checkpoint_load,
    checkpoint_save,
    evaluate,
)

__version__ = "0.1.0"
