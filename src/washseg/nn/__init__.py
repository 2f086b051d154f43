from .layers import (
    AvgPool1d,
    BatchNorm1d,
    Conv1d,
    Layer,
    LeakyReLU,
    Linear,
    MaxPool1d,
    Param,
    PPMBlock,
    SEBlock,
    Sigmoid,
    Upsample1d,
)
from .loss import softmax_cross_entropy
from .adam import Adam
from . import checkpoint

