"""secnn: a squeeze-and-excitation convolutional sentence classifier.

Self-contained on top of numpy: tensors with taped reverse-mode
gradients, the text pipeline, embeddings, the model, training, and a CLI.
"""

from .tensor import (
    GradTape,
    NumericError,
    Rng,
    ShapeError,
    Tensor,
    backward,
    finite_diff_grad,
    reduce,
)
from .text import (
    DataError,
    EncodedBatch,
    LabeledExample,
    Vocabulary,
    build_vocab,
    encode,
    encode_examples,
    load_dataset,
    split_train_dev,
    tokenize,
)
from .embeddings import CoverageReport, EmbeddingMatrix, init_random, load_pretrained, lookup
from .model import (
    ConfigError,
    ModelConfig,
    ModelParams,
    conv1d_same,
    conv1d_valid,
    dense,
    dropout,
    forward,
    init_params,
    piecewise_maxpool,
    se_excite,
    se_scale,
    se_squeeze,
    se_sum,
    stack_channels,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .training import (
    EvalResult,
    OptimizerState,
    TrainConfig,
    TrainReport,
    TrainResult,
    adam_step,
    cross_entropy_loss,
    evaluate,
    gradient_check,
    predict,
    train,
)

__version__ = "0.1.0"
