"""Distilled disentangled encoders: compress a partially disentangled
Gaussian encoder under adaptability/isolation constraints, certify its
generalization via operator-spectrum bounds, and reason about per-factor
distribution shift at inference time.
"""

__version__ = "0.1.0"

from .tensor import Tensor, Rng, NumericError, ContractError, grad, conv2d
from .data import (FactorSpec, FactorDataset, ConfigError, FactorError,
                   ParseError, default_factor_specs, generate)
from .encoder import (EncoderModel, GaussianLatent, CorruptWeightsError,
                      build_teacher, compress, encode, sample,
                      save_weights, load_weights)
from .losses import distill_loss, adapt_loss, isolation_loss, bounded, hinge
from .spectral import (conv_singular_values, clip_singular_values,
                       operator_drift, network_lipschitz, zeta_bound, certify)
from .train import TrainConfig, TeacherConfig, TrainingError, distill, train_teacher
from .ood import OodReasoner, OodVerdict, fit, score, auroc

__all__ = [
    "__version__",
    "Tensor", "Rng", "NumericError", "ContractError", "grad", "conv2d",
    "FactorSpec", "FactorDataset", "ConfigError", "FactorError", "ParseError",
    "default_factor_specs", "generate",
    "EncoderModel", "GaussianLatent", "CorruptWeightsError", "build_teacher",
    "compress", "encode", "sample", "save_weights", "load_weights",
    "distill_loss", "adapt_loss", "isolation_loss", "bounded", "hinge",
    "conv_singular_values", "clip_singular_values", "operator_drift",
    "network_lipschitz", "zeta_bound", "certify",
    "TrainConfig", "TeacherConfig", "TrainingError",
    "distill", "train_teacher",
    "OodReasoner", "OodVerdict", "fit", "score", "auroc",
]
