"""semvis: a joint image/text embedding with phrase localization, at desk scale.

A fully convolutional image encoder (max+min spatial pooling, affine
projection) and a recurrent caption encoder map both modalities onto the
unit sphere of a shared space, trained with a batch hard-negative triplet
ranking loss.  The projection matrix doubles as a bank of 1x1 filters that
turn any text embedding into an image heatmap, evaluated with the pointing
game.  Everything runs on the package's own float64 autodiff engine; the
only dependency is numpy.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, grad_check
from .data import Dataset, Scene, SceneConfig, generate_dataset, read_dataset, write_dataset
from .evaluate import (PointingReport, RetrievalReport, center_baseline, eval_pointing,
                       eval_retrieval)
from .localize import Heatmap, LocalizationConfig, activation_maps, heatmap, point
from .loss import Batch, LossConfig, batch_loss
from .model import Model, ModelConfig
from .text import Vocab, tokenize
from .train import (AdamState, TrainSchedule, adam_step, effective_lr, load_checkpoint,
                    save_checkpoint, train_epoch, trainable_set)

__all__ = [
    "Tensor", "grad_check",
    "Dataset", "Scene", "SceneConfig", "generate_dataset", "read_dataset", "write_dataset",
    "PointingReport", "RetrievalReport", "center_baseline", "eval_pointing", "eval_retrieval",
    "Heatmap", "LocalizationConfig", "activation_maps", "heatmap", "point",
    "Batch", "LossConfig", "batch_loss",
    "Model", "ModelConfig",
    "Vocab", "tokenize",
    "AdamState", "TrainSchedule", "adam_step", "effective_lr", "load_checkpoint",
    "save_checkpoint", "train_epoch", "trainable_set",
]
