"""Image encoder: strided conv backbone, 1x1 adaptation, spatial pooling, projection.

A batch of N same-size images runs as one channel-major (3, N, H, W) stack
and embeds as (N, d) rows; one image is a batch of one.  The backbone is
four 3x3/stride-2/pad-1 convolution blocks, each one fused ``conv2d`` node
with its bias and ReLU (channels 3 -> 16 -> 32 -> 64 -> ``backbone_channels``
by default), so it accepts any image whose sides are positive multiples of
16 and divides the spatial size by 16.  A 1x1 convolution then maps the
feature stack to ``adapt_channels`` maps, which are reduced to a row either
by max+min pooling per channel (the default: strong negative responses
subtract evidence) or by a plain spatial mean.  A final affine map plus l2
normalization lands in the joint embedding space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

if TYPE_CHECKING:
    from .model import ModelConfig

POOL_MAX_MIN = "max_min"
POOL_MEAN = "mean"
POOLINGS = (POOL_MAX_MIN, POOL_MEAN)   # a checkpoint stores the index

VISUAL_DROPOUT_ID = 1


def backbone_forward(images: Tensor, params: dict, blocks: int = 4) -> Tensor:
    """(3, N, H, W) in [0, 1] -> (C, N, H/2^blocks, W/2^blocks), ReLU-nonnegative,
    through the conv blocks ``backbone.{i}.kernel``/``bias`` of ``params``."""
    if images.data.ndim != 4 or images.data.shape[0] != 3:
        raise ShapeError(f"backbone_forward expects (3,N,H,W), got {images.shape}")
    h, w = images.data.shape[-2:]
    downsample = 2 ** blocks
    if h < 1 or w < 1 or h % downsample or w % downsample:
        raise ShapeError(f"image {h}x{w}: height and width must be positive multiples of "
                         f"{downsample}")
    out = images
    for i in range(blocks):
        out = ad.conv2d(out, params[f"backbone.{i}.kernel"], stride=2, pad=1,
                        bias=params[f"backbone.{i}.bias"], relu=True)
    return out


def adapt(features: Tensor, params: dict) -> Tensor:
    """Per-pixel linear remap of the channel vector: the 1x1 convolution
    ``adapt.kernel`` plus ``adapt.bias``."""
    return ad.conv2d(features, params["adapt.kernel"], bias=params["adapt.bias"])


def pool(feature_stack: Tensor, mode: str) -> Tensor:
    if mode == POOL_MAX_MIN:
        return ad.spatial_max_min(feature_stack)
    if mode == POOL_MEAN:
        return ad.spatial_mean(feature_stack)
    raise ValueError(f"unknown pooling mode {mode!r}")


def project(pooled: Tensor, params: dict, dropout_p: float = 0.0,
            training: bool = False, rng_keys: list | None = None) -> Tensor:
    """(N, d) rows: affine map ``proj.weight``, ``proj.bias`` of (N, C) pooled rows to
    the embedding space, then l2 normalization.

    Dropout hits each pooled row under its key in the list ``rng_keys`` before
    the affine map, train mode only.
    """
    keys = ad.subkey([] if rng_keys is None else rng_keys, VISUAL_DROPOUT_ID)
    x = ad.dropout(pooled, dropout_p, keys, training=training)
    return ad.l2_normalize(ad.linear(x, params["proj.weight"], params["proj.bias"]))


def pooled_features(images: Tensor, params: dict, cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """The pipeline up to the projection of a (3, N, H, W) batch: (N, adapt_channels)
    pooled rows and the (C, N, h, w) pre-pooling feature stack.  A row depends on its
    own image only."""
    features = backbone_forward(images, params, len(cfg.hidden_channels) + 1)
    stack = adapt(features, params)
    return pool(stack, cfg.pooling), stack


def image_to_tensor(image: np.ndarray) -> Tensor:
    """uint8 (3, N, H, W) pixels -> float tensor in [0, 1] (already-float input passes
    through)."""
    arr = np.asarray(image)
    if arr.dtype == np.uint8:
        return Tensor(arr.astype(np.float64) / 255.0)
    return Tensor(arr.astype(np.float64))
