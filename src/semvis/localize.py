"""Text-conditioned heatmaps over the feature stack, and their pixel-space peaks.

The projection matrix doubles as a bank of 1x1 filters: applying its linear
part per pixel turns the adaptation maps into one map per embedding
dimension.  Given a text embedding, the maps at its top-k entries, weighted
by the magnitudes of those entries, sum to a heatmap whose peak localizes
the phrase.  Bias and normalization shift every cell equally, so they are
omitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ShapeError
from .ppm import write_pgm, write_ppm


@dataclass
class LocalizationConfig:
    top_k: int

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


@dataclass
class Heatmap:
    values: np.ndarray            # (h, w), raw (unnormalized) heat
    image_size: tuple[int, int]   # (H, W) of the source image
    downsample: int

    def __post_init__(self):
        h, w = self.values.shape
        if (self.image_size[0] != h * self.downsample
                or self.image_size[1] != w * self.downsample):
            raise ShapeError(f"heatmap {self.values.shape} x{self.downsample} does not cover "
                             f"image {self.image_size}")


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def activation_maps(feature_stack, weight) -> np.ndarray:
    """Per-pixel product of the projection matrix with the channel vector.

    (C, h, w) features and a (d, C) matrix give (d, h, w) maps; equivalent
    to a 1x1 convolution with the matrix as kernel.
    """
    stack = _as_array(feature_stack)
    mat = _as_array(weight)
    if stack.ndim != 3 or mat.ndim != 2 or mat.shape[1] != stack.shape[0]:
        raise ShapeError(f"activation_maps: shapes {mat.shape} and {stack.shape} do not line up")
    c, h, w = stack.shape
    return (mat @ stack.reshape(c, h * w)).reshape(mat.shape[0], h, w)


def top_k_indices(embedding, k: int) -> np.ndarray:
    """Indices of the k largest (signed) entries, ties to the lower index.

    Returned in ascending index order.
    """
    v = _as_array(embedding)
    if k > v.size:
        raise ShapeError(f"top_k: k={k} exceeds embedding size {v.size}")
    picked = np.argsort(-v, kind="stable")[:k]
    return np.sort(picked)


def heatmap(maps: np.ndarray, embedding, cfg: LocalizationConfig,
            image_size: tuple[int, int], downsample: int) -> Heatmap:
    """Magnitude-weighted sum of the maps selected by the embedding's top-k entries."""
    v = _as_array(embedding)
    if maps.shape[0] != v.size:
        raise ShapeError(f"heatmap: {maps.shape[0]} maps vs embedding size {v.size}")
    idx = top_k_indices(v, cfg.top_k)
    values = np.tensordot(np.abs(v[idx]), maps[idx], axes=1)
    return Heatmap(values, image_size, downsample)


def point(hm: Heatmap) -> tuple[float, float]:
    """Pixel coordinates (px, py) of the heat peak: the argmax cell's center.

    Ties resolve to the first cell in row-major order.
    """
    h, w = hm.values.shape
    flat = int(np.argmax(hm.values))
    row, col = divmod(flat, w)
    height, width = hm.image_size
    return ((col + 0.5) * width / w, (row + 0.5) * height / h)


def bilinear_resize(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling at output pixel centers, edges clamped."""
    h, w = arr.shape
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)
    # Separable: each source row is interpolated along x once, then rows are
    # blended along y; every pixel gets the same products and sums as a 2-D gather.
    rows = arr[:, x0] * (1 - wx) + arr[:, x1] * wx
    return rows[y0] * (1 - wy) + rows[y1] * wy


def render_heatmap(hm: Heatmap, image: np.ndarray, prefix: str) -> tuple[str, str]:
    """Write ``<prefix>.pgm`` (upsampled gray heat) and ``<prefix>_overlay.ppm``.

    The heat is min-max scaled to [0, 255] (a constant map renders as 0);
    the overlay blends it 50/50 with the image.
    """
    height, width = hm.image_size
    up = bilinear_resize(hm.values.astype(np.float64), height, width)
    span = up.max() - up.min()
    gray = np.zeros_like(up) if span == 0 else (up - up.min()) / span * 255.0
    gray_u8 = np.clip(np.rint(gray), 0, 255).astype(np.uint8)
    pgm_path = f"{prefix}.pgm"
    write_pgm(pgm_path, gray_u8)

    overlay = (image.astype(np.float64) * 0.5 + gray[None, :, :] * 0.5)
    ppm_path = f"{prefix}_overlay.ppm"
    write_ppm(ppm_path, np.clip(np.rint(overlay), 0, 255).astype(np.uint8))
    return pgm_path, ppm_path
