"""Text-conditioned heatmaps over the feature stack, and their pixel-space peaks.

The projection matrix doubles as a bank of 1x1 filters: applying its linear
part per pixel turns the adaptation maps into one map per embedding
dimension.  Given a text embedding, the maps at its top-k entries, weighted
by the magnitudes of those entries, sum to a heatmap whose peak localizes
the phrase.  Bias and normalization shift every cell equally, so they are
omitted.  Nothing here trains, so it all runs on plain arrays (callers pass
the model's ``.data``); a heat is (h, w), sized in pixels by its image.

The arithmetic is written once, batched: n images' maps in one stacked
product, the heat of R regions in one stacked (R, 1, k) @ (R, k, h*w)
product, their peaks in one row-wise argmax.  ``heatmap`` and ``point`` are
its one-region calls, so the pointing game and ``semvis localize`` agree bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .ppm import write_pgm, write_ppm


@dataclass
class LocalizationConfig:
    top_k: int

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


def activation_maps(stack: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Per-pixel product of the projection matrix with the channel vector.

    (C, h, w) features and a (d, C) matrix give (d, h, w) maps, and a
    (C, n, h, w) batch gives (n, d, h, w) from one stacked product;
    equivalent to a 1x1 convolution with the matrix as kernel.
    """
    if stack.ndim not in (3, 4) or mat.ndim != 2 or mat.shape[1] != stack.shape[0]:
        raise ShapeError(f"activation_maps: shapes {mat.shape} and {stack.shape} do not line up")
    c, h, w = stack.shape[0], *stack.shape[-2:]
    maps = np.matmul(mat, stack.reshape(c, -1, h * w).swapaxes(0, 1))
    return maps.reshape(*stack.shape[1:-2], mat.shape[0], h, w)


def top_k_indices(v: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest (signed) entries of a (d,) vector or of each
    (P, d) row, ties to the lower index, in ascending index order."""
    if k > v.shape[-1]:
        raise ShapeError(f"top_k: k={k} exceeds embedding size {v.shape[-1]}")
    picked = np.argsort(-v, axis=-1, kind="stable")[..., :k]
    return np.sort(picked, axis=-1)


def region_heat(maps: np.ndarray, image_of, weights: np.ndarray,
                picked: np.ndarray) -> np.ndarray:
    """(R, h, w) heat of R regions over the (n, d, h, w) maps of n images.

    Region r sums the maps of image ``image_of[r]`` at its (k,) indices
    ``picked[r]``, each weighted by ``weights[r]``: one stacked
    (R, 1, k) @ (R, k, h*w) product.
    """
    n, d, h, w = maps.shape
    selected = maps.reshape(n, d, h * w)[np.asarray(image_of)[:, None], picked]
    return np.matmul(weights[:, None, :], selected).reshape(len(weights), h, w)


def heatmap(maps: np.ndarray, v: np.ndarray, cfg: LocalizationConfig) -> np.ndarray:
    """(h, w) magnitude-weighted sum of the (d, h, w) maps selected by the (d,)
    embedding's top-k entries: ``region_heat`` of one region."""
    if maps.shape[0] != v.size:
        raise ShapeError(f"heatmap: {maps.shape[0]} maps vs embedding size {v.size}")
    idx = top_k_indices(v, cfg.top_k)
    return region_heat(maps[None], [0], np.abs(v[idx])[None], idx[None])[0]


def peak_points(heat: np.ndarray, image_size: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Pixel coordinates (px, py) of each (h, w) map's peak in an (R, h, w) stack
    over images of ``image_size`` (H, W): the argmax cell's center.

    Ties resolve to the first cell in row-major order.
    """
    r, h, w = heat.shape
    row, col = np.divmod(np.argmax(heat.reshape(r, h * w), axis=1), w)
    height, width = image_size
    return (col + 0.5) * width / w, (row + 0.5) * height / h


def point(heat: np.ndarray, image_size: tuple[int, int]) -> tuple[float, float]:
    """``peak_points`` of one (h, w) heat over an image of ``image_size`` (H, W), as floats."""
    px, py = peak_points(heat[None], image_size)
    return float(px[0]), float(py[0])


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


def render_heatmap(heat: np.ndarray, image: np.ndarray, prefix: str) -> tuple[str, str]:
    """Write ``<prefix>.pgm`` (the heat upsampled to the image, gray) and ``<prefix>_overlay.ppm``.

    The heat is min-max scaled to [0, 255] (a constant map renders as 0);
    the overlay blends it 50/50 with the image.
    """
    height, width = image.shape[1:]
    up = bilinear_resize(heat, height, width)
    span = up.max() - up.min()
    gray = np.zeros_like(up) if span == 0 else (up - up.min()) / span * 255.0
    gray_u8 = np.clip(np.rint(gray), 0, 255).astype(np.uint8)
    pgm_path = f"{prefix}.pgm"
    write_pgm(pgm_path, gray_u8)

    overlay = (image.astype(np.float64) * 0.5 + gray[None, :, :] * 0.5)
    ppm_path = f"{prefix}_overlay.ppm"
    write_ppm(ppm_path, np.clip(np.rint(overlay), 0, 255).astype(np.uint8))
    return pgm_path, ppm_path
