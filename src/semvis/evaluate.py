"""Cross-modal retrieval metrics and the pointing game.

Retrieval reports recall at r (a hit when at least one correct partner
ranks in the top r) and the median best-correct rank, both directions.  The
pointing game counts a phrase as localized when the heatmap peak falls
inside its ground-truth box; the trivial baseline always answers the image
center.  All ranking uses descending similarity with ties broken toward the
lower index, so reports are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .errors import ContractError
from .localize import LocalizationConfig, activation_maps, heatmap, point

CAPTION_RETRIEVAL = "caption_retrieval"
IMAGE_RETRIEVAL = "image_retrieval"


@dataclass
class RetrievalReport:
    direction: str
    r_at: dict[int, float]
    median_rank: float

    def to_dict(self) -> dict:
        return {"direction": self.direction,
                "r_at": {str(r): v for r, v in sorted(self.r_at.items())},
                "median_rank": self.median_rank}


@dataclass
class PointingReport:
    accuracy: float
    hits: list[bool]
    baseline_accuracy: float

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy,
                "baseline": self.baseline_accuracy,
                "n": len(self.hits)}


_RANK_BLOCK_CELLS = 1 << 18   # bounds the ranking's temporaries at a few MB


def _best_match_ranks(sim: np.ndarray, row_owner: np.ndarray, col_owner: np.ndarray):
    """Per row, the 1-based rank of its best own column (equal owners): as in a stable
    descending sort, after every higher score and every equal one at a lower index."""
    ranks = np.empty(sim.shape[0], dtype=np.int64)
    columns = np.arange(sim.shape[1])
    step = max(1, _RANK_BLOCK_CELLS // max(1, sim.shape[1]))
    for lo in range(0, sim.shape[0], step):
        block = sim[lo:lo + step]
        best = np.where(col_owner == row_owner[lo:lo + step, None], block, -np.inf
                        ).argmax(axis=1)[:, None]
        top = np.take_along_axis(block, best, axis=1)
        ranks[lo:lo + step] = 1 + ((block > top) | ((block == top) & (columns < best))).sum(1)
    return ranks


def eval_retrieval(sim, caption_owner, r_values=(1, 5, 10)) -> tuple[RetrievalReport, RetrievalReport]:
    """Score a similarity matrix (rows images, columns captions) both ways.

    ``caption_owner[j]`` is the image index that caption j describes.  The
    caption side asks, per image, where its best-ranked own caption lands;
    the image side asks, per caption, where its owning image lands.
    """
    s = sim.data if isinstance(sim, Tensor) else np.asarray(sim, dtype=np.float64)
    owners = np.asarray(caption_owner, dtype=np.int64)
    n_img, n_cap = s.shape
    if owners.shape != (n_cap,):
        raise ContractError(f"need one owner per caption, got {owners.shape} for {n_cap} captions")
    if owners.min(initial=0) < 0 or owners.max(initial=-1) >= n_img:
        raise ContractError("caption owner index out of range")
    if len(set(owners.tolist())) != n_img:
        raise ContractError("every image must own at least one caption")

    # Caption side: per image, its best own caption; image side: per caption, its image.
    cap_ranks = _best_match_ranks(s, np.arange(n_img), owners)
    img_ranks = _best_match_ranks(s.T, owners, np.arange(n_img))

    def report(direction: str, ranks: np.ndarray) -> RetrievalReport:
        return RetrievalReport(direction,
                               {r: float(np.mean(ranks <= r)) for r in r_values},
                               float(np.median(ranks)))

    return report(CAPTION_RETRIEVAL, cap_ranks), report(IMAGE_RETRIEVAL, img_ranks)


def _box_contains(bbox, px: float, py: float) -> bool:
    x, y, w, h = bbox
    return x <= px < x + w and y <= py < y + h


def eval_pointing(model, regions, cfg: LocalizationConfig) -> PointingReport:
    """Run the pointing game over (image, phrase, bbox) annotations.

    For every region the phrase embedding picks and weights the activation
    maps of its image; a hit means the heat peak lands inside the box.
    """
    regions = list(regions)
    if not regions:
        raise ContractError("pointing game needs at least one region")
    hits = []
    stack_cache: dict[int, tuple] = {}
    text_cache: dict[str, Tensor] = {}   # eval mode: a phrase always embeds the same
    with no_grad():
        for image, phrase, bbox in regions:
            key = id(image)
            if key not in stack_cache:
                _, stack = model.encode_image(image, training=False)
                maps = activation_maps(stack, model.params["proj.weight"])
                stack_cache[key] = (maps, image.shape[1:])
            maps, (height, width) = stack_cache[key]
            if phrase not in text_cache:
                text_cache[phrase] = model.encode_text(phrase, training=False)
            embedding = text_cache[phrase]
            hm = heatmap(maps, embedding, cfg, (height, width), height // maps.shape[1])
            px, py = point(hm)
            hits.append(_box_contains(bbox, px, py))
    accuracy = float(np.mean(hits))
    return PointingReport(accuracy, hits, center_baseline(regions))


def center_baseline(regions) -> float:
    """Accuracy of always answering the exact image center (W/2, H/2)."""
    regions = list(regions)
    if not regions:
        return 0.0
    hits = [_box_contains(bbox, image.shape[2] / 2.0, image.shape[1] / 2.0)
            for image, _, bbox in regions]
    return float(np.mean(hits))
