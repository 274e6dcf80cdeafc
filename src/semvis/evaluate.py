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


_RANK_BLOCK_CELLS = 1 << 16   # bools per counting block: a block of rows stays in cache


def eval_retrieval(sim, caption_owner, r_values=(1, 5, 10)) -> tuple[RetrievalReport, RetrievalReport]:
    """Score a similarity matrix (rows images, columns captions) both ways.

    ``caption_owner[j]`` is the image index that caption j describes.  The
    caption side asks, per image, where its best-ranked own caption lands;
    the image side asks, per caption, where its owning image lands.  Both
    rank the line's own score as a stable descending sort would: 1 + the
    scores above it + the scores equal to it at a lower index.  A NaN own
    score is a ContractError.
    """
    s = sim.data if isinstance(sim, Tensor) else np.asarray(sim, dtype=np.float64)
    owners = np.asarray(caption_owner, dtype=np.int64)
    n_img, n_cap = s.shape
    if owners.shape != (n_cap,):
        raise ContractError(f"need one owner per caption, got {owners.shape} for {n_cap} captions")
    if owners.min(initial=0) < 0 or owners.max(initial=-1) >= n_img:
        raise ContractError("caption owner index out of range")
    per_image = np.bincount(owners, minlength=n_img)
    if not per_image.all():
        raise ContractError("every image must own at least one caption")
    own = s[owners, np.arange(n_cap)]               # per caption: its own image's score
    if np.isnan(own).any():
        raise ContractError("a caption's score with its own image is NaN")
    # Per image: its best own caption's score and, of the captions reaching it, the lowest column.
    order = np.argsort(owners, kind="stable")
    starts = np.cumsum(per_image) - per_image
    best = np.maximum.reduceat(own[order], starts)
    best_col = np.minimum.reduceat(
        np.where(own[order] == np.repeat(best, per_image), order, n_cap), starts)

    # One pass over blocks of rows: the caption side counts along each row against the
    # row's best own score, the image side down each column against the column's own
    # score.  A block holds at most 255 rows, so its per-column counts fit in uint8.
    cap_ranks = np.ones(n_img, dtype=np.int64)
    img_above = np.zeros(n_cap, dtype=np.int64)
    img_equal = np.zeros(n_cap, dtype=np.int64)
    step = min(255, max(1, _RANK_BLOCK_CELLS // max(1, n_cap)))
    buf = np.empty((min(step, n_img), n_cap), dtype=bool)
    for lo in range(0, n_img, step):
        block, top = s[lo:lo + step], best[lo:lo + step, None]
        mask = buf[:len(block)]
        cap_ranks[lo:lo + step] += np.greater(block, top, out=mask).sum(axis=1, dtype=np.int32)
        equal = np.equal(block, top, out=mask).sum(axis=1, dtype=np.int32)
        for r in np.flatnonzero(equal > 1):   # a real tie: equal scores at lower columns go first
            cap_ranks[lo + r] += np.count_nonzero(mask[r, :best_col[lo + r]])
        img_above += np.greater(block, own, out=mask).sum(axis=0, dtype=np.uint8)
        img_equal += np.equal(block, own, out=mask).sum(axis=0, dtype=np.uint8)
    img_ranks = 1 + img_above
    for j in np.flatnonzero(img_equal > 1):   # a real tie: equal scores at lower rows go first
        img_ranks[j] += np.count_nonzero(s[:owners[j], j] == own[j])

    def report(direction: str, ranks: np.ndarray) -> RetrievalReport:
        return RetrievalReport(direction,
                               {r: float(np.mean(ranks <= r)) for r in r_values},
                               float(np.median(ranks)))

    return report(CAPTION_RETRIEVAL, cap_ranks), report(IMAGE_RETRIEVAL, img_ranks)


def _box_contains(bbox, px: float, py: float) -> bool:
    x, y, w, h = bbox
    return x <= px < x + w and y <= py < y + h


_POINTING_BATCH = 32   # distinct images per encode: bounds the batch's activations


def eval_pointing(model, regions, cfg: LocalizationConfig) -> PointingReport:
    """Run the pointing game over (image, phrase, bbox) annotations.

    For every region the phrase embedding picks and weights the activation
    maps of its image; a hit means the heat peak lands inside the box.  Each
    distinct image (by identity) is encoded once, up to ``_POINTING_BATCH``
    same-size images per batch, and the distinct phrases in one call.
    """
    regions = list(regions)
    if not regions:
        raise ContractError("pointing game needs at least one region")
    by_size: dict[tuple, dict[int, np.ndarray]] = {}
    for image, _, _ in regions:
        by_size.setdefault(image.shape, {})[id(image)] = image
    phrases = list(dict.fromkeys(phrase for _, phrase, _ in regions))
    maps = {}
    with no_grad():
        embeddings = dict(zip(phrases, model.encode_texts(phrases).data))
        for group in by_size.values():
            images = list(group.values())
            for lo in range(0, len(images), _POINTING_BATCH):
                chunk = images[lo:lo + _POINTING_BATCH]
                _, stacks = model.pooled_features(chunk)
                for k, image in enumerate(chunk):
                    maps[id(image)] = activation_maps(stacks.data[:, k], model.params["proj.weight"])
    hits = []
    for image, phrase, bbox in regions:
        height, width = image.shape[1:]
        image_maps = maps[id(image)]
        hm = heatmap(image_maps, embeddings[phrase], cfg, (height, width),
                     height // image_maps.shape[1])
        hits.append(_box_contains(bbox, *point(hm)))
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
