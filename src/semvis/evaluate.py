"""Cross-modal retrieval metrics and the pointing game.

Retrieval reports recall at r (a hit when at least one correct partner
ranks in the top r) and the median best-correct rank, both directions.  The
pointing game counts a phrase as localized when the heatmap peak falls
inside its ground-truth box; the trivial baseline always answers the image
center.  All ranking uses descending similarity with ties broken toward the
lower index, so reports are bit-reproducible.  The pointing game scores a
chunk of images at a time with ``localize``'s batched functions, which give
every region the same heat and peak as the one-region ``heatmap`` and
``point``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .errors import ContractError
from .localize import (LocalizationConfig, activation_maps, peak_points, region_heat,
                       top_k_indices)

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
    """Score a similarity array (rows images, columns captions) both ways.

    ``caption_owner[j]`` is the image index that caption j describes.  The
    caption side asks, per image, where its best-ranked own caption lands;
    the image side asks, per caption, where its owning image lands.  Both
    rank the line's own score as a stable descending sort would: 1 + the
    scores above it + the scores equal to it at a lower index.  A NaN own
    score is a ContractError.
    """
    s = np.asarray(sim, dtype=np.float64)
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


def _inside(boxes: np.ndarray, px, py) -> np.ndarray:
    """Per row of (R, 4) (x, y, w, h) boxes: whether (px, py) lies in [x, x+w) x [y, y+h)."""
    x, y, w, h = boxes.T
    return (x <= px) & (px < x + w) & (y <= py) & (py < y + h)


_POINTING_BATCH = 32   # distinct images per encode: bounds the batch's activations


def eval_pointing(model, regions, cfg: LocalizationConfig) -> PointingReport:
    """Run the pointing game over (image, phrase, bbox) annotations.

    For every region the phrase embedding picks and weights the activation
    maps of its image; a hit means the heat peak lands inside the box.  The
    distinct phrases encode in one call, and their top-k picks are made once
    (a k above the embedding size fails before any image is encoded).  Each
    distinct image (by identity) is encoded once, in chunks of up to
    ``_POINTING_BATCH`` same-size images.  Per chunk, the maps of its images
    and the heat, peak and box test of every region on them are arrays, so
    maps are held for one chunk at a time, not for the whole call.
    """
    regions = list(regions)
    if not regions:
        raise ContractError("pointing game needs at least one region")
    phrases = list(dict.fromkeys(phrase for _, phrase, _ in regions))
    with no_grad():
        embeddings = model.encode_texts(phrases).data
    picked = top_k_indices(embeddings, cfg.top_k)
    weights = np.abs(np.take_along_axis(embeddings, picked, axis=1))

    by_size: dict[tuple, dict[int, np.ndarray]] = {}
    for image, _, _ in regions:
        by_size.setdefault(image.shape, {})[id(image)] = image
    chunks, place = [], {}   # place: id(image) -> (its chunk, its slot in the chunk)
    for group in by_size.values():
        images = list(group.values())
        for lo in range(0, len(images), _POINTING_BATCH):
            place.update((id(image), (len(chunks), j))
                         for j, image in enumerate(images[lo:lo + _POINTING_BATCH]))
            chunks.append(images[lo:lo + _POINTING_BATCH])
    chunk_of, slot = np.array([place[id(image)] for image, _, _ in regions]).T
    row = {phrase: i for i, phrase in enumerate(phrases)}
    rows = np.array([row[phrase] for _, phrase, _ in regions])
    boxes = np.array([bbox for _, _, bbox in regions], dtype=np.float64)

    hits = np.empty(len(regions), dtype=bool)
    for c, images in enumerate(chunks):
        with no_grad():
            _, stacks = model.pooled_features(images)
        maps = activation_maps(stacks.data, model.params["proj.weight"].data)
        ask = np.flatnonzero(chunk_of == c)
        heat = region_heat(maps, slot[ask], weights[rows[ask]], picked[rows[ask]])
        hits[ask] = _inside(boxes[ask], *peak_points(heat, images[0].shape[1:]))
    return PointingReport(float(np.mean(hits)), hits.tolist(), center_baseline(regions))


def center_baseline(regions) -> float:
    """Accuracy of always answering the exact image center (W/2, H/2)."""
    regions = list(regions)
    if not regions:
        return 0.0
    boxes = np.array([bbox for _, _, bbox in regions], dtype=np.float64)
    sizes = np.array([image.shape[1:] for image, _, _ in regions], dtype=np.float64)
    return float(np.mean(_inside(boxes, sizes[:, 1] / 2.0, sizes[:, 0] / 2.0)))
