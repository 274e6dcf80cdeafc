"""The contrastive triplet ranking loss over a batch of unit-norm embeddings.

For every aligned (image, caption) pair in a batch, the loss demands that
the pair's similarity beat each in-batch mismatched similarity by a margin,
in both retrieval directions.  Negatives are either all mismatched batch
members (``random`` mining, averaged) or only the hardest one per query
(``hard`` mining, the max).  Pairs that share an underlying image id are
never used as negatives for each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError

MINE_HARD = "hard"
MINE_RANDOM = "random"
MININGS = (MINE_HARD, MINE_RANDOM)   # a checkpoint stores the index


@dataclass
class LossConfig:
    margin: float = 0.2
    mining: str = MINE_HARD

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if self.mining not in MININGS:
            raise ValueError(f"unknown mining mode {self.mining!r}")


@dataclass
class Batch:
    """Aligned unit-norm embeddings; position n of each list forms a positive pair.

    ``image_ids`` mark which entries come from the same underlying image:
    entries with equal ids are excluded from each other's negative sets.
    """

    images: list[Tensor] = field(default_factory=list)
    captions: list[Tensor] = field(default_factory=list)
    image_ids: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not (len(self.images) == len(self.captions) == len(self.image_ids)):
            raise ContractError("images, captions and image_ids must have equal lengths")


def batch_loss(batch: Batch, cfg: LossConfig) -> Tensor:
    """Mean over the batch of both retrieval directions' contrastive terms.

    Per entry n, the caption direction hinges margin - s(x_n, v_n) + s(x_n, v_m)
    over every m whose image id differs from n's, and the image direction
    mirrors it; ``hard`` keeps the max hinge per query (ties to the first
    index, so gradients are deterministic), ``random`` the mean.  Raises
    ContractError when any entry has no negatives (fewer than two distinct
    image ids in the batch).
    """
    n = len(batch.images)
    if n < 2 or len(set(batch.image_ids)) < 2:
        raise ContractError("batch needs at least two entries with distinct image ids")
    ids = np.asarray(batch.image_ids)
    allowed = ids[:, None] != ids[None, :]
    if not allowed.any(axis=1).all():
        i = int(np.argmin(allowed.any(axis=1)))
        raise ContractError(f"entry {i} has no contrastive partner in the batch")

    images = ad.stack_rows(batch.images)
    captions = ad.stack_rows(batch.captions)
    sim = ad.matmul(images, ad.transpose2d(captions))     # sim[i, m] = <x_i, v_m>
    positives = ad.reduce_sum_rows(ad.mul(images, captions))

    def direction(sim_rows: Tensor) -> Tensor:
        gaps = ad.add_const(ad.sub_col(sim_rows, positives), cfg.margin)
        if cfg.mining == MINE_HARD:
            # Exclude same-id entries from the max, then clamp (relu commutes
            # with max over a set containing at least one real hinge).
            masked = ad.add(gaps, Tensor(np.where(allowed, 0.0, -np.inf)))
            return ad.relu(ad.reduce_max_rows(masked))
        counts = allowed.sum(axis=1).astype(np.float64)
        kept = ad.mul(ad.relu(gaps), Tensor(allowed.astype(np.float64)))
        return ad.mul(ad.reduce_sum_rows(kept), Tensor(1.0 / counts))

    caption_terms = direction(sim)                        # query: image i
    image_terms = direction(ad.transpose2d(sim))          # query: caption i
    return ad.scale(ad.reduce_sum(ad.add(caption_terms, image_terms)), 1.0 / n)

