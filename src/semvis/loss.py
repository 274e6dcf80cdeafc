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
    """The loss's two settings and their one check, which ``ModelConfig`` runs too."""

    margin: float = 0.2
    mining: str = MINE_HARD

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if self.mining not in MININGS:
            raise ValueError(f"unknown mining mode {self.mining!r}")


@dataclass
class Batch:
    """Aligned unit-norm embeddings; row n of ``images`` and of ``captions`` forms a
    positive pair.  Each side is an (N, d) tensor or a list of N (d,) tensors.

    ``image_ids`` mark which entries come from the same underlying image:
    entries with equal ids are excluded from each other's negative sets.
    """

    images: Tensor | list[Tensor] = field(default_factory=list)
    captions: Tensor | list[Tensor] = field(default_factory=list)
    image_ids: list[int] = field(default_factory=list)

    def __post_init__(self):
        rows = [s.shape[0] if isinstance(s, Tensor) else len(s)
                for s in (self.images, self.captions)]
        if not rows[0] == rows[1] == len(self.image_ids):
            raise ContractError("images, captions and image_ids must have equal lengths")


def batch_loss(batch: Batch, cfg: LossConfig) -> Tensor:
    """Mean over the batch of both retrieval directions' contrastive terms.

    Per entry n, the caption direction hinges margin - s(x_n, v_n) + s(x_n, v_m)
    over every m whose image id differs from n's, and the image direction
    mirrors it; ``hard`` keeps the max hinge per query (ties to the first
    index, so gradients are deterministic), ``random`` the mean.  The loss is
    one graph node over the two (N, d) embedding matrices.  Raises
    ContractError when any entry has no negatives (fewer than two distinct
    image ids in the batch).
    """
    n = len(batch.image_ids)
    if n < 2 or len(set(batch.image_ids)) < 2:
        raise ContractError("batch needs at least two entries with distinct image ids")
    ids = np.asarray(batch.image_ids)
    allowed = ids[:, None] != ids[None, :]
    if not allowed.any(axis=1).all():
        i = int(np.argmin(allowed.any(axis=1)))
        raise ContractError(f"entry {i} has no contrastive partner in the batch")

    images, captions = (s if isinstance(s, Tensor) else ad.stack_rows(s)
                        for s in (batch.images, batch.captions))
    x, v = images.data, captions.data
    sim = x @ v.T                                         # sim[i, m] = <x_i, v_m>
    positives = (x * v).sum(axis=1)
    counts = allowed.sum(axis=1).astype(np.float64)
    rows = np.arange(n)
    terms, weights = [], []          # per direction: per-query term, d(term)/d(gap)
    for sim_rows in (sim, sim.T):    # query: image i, then caption i
        gaps = (sim_rows - positives[:, None]) + cfg.margin
        if cfg.mining == MINE_HARD:
            # The max over the allowed gaps, then the clamp (relu commutes with a
            # max over a set holding at least one real hinge).
            worst = np.where(allowed, gaps, -np.inf).argmax(axis=1)
            top = gaps[rows, worst]
            weight = np.zeros((n, n))
            weight[rows, worst] = top > 0.0
            terms.append(np.maximum(top, 0.0))
        else:
            weight = (gaps > 0.0) * allowed * (1.0 / counts[:, None])
            terms.append((np.maximum(gaps, 0.0) * allowed).sum(axis=1) * (1.0 / counts))
        weights.append(weight)

    def backward(g, accumulate):
        caption_w, image_w = (w * (g / n) for w in weights)
        d_sim = caption_w + image_w.T
        d_pos = -(caption_w.sum(axis=1) + image_w.sum(axis=1))[:, None]
        accumulate(images, d_sim @ v + d_pos * v)
        accumulate(captions, d_sim.T @ x + d_pos * x)

    return ad.fused_op((terms[0] + terms[1]).sum() * (1.0 / n), (images, captions),
                       "batch_loss", backward)
