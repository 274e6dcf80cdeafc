"""Plain-numpy reference computations for the benchmark's correctness checks.

Each oracle recomputes one of the program's outputs from the raw parameter
arrays, without calling the ``semvis`` function it checks, and with a
different order of arithmetic (per-offset convolution instead of one im2col
product, an explicit time loop instead of the fused recurrent kernel,
per-triplet enumeration instead of the masked matrix loss, pairwise rank
counting instead of sorting, per-pixel projection instead of one matrix
product).  Agreement therefore checks the program's algorithm, not just its
repeatability.
"""

from __future__ import annotations

import re

import numpy as np


# ---------------------------------------------------------------------------
# image encoder
# ---------------------------------------------------------------------------

def conv_offsets(x: np.ndarray, kernel: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Cross-correlation of a batch (N, Cin, H, W) as a sum over kernel offsets."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    xp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w] = x
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, h_out, w_out))
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride]
            out += np.einsum("oc,nchw->nohw", kernel[:, :, i, j], patch)
    return out


def feature_stacks(images_u8: np.ndarray, params: dict, signs: list | None = None) -> np.ndarray:
    """(N, 3, H, W) uint8 images -> (N, adapt_channels, H/16, W/16) adaptation maps.

    When ``signs`` is a list, each backbone block's ReLU mask is appended to it.
    """
    x = images_u8.astype(np.float64) / 255.0
    block = 0
    while f"backbone.{block}.kernel" in params:
        x = conv_offsets(x, params[f"backbone.{block}.kernel"], stride=2, pad=1)
        x = x + params[f"backbone.{block}.bias"][None, :, None, None]
        if signs is not None:
            signs.append(x > 0.0)
        x = np.maximum(x, 0.0)
        block += 1
    adapt = params["adapt.kernel"][:, :, 0, 0]
    return np.einsum("ac,nchw->nahw", adapt, x) + params["adapt.bias"][None, :, None, None]


def _embed_stacks(stacks: np.ndarray, params: dict, pooling: str) -> np.ndarray:
    n, c = stacks.shape[:2]
    flat = stacks.reshape(n, c, -1)
    if pooling == "max_min":
        pooled = flat.max(axis=2) + flat.min(axis=2)
    else:
        pooled = flat.mean(axis=2)
    emb = pooled @ params["proj.weight"].T + params["proj.bias"]
    return emb / np.sqrt((emb * emb).sum(axis=1, keepdims=True))


def image_embeddings(images_u8: np.ndarray, params: dict, pooling: str) -> np.ndarray:
    """Eval-mode image embeddings: pooled maps, affine map, unit norm."""
    return _embed_stacks(feature_stacks(images_u8, params), params, pooling)


# ---------------------------------------------------------------------------
# caption encoder
# ---------------------------------------------------------------------------

def token_ids(text: str, tokens: list[str]) -> list[int]:
    index = {t: i for i, t in enumerate(tokens)}
    return [index.get(w, 0) for w in re.findall(r"[a-z0-9]+", text.lower())]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def text_embedding(text: str, tokens: list[str], params: dict) -> np.ndarray:
    """Eval-mode caption embedding: stacked recurrence stepped one token at a time."""
    seq = [params["word.table"][i] for i in token_ids(text, tokens)]
    layer = 0
    while f"sru.{layer}.weight" in params:
        weight = params[f"sru.{layer}.weight"]
        hidden = weight.shape[0] // 3
        proj = params.get(f"sru.{layer}.proj")
        c = np.zeros(hidden)
        out = []
        for x in seq:
            cand = weight[:hidden] @ x
            f = _sigmoid(weight[hidden:2 * hidden] @ x + params[f"sru.{layer}.bias_f"])
            r = _sigmoid(weight[2 * hidden:] @ x + params[f"sru.{layer}.bias_r"])
            c = f * c + (1.0 - f) * cand
            highway = x if proj is None else proj @ x
            out.append(r * np.tanh(c) + (1.0 - r) * highway)
        seq = out
        layer += 1
    last = seq[-1]
    return last / np.sqrt(last @ last)


# ---------------------------------------------------------------------------
# loss and ranking
# ---------------------------------------------------------------------------

def batch_loss(images: np.ndarray, captions: np.ndarray, ids, margin: float,
               mining: str) -> float:
    """Both directions' hinge over every (query, positive, negative) triplet."""
    n = len(ids)
    total = 0.0
    for q in range(n):
        cap_hinges, img_hinges = [], []
        for m in range(n):
            if ids[m] == ids[q]:
                continue
            cap_hinges.append(max(0.0, margin - float(images[q] @ captions[q])
                                  + float(images[q] @ captions[m])))
            img_hinges.append(max(0.0, margin - float(captions[q] @ images[q])
                                  + float(captions[q] @ images[m])))
        if mining == "hard":
            total += max(cap_hinges) + max(img_hinges)
        else:
            total += sum(cap_hinges) / len(cap_hinges) + sum(img_hinges) / len(img_hinges)
    return total / n


def kink_signature(images_u8: np.ndarray, texts: list[str], ids, tokens: list[str],
                   params: dict, pooling: str, margin: float) -> bytes:
    """On which side of each non-differentiable point the eval-mode batch loss sits.

    Covers every backbone ReLU, the pooling argmax/argmin cell of every
    channel and the sign and per-query argmax of every hinge.  Two parameter
    points with the same signature lie on one smooth piece of the loss (up to
    crossings that cancel), so a central difference between them is valid.
    """
    signs: list = []
    stacks = feature_stacks(images_u8, params, signs)
    n, c = stacks.shape[:2]
    flat = stacks.reshape(n, c, -1)
    signs += [flat.argmax(axis=2), flat.argmin(axis=2)]
    images = _embed_stacks(stacks, params, pooling)
    captions = np.stack([text_embedding(t, tokens, params) for t in texts])
    sim = images @ captions.T
    ids = np.asarray(ids)
    blocked = np.where(ids[:, None] == ids[None, :], -np.inf, 0.0)
    for gaps in (sim - np.diag(sim)[:, None], sim.T - np.diag(sim)[:, None]):
        gaps = gaps + margin + blocked
        signs += [gaps > 0.0, gaps.argmax(axis=1)]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in signs)


def _rank(scores: np.ndarray, j: int) -> int:
    """1-based rank of entry j: strictly greater scores first, ties to the lower index."""
    return 1 + int((scores > scores[j]).sum()) + int((scores[:j] == scores[j]).sum())


def retrieval_ranks(sim: np.ndarray, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Caption-side best own-caption rank per image; image-side owner rank per caption."""
    n_img, n_cap = sim.shape
    cap_ranks = np.array([min(_rank(sim[i], j) for j in np.nonzero(owners == i)[0])
                          for i in range(n_img)])
    img_ranks = np.array([_rank(sim[:, j], int(owners[j])) for j in range(n_cap)])
    return cap_ranks, img_ranks


def recall_report(ranks: np.ndarray, r_values=(1, 5, 10)) -> dict:
    n = len(ranks)
    ordered = sorted(int(r) for r in ranks)
    mid = n // 2
    median = float(ordered[mid]) if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    return {"r_at": {r: sum(1 for v in ordered if v <= r) / n for r in r_values},
            "median_rank": median}


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def heat_peak(stack: np.ndarray, weight: np.ndarray, embedding: np.ndarray, top_k: int,
              image_size: tuple[int, int]) -> tuple[float, float, float]:
    """(px, py, heat_max) of the text-conditioned heatmap over one feature stack.

    The projection is applied pixel by pixel; the k largest signed entries
    (ties to the lower index) weight their maps by |value|; the peak is the
    first maximal cell in row-major order, reported at its pixel center.
    """
    _, h, w = stack.shape
    picked = sorted(range(embedding.size), key=lambda i: (-embedding[i], i))[:top_k]
    heat = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            maps = weight @ stack[:, y, x]
            heat[y, x] = sum(abs(embedding[i]) * maps[i] for i in picked)
    best = 0
    flat = heat.reshape(-1)
    for cell in range(1, flat.size):
        if flat[cell] > flat[best]:
            best = cell
    row, col = divmod(best, w)
    height, width = image_size
    return (col + 0.5) * width / w, (row + 0.5) * height / h, float(flat[best])


def box_contains(bbox, px: float, py: float) -> bool:
    x, y, w, h = bbox
    return x <= px < x + w and y <= py < y + h
