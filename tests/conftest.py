"""Shared helpers: plain-numpy oracles kept independent of the autodiff path,
op-by-op reference versions of fused library kernels, built on ``ad.fused_op``,
and the per-example training epoch that the batched one is checked against."""

import math

import numpy as np
import pytest

from semvis import autodiff as ad
from semvis.autodiff import Tensor
from semvis.errors import ShapeError
from semvis.loss import Batch, LossConfig, batch_loss
from semvis.model import Model, ModelConfig
from semvis.text import Vocab, _stable_sigmoid
from semvis.train import (_EPOCH_SALT, _training_captions, adam_step, effective_lr,
                          trainable_set)


# ---------------------------------------------------------------------------
# reference ops: the elementwise and indexing steps of the op-by-op oracles,
# and the scalar loss of every gradient test
# ---------------------------------------------------------------------------

def weighted_sum(*pairs):
    """Scalar sum over (tensor, weights) pairs of each tensor's entries times its
    weights: an array of the tensor's shape, or a number for all of its entries."""
    pairs = [(t, np.broadcast_to(_values(w), t.data.shape)) for t, w in pairs]
    return ad.fused_op(sum((t.data * w).sum() for t, w in pairs), [t for t, _ in pairs],
                       "weighted_sum", lambda g, acc: [acc(t, g * w) for t, w in pairs])


def add(a, b):
    return ad.fused_op(a.data + b.data, [a, b], "add", lambda g, acc: (acc(a, g), acc(b, g)))


def sub(a, b):
    return ad.fused_op(a.data - b.data, [a, b], "sub", lambda g, acc: (acc(a, g), acc(b, -g)))


def mul(a, b):
    return ad.fused_op(a.data * b.data, [a, b], "mul",
                       lambda g, acc: (acc(a, g * b.data), acc(b, g * a.data)))


def dot(a, b):
    """Inner product of two same-shape tensors, as a scalar."""
    return ad.fused_op((a.data * b.data).sum(), [a, b], "dot",
                       lambda g, acc: (acc(a, g * b.data), acc(b, g * a.data)))


def relu(a):
    return ad.fused_op(np.maximum(a.data, 0.0), [a], "relu",
                       lambda g, acc: acc(a, g * (a.data > 0.0)))


def matvec(w, x):
    """Matrix-vector product (m, k) @ (k,) -> (m,)."""
    return ad.fused_op(w.data @ x.data, [w, x], "matvec",
                       lambda g, acc: (acc(w, np.outer(g, x.data)), acc(x, w.data.T @ g)))


def sigmoid(a):
    out = _stable_sigmoid(a.data)
    return ad.fused_op(out, [a], "sigmoid", lambda g, acc: acc(a, g * out * (1.0 - out)))


def tanh(a):
    out = np.tanh(a.data)
    return ad.fused_op(out, [a], "tanh", lambda g, acc: acc(a, g * (1.0 - out * out)))


def slice_rows(a, start, stop):
    """Contiguous slice [start:stop) along the first axis."""
    n = a.data.shape[0] if a.data.ndim else 0
    if not 0 <= start <= stop <= n:
        raise ShapeError(f"slice_rows [{start}:{stop}) out of range for shape {a.shape}")

    def backward(g, acc):
        buf = np.zeros_like(a.data)
        buf[start:stop] += g
        acc(a, buf)

    return ad.fused_op(a.data[start:stop].copy(), [a], "slice_rows", backward)


def scale(a, c):
    """``a`` times the constant ``c``."""
    return ad.fused_op(a.data * float(c), [a], "scale", lambda g, acc: acc(a, g * float(c)))


def add_channel_bias(x, bias):
    """Add a per-channel bias (C,) to a (C, [N,] h, w) stack (``conv2d`` fuses it)."""
    if x.data.ndim not in (3, 4) or bias.data.shape != x.data.shape[:1]:
        raise ShapeError(f"add_channel_bias: shapes {x.shape} and {bias.shape} do not line up")
    axes = tuple(range(1, x.data.ndim))
    shaped = bias.data.reshape(-1, *(1,) * len(axes))
    return ad.fused_op(x.data + shaped, [x, bias], "add_channel_bias",
                       lambda g, acc: (acc(x, g), acc(bias, g.sum(axis=axes))))


def sru_cell(x_t, c_prev, params, depth=0):
    """One recurrence step of layer ``depth`` (tensors ``sru.{depth}.*``), op by op;
    the reference that ``text.sru_layer`` is checked against.

    candidate = W_x x_t
    f = sigmoid(W_f x_t + b_f),  r = sigmoid(W_r x_t + b_r)
    c_t = f * c_prev + (1 - f) * candidate
    h_t = r * tanh(c_t) + (1 - r) * x_hat        (x_hat = x_t, or proj @ x_t)
    """
    prefix = f"sru.{depth}."
    weight, bias_f, bias_r = (params[prefix + n] for n in ("weight", "bias_f", "bias_r"))
    proj = params.get(prefix + "proj")
    hidden = bias_f.shape[0]
    if c_prev.shape != (hidden,):
        raise ShapeError(f"sru_cell: carry shape {c_prev.shape} does not match hidden {hidden}")
    wx = matvec(weight, x_t)
    candidate = slice_rows(wx, 0, hidden)
    f = sigmoid(add(slice_rows(wx, hidden, 2 * hidden), bias_f))
    r = sigmoid(add(slice_rows(wx, 2 * hidden, 3 * hidden), bias_r))
    one = Tensor(np.ones(hidden))
    c_t = add(mul(f, c_prev), mul(sub(one, f), candidate))
    if proj is not None:
        x_hat = matvec(proj, x_t)
    elif x_t.shape == (hidden,):
        x_hat = x_t
    else:
        raise ShapeError(f"sru_cell: input shape {x_t.shape} needs a projection onto hidden {hidden}")
    h_t = add(mul(r, tanh(c_t)), mul(sub(one, r), x_hat))
    return h_t, c_t


def where_sigmoid(x):
    """The logistic function as a branch on sign, so exp never overflows: the
    reference that ``text._stable_sigmoid`` must equal byte for byte."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def sru_layer_oracle(x_seq, params, depth=0):
    """``text.sru_layer`` as it was before its forward ran in place: the where-form
    sigmoid and a step loop that allocates each carry; ``d_wx`` is concatenated
    from three temporaries.  The kernel must match it byte for byte."""
    prefix = f"sru.{depth}."
    weight, bias_f, bias_r = (params[prefix + n] for n in ("weight", "bias_f", "bias_r"))
    proj = params.get(prefix + "proj")
    hidden = bias_f.shape[0]
    *lead, t_len, in_dim = x_seq.data.shape
    x = x_seq.data.reshape(-1, t_len, in_dim)
    n_seq = len(x)
    wx = np.matmul(x, weight.data.T)
    cand = wx[..., :hidden]
    gates = where_sigmoid(wx[..., hidden:] + np.concatenate([bias_f.data, bias_r.data]))
    f, r = gates[..., :hidden], gates[..., hidden:]
    kept = (1.0 - f) * cand
    c = np.empty(f.shape)
    prev = np.zeros((n_seq, hidden))
    for t in range(t_len):
        prev = f[:, t] * prev + kept[:, t]
        c[:, t] = prev
    tc = np.tanh(c)
    x_hat = x if proj is None else np.matmul(x, proj.data.T)
    h = r * tc + (1.0 - r) * x_hat

    def backward(g, accumulate):
        g = g.reshape(f.shape)
        d_tc = g * r
        d_r = g * (tc - x_hat)
        d_xh = g * (1.0 - r)
        d_c = d_tc * (1.0 - tc * tc)
        carry = np.zeros((n_seq, hidden))
        for t in range(t_len - 1, -1, -1):
            d_c[:, t] += carry
            carry = d_c[:, t] * f[:, t]
        c_prev = np.concatenate([np.zeros((n_seq, 1, hidden)), c[:, :-1]], axis=1)
        d_f = d_c * (c_prev - cand)
        d_cand = d_c * (1.0 - f)
        d_af = d_f * f * (1.0 - f)
        d_ar = d_r * r * (1.0 - r)
        d_wx = np.concatenate([d_cand, d_af, d_ar], axis=2)
        accumulate(weight, ad.sum_examples(n_seq, lambda k: d_wx[k].T @ x[k]))
        accumulate(bias_f, ad.sum_examples(n_seq, lambda k: d_af[k].sum(axis=0)))
        accumulate(bias_r, ad.sum_examples(n_seq, lambda k: d_ar[k].sum(axis=0)))
        d_x = np.matmul(d_wx, weight.data)
        if proj is None:
            d_x = d_x + d_xh
        else:
            accumulate(proj, ad.sum_examples(n_seq, lambda k: d_xh[k].T @ x[k]))
            d_x = d_x + np.matmul(d_xh, proj.data)
        accumulate(x_seq, d_x.reshape(x_seq.data.shape))

    parents = [x_seq, weight, bias_f, bias_r] + ([] if proj is None else [proj])
    return ad.fused_op(h.reshape(*lead, t_len, hidden), parents, "sru_layer_oracle", backward)


# ---------------------------------------------------------------------------
# reference similarities and single-triplet hinges
# ---------------------------------------------------------------------------

def _values(x):
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def cosine_sim(x, v):
    """Dot product of two unit vectors (plain float, no graph)."""
    return float(_values(x) @ _values(v))


def triplet_loss(query, positive, negative, margin=0.2):
    """Hinge value max(0, margin - sim(q, pos) + sim(q, neg)) as a plain float."""
    return max(0.0, margin - cosine_sim(query, positive) + cosine_sim(query, negative))


def triplet_hinge(query, positive, negative, margin):
    """Differentiable version of ``triplet_loss`` (a scalar graph node)."""
    gap = sub(dot(query, negative), dot(query, positive))
    return relu(add(gap, Tensor(np.float64(margin))))


def similarity_matrix(images, captions):
    """(N_img, N_cap) cosine similarities; a plain value (no gradient graph)."""
    rows = np.stack([_values(x) for x in images])
    cols = np.stack([_values(v) for v in captions])
    return Tensor(rows @ cols.T)


def naive_conv2d(x, kernel, stride, pad):
    """Quadruple-loop cross-correlation."""
    cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, h_out, w_out))
    for co in range(cout):
        for i in range(h_out):
            for j in range(w_out):
                patch = xp[:, i * stride:i * stride + kh, j * stride:j * stride + kw]
                out[co, i, j] = np.sum(patch * kernel[co])
    return out


def np_pad_conv2d(x, kernel, stride=1, pad=0, bias=None, relu=False):
    """``ad.conv2d`` the per-offset way: im2col over an ``np.pad``-ed copy of each
    image and col2im back into one, one strided slice per kernel offset.

    Everything else follows the library's arithmetic: one GEMM per image into the
    batch's output, the fused bias and ReLU, and kernel and bias gradients summed
    over the images the last first (``ad.sum_examples``).  Each input-gradient cell
    gets its contributions in kernel-offset order, starting from 0.0.  So the two
    agree bit for bit.
    """
    cin, *batch, h, w = x.data.shape
    cout, _, kh, kw = kernel.data.shape
    n = batch[0] if batch else 1
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    padded = np.pad(x.data.reshape(cin, n, h, w), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    k2 = kernel.data.reshape(cout, -1)
    windows = [(i, j, np.s_[:, i:i + stride * h_out:stride, j:j + stride * w_out:stride])
               for i in range(kh) for j in range(kw)]

    def patches(k):
        cols = np.empty((cin, kh, kw, h_out, w_out))
        for i, j, window in windows:
            cols[:, i, j] = padded[:, k][window]
        return cols.reshape(cin * kh * kw, h_out * w_out)

    out = np.empty((cout, n, h_out * w_out))
    for k in range(n):
        np.matmul(k2, patches(k), out=out[:, k])
    if bias is not None:
        out += bias.data[:, None, None]
    if relu:
        np.maximum(out, 0.0, out=out)

    def backward(g, acc):
        g = g.reshape(out.shape)
        if relu:
            g = g * (out > 0.0)
        if bias is not None:
            acc(bias, ad.sum_examples(n, lambda k: g[:, k].sum(axis=1)))
        if kernel.requires_grad:
            acc(kernel, ad.sum_examples(n, lambda k: g[:, k] @ patches(k).T)
                .reshape(kernel.data.shape))
        if x.requires_grad:
            gx = np.empty((cin, n, h, w))
            for k in range(n):
                gcols = (k2.T @ g[:, k]).reshape(cin, kh, kw, h_out, w_out)
                gxp = np.zeros((cin, h + 2 * pad, w + 2 * pad))
                for i, j, window in windows:
                    gxp[window] += gcols[:, i, j]
                gx[:, k] = gxp[:, pad:pad + h, pad:pad + w]
            acc(x, gx.reshape(x.data.shape))

    parents = [x, kernel] if bias is None else [x, kernel, bias]
    return ad.fused_op(out.reshape(cout, *batch, h_out, w_out), parents, "conv2d", backward)


def argsort_retrieval_ranks(sim, owners):
    """Caption-side and image-side best-match ranks by one stable descending
    ``argsort`` per row and per column."""
    sim, owners = np.asarray(sim, dtype=np.float64), np.asarray(owners)
    cap_ranks = [int(np.nonzero(owners[np.argsort(-row, kind="stable")] == i)[0][0]) + 1
                 for i, row in enumerate(sim)]
    img_ranks = [int(np.nonzero(np.argsort(-sim[:, j], kind="stable") == owners[j])[0][0]) + 1
                 for j in range(sim.shape[1])]
    return cap_ranks, img_ranks


def brute_force_rank(scores, target_is_match):
    """1-based rank of the best-ranked matching column, by pairwise counting
    (strictly greater scores rank earlier; equal scores at lower index too)."""
    best = None
    for j, is_match in enumerate(target_is_match):
        if not is_match:
            continue
        rank = 1
        for l in range(len(scores)):
            if l == j:
                continue
            if scores[l] > scores[j] or (scores[l] == scores[j] and l < j):
                rank += 1
        best = rank if best is None else min(best, rank)
    return best


def oracle_retrieval_ranks(sim, owners):
    """Caption-side and image-side best-match ranks by brute-force counting."""
    n_img, n_cap = sim.shape
    cap_ranks = [brute_force_rank(sim[i], [owners[j] == i for j in range(n_cap)])
                 for i in range(n_img)]
    img_ranks = [brute_force_rank(sim[:, j], [i == owners[j] for i in range(n_img)])
                 for j in range(n_cap)]
    return cap_ranks, img_ranks


def enumerate_batch_loss(images, captions, ids, margin, mining):
    """Plain-float enumeration of the contrastive loss over every triplet."""
    n = len(images)
    total = 0.0
    for i in range(n):
        negatives = [m for m in range(n) if ids[m] != ids[i]]
        cap = [max(0.0, margin - images[i] @ captions[i] + images[i] @ captions[m])
               for m in negatives]
        img = [max(0.0, margin - captions[i] @ images[i] + captions[i] @ images[m])
               for m in negatives]
        if mining == "hard":
            total += max(cap) + max(img)
        else:
            total += sum(cap) / len(cap) + sum(img) / len(img)
    return total / n


def per_example_train_epoch(model, dataset, sched, state, epoch, seed):
    """``train.train_epoch`` with one graph per image and per caption: the same
    shuffle, caption draws, dropout keys, frozen set and Adam steps, and a
    ``Batch`` of per-example embeddings."""
    loss_cfg = LossConfig(model.cfg.margin, model.cfg.mining)
    rng = np.random.default_rng((seed, _EPOCH_SALT, epoch))
    appearances = np.repeat(np.arange(len(dataset.scenes)),
                            [len(s.captions) for s in dataset.scenes])
    order = appearances[rng.permutation(len(appearances))]
    lr = effective_lr(epoch, sched)
    names = trainable_set(epoch, sched, model.params)
    frozen = [p for n, p in model.params.items() if n not in names and p.requires_grad]
    for p in frozen:
        p.requires_grad = False
    try:
        losses = []
        for step, start in enumerate(range(0, len(order), sched.batch_size)):
            idxs = order[start:start + sched.batch_size]
            if len(idxs) < 2 or len(set(int(i) for i in idxs)) < 2:
                continue
            images, captions, ids = [], [], []
            taken = set()
            for j, scene_idx in enumerate(idxs):
                scene = dataset.scenes[int(scene_idx)]
                pool = _training_captions(scene)
                for _ in range(8):
                    cap = pool[int(rng.integers(0, len(pool)))]
                    if cap not in taken:
                        break
                taken.add(cap)
                key = (seed, epoch, step, j)
                images.append(model.encode_image(scene.image, training=True, rng_key=key)[0])
                captions.append(model.encode_text(cap, training=True, rng_key=key))
                ids.append(scene.scene_id)
            loss = batch_loss(Batch(images, captions, ids), loss_cfg)
            value = loss.item()
            assert math.isfinite(value)
            loss.backward()
            adam_step(model.params, state, lr, names)
            ad.zero_grads(model.params.values())
            losses.append(value)
    finally:
        for p in frozen:
            p.requires_grad = True
    return float(np.mean(losses))


MICRO_CONFIG = dict(backbone_channels=4, hidden_channels=(2, 3, 3), adapt_channels=5,
                    embed_dim=6, word_dim=3, sru_layers=2)


@pytest.fixture
def micro_model():
    """A model small enough for exhaustive finite differences (16x16 images)."""
    vocab = Vocab(["red", "circle", "a", "blue", "square", "the", "is"])
    return Model.initialize(ModelConfig(**MICRO_CONFIG), vocab, seed=5)
