"""Caption encoder: token embedding table plus a stacked simple recurrent unit.

A caption is lowercased, split on whitespace/punctuation and mapped through
the vocabulary (unknown words become ``<unk>``).  Token vectors then run
through L recurrent layers whose heavy matrix products depend only on the
inputs; the last hidden state of the top layer, l2-normalized, is the
sentence embedding.  Captions of one token length encode together as one
(n, T, d) batch, and a single caption is a batch of one.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DegenerateInputError, ShapeError

if TYPE_CHECKING:
    from .model import ModelConfig

UNK_TOKEN = "<unk>"

_WORD_RE = re.compile(r"[a-z0-9]+")


class Vocab:
    """Token <-> index map with ``<unk>`` pinned at index 0.  A token that is empty,
    ``<unk>`` again or a repeat is refused, not dropped, so no later index moves."""

    def __init__(self, tokens: Sequence[str], where: str = "vocabulary index"):
        self.tokens = [UNK_TOKEN, *tokens]
        self.index: dict[str, int] = {}
        for i, t in enumerate(self.tokens):
            if not isinstance(t, str) or not t or self.index.setdefault(t, i) != i:
                raise ValueError(f"{where} {i}: {t!r} is not a new, nonempty token")

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.tokens == other.tokens

    def lookup(self, token: str) -> int:
        return self.index.get(token, 0)

    def to_file(self, path) -> None:
        """One token per line; line number is the index, line 0 is ``<unk>``."""
        with open(path, "w", encoding="utf-8") as fh:
            for t in self.tokens:
                fh.write(t + "\n")

    @classmethod
    def from_file(cls, path) -> "Vocab":
        """Read ``to_file``'s lines (ended by \\n, \\r\\n or \\r); a line that is not
        UTF-8 or not a new token, or a line 0 other than ``<unk>``, raises ValueError
        naming the file and the line."""
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        try:
            tokens = [line.decode("utf-8") for line in lines]
        except UnicodeDecodeError as exc:   # the first line equal to the failing one is it
            raise ValueError(f"{path}: line {lines.index(exc.object)}: not UTF-8 "
                             f"({exc.reason})") from None
        if not tokens or tokens[0] != UNK_TOKEN:
            raise ValueError(f"{path}: line 0 must be the literal token {UNK_TOKEN!r}")
        return cls(tokens[1:], where=f"{path}: line")


def split_words(text: str) -> list[str]:
    """Lowercase and split on whitespace and punctuation."""
    return _WORD_RE.findall(text.lower())


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Split ``text`` into words and map them through the vocabulary.

    Raises DegenerateInputError when nothing remains after splitting.
    """
    words = split_words(text)
    if not words:
        raise DegenerateInputError(f"no tokens left after splitting {text!r}")
    return [vocab.lookup(w) for w in words]


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(min(x, 0)) / (1 + exp(-|x|)), so exp never overflows.  With e = exp(-|x|) the
    # numerator is max(e, [x >= 0]): 1 for x >= 0, e below 0, and e's NaN for a NaN.
    e = np.abs(x, out=np.empty(x.shape))
    np.exp(np.negative(e, out=e), out=e)
    num = np.greater_equal(x, 0.0, out=np.empty(x.shape))
    np.maximum(e, num, out=num)
    num /= np.add(e, 1.0, out=e)
    return num


def sru_layer(x_seq: Tensor, params: dict, depth: int = 0) -> Tensor:
    """Run recurrent layer ``depth`` over a batch (n, T, in_dim) of equal-length
    sequences at once.

    The layer's tensors are ``sru.{depth}.weight`` (3*hidden, in_dim), which
    stacks the three input transforms row-wise: candidate rows [0, H),
    forget-gate rows [H, 2H), reset-gate rows [2H, 3H); ``bias_f`` and
    ``bias_r`` (hidden,); and ``proj`` (hidden, in_dim), which maps the input
    onto the hidden size for the highway term and is only present when the
    input dimension differs from the hidden size.

    Per step, with a zero initial carry::

        candidate = W_x x_t
        f = sigmoid(W_f x_t + b_f),  r = sigmoid(W_r x_t + b_r)
        c_t = f * c_prev + (1 - f) * candidate
        h_t = r * tanh(c_t) + (1 - r) * x_hat        (x_hat = x_t, or proj @ x_t)

    The layer is one graph node: the input transforms of every step of a
    sequence are one matrix product, and only the elementwise carry
    recurrence, vectorized over the batch, loops over time (checked against
    an op-by-op cell).  The forward's elementwise work runs in place, in the
    operand order of the formulas, so it equals an allocating kernel byte for
    byte.
    Each sequence's products are its own, so a batch runs each sequence as a
    batch of one would, and sums the parameter gradients with ``sum_examples``.
    """
    prefix = f"sru.{depth}."
    weight, bias_f, bias_r = (params[prefix + n] for n in ("weight", "bias_f", "bias_r"))
    proj = params.get(prefix + "proj")
    hidden = bias_f.shape[0]
    if x_seq.data.ndim != 3:
        raise ShapeError(f"sru_layer needs an (n, T, in_dim) batch, got {x_seq.shape}")
    n_seq, t_len, in_dim = x_seq.data.shape
    if proj is None and in_dim != hidden:
        raise ShapeError(f"sru_layer: input width {in_dim} needs a projection onto {hidden}")

    x = x_seq.data                             # [k] is sequence k, [:, t] step t
    wx = np.matmul(x, weight.data.T)           # one (T, 3H) product per sequence
    cand = wx[..., :hidden]
    gates = _stable_sigmoid(wx[..., hidden:] + np.concatenate([bias_f.data, bias_r.data]))
    f, r = gates[..., :hidden], gates[..., hidden:]
    c = np.subtract(1.0, f)
    c *= cand                                  # (1 - f) * candidate; each step adds f * c_prev
    step = np.zeros((n_seq, hidden))           # f_t * c_{t-1}, with c_{-1} = 0
    for f_t, c_t, prev in zip(f.swapaxes(0, 1), c.swapaxes(0, 1), [step, *c.swapaxes(0, 1)]):
        np.multiply(f_t, prev, out=step)
        np.add(step, c_t, out=c_t)
    tc = np.tanh(c)
    x_hat = x if proj is None else np.matmul(x, proj.data.T)
    h = r * tc + (1.0 - r) * x_hat

    def backward(g, accumulate):
        d_tc = g * r
        d_r = g * (tc - x_hat)
        d_xh = g * (1.0 - r)
        d_c = d_tc * (1.0 - tc * tc)
        carry = np.zeros((n_seq, hidden))
        for t in range(t_len - 1, -1, -1):   # d_c becomes the total gradient of each c_t
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
        accumulate(x_seq, d_x)

    parents = [x_seq, weight, bias_f, bias_r]
    if proj is not None:
        parents.append(proj)
    return ad.fused_op(h, parents, "sru_layer", backward)


# Dropout key offset, so every dropout site in the network draws an
# independent deterministic stream (see autodiff.dropout).
TEXT_DROPOUT_ID = 2


def encode_text(token_ids, params: dict, cfg: ModelConfig,
                training: bool = False, rng_keys: list | None = None) -> Tensor:
    """Embed n token sequences of one length, (n, T), as (n, d) unit rows, each
    row's dropout under its key in the list ``rng_keys``.

    Looks the tokens up in ``word.table``, runs the ``cfg.sru_layers`` stacked
    recurrent layers with a zero carry per layer, applies inter-layer dropout
    to each hidden sequence that feeds the next layer (train mode only), takes
    the top layer's last hidden state and l2-normalizes it.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ShapeError(f"encode_text needs (n, T) token ids, got shape {ids.shape}")
    if ids.size == 0:
        raise DegenerateInputError("cannot encode an empty token sequence")
    seq = ad.take_rows(params["word.table"], ids)
    for depth in range(cfg.sru_layers):
        seq = sru_layer(seq, params, depth)
        if training and cfg.sru_dropout > 0.0 and depth < cfg.sru_layers - 1:
            seq = ad.dropout(seq, cfg.sru_dropout, ad.subkey(rng_keys, TEXT_DROPOUT_ID, depth))
    return ad.l2_normalize(ad.take_row(seq, -1))
