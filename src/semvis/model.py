"""The two-path model: one config, named parameters, encode calls for both modalities."""

from __future__ import annotations

import math
import sys
from dataclasses import Field, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import text as text_mod
from . import visual as vis
from .autodiff import Tensor
from .errors import CheckpointError
from .loss import MININGS, LossConfig
from .text import Vocab

_INIT_SALT = 7


@dataclass
class ModelConfig:
    """Every architectural knob in one flat record.

    The defaults are desk-scale; the full-scale configuration
    (backbone_channels=2048, adapt_channels=embed_dim=2400, word_dim=620,
    sru_layers=4, top_k=180) is accepted unchanged.
    """

    backbone_channels: int = 64                    # channels of the last backbone block
    hidden_channels: tuple[int, ...] = (16, 32, 64)
    adapt_channels: int = 64                       # feature maps after the 1x1 layer
    embed_dim: int = 64
    word_dim: int = 64
    sru_layers: int = 2
    pooling: str = field(default=vis.POOL_MAX_MIN, metadata={"choices": vis.POOLINGS})
    visual_dropout: float = 0.5                    # on the pooled vector, train mode
    sru_dropout: float = 0.25                      # between recurrent layers, train mode
    margin: float = 0.2
    mining: str = field(default="random", metadata={"choices": MININGS})
    top_k: int | None = None   # None -> max(1, round(0.075 * embed_dim))

    def __post_init__(self):
        for name in ("backbone_channels", "adapt_channels", "embed_dim", "word_dim",
                     "sru_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(c < 1 for c in self.hidden_channels):
            raise ValueError(f"hidden_channels must all be >= 1, got {self.hidden_channels}")
        for f in fields(self):
            choices = f.metadata.get("choices")
            if choices and getattr(self, f.name) not in choices:
                raise ValueError(f"{f.name} must be one of {choices}, got {getattr(self, f.name)!r}")
        for name in ("visual_dropout", "sru_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        LossConfig(self.margin, self.mining)   # the loss settings' own checks
        if self.top_k is not None and not 1 <= self.top_k <= self.embed_dim:
            raise ValueError(f"top_k must be in [1, {self.embed_dim}], got {self.top_k}")

    def effective_top_k(self) -> int:
        if self.top_k is not None:
            return self.top_k
        return max(1, round(0.075 * self.embed_dim))


def setting_type(f: Field) -> type:
    """int, float, str or tuple, read from a setting's default; a None default is an int."""
    return int if f.default is None else type(f.default)


def coerce_number(name: str, value, kind: type = int, minimum=None):
    """``value`` as a finite ``kind`` (int or float) of at least ``minimum``; a bool, a
    string, a non-finite number or a fraction for an int is a ValueError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ValueError(f"{name} must be a whole number, got {value}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return kind(value)


def coerce_setting(f: Field, value):
    """``value`` (from a --config file, a flag or a checkpoint header) as setting ``f``
    holds it; a value of another type is a ValueError, not a conversion."""
    kind = setting_type(f)
    if (value is None and f.default is None) or (kind is str and isinstance(value, str)):
        return value
    if kind is tuple and isinstance(value, list):
        return tuple(coerce_number(f.name, c) for c in value)
    if kind in (tuple, str):
        raise ValueError(f"{f.name} must be a {'list' if kind is tuple else 'string'}, got {value!r}")
    return coerce_number(f.name, value, kind)


def settings_from(cls, values: dict):
    """Dataclass ``cls`` from the ``values`` named after its fields, via ``coerce_setting``."""
    return cls(**{f.name: coerce_setting(f, values[f.name]) for f in fields(cls)
                  if f.name in values})


def param_shapes(cfg: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in initialization order."""
    shapes = {}
    channels = (3, *cfg.hidden_channels, cfg.backbone_channels)
    for i, (cin, cout) in enumerate(zip(channels[:-1], channels[1:])):
        shapes[f"backbone.{i}.kernel"] = (cout, cin, 3, 3)
        shapes[f"backbone.{i}.bias"] = (cout,)
    shapes["adapt.kernel"] = (cfg.adapt_channels, cfg.backbone_channels, 1, 1)
    shapes["adapt.bias"] = (cfg.adapt_channels,)
    shapes["proj.weight"] = (cfg.embed_dim, cfg.adapt_channels)
    shapes["proj.bias"] = (cfg.embed_dim,)
    shapes["word.table"] = (vocab_size, cfg.word_dim)
    in_dim, hidden = cfg.word_dim, cfg.embed_dim
    for i in range(cfg.sru_layers):
        shapes[f"sru.{i}.weight"] = (3 * hidden, in_dim)
        shapes[f"sru.{i}.bias_f"] = (hidden,)
        shapes[f"sru.{i}.bias_r"] = (hidden,)
        if in_dim != hidden:
            shapes[f"sru.{i}.proj"] = (hidden, in_dim)
        in_dim = hidden
    return shapes


def init_params(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator) -> dict[str, Tensor]:
    """Draw the tensors in table order: biases zero, the word table uniform(+-0.1), the
    rest uniform(+-1/sqrt(fan_in)), fan_in being the size over the first axis."""
    params = {}
    for name, shape in shapes.items():
        if name.endswith(("bias", "bias_f", "bias_r")):
            data = np.zeros(shape)
        elif name == "word.table":
            data = rng.uniform(-0.1, 0.1, size=shape)
        else:
            bound = 1.0 / np.sqrt(math.prod(shape[1:]))
            data = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


class Model:
    """A config, a vocabulary and ``params``: every trainable tensor under the name
    that the encoders, the optimizer and the checkpoint address it by."""

    def __init__(self, cfg: ModelConfig, vocab: Vocab, params: dict[str, Tensor]):
        self.cfg = cfg
        self.vocab = vocab
        self.params = params
        # (key, pooled rows) of train_epoch's last frozen epoch; checkpoints do not save it.
        self._pooled_table = None

    @classmethod
    def initialize(cls, cfg: ModelConfig, vocab: Vocab, seed: int) -> "Model":
        rng = np.random.default_rng((seed, _INIT_SALT))
        return cls(cfg, vocab, init_params(param_shapes(cfg, len(vocab)), rng))

    @classmethod
    def from_params(cls, cfg: ModelConfig, vocab: Vocab,
                    params: dict[str, np.ndarray]) -> "Model":
        """Rebuild a model from named arrays (the checkpoint loader's path)."""
        if cfg.sru_layers > len(params):   # each layer has tensors of its own; bounds the table
            raise CheckpointError(f"sru_layers={cfg.sru_layers} exceeds the {len(params)} arrays")
        shapes = param_shapes(cfg, len(vocab))
        got = {name: np.shape(arr) for name, arr in params.items()}
        if got != shapes:
            bad = sorted(n for n in shapes.keys() | got.keys() if got.get(n) != shapes.get(n))
            raise CheckpointError("parameters do not match the config: " + ", ".join(
                f"{n} has shape {got.get(n)}, expected {shapes.get(n)}" for n in bad))
        return cls(cfg, vocab, {name: Tensor(np.asarray(params[name], dtype=np.float64),
                                             requires_grad=True) for name in shapes})

    # -- encoding ----------------------------------------------------------

    def encode_image(self, image, training: bool = False,
                     rng_key: tuple = ()) -> tuple[Tensor, Tensor]:
        """(embedding (d,), feature stack (C, h, w)) for a uint8 or float (3, H, W) image:
        ``visual.pooled_features``, then ``visual.project`` under ``rng_key``."""
        pooled, stack = vis.pooled_features(vis.image_to_tensor(image), self.params, self.cfg)
        return vis.project(pooled, self.params, self.cfg.visual_dropout, training, rng_key), stack

    def encode_text(self, text, training: bool = False, rng_key: tuple = ()) -> Tensor:
        """Embed a caption string, or a pre-tokenized list of token indices."""
        token_ids = text_mod.tokenize(text, self.vocab) if isinstance(text, str) else list(text)
        return text_mod.encode_text(token_ids, self.params, self.cfg,
                                    training=training, rng_key=rng_key)

    def pooled_features(self, images) -> tuple[Tensor, Tensor]:
        """``visual.pooled_features`` of N same-size uint8 or float (3, H, W) images as
        one (3, N, H, W) batch: (N, adapt_channels) rows and the (C, N, h, w) stack."""
        return vis.pooled_features(vis.image_to_tensor(np.stack(images, axis=1)),
                                   self.params, self.cfg)

    def pool_images(self, images) -> Tensor:
        """(N, adapt_channels) rows of N uint8 or float (3, H, W) images before the
        projection, one (3, n, H, W) batch per image size, in input order."""
        return _by_bucket([np.shape(image) for image in images],
                          lambda rows: self.pooled_features([images[i] for i in rows])[0])

    def project(self, pooled: Tensor, training: bool = False, rng_keys=None) -> Tensor:
        """(N, d) embeddings of pooled rows; row j's dropout key is ``rng_keys[j]``."""
        return vis.project(pooled, self.params, self.cfg.visual_dropout, training,
                           () if rng_keys is None else list(rng_keys))

    def encode_images(self, images, training: bool = False, rng_keys=None) -> Tensor:
        """(N, d) embeddings of N images: ``pool_images``, then one ``project``."""
        return self.project(self.pool_images(images), training, rng_keys)

    def encode_texts(self, texts, training: bool = False, rng_keys=None) -> Tensor:
        """(N, d) embeddings of N captions (strings or token ids), one batch per length."""
        ids = [text_mod.tokenize(t, self.vocab) if isinstance(t, str) else list(t) for t in texts]
        return _by_bucket([len(seq) for seq in ids], lambda rows: text_mod.encode_text(
            [ids[i] for i in rows], self.params, self.cfg, training=training,
            rng_key=() if rng_keys is None else [rng_keys[i] for i in rows]))


def _by_bucket(sizes: list, encode) -> Tensor:
    """``encode(rows)`` once per group of rows of one size, in input order."""
    buckets: dict = {}
    for i, size in enumerate(sizes):
        buckets.setdefault(size, []).append(i)
    parts = [encode(rows) for rows in buckets.values()]
    if len(parts) == 1:
        return parts[0]
    order = np.argsort([i for rows in buckets.values() for i in rows])
    return ad.take_rows(ad.stack_rows(parts), order)
