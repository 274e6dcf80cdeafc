"""Training loop: Adam, staged unfreezing, halving learning rate, checkpoints.

Each batch is one graph: its images encode as one channel-major
(3, N, H, W) stack, its captions as one (n, T) batch per token length, and
the ranking loss takes the two (N, d) embedding matrices.  When the batch
is one image size and one token length, as on generated data, it trains bit
for bit like one graph per image and per caption.  The text encoder, the
word table and the final projection train from epoch zero; the rest of the
image pipeline joins after ``freeze_epochs``.  A frozen tensor is not
tracked during the epoch (``train_epoch`` clears its ``requires_grad`` and
restores it afterwards), so the graph records no op whose inputs are all
frozen and back-propagation stops at ``proj.*``.  A frozen epoch encodes
each image once, up to its pooled vector, and every batch projects those
rows instead of running the convolutions again.  The model keeps that table,
and a later frozen epoch reuses it while the pooling mode, the block count,
the ``backbone.*`` and ``adapt.*`` tensors and the images are byte-equal to
what built it, so only the first frozen epoch runs the convolutions.  The
learning rate starts at ``lr0`` and halves every epoch until
``halving_until_epoch``, then stays fixed.  All randomness (shuffling,
caption sampling, dropout) is derived from (seed, epoch) keys, so a run is
bit-reproducible and a resumed run continues the exact trajectory.

Checkpoints are a single binary file, written beside the target and renamed
over it: magic ``SVEC``, a u32 version, a u32 length and a UTF-8 JSON header
(the ``--config`` keys, ``next_epoch``, ``vocab`` after ``<unk>`` and
``adam_steps``, read back through ``settings_from``), two sections, then a
CRC32 of every byte before it.  A section is a u32 count of entries sorted by
name, ``Model.params`` in the first and the Adam moments ``adam.m.<name>`` and
``adam.v.<name>`` in the second, each of the form

    u32 name length | UTF-8 name | u32 rank | rank x u64 dims | f64 LE payload
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import sys
import zlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .autodiff import no_grad, stack_rows, take_rows, zero_grads
from .data import Dataset
from .errors import CheckpointError, ContractError
from .loss import Batch, LossConfig, batch_loss
from .model import Model, ModelConfig, coerce_number, settings_from
from .text import Vocab

_EPOCH_SALT = 11

CHECKPOINT_MAGIC = b"SVEC"
CHECKPOINT_VERSION = 2

# Parameter-name prefixes that train from epoch zero, and those of the image
# pipeline up to the pooled vector, which join after ``freeze_epochs``.
EARLY_TRAINABLE = ("sru.", "word.", "proj.")
IMAGE_PIPELINE = ("backbone.", "adapt.")


@dataclass
class TrainSchedule:
    epochs: int = 30
    batch_size: int = 32
    lr0: float = 4e-3
    # Desk scale: the rate settles at lr0 / 4 = 1e-3 from epoch 2; a lower
    # floor leaves the 30-epoch reference run still learning at its end.
    halving_until_epoch: int = 2
    freeze_epochs: int = 2

    def __post_init__(self):
        if min(self.epochs, self.batch_size) < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.lr0 <= 0 or self.halving_until_epoch < 0 or self.freeze_epochs < 0:
            raise ValueError("lr0 must be positive, schedule epochs nonnegative")


def effective_lr(epoch: int, sched: TrainSchedule) -> float:
    """lr0 halved once per epoch up to ``halving_until_epoch``, constant after."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return sched.lr0 / 2 ** min(epoch, sched.halving_until_epoch)


def trainable_set(epoch: int, sched: TrainSchedule, param_names) -> list[str]:
    """Names updated at ``epoch``: the early set during the freeze, then everything."""
    names = sorted(param_names)
    if epoch < sched.freeze_epochs:
        return [n for n in names if n.startswith(EARLY_TRAINABLE)]
    return names


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Per-tensor first and second moments and step counts, keyed by parameter name."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: dict = field(default_factory=dict)


def adam_step(params: dict, state: AdamState, lr: float, names) -> None:
    """One Adam update over ``names``; every named tensor must carry a gradient."""
    for name in sorted(names):
        p = params[name]
        if p.grad is None:
            raise ContractError(f"parameter {name} has no gradient (forgot backward?)")
        g = p.grad
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1.0 - ADAM_BETA1 ** t)
        v_hat = state.v[name] / (1.0 - ADAM_BETA2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _training_captions(scene) -> list[str]:
    longest = max(len(c.split()) for c in scene.captions)
    return [c for c in scene.captions if len(c.split()) == longest]


def train_epoch(model: Model, dataset: Dataset, sched: TrainSchedule, state: AdamState,
                epoch: int, seed: int) -> float:
    """One pass over the shuffled dataset; returns the mean batch loss.

    Each scene appears once per stored caption.  Per appearance it
    contributes its image and one of its longest captions (the two-object
    conjunctions, when it has any), drawn uniformly; a string already taken
    in the batch is redrawn, for at most eight draws in all.  A batch with
    fewer than two distinct scenes is skipped (it has no negatives).  While
    ``backbone.*`` and ``adapt.*`` are frozen a scene's pooled row is fixed, so
    each appearing scene is encoded once per epoch, untracked and a batch of
    images at a time, and a batch projects the rows of its scenes; otherwise
    a batch encodes its own images, tracked.  That table stays on the model
    (``Model._pooled_table``) beside byte copies of all it was built from, and
    the next frozen epoch reuses it when they are unchanged, whatever the
    batch size; any change rebuilds it.
    """
    if not dataset.scenes:
        raise ContractError("cannot train on an empty dataset")
    loss_cfg = LossConfig(model.cfg.margin, model.cfg.mining)
    rng = np.random.default_rng((seed, _EPOCH_SALT, epoch))
    # One epoch walks every (image, caption slot) pair, so a scene appears
    # once per stored caption; same-scene appearances may share a batch and
    # are excluded from each other's negative sets by image id.
    appearances = np.repeat(np.arange(len(dataset.scenes)),
                            [len(s.captions) for s in dataset.scenes])
    order = appearances[rng.permutation(len(appearances))]
    lr = effective_lr(epoch, sched)
    names = trainable_set(epoch, sched, model.params)

    # A frozen tensor leaves the graph for the epoch: no node is built for an op
    # whose inputs are all frozen, and backward stops where trainable tensors end.
    trainable = set(names)
    frozen = [p for n, p in model.params.items() if n not in trainable and p.requires_grad]
    for p in frozen:
        p.requires_grad = False
    try:
        appearing, table = np.unique(order), None
        if not any(n.startswith(IMAGE_PIPELINE) for n in names):
            images = [dataset.scenes[i].image for i in appearing]
            # Everything a pooled row reads, as byte copies: a key equal to the last
            # frozen epoch's reuses its table, which a rebuild would reproduce bit for bit.
            key = (model.cfg.pooling, len(model.cfg.hidden_channels),
                   [(n, p.data.shape, p.data.dtype.str, p.data.tobytes())
                    for n, p in model.params.items() if n.startswith(IMAGE_PIPELINE)],
                   [(a.shape, a.dtype.str, a.tobytes()) for a in images])
            if model._pooled_table is None or model._pooled_table[0] != key:
                with no_grad():
                    model._pooled_table = key, stack_rows([
                        model.pool_images(images[lo:lo + sched.batch_size])
                        for lo in range(0, len(images), sched.batch_size)])
            table = model._pooled_table[1]
        pools = {i: _training_captions(dataset.scenes[i]) for i in appearing.tolist()}
        losses = []
        for step, start in enumerate(range(0, len(order), sched.batch_size)):
            idxs = order[start:start + sched.batch_size]
            if len(idxs) < 2 or len(set(int(i) for i in idxs)) < 2:
                continue
            scenes, captions = [], []
            taken: set[str] = set()
            for scene_idx in idxs:
                scene = dataset.scenes[int(scene_idx)]
                # Template captions repeat across scenes ("a red circle" belongs to
                # every scene with a red circle), and a duplicate owned by another
                # image is an unsatisfiable hard negative whose hinge is pinned at
                # the margin.  So per appearance we sample among the scene's most
                # descriptive captions (the conjunctions, when present) and redraw
                # on a string collision within the batch.
                pool = pools[int(scene_idx)]
                for _ in range(8):
                    cap = pool[int(rng.integers(0, len(pool)))]
                    if cap not in taken:
                        break
                taken.add(cap)
                scenes.append(scene)
                captions.append(cap)
            keys = [(seed, epoch, step, j) for j in range(len(scenes))]
            pooled = (model.pool_images([s.image for s in scenes]) if table is None
                      else take_rows(table, np.searchsorted(appearing, idxs)))
            images = model.project(pooled, training=True, rng_keys=keys)
            texts = model.encode_texts(captions, training=True, rng_keys=keys)
            loss = batch_loss(Batch(images, texts, [s.scene_id for s in scenes]), loss_cfg)
            value = loss.item()
            if not math.isfinite(value):
                raise ArithmeticError(
                    f"non-finite loss {value} in batch {step} of epoch {epoch}")
            loss.backward()
            adam_step(model.params, state, lr, names)
            zero_grads(model.params.values())
            losses.append(value)
    finally:
        for p in frozen:
            p.requires_grad = True
    if not losses:
        raise ContractError("dataset too small to form a single batch of >= 2 scenes")
    return float(np.mean(losses))


def train(model: Model, dataset: Dataset, sched: TrainSchedule, seed: int,
          state: AdamState | None = None, start_epoch: int = 0, out=None) -> list[dict]:
    """Run epochs [start_epoch, sched.epochs); returns one log record per epoch.

    With a checkpoint path ``out``, each epoch's record is appended to
    ``<out>.log.jsonl`` and reported on stderr, and the checkpoint is saved
    after it: a crash loses at most the epoch in progress, and a resume
    continues from the last one saved.  With no epoch left, it is saved once.
    """
    if state is None:
        state = AdamState()
    history = []
    for epoch in range(start_epoch, sched.epochs):
        loss = train_epoch(model, dataset, sched, state, epoch, seed)
        record = {"epoch": epoch, "loss": loss, "lr": effective_lr(epoch, sched),
                  "trainable": trainable_set(epoch, sched, model.params)}
        history.append(record)
        if out is not None:
            with open(f"{out}.log.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            print(f"epoch {epoch}: loss {loss:.6f} lr {record['lr']:.2e}", file=sys.stderr)
            save_checkpoint(out, model, state, sched, seed, next_epoch=epoch + 1)
    if out is not None and not history:
        save_checkpoint(out, model, state, sched, seed, next_epoch=sched.epochs)
    return history


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------

@dataclass
class CheckpointBundle:
    model: Model
    opt_state: AdamState
    schedule: TrainSchedule
    seed: int
    next_epoch: int


def _write_entry(fh, name: str, arr: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    arr = np.asarray(arr, dtype=np.float64)
    fh.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(arr.astype("<f8").tobytes())


def _write_section(fh, entries: dict) -> None:
    fh.write(struct.pack("<I", len(entries)))
    for name in sorted(entries):
        _write_entry(fh, name, entries[name])


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.end = len(blob)   # reads stop here; the CRC trailer is not the reader's
        self.pos = 0
        self.path = path

    def skip(self, n: int) -> int:
        """Advance past ``n`` bytes; returns where they start."""
        if self.pos + n > self.end:
            raise CheckpointError(f"{self.path}: truncated file")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        return self.blob[self.skip(n):self.pos]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def section(self) -> dict:
        out = {}
        for _ in range(self.u32()):
            # A name that is not UTF-8 fails the name checks like any other bad name.
            name = self.take(self.u32()).decode("utf-8", "replace")
            rank = self.u32()
            shape = struct.unpack(f"<{rank}Q", self.take(8 * rank))
            count = math.prod(shape)
            payload = np.frombuffer(self.blob, "<f8", count, self.skip(8 * count))
            try:   # numpy refuses ranks above 64 and dims it cannot index
                out[name] = payload.reshape(shape).astype(np.float64)   # the one copy
            except ValueError as exc:
                raise CheckpointError(f"{self.path}: {name}: {exc}") from None
            if not np.isfinite(out[name]).all():
                raise CheckpointError(f"{self.path}: {name} holds a NaN or infinite value")
        return out


HEADER_KEYS = {f.name for cls in (ModelConfig, TrainSchedule) for f in fields(cls)} | {
    "seed", "next_epoch", "vocab", "adam_steps"}


def _encode(header: dict, params: dict, moments: dict) -> bytes:
    """A checkpoint's bytes: magic, version, header, the two sections and the CRC32."""
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    out = io.BytesIO()
    out.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(raw)) + raw)
    _write_section(out, params)
    _write_section(out, moments)
    blob = out.getvalue()
    return blob + struct.pack("<I", zlib.crc32(blob))


def _decode(blob: bytes, path) -> tuple[object, dict, dict]:
    """The header, parameters and moments of checkpoint bytes: magic and version first."""
    reader = _Reader(blob, path)
    if reader.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes (not a checkpoint)")
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    reader.end = len(blob) - 4
    if len(blob) < 12 or zlib.crc32(memoryview(blob)[:-4]) != struct.unpack("<I", blob[-4:])[0]:
        raise CheckpointError(f"{path}: checksum mismatch (corrupted or truncated file)")
    raw = reader.take(reader.u32())
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: the header is not UTF-8 JSON: {exc}") from None
    params, moments = reader.section(), reader.section()
    if reader.pos != reader.end:
        raise CheckpointError(f"{path}: {reader.end - reader.pos} trailing bytes")
    return header, params, moments


def save_checkpoint(path, model: Model, state: AdamState, sched: TrainSchedule,
                    seed: int, next_epoch: int) -> None:
    header = {**asdict(model.cfg), **asdict(sched), "seed": seed, "next_epoch": next_epoch,
              "vocab": model.vocab.tokens[1:], "adam_steps": state.t}
    moments = {f"adam.{kind}.{name}": a for kind in "mv" for name, a in getattr(state, kind).items()}
    blob = _encode(header, {name: p.data for name, p in model.params.items()}, moments)

    # Written beside the target and synced, then renamed over it, and the rename synced:
    # a write that fails partway, or a crash at any point, leaves either the previous
    # checkpoint or the new one, whole.
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    folder = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(folder)
    finally:
        os.close(folder)


def load_checkpoint(path) -> CheckpointBundle:
    with open(path, "rb") as fh:
        header, params, moments = _decode(fh.read(), path)
    keys = set(header) if isinstance(header, dict) else set()
    if keys != HEADER_KEYS:
        raise CheckpointError(f"{path}: missing or unknown header keys {sorted(keys ^ HEADER_KEYS)}")
    try:   # each value is checked as a --config value would be
        cfg, sched = settings_from(ModelConfig, header), settings_from(TrainSchedule, header)
        seed, next_epoch = (coerce_number(k, header[k], minimum=0) for k in ("seed", "next_epoch"))
        if next_epoch > sched.epochs:   # no run of this schedule gets past its last epoch
            raise ValueError(f"next_epoch {next_epoch} exceeds the schedule's epochs {sched.epochs}")
        if not (isinstance(header["vocab"], list) and isinstance(header["adam_steps"], dict)):
            raise ValueError("vocab must be a list and adam_steps an object")
        vocab = Vocab(header["vocab"])
        state = AdamState(t={name: coerce_number(f"adam_steps.{name}", t, minimum=1)
                             for name, t in header["adam_steps"].items()})
    except ValueError as exc:
        raise CheckpointError(f"{path}: header: {exc}") from None
    model = Model.from_params(cfg, vocab, params)
    shapes = {f"adam.{kind}.{name}": p.shape for name, p in model.params.items() for kind in "mv"}
    for key, arr in moments.items():
        if arr.shape != shapes.get(key):
            raise CheckpointError(f"{path}: malformed checkpoint entry {key} (shape {arr.shape},"
                                  f" expected {shapes.get(key)})")
        _, kind, name = key.split(".", 2)
        getattr(state, kind)[name] = arr   # a fresh array: the reader's astype copied it
    if not state.m.keys() == state.v.keys() == state.t.keys():   # adam_step needs all three
        raise CheckpointError(f"{path}: adam.m, adam.v and adam_steps name different tensors")
    return CheckpointBundle(model, state, sched, seed, next_epoch)
