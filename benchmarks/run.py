#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of semvis: training, corpus evaluation, localization.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload train --seed 1 --seconds 25 --trace 0

Every run, whatever the workload, exercises the three uses of the system in
one process, on inputs generated from ``--seed``:

- **train**: ``semvis train`` epochs with the default ``ModelConfig`` and
  batch size, on two models from one initialization: one with
  ``backbone.*``/``adapt.*`` frozen, one with everything trainable.  The
  trainable one ends with a checkpoint save;
- **evaluate**: ``semvis eval-retrieval`` and ``eval-pointing`` on the
  checkpoint written in set-up: encode every test image and caption in eval
  mode, rank the similarity matrix both ways, play the pointing game on
  every region;
- **localize**: a closed loop with one client; each request is one
  in-process ``semvis localize`` call (checkpoint load, PPM read, encode,
  PGM/PPM/JSON writes) on one of the images written in set-up and one of
  the test set's region phrases.

The uses run interleaved in rounds for ``--seconds``; the workload gives its
own use the large input and most of each round.  Times are scaled by a
reference kernel timed between slices (``Clock``).  Outputs are then checked
against the plain-numpy oracles in ``oracles.py``.  The last line of stdout
is the result object; the line before it records the machine and the run.
The exit code is 0 only when every check passed.

``--trace 1`` wraps the program's public functions (``tracer.py``) and
reports per-layer metrics instead of end-to-end ones.
"""

import os

# One BLAS thread, fixed before numpy loads: with two threads a competing
# process on a 2-core machine multiplies conv times several-fold.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 9
MIN_EPOCHS = 2                     # per model, frozen and unfrozen
LOCALIZE_IMAGES = 10               # test scenes written to disk for localize requests
LOCALIZE_POOL = 200                # distinct (image, phrase) requests a run cycles through
MIN_REQUESTS = 1000                # leaves >= 10 samples beyond the 99th percentile
CHECK_BATCH = 8                    # pairs in the loss and finite-difference checks
FD_STEP = 1e-6
FD_RTOL = 1e-6
FD_ATOL = 1e-9                     # ~10x the loss's rounding noise divided by the step
FD_DRAWS = 5
EMBED_SAMPLES = (8, 16)            # images, captions checked against the numpy encoders
EVAL_CHUNK = 50                    # scenes per timed chunk of the evaluation
REF_SECONDS = 0.003                # reference-kernel time that scaled times are expressed at
TICK_EVERY = 0.25                  # seconds of evaluation or localize work between clock ticks
RANK_COLUMNS = 100                 # gallery columns the ranking reference kernel sorts
RANK_REF_SECONDS_PER_IMAGE = 6.5e-6  # ranking-kernel time per gallery image at the reference


@dataclass(frozen=True)
class Plan:
    train_scenes: int       # 5 training pairs each
    test_scenes: int        # 5 captions and 2-3 regions each
    eval_slice: float       # seconds of evaluation steps per round
    localize_slice: float   # seconds of localize requests per round


# Each workload gives its own use the large input and most of every round;
# the other two uses run small, so that every run reports every metric.
PLANS = {
    "train": Plan(train_scenes=32, test_scenes=200, eval_slice=0.3, localize_slice=0.45),
    "evaluate": Plan(train_scenes=16, test_scenes=1000, eval_slice=1.5, localize_slice=0.9),
    "localize": Plan(train_scenes=16, test_scenes=200, eval_slice=0.3, localize_slice=1.5),
}

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train.frozen_pairs_per_s": "pairs/s",
    "train.unfrozen_pairs_per_s": "pairs/s",
    "eval.images_per_s": "images/s",
    "eval.captions_per_s": "captions/s",
    "eval.retrieval_s": "s",
    "eval.regions_per_s": "regions/s",
    "localize.latency_p50_ms": "ms",
}


# ---------------------------------------------------------------------------
# program loading and machine record
# ---------------------------------------------------------------------------

def load_program() -> dict:
    """Import semvis from this checkout's src/; modules are reached by name,
    because ``semvis.train`` as an attribute is the re-exported function."""
    if not (SRC / "semvis" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no semvis sources under {SRC}")
    sys.path.insert(0, str(SRC))
    semvis = importlib.import_module("semvis")
    if Path(semvis.__file__).resolve().parent != (SRC / "semvis").resolve():
        raise SystemExit(f"benchmark: imported semvis from {semvis.__file__}, not {SRC}")
    names = ("autodiff", "cli", "data", "evaluate", "localize", "loss", "model", "ppm", "text",
             "train")
    return {name: importlib.import_module(f"semvis.{name}") for name in names}


def _blas_threads():
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "semvis").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "src_lines": src_lines}


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

class Clock:
    """The machine's current speed, from a fixed reference kernel.

    A shared host slows this process by up to 2x for stretches of seconds
    to minutes, and CPU time rises with wall time, so neither clock alone
    repeats from run to run.  The kernel mixes small numpy operations
    (strided copies into an im2col buffer, a 32x144 by 144x256 product, a
    ReLU) with a Python loop of small vector operations, as the program
    does; none of it is semvis code, so no change to the program moves it.
    ``tick`` times the kernel (best of three) between slices of program
    work, and ``tick_if_due`` every ``TICK_EVERY`` seconds within a slice
    of evaluation or localize work.  ``scaled`` multiplies a span's
    duration by ``REF_SECONDS`` over the kernel time interpolated at the
    span's midpoint: the span's length on a machine that runs the kernel in
    ``REF_SECONDS``.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((16, 34, 34))
        self._k = rng.random((32, 144))
        self._v = rng.random(64)
        self.reference = REF_SECONDS
        self.at: list[float] = []
        self.ref: list[float] = []

    def _kernel(self) -> None:
        cols = np.empty((16, 3, 3, 16, 16))
        for _ in range(20):
            for i in range(3):
                for j in range(3):
                    cols[:, i, j] = self._x[:, i:i + 32:2, j:j + 32:2]
            np.maximum(self._k @ cols.reshape(144, 256), 0.0)
        for _ in range(300):
            np.tanh(self._v) * 0.5 + np.exp(-np.abs(self._v))

    def tick(self) -> None:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            best = min(best, end - start)
        self.at.append(end)
        self.ref.append(best)

    def tick_if_due(self) -> None:
        if time.perf_counter() - self.at[-1] >= TICK_EVERY:
            self.tick()

    def scaled(self, spans) -> list[float]:
        return [(end - start) * self.reference
                / float(np.interp((start + end) / 2, self.at, self.ref))
                for start, end in spans]


class RankClock(Clock):
    """The machine's current speed at ranking a gallery, for ``eval.retrieval_s``.

    Ranking the 1000x5000 matrix gathers strided columns from 40 MB and
    argsorts each; the main kernel runs in cache and misses how the host
    slows that.  In a 70-second test the ranking's coefficient of variation
    per span was 0.08-0.09 raw, 0.14-0.15 scaled by the main kernel and
    0.03-0.07 scaled by this one.  This kernel does the same on a fixed
    random matrix of the gallery's shape: for ``RANK_COLUMNS`` evenly spaced
    columns, a stable argsort of the negated column and the position of one
    index in the order.  The reference is ``RANK_REF_SECONDS_PER_IMAGE`` per
    gallery image.
    """

    def __init__(self, n_images: int, n_captions: int):
        super().__init__()
        rng = np.random.default_rng(1)
        self._sim = rng.random((n_images, n_captions))
        self._owner = np.arange(n_captions) % n_images
        self._cols = range(0, n_captions, max(1, n_captions // RANK_COLUMNS))
        self.reference = RANK_REF_SECONDS_PER_IMAGE * n_images

    def _kernel(self) -> None:
        for j in self._cols:
            order = np.argsort(-self._sim[:, j], kind="stable")
            int(np.nonzero(order == self._owner[j])[0][0])


class Unscaled:
    """Wall seconds as measured, for the record line."""

    @staticmethod
    def scaled(spans) -> list[float]:
        return [end - start for start, end in spans]


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def setup(sv, plan: Plan, seed: int, work: Path, clock: Clock):
    """Generate both datasets, write the first ``LOCALIZE_IMAGES`` test scenes
    as a dataset directory and read it back as the CLI does, then write the
    checkpoint that evaluation and localization read (the initialized model).

    Only the images that localize requests read go to disk: creating a file
    costs 0.03-0.7 ms on a throttled virtual disk, depending on the I/O of
    the seconds before, so writing every test scene made set-up time a
    measure of the disk.  The previous repeat's directory is removed outside
    the timed span.

    Returns the spans of the repeats and the dataset read back.
    """
    spans = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work / "localize", ignore_errors=True)
        clock.tick()
        start = time.perf_counter()
        train_set = sv["data"].generate_dataset(plan.train_scenes, 2 * seed)
        test_set = sv["data"].generate_dataset(plan.test_scenes, 2 * seed + 1)
        sv["data"].write_dataset(sv["data"].Dataset(test_set.scenes[:LOCALIZE_IMAGES],
                                                    test_set.vocab), work / "localize")
        loc_set = sv["data"].read_dataset(work / "localize")
        model = sv["model"].Model.initialize(sv["model"].ModelConfig(), train_set.vocab, seed)
        sv["train"].save_checkpoint(work / "model.ckpt", model, sv["train"].AdamState(),
                                    sv["train"].TrainSchedule(), seed, next_epoch=0)
        spans.append((start, time.perf_counter()))
    clock.tick()
    return train_set, test_set, loc_set, model, spans


def warm_up(sv, train_set, seed: int) -> None:
    """First-call costs (BLAS init, imports inside numpy) outside the timed phases."""
    model = sv["model"].Model.initialize(sv["model"].ModelConfig(), train_set.vocab, seed)
    scenes = train_set.scenes[:2]
    batch = sv["loss"].Batch([model.encode_image(s.image, training=True, rng_key=(0,))[0]
                              for s in scenes],
                             [model.encode_text(s.captions[0], training=True, rng_key=(0,))
                              for s in scenes],
                             [s.scene_id for s in scenes])
    sv["loss"].batch_loss(batch, sv["loss"].LossConfig()).backward()


class Trainer:
    """``semvis train`` one epoch at a time, with ``backbone.*``/``adapt.*`` either
    frozen for every epoch (``--freeze-epochs`` at least the epoch count) or
    trainable from the first (``--freeze-epochs 0``)."""

    def __init__(self, sv, train_set, seed: int, frozen: bool, tracer: Tracer):
        self.tr, self.train_set, self.seed, self.tracer = sv["train"], train_set, seed, tracer
        self.frozen = frozen
        self.model = sv["model"].Model.initialize(sv["model"].ModelConfig(), train_set.vocab,
                                                  seed)
        self.state = self.tr.AdamState()
        self.sched = replace(self.tr.TrainSchedule(), freeze_epochs=10 ** 6 if frozen else 0)
        held = [n for n in self.model.params if not n.startswith(self.tr.EARLY_TRAINABLE)]
        self.initial = {n: self.model.params[n].data.copy() for n in held}
        self.pairs = sum(len(s.captions) for s in train_set.scenes)
        self.batches = math.ceil(self.pairs / self.sched.batch_size)
        self.losses: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.backward: list[float] = []

    def epoch(self) -> None:
        backward = self.tracer.seconds["autodiff.backward"]
        with self.tracer.phase("train"):
            start = time.perf_counter()
            loss = self.tr.train_epoch(self.model, self.train_set, self.sched, self.state,
                                       len(self.losses), self.seed)
            self.spans.append((start, time.perf_counter()))
        self.backward.append(self.tracer.seconds["autodiff.backward"] - backward)
        self.losses.append(loss)

    def save(self, path: Path) -> None:
        sched = replace(self.sched, epochs=len(self.losses))
        with self.tracer.phase("train"):
            self.tr.save_checkpoint(path, self.model, self.state, sched, self.seed,
                                    next_epoch=len(self.losses))


class Evaluator:
    """Corpus evaluation, as eval-retrieval and eval-pointing run it, one step at a time.

    A pass encodes every test image, then every caption, ranks the full
    similarity matrix both ways, then plays the pointing game on every region.
    Encoding and pointing run in chunks of ``EVAL_CHUNK`` scenes; every chunk
    is one step, timed on its own.  The ranking is one span of up to a
    second; the ranking clock ticks right before and after it.
    """

    def __init__(self, sv, test_set, ckpt: Path, tracer: Tracer, clock: Clock):
        self.sv, self.tracer, self.clock = sv, tracer, clock
        self.model = sv["train"].load_checkpoint(ckpt).model
        scenes = test_set.scenes
        self.chunks = [scenes[lo:lo + EVAL_CHUNK] for lo in range(0, len(scenes), EVAL_CHUNK)]
        self.owners = np.repeat(np.arange(len(scenes)), [len(s.captions) for s in scenes])
        self.rank_clock = RankClock(len(scenes), len(self.owners))
        self.loc_cfg = sv["localize"].LocalizationConfig(top_k=self.model.cfg.effective_top_k())
        # per kind: one list of per-chunk (start, end) spans for every completed pass
        self.spans = {"images": [], "captions": [], "regions": []}
        self.items = {"images": [len(c) for c in self.chunks],
                      "captions": [sum(len(s.captions) for s in c) for c in self.chunks],
                      "regions": [sum(len(s.regions) for s in c) for c in self.chunks]}
        self.retrieval: list[tuple[float, float]] = []
        self.passes = 0
        self.ops = 0
        self.last: dict = {}
        self._pending: list = []
        self._current: dict = {}

    def _encode_images(self, chunk) -> None:
        start = time.perf_counter()
        self._current["images"] += [self.model.encode_image(s.image)[0].data for s in chunk]
        self._current["spans"]["images"].append((start, time.perf_counter()))
        self.ops += len(chunk)

    def _encode_captions(self, chunk) -> None:
        texts = [c for s in chunk for c in s.captions]
        start = time.perf_counter()
        self._current["captions"] += [self.model.encode_text(c).data for c in texts]
        self._current["spans"]["captions"].append((start, time.perf_counter()))
        self.ops += len(texts)

    def _rank(self, _) -> None:
        cur = self._current
        cur["images"], cur["captions"] = np.stack(cur["images"]), np.stack(cur["captions"])
        start = time.perf_counter()
        cur["sim"] = cur["images"] @ cur["captions"].T
        cur["reports"] = self.sv["evaluate"].eval_retrieval(cur["sim"], self.owners)
        self.retrieval.append((start, time.perf_counter()))
        self.ops += 1

    def _point(self, chunk) -> None:
        regions = list(self.sv["data"].Dataset(chunk).regions())
        start = time.perf_counter()
        self._current["pointing"].append(
            self.sv["evaluate"].eval_pointing(self.model, regions, self.loc_cfg))
        self._current["spans"]["regions"].append((start, time.perf_counter()))
        self.ops += len(regions)

    def step(self) -> None:
        if not self._pending:
            self._current = {"images": [], "captions": [], "pointing": [],
                             "spans": {kind: [] for kind in self.spans}}
            self._pending = ([(self._encode_images, c) for c in self.chunks]
                             + [(self._encode_captions, c) for c in self.chunks]
                             + [(self._rank, None)]
                             + [(self._point, c) for c in self.chunks])
        fn, arg = self._pending.pop(0)
        if fn == self._rank:
            self.rank_clock.tick()
        with self.tracer.phase("evaluate"):
            fn(arg)
        if fn == self._rank:
            self.rank_clock.tick()
        if not self._pending:
            self.passes += 1
            self.last = self._current
            for kind, spans in self._current["spans"].items():
                self.spans[kind].append(spans)

    def rate(self, kind: str, clock: Clock) -> float:
        """Items per scaled second of a pass whose chunks each take their median time.

        Every pass handles the same chunks, so a per-chunk statistic keeps the
        pass's content fixed however many passes a run makes.
        """
        seconds = np.array([clock.scaled(spans) for spans in self.spans[kind]])
        return sum(self.items[kind]) / float(np.median(seconds, axis=0).sum())

    def run_for(self, seconds: float) -> None:
        start = time.perf_counter()
        self.step()
        while time.perf_counter() - start < seconds:
            self.clock.tick_if_due()
            self.step()

    def finish_pass(self) -> None:
        while self.passes == 0 or self._pending:
            self.step()
            self.clock.tick()


class Localizer:
    """Closed loop, one client: each request is one in-process ``semvis localize``.

    The pool pairs the images of the set-up's localize directory (the first
    test scenes) with the test set's region phrases, present in the image or
    not, in a seeded order.
    """

    def __init__(self, sv, test_set, loc_dir: Path, ckpt: Path, seed: int, work: Path,
                 tracer: Tracer, clock: Clock):
        self.cli, self.tracer, self.clock = sv["cli"], tracer, clock
        rng = np.random.default_rng((seed, 3))
        phrases = sorted({phrase for s in test_set.scenes for phrase, _ in s.regions})
        pairs = [(i, phrase) for i in range(LOCALIZE_IMAGES) for phrase in phrases]
        self.pool = [pairs[int(j)] for j in rng.permutation(len(pairs))[:LOCALIZE_POOL]]
        self.argv = [["localize", "--ckpt", str(ckpt), "--image",
                      str(loc_dir / "images" / f"{test_set.scenes[i].scene_id:06d}.ppm"),
                      "--text", phrase, "--out", str(work / "localized")]
                     for i, phrase in self.pool]
        self.prefix = work / "localized"
        self.spans: list[tuple[float, float]] = []
        self.replies: list = []
        self.attempted = self.failed = 0

    def request(self) -> None:
        k = self.attempted % len(self.pool)
        self.attempted += 1
        stdout = io.StringIO()
        with self.tracer.phase("localize"), contextlib.redirect_stdout(stdout):
            start = time.perf_counter()
            code = self.cli.main(self.argv[k])
            end = time.perf_counter()
        if code != 0:
            self.failed += 1
            return
        self.spans.append((start, end))
        files = (json.loads(Path(f"{self.prefix}.json").read_text(encoding="utf-8")),
                 _raster_header(Path(f"{self.prefix}.pgm")),
                 _raster_header(Path(f"{self.prefix}_overlay.ppm")))
        self.replies.append((k, json.loads(stdout.getvalue()), files))

    def run_for(self, seconds: float) -> None:
        start = time.perf_counter()
        self.request()
        while time.perf_counter() - start < seconds:
            self.clock.tick_if_due()
            self.request()


def _raster_header(path: Path) -> tuple[bytes, int, int, int]:
    raw = path.read_bytes()
    magic, dims, maxval, _ = raw.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    return magic, w, h, len(raw) - (len(magic) + len(dims) + len(maxval) + 3)


def run_phases(trainers: tuple[Trainer, Trainer], evaluator: Evaluator, localizer: Localizer,
               plan: Plan, seconds: float, clock: Clock) -> None:
    """Interleave the three uses in rounds until ``seconds`` pass and every minimum is met.

    A round is one frozen and one unfrozen training epoch, then evaluation
    steps and localize requests for the plan's time slices.  Every use thus
    samples the whole run, so a stretch of slow machine slows all of them
    alike.  The last evaluation pass is completed.
    """
    start = time.perf_counter()
    clock.tick()
    while time.perf_counter() - start < seconds or len(trainers[0].losses) < MIN_EPOCHS:
        for trainer in trainers:
            trainer.epoch()
            clock.tick()
        evaluator.run_for(plan.eval_slice)
        clock.tick()
        localizer.run_for(plan.localize_slice)
        clock.tick()
    evaluator.finish_pass()
    while localizer.attempted < MIN_REQUESTS:
        localizer.run_for(plan.localize_slice)
        clock.tick()


# ---------------------------------------------------------------------------
# checks against the oracles
# ---------------------------------------------------------------------------

def _params(model) -> dict:
    return {name: t.data for name, t in model.params.items()}


def check_train(sv, trainers: tuple[Trainer, Trainer], train_set, seed: int, ckpt: Path,
                work: Path) -> list[str]:
    errors = []
    for trainer in trainers:
        label = "frozen" if trainer.frozen else "unfrozen"
        losses = trainer.losses
        if not all(math.isfinite(v) for v in losses):
            errors.append(f"train: non-finite {label} epoch loss in {losses}")
        elif not losses[-1] < losses[0]:
            errors.append(f"train: last {label} epoch loss {losses[-1]} is not below the first "
                          f"{losses[0]}")
        for name, before in trainer.initial.items():
            after = trainer.model.params[name].data
            if trainer.frozen and before.tobytes() != after.tobytes():
                errors.append(f"train: {name} changed in frozen epochs")
            if not trainer.frozen and np.array_equal(before, after):
                errors.append(f"train: {name} did not change in unfrozen epochs")

    model = trainers[1].model
    loss_mod = sv["loss"]
    scenes = train_set.scenes[:CHECK_BATCH]
    texts = [s.captions[0] for s in scenes]
    ids = [s.scene_id for s in scenes]

    def loss_of(mining: str):
        batch = loss_mod.Batch([model.encode_image(s.image)[0] for s in scenes],
                               [model.encode_text(t) for t in texts], ids)
        return batch, loss_mod.batch_loss(batch, loss_mod.LossConfig(model.cfg.margin, mining))

    for mining in ("random", "hard"):
        batch, loss = loss_of(mining)
        want = oracles.batch_loss(np.stack([x.data for x in batch.images]),
                                  np.stack([v.data for v in batch.captions]), ids,
                                  model.cfg.margin, mining)
        if abs(loss.item() - want) > 1e-12:
            errors.append(f"train: {mining} batch_loss {loss.item()!r} != enumeration {want!r}")

    # Directional derivative of the eval-mode batch loss over every parameter.
    # A direction whose +-step straddles a kink (a ReLU, pooling or hinge
    # switch, located by the numpy oracle) has no derivative to compare
    # against, so the next seeded direction is drawn instead.
    mining = model.cfg.mining
    sv["autodiff"].zero_grads(model.params.values())
    _, loss = loss_of(mining)
    loss.backward()
    grads = {n: p.grad for n, p in model.params.items()}
    sv["autodiff"].zero_grads(model.params.values())
    original = {n: p.data for n, p in model.params.items()}
    images_u8 = np.stack([s.image for s in scenes])
    rng = np.random.default_rng((seed, 5))
    for _ in range(FD_DRAWS):
        direction = {n: rng.standard_normal(a.shape) for n, a in original.items()}
        norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        ends = [{n: original[n] + sign * FD_STEP / norm * direction[n] for n in original}
                for sign in (1.0, -1.0)]
        kinks = {oracles.kink_signature(images_u8, texts, ids, model.vocab.tokens, end,
                                        model.cfg.pooling, model.cfg.margin) for end in ends}
        if len(kinks) == 1:
            break
    else:
        errors.append(f"train: every one of {FD_DRAWS} finite-difference steps crossed a kink")
    values = []
    for end in ends:
        for n, p in model.params.items():
            p.data = end[n]
        values.append(loss_of(mining)[1].item())
    for n, p in model.params.items():
        p.data = original[n]
    numeric = (values[0] - values[1]) / (2 * FD_STEP)
    analytic = sum(float((grads[n] * d).sum()) for n, d in direction.items()) / norm
    if abs(numeric - analytic) > FD_RTOL * abs(analytic) + FD_ATOL:
        errors.append(f"train: directional derivative {analytic!r} != central difference "
                      f"{numeric!r}")

    tr = sv["train"]
    bundle = tr.load_checkpoint(ckpt)
    resaved = work / "resaved.ckpt"
    tr.save_checkpoint(resaved, bundle.model, bundle.opt_state, bundle.schedule, bundle.seed,
                       bundle.next_epoch)
    if resaved.read_bytes() != ckpt.read_bytes():
        errors.append("train: checkpoint does not re-save byte-identically")

    small = sv["data"].Dataset(train_set.scenes[:12], train_set.vocab)
    sched = tr.TrainSchedule(epochs=3, freeze_epochs=1)
    runs = []
    for _ in range(2):
        fresh = sv["model"].Model.initialize(sv["model"].ModelConfig(), small.vocab, seed)
        runs.append([r["loss"] for r in tr.train(fresh, small, sched, seed)])
    if runs[0] != runs[1]:
        errors.append(f"train: one seed gave two loss trajectories {runs}")
    return errors


def _oracle_stacks(images: list, params: dict, chunk: int = 50) -> np.ndarray:
    return np.concatenate([oracles.feature_stacks(np.stack(images[i:i + chunk]), params)
                           for i in range(0, len(images), chunk)])


def check_eval(evaluator: Evaluator, test_set, seed: int) -> list[str]:
    errors = []
    out = evaluator.last
    model = evaluator.model
    params = _params(model)
    tokens = model.vocab.tokens
    cap_ranks, img_ranks = oracles.retrieval_ranks(out["sim"], evaluator.owners)
    for report, ranks in zip(out["reports"], (cap_ranks, img_ranks)):
        want = oracles.recall_report(ranks)
        if report.r_at != want["r_at"] or report.median_rank != want["median_rank"]:
            errors.append(f"evaluate: {report.direction} {report.r_at} median "
                          f"{report.median_rank} != oracle {want}")

    rng = np.random.default_rng((seed, 4))
    scenes = test_set.scenes
    captions = [c for s in scenes for c in s.captions]
    img_idx = rng.choice(len(scenes), size=min(EMBED_SAMPLES[0], len(scenes)), replace=False)
    cap_idx = rng.choice(len(captions), size=min(EMBED_SAMPLES[1], len(captions)), replace=False)
    want_img = oracles.image_embeddings(np.stack([scenes[i].image for i in img_idx]), params,
                                        model.cfg.pooling)
    if np.abs(want_img - out["images"][img_idx]).max() > 1e-9:
        errors.append("evaluate: image embeddings differ from the numpy encoder by > 1e-9")
    for j in cap_idx:
        if np.abs(oracles.text_embedding(captions[j], tokens, params)
                  - out["captions"][j]).max() > 1e-9:
            errors.append(f"evaluate: caption {captions[j]!r} embedding differs by > 1e-9")
    for name in ("images", "captions"):
        norms = np.sqrt((out[name] ** 2).sum(axis=1))
        if np.abs(norms - 1.0).max() > 1e-12:
            errors.append(f"evaluate: {name} embeddings are not unit-norm within 1e-12")

    stacks = _oracle_stacks([s.image for s in scenes], params)
    stack_of = {id(s.image): st for s, st in zip(scenes, stacks)}
    phrases = {}
    for chunk, report in zip(evaluator.chunks, out["pointing"]):
        hits, centers = [], []
        for scene in chunk:
            image = scene.image
            for phrase, bbox in scene.regions:
                if phrase not in phrases:
                    phrases[phrase] = oracles.text_embedding(phrase, tokens, params)
                px, py, _ = oracles.heat_peak(stack_of[id(image)], params["proj.weight"],
                                              phrases[phrase], evaluator.loc_cfg.top_k,
                                              image.shape[1:])
                hits.append(oracles.box_contains(bbox, px, py))
                centers.append(oracles.box_contains(bbox, image.shape[2] / 2.0,
                                                    image.shape[1] / 2.0))
        if list(report.hits) != hits:
            bad = sum(a != b for a, b in zip(report.hits, hits))
            errors.append(f"evaluate: pointing hits differ from the oracle peak on {bad} regions")
        if report.baseline_accuracy != sum(centers) / len(centers):
            errors.append(f"evaluate: center baseline {report.baseline_accuracy} != oracle")
    return errors


def check_localize(localizer: Localizer, model, test_set, loc_set) -> list[str]:
    errors = []
    if loc_set.scenes != test_set.scenes[:LOCALIZE_IMAGES] or loc_set.vocab != test_set.vocab:
        errors.append("localize: the dataset directory read back differs from the scenes written")
    params = _params(model)
    tokens = model.vocab.tokens
    top_k = model.cfg.effective_top_k()
    want = []
    for scene_idx, phrase in localizer.pool:
        image = test_set.scenes[scene_idx].image
        stack = oracles.feature_stacks(image[None], params)[0]
        emb = oracles.text_embedding(phrase, tokens, params)
        want.append(oracles.heat_peak(stack, params["proj.weight"], emb, top_k, image.shape[1:]))
    for k, reply, (saved, pgm, ppm) in localizer.replies:
        px, py, heat = want[k]
        image = test_set.scenes[localizer.pool[k][0]].image
        _, height, width = image.shape
        if reply != saved:
            errors.append(f"localize: printed reply {reply} != saved JSON {saved}")
        if (reply["x"], reply["y"]) != (px, py):
            errors.append(f"localize: peak ({reply['x']}, {reply['y']}) != oracle ({px}, {py})")
        if not (0 <= reply["x"] < width and 0 <= reply["y"] < height):
            errors.append(f"localize: peak ({reply['x']}, {reply['y']}) outside the image")
        if abs(reply["heat_max"] - heat) > 1e-9:
            errors.append(f"localize: heat_max {reply['heat_max']!r} != oracle {heat!r}")
        if pgm != (b"P5", width, height, width * height):
            errors.append(f"localize: PGM header/size {pgm} for a {width}x{height} image")
        if ppm != (b"P6", width, height, 3 * width * height):
            errors.append(f"localize: PPM header/size {ppm} for a {width}x{height} image")
        if len(errors) > 10:
            break
    return errors


# ---------------------------------------------------------------------------
# metrics and main
# ---------------------------------------------------------------------------

def e2e_metrics(setup_spans: list, peak_mb: float, trainers: tuple[Trainer, Trainer],
                evaluator: Evaluator, localizer: Localizer, clock, rank_clock) -> dict:
    frozen, unfrozen = ([t.pairs / d for d in clock.scaled(t.spans)] for t in trainers)
    values = {
        "setup_s": statistics.median(clock.scaled(setup_spans)),
        "peak_rss_mb": peak_mb,
        "train.frozen_pairs_per_s": statistics.median(frozen),
        "train.unfrozen_pairs_per_s": statistics.median(unfrozen),
        "eval.images_per_s": evaluator.rate("images", clock),
        "eval.captions_per_s": evaluator.rate("captions", clock),
        "eval.retrieval_s": statistics.median(rank_clock.scaled(evaluator.retrieval)),
        "eval.regions_per_s": evaluator.rate("regions", clock),
        "localize.latency_p50_ms": statistics.median(clock.scaled(localizer.spans)) * 1000.0,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def layer_metrics(tracer: Tracer, trainers: tuple[Trainer, Trainer],
                  localizer: Localizer) -> dict:
    s, c = tracer.seconds, tracer.calls
    values = {}
    for name in ("autodiff.conv2d", "visual.backbone", "visual.adapt", "autodiff.backward",
                 "visual.pool", "visual.project", "autodiff.dropout", "autodiff.l2_normalize",
                 "text.sru_layer", "text.tokenize", "model.encode_text", "model.encode_image",
                 "loss.batch_loss", "train.adam_step", "train.save_checkpoint",
                 "train.load_checkpoint", "evaluate.eval_retrieval", "evaluate.eval_pointing",
                 "localize.activation_maps", "localize.heatmap", "localize.point",
                 "localize.render_heatmap",
                 "ppm.read_ppm", "data.read_dataset", "cli.build_parser", "cli.cmd_localize"):
        values[f"{name}_s"] = (s[name], "s")
    values["cli.cmd_localize_self_s"] = (tracer.self_seconds["cli.cmd_localize"], "s")
    for name in ("autodiff.conv2d", "autodiff.backward", "text.sru_layer", "model.encode_text",
                 "model.encode_image"):
        values[f"{name}_calls"] = (c[name], "count")
    values["model.encode_text_distinct"] = (len(tracer.text_inputs), "count")
    values["train.adam_tensors_updated"] = (tracer.adam_tensors, "count")
    values["train.checkpoint_bytes"] = (tracer.checkpoint_bytes, "bytes")
    for trainer, label in zip(trainers, ("frozen", "unfrozen")):
        values[f"autodiff.backward_{label}_epoch_s"] = (statistics.median(trainer.backward), "s")
    latencies = Unscaled.scaled(localizer.spans)
    values["localize.latency_p99_ms"] = (float(np.percentile(latencies, 99)) * 1000.0, "ms")
    for phase in ("train", "evaluate", "localize"):
        values[f"trace.{phase}_coverage"] = (tracer.coverage(phase), "share")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sv = load_program()
    plan = PLANS[args.workload]
    run_start = time.perf_counter()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    clock = Clock()
    if args.trace:
        tracer.install()
    try:
        tracer.enabled = bool(args.trace)
        train_set, test_set, loc_set, model, setup_spans = setup(sv, plan, args.seed, work,
                                                                 clock)
        tracer.enabled = False
        warm_up(sv, train_set, args.seed)
        tracer.enabled = bool(args.trace)
        trainers = (Trainer(sv, train_set, args.seed, True, tracer),
                    Trainer(sv, train_set, args.seed, False, tracer))
        evaluator = Evaluator(sv, test_set, work / "model.ckpt", tracer, clock)
        localizer = Localizer(sv, test_set, work / "localize", work / "model.ckpt", args.seed,
                              work, tracer, clock)
        run_phases(trainers, evaluator, localizer, plan, args.seconds, clock)
        trained = work / "trained.ckpt"
        trainers[1].save(trained)
        tracer.enabled = False
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        errors = check_train(sv, trainers, train_set, args.seed, trained, work)
        errors += check_eval(evaluator, test_set, args.seed)
        errors += check_localize(localizer, model, test_set, loc_set)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(tracer, trainers, localizer)
    else:
        metrics = e2e_metrics(setup_spans, peak_mb, trainers, evaluator, localizer, clock,
                              evaluator.rank_clock)
    attempted = (sum(len(t.losses) * t.batches for t in trainers) + evaluator.ops
                 + localizer.attempted)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "wall_s": time.perf_counter() - run_start, "machine": machine_record(),
              "sizes": {"train_scenes": plan.train_scenes, "test_scenes": plan.test_scenes},
              "epochs": len(trainers[0].losses),
              "eval_passes": evaluator.passes, "requests": localizer.attempted,
              "reference_kernel_s": statistics.median(clock.ref),
              "ranking_kernel_s": statistics.median(evaluator.rank_clock.ref),
              "unscaled": {k: v["value"] for k, v in e2e_metrics(
                  setup_spans, peak_mb, trainers, evaluator, localizer, Unscaled,
                  Unscaled).items()}}
    print(json.dumps(record, sort_keys=True))
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": localizer.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
