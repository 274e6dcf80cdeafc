"""Per-layer timing from outside the program.

``Tracer.install`` replaces public functions and methods of the ``semvis``
modules with wrappers that add their wall time and call count to named
metrics.  A function bound under several names (``semvis.train`` imports
``batch_loss`` from ``semvis.loss``; ``semvis.cli`` imports
``load_checkpoint`` from ``semvis.train``) is replaced under every name that
holds the same object, so calls through any import path are counted.  Times
are inclusive and summed over calls; a span that starts while no other span
is open is also added to the current phase's top-level total, which tells
how much of the phase's wall time the layers account for.  A span's self
time is its duration minus the durations of the spans directly inside it.

The program itself is not modified; the wrappers live only in the
benchmark's process.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, metric prefix).  Dotted attributes are methods.
LAYERS = (
    ("semvis.autodiff", "conv2d", "autodiff.conv2d"),
    ("semvis.autodiff", "dropout", "autodiff.dropout"),
    ("semvis.autodiff", "l2_normalize", "autodiff.l2_normalize"),
    ("semvis.autodiff", "Tensor.backward", "autodiff.backward"),
    ("semvis.visual", "backbone_forward", "visual.backbone"),
    ("semvis.visual", "adapt", "visual.adapt"),
    ("semvis.visual", "pool", "visual.pool"),
    ("semvis.visual", "project", "visual.project"),
    ("semvis.text", "sru_layer", "text.sru_layer"),
    ("semvis.text", "tokenize", "text.tokenize"),
    ("semvis.model", "Model.encode_image", "model.encode_image"),
    ("semvis.model", "Model.encode_text", "model.encode_text"),
    ("semvis.loss", "batch_loss", "loss.batch_loss"),
    ("semvis.train", "adam_step", "train.adam_step"),
    ("semvis.train", "save_checkpoint", "train.save_checkpoint"),
    ("semvis.train", "load_checkpoint", "train.load_checkpoint"),
    ("semvis.evaluate", "eval_retrieval", "evaluate.eval_retrieval"),
    ("semvis.evaluate", "eval_pointing", "evaluate.eval_pointing"),
    ("semvis.localize", "activation_maps", "localize.activation_maps"),
    ("semvis.localize", "heatmap", "localize.heatmap"),
    ("semvis.localize", "point", "localize.point"),
    ("semvis.localize", "render_heatmap", "localize.render_heatmap"),
    ("semvis.ppm", "read_ppm", "ppm.read_ppm"),
    ("semvis.data", "read_dataset", "data.read_dataset"),
    ("semvis.cli", "build_parser", "cli.build_parser"),
    ("semvis.cli", "cmd_localize", "cli.cmd_localize"),
)


class Tracer:
    """Accumulates per-layer time and counts while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.text_inputs: set = set()
        self.adam_tensors = 0
        self.checkpoint_bytes = 0
        self.phase_wall: dict[str, float] = {}
        self.phase_top: dict[str, float] = {}
        # Per open span, the time of the spans directly inside it; the first
        # entry collects the top-level spans.
        self._inner = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "semvis" or name.startswith("semvis."))]
        for module_name, attr, metric in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, metric))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, metric)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, metric: str):
        note = {"model.encode_text": self._note_text,
                "train.adam_step": self._note_adam,
                "train.save_checkpoint": self._note_checkpoint}.get(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._inner.pop()
                self._inner[-1] += elapsed
                self.seconds[metric] += elapsed
                self.self_seconds[metric] += elapsed - inner
                self.calls[metric] += 1
                if note is not None:
                    note(args, kwargs)

        return wrapper

    # -- counters read from call arguments ---------------------------------

    def _note_text(self, args, kwargs) -> None:
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.text_inputs.add(text if isinstance(text, str) else tuple(text))

    def _note_adam(self, args, kwargs) -> None:
        names = args[3] if len(args) > 3 else kwargs["names"]
        self.adam_tensors += len(names)

    def _note_checkpoint(self, args, kwargs) -> None:
        path = args[0] if args else kwargs["path"]
        self.checkpoint_bytes = os.path.getsize(path)

    # -- phases --------------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Time a benchmark phase and the top-level layer spans inside it."""
        top0 = self._inner[0]
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_wall[name] = self.phase_wall.get(name, 0.0) + time.perf_counter() - start
            self.phase_top[name] = self.phase_top.get(name, 0.0) + self._inner[0] - top0

    def coverage(self, name: str) -> float:
        return self.phase_top[name] / self.phase_wall[name]
