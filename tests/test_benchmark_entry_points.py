"""The package's entry points that the benchmark reaches: every layer that
``benchmarks/tracer.py`` wraps by name, and the one-item encoders that
``benchmarks/run.py`` calls with a tuple ``rng_key``.  The benchmark's files are
read, never imported through the import system, so nothing is written under
``benchmarks/``."""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from semvis.data import generate_dataset
from semvis.model import Model, ModelConfig

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("benchmark_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_layer_resolves_in_the_package():
    tracer = _load_tracer()
    for module_name, attr, _ in tracer.LAYERS:
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # The tracer takes a method from the class's own namespace, a function by attribute.
        target = vars(owner)[name] if classes else getattr(owner, name)
        assert callable(target), f"{module_name}.{attr}"
    layers = tracer.Tracer()
    layers.install()   # installs and removes cleanly on this package
    layers.uninstall()


@pytest.mark.parametrize("training", [False, True])
def test_one_item_encoders_equal_row_0_of_a_batch(training):
    dataset = generate_dataset(2, seed=1)
    model = Model.initialize(ModelConfig(), dataset.vocab, seed=1)
    scene = dataset.scenes[0]
    image, stack = model.encode_image(scene.image, training=training, rng_key=(0,))
    caption = model.encode_text(scene.captions[0], training=training, rng_key=(0,))
    images = model.encode_images([scene.image], training=training, rng_keys=[(0,)])
    captions = model.encode_texts([scene.captions[0]], training=training, rng_keys=[(0,)])
    d = model.cfg.embed_dim
    assert image.shape == caption.shape == (d,)
    assert image.data.tobytes() == images.data[0].tobytes()
    assert caption.data.tobytes() == captions.data[0].tobytes()
    assert stack.shape == (model.cfg.adapt_channels, 1, 4, 4)
    assert np.isclose(np.linalg.norm(image.data), 1.0)
