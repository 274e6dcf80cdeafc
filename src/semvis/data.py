"""Synthetic captioned scenes with ground-truth region boxes.

Each scene is a ``CANVAS`` x ``CANVAS`` (64x64) RGB image of 2-3 solid
colored shapes, ``CAPTIONS_PER_SCENE`` (5) template captions, and one
(phrase, bounding box) region annotation per object.  The canvas is cut into
a ``GRID`` x ``GRID`` (2x2) grid of ``CELLS`` cells; each object takes its own
cell, has a side of ``MIN_SIZE``..``MAX_SIZE`` (22..28) pixels and keeps
``CELL_MARGIN`` (2) pixels from the cell's edges at a jittered offset, so
objects never overlap.  No two objects in a scene share the same (shape,
color) pair, so every region phrase points at exactly one object.

On disk a dataset is a directory::

    manifest.jsonl      one JSON object per scene
    images/NNNNNN.ppm   binary P6 rasters
    vocab.txt           one token per line, line 0 is "<unk>"
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError, ManifestError
from .ppm import read_ppm, write_ppm
from .text import Vocab, split_words

SHAPES = ("circle", "square", "triangle", "cross")
COLORS = {
    "red": (255, 0, 0),
    "green": (0, 255, 0),
    "blue": (0, 0, 255),
    "yellow": (255, 255, 0),
    "magenta": (255, 0, 255),
    "cyan": (0, 255, 255),
}

BBox = tuple[int, int, int, int]  # (x_min, y_min, width, height)


CANVAS = 64
GRID = 2                          # GRID x GRID placement cells
CELLS = GRID * GRID
CELL_PX = CANVAS // GRID
MIN_SIZE = 22                     # large relative to the cell: objects must survive
MAX_SIZE = 28                     # a 16x downsample with their identity intact
CELL_MARGIN = 2                   # MAX_SIZE + 2 * CELL_MARGIN <= CELL_PX
CAPTIONS_PER_SCENE = 5


@dataclass
class SceneConfig:
    min_objects: int = 2
    max_objects: int = 3


@dataclass(eq=False)
class SceneObject:
    shape: str
    color: str
    bbox: BBox

    @property
    def phrase(self) -> str:
        return f"a {self.color} {self.shape}"

    def __eq__(self, other) -> bool:
        return (isinstance(other, SceneObject)
                and (self.shape, self.color, tuple(self.bbox))
                == (other.shape, other.color, tuple(other.bbox)))


@dataclass(eq=False)
class Scene:
    scene_id: int
    image: np.ndarray                      # (3, S, S) uint8
    objects: list[SceneObject]
    captions: list[str]
    regions: list[tuple[str, BBox]]        # one (phrase, bbox) per object

    def __eq__(self, other) -> bool:
        return (isinstance(other, Scene)
                and self.scene_id == other.scene_id
                and np.array_equal(self.image, other.image)
                and self.objects == other.objects
                and self.captions == other.captions
                and [(p, tuple(b)) for p, b in self.regions]
                == [(p, tuple(b)) for p, b in other.regions])


@dataclass
class Dataset:
    scenes: list[Scene] = field(default_factory=list)
    vocab: Vocab | None = None

    def regions(self):
        """Flat iterator of (image, phrase, bbox) over all scenes."""
        for scene in self.scenes:
            for phrase, bbox in scene.regions:
                yield scene.image, phrase, bbox


def _shape_mask(shape: str, size: int) -> np.ndarray:
    # Every shape carries its own fill texture; the orientation/frequency
    # signatures keep the four classes separable even after aggressive
    # spatial downsampling.
    yy, xx = np.mgrid[0:size, 0:size]
    if shape == "circle":
        c = (size - 1) / 2.0
        return (xx - c) ** 2 + (yy - c) ** 2 <= (size / 2.0) ** 2
    if shape == "square":
        return (yy % 4) < 2  # horizontal stripes
    if shape == "triangle":
        half = (size - 1) / 2.0
        solid = np.abs(xx - half) <= half * (yy + 1) / size  # apex up, base down
        return solid & ((xx % 4) < 2)  # vertical stripes
    if shape == "cross":
        t = max(2, size // 4)
        lo, hi = (size - t) // 2, (size - t) // 2 + t
        return ((yy >= lo) & (yy < hi)) | ((xx >= lo) & (xx < hi))
    raise ValueError(f"unknown shape {shape!r}")


def render_scene(objects: list[SceneObject]) -> np.ndarray:
    image = np.zeros((3, CANVAS, CANVAS), dtype=np.uint8)
    for obj in objects:
        x, y, w, h = obj.bbox
        mask = _shape_mask(obj.shape, w)
        rgb = COLORS[obj.color]
        for ch in range(3):
            image[ch, y:y + h, x:x + w][mask] = rgb[ch]
    return image


def generate_scene(seed, cfg: SceneConfig = SceneConfig(), scene_id: int = -1) -> Scene:
    """Deterministically build one scene from ``seed`` (an int or tuple of ints)."""
    rng = np.random.default_rng(seed)
    if cfg.max_objects > CELLS:
        raise GenerationError(f"cannot place {cfg.max_objects} objects on a {GRID}x{GRID} grid")

    n = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    combos = [(s, c) for s in SHAPES for c in COLORS]
    picks = rng.choice(len(combos), size=n, replace=False)
    cell_ids = rng.choice(CELLS, size=n, replace=False)

    objects = []
    for combo_idx, cell_idx in zip(picks, cell_ids):
        shape, color = combos[int(combo_idx)]
        size = int(rng.integers(MIN_SIZE, MAX_SIZE + 1))
        cx = (int(cell_idx) % GRID) * CELL_PX
        cy = (int(cell_idx) // GRID) * CELL_PX
        slack = CELL_PX - size - 2 * CELL_MARGIN
        x = cx + CELL_MARGIN + int(rng.integers(0, slack + 1))
        y = cy + CELL_MARGIN + int(rng.integers(0, slack + 1))
        objects.append(SceneObject(shape, color, (x, y, size, size)))

    captions = caption_objects(objects, rng)
    regions = [(obj.phrase, obj.bbox) for obj in objects]
    return Scene(scene_id, render_scene(objects), objects, captions, regions)


def caption_objects(objects: list[SceneObject], rng: np.random.Generator) -> list[str]:
    """Sample ``CAPTIONS_PER_SCENE`` template captions over the scene's objects.

    Templates: "a {color} {shape}", "the {shape} is {color}", and the
    two-object conjunction.  When the scene has two or more objects, at
    least one caption mentions two of them.  Captions are distinct as long
    as the template pool allows it.
    """
    singles = [obj.phrase for obj in objects]
    attrs = [f"the {obj.shape} is {obj.color}" for obj in objects]
    pairs = [f"{a.phrase} and {b.phrase}"
             for i, a in enumerate(objects) for j, b in enumerate(objects) if i != j]

    chosen = []
    if pairs:
        chosen.append(pairs[int(rng.integers(0, len(pairs)))])
    pool = [c for c in singles + attrs + pairs if c not in chosen]
    while len(chosen) < CAPTIONS_PER_SCENE and pool:
        idx = int(rng.integers(0, len(pool)))
        chosen.append(pool.pop(idx))
    full = singles + attrs + pairs
    while len(chosen) < CAPTIONS_PER_SCENE:  # tiny scenes: repeat once the pool is exhausted
        chosen.append(full[int(rng.integers(0, len(full)))])
    return chosen


def build_vocab(scenes: list[Scene]) -> Vocab:
    """Sorted vocabulary of every token appearing in captions and region phrases."""
    tokens: set[str] = set()
    for scene in scenes:
        for text in scene.captions + [p for p, _ in scene.regions]:
            tokens.update(split_words(text))
    return Vocab(sorted(tokens))


def generate_dataset(n_scenes: int, seed: int, cfg: SceneConfig = SceneConfig()) -> Dataset:
    """Generate ``n_scenes`` scenes; scene i is keyed by (seed, i), so datasets
    built from different base seeds never share a scene stream."""
    scenes = [generate_scene((seed, i), cfg, scene_id=i) for i in range(n_scenes)]
    return Dataset(scenes, build_vocab(scenes))


def write_dataset(dataset: Dataset, out_dir) -> None:
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    with open(os.path.join(out_dir, "manifest.jsonl"), "w", encoding="utf-8") as fh:
        for scene in dataset.scenes:
            rel = f"images/{scene.scene_id:06d}.ppm"
            write_ppm(os.path.join(out_dir, rel), scene.image)
            record = {
                "id": scene.scene_id,
                "image": rel,
                "captions": scene.captions,
                "regions": [{"phrase": p, "bbox": list(b)} for p, b in scene.regions],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    vocab = dataset.vocab if dataset.vocab is not None else build_vocab(dataset.scenes)
    vocab.to_file(os.path.join(out_dir, "vocab.txt"))


def read_dataset(in_dir) -> Dataset:
    scenes = []
    seen_ids = set()
    try:
        fh = open(os.path.join(in_dir, "manifest.jsonl"), "rb")
    except OSError as exc:
        raise ManifestError(0, str(exc)) from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                scene_id = record["id"]
                if type(scene_id) is not int or scene_id in seen_ids:
                    raise ValueError(f"scene id {scene_id!r} is not a new integer")
                seen_ids.add(scene_id)
                image = read_ppm(_dataset_file(in_dir, record["image"]))
                captions = record["captions"]
                if not isinstance(captions, list) or not all(isinstance(c, str) for c in captions):
                    raise ValueError("captions must be a list of strings")
                regions = [(str(r["phrase"]), _bbox(r["bbox"], image.shape[1:]))
                           for r in record["regions"]]
                objects = [_object_from_region(p, b) for p, b in regions]
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
                    OSError) as exc:
                raise ManifestError(line_no, str(exc)) from None
            scenes.append(Scene(scene_id, image, objects, captions, regions))
    try:
        vocab = Vocab.from_file(os.path.join(in_dir, "vocab.txt"))
    except (OSError, ValueError) as exc:
        raise ManifestError(0, str(exc)) from None
    return Dataset(scenes, vocab)


def _dataset_file(in_dir, rel: str) -> str:
    """``rel`` under ``in_dir``; an absolute path or one that climbs out is refused."""
    if os.path.isabs(rel) or os.path.normpath(rel).split(os.sep)[0] == os.pardir:
        raise ValueError(f"image path {rel!r} leaves the dataset directory")
    return os.path.join(in_dir, rel)


def _bbox(values, image_size: tuple[int, int]) -> BBox:
    """4 integers (x, y, w, h): a box of positive size inside an image of (H, W) pixels."""
    if (not isinstance(values, list) or len(values) != 4
            or any(type(v) is not int for v in values) or min(values[2:]) <= 0):
        raise ValueError(f"bbox {values!r} is not 4 integers with a positive width and height")
    x, y, w, h = values
    if min(x, y) < 0 or x + w > image_size[1] or y + h > image_size[0]:
        raise ValueError(f"bbox {values!r} leaves the {image_size[1]}x{image_size[0]} image")
    return tuple(values)


def _object_from_region(phrase: str, bbox: BBox) -> SceneObject:
    words = phrase.split()
    if len(words) == 3 and words[1] in COLORS and words[2] in SHAPES:
        return SceneObject(words[2], words[1], bbox)
    raise ValueError(f"region phrase {phrase!r} does not name a color and shape")
