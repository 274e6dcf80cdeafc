"""Scene generator and dataset round-trip tests."""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semvis import errors
from semvis.data import (COLORS, SHAPES, Dataset, SceneConfig, caption_objects,
                         generate_dataset, generate_scene, read_dataset, write_dataset)
from semvis.errors import GenerationError, ManifestError
from semvis.ppm import overwrite, read_ppm, write_pgm, write_ppm

# sha256 over generate_dataset(200, seed=4) and two scenes of 1 and 4 objects
# (see _scenes_digest); a changed draw, mask or caption moves them.
GOLDEN_DATASET = "8cfb2d63f3e39e70836693d488e9cfa1ae00767649fa289ed7b5127550a79eee"
GOLDEN_SCENES = {1: "caed81eb535a2f02af1a0990fd52e10d5f3f854fd0fac9c86963910e7211a12a",
                 4: "cd782c17923f8840523f86902e38ca9fb7e476288b67558fa633743204b095da"}
TYPED_ERRORS = tuple(v for v in vars(errors).values()
                     if isinstance(v, type) and v.__module__ == errors.__name__)


class TestGenerateScene:
    def test_same_seed_same_scene(self):
        a = generate_scene((1, 7))
        b = generate_scene((1, 7))
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_scene(1) != generate_scene(2)

    def test_single_object_single_region(self):
        cfg = SceneConfig(min_objects=1, max_objects=1)
        scene = generate_scene(3, cfg)
        assert len(scene.objects) == 1 and len(scene.regions) == 1

    def test_objects_do_not_overlap_and_stay_inside(self):
        for seed in range(50):
            scene = generate_scene(seed)
            boxes = [obj.bbox for obj in scene.objects]
            for (x, y, w, h) in boxes:
                assert 0 <= x and 0 <= y and x + w <= 64 and y + h <= 64
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    xi, yi, wi, hi = boxes[i]
                    xj, yj, wj, hj = boxes[j]
                    disjoint = (xi + wi <= xj or xj + wj <= xi
                                or yi + hi <= yj or yj + hj <= yi)
                    assert disjoint

    def test_no_two_objects_share_shape_and_color(self):
        for seed in range(100):
            scene = generate_scene(seed)
            pairs = [(o.shape, o.color) for o in scene.objects]
            assert len(pairs) == len(set(pairs))

    def test_drawn_pixels_match_object_colors(self):
        scene = generate_scene(11)
        for obj in scene.objects:
            x, y, w, h = obj.bbox
            patch = scene.image[:, y:y + h, x:x + w]
            drawn = patch.reshape(3, -1).T
            drawn = drawn[drawn.any(axis=1)]
            assert len(drawn) > 0
            assert (drawn == np.array(COLORS[obj.color])).all()

    def test_infeasible_placement_rejected(self):
        with pytest.raises(GenerationError):
            generate_scene(0, SceneConfig(min_objects=5, max_objects=5))   # 4 grid cells

    @pytest.mark.parametrize("lo, hi", [(0, 0), (3, 2), (-1, 1), (1, 5)])
    def test_config_outside_one_to_cells_is_rejected(self, lo, hi):
        with pytest.raises(GenerationError, match=f"{lo}..{hi} objects"):
            SceneConfig(min_objects=lo, max_objects=hi)

    def test_marginals_uniform_over_shapes_and_colors(self):
        # 10^4 scenes; each drawn (shape, color) pair is uniform over the 24
        # combinations, so every shape and color count stays within 3 sigma.
        shape_counts = {s: 0 for s in SHAPES}
        color_counts = {c: 0 for c in COLORS}
        total = 0
        for i in range(10_000):
            for obj in generate_scene((99, i)).objects:
                shape_counts[obj.shape] += 1
                color_counts[obj.color] += 1
                total += 1
        for counts, k in ((shape_counts, len(SHAPES)), (color_counts, len(COLORS))):
            p = 1.0 / k
            sigma = np.sqrt(total * p * (1 - p))
            for value in counts.values():
                assert abs(value - total * p) < 3 * sigma


def _scenes_digest(scenes, vocab=None) -> str:
    h = hashlib.sha256()
    for scene in scenes:
        h.update(scene.image.tobytes())
        h.update(json.dumps([scene.scene_id, scene.captions,
                             [[p, list(b)] for p, b in scene.regions],
                             [[o.shape, o.color, list(o.bbox)] for o in scene.objects]]).encode())
    if vocab is not None:
        h.update("\n".join(vocab.tokens).encode())
    return h.hexdigest()


class TestSceneStream:
    """The random draws of ``generate_scene`` define every dataset: these digests
    pin the images, captions, regions, objects and vocabulary they produce."""

    def test_dataset_digest(self):
        dataset = generate_dataset(200, seed=4)
        assert _scenes_digest(dataset.scenes, dataset.vocab) == GOLDEN_DATASET

    @pytest.mark.parametrize("n", sorted(GOLDEN_SCENES))
    def test_scene_digest_with_n_objects(self, n):
        scene = generate_scene((6, n), SceneConfig(min_objects=n, max_objects=n), scene_id=n)
        assert len(scene.objects) == n
        assert _scenes_digest([scene]) == GOLDEN_SCENES[n]


class TestCaptions:
    def test_single_object_closure(self):
        cfg = SceneConfig(min_objects=1, max_objects=1)
        scene = generate_scene(5, cfg)
        obj = scene.objects[0]
        allowed = {f"a {obj.color} {obj.shape}", f"the {obj.shape} is {obj.color}"}
        assert set(scene.captions) <= allowed

    def test_multi_object_scene_has_a_conjunction(self):
        for seed in range(30):
            scene = generate_scene(seed)
            if len(scene.objects) >= 2:
                assert any(" and " in c for c in scene.captions)

    def test_captions_distinct_when_pool_allows(self):
        for seed in range(30):
            scene = generate_scene(seed)
            if len(scene.objects) >= 2:  # pool size >= 6 > 5
                assert len(set(scene.captions)) == 5

    def test_recaption_deterministic(self):
        scene = generate_scene(8)
        assert (caption_objects(scene.objects, np.random.default_rng(123))
                == caption_objects(scene.objects, np.random.default_rng(123)))

    def test_corpus_vocabulary_closure(self):
        dataset = generate_dataset(200, seed=4)
        expected = {"<unk>", "a", "and", "the", "is"} | set(SHAPES) | set(COLORS)
        assert set(dataset.vocab.tokens) == expected
        assert dataset.vocab.tokens[0] == "<unk>"


class TestDatasetIO:
    def test_round_trip_single_scene(self, tmp_path):
        dataset = generate_dataset(1, seed=6)
        write_dataset(dataset, tmp_path)
        back = read_dataset(tmp_path)
        assert back.scenes[0] == dataset.scenes[0]
        assert back.vocab == dataset.vocab

    def test_round_trip_many(self, tmp_path):
        dataset = generate_dataset(25, seed=7)
        write_dataset(dataset, tmp_path)
        back = read_dataset(tmp_path)
        assert len(back.scenes) == 25
        assert all(a == b for a, b in zip(back.scenes, dataset.scenes))

    def test_manifest_has_one_line_per_scene_and_all_images_exist(self, tmp_path):
        dataset = generate_dataset(500, seed=8)
        write_dataset(dataset, tmp_path)
        lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 500
        for line in lines:
            record = json.loads(line)
            assert os.path.exists(tmp_path / record["image"])

    def test_empty_dataset_round_trips(self, tmp_path):
        write_dataset(generate_dataset(0, seed=1), tmp_path)
        assert (tmp_path / "manifest.jsonl").read_text() == ""
        assert read_dataset(tmp_path).scenes == []

    def test_malformed_manifest_reports_line_number(self, tmp_path):
        write_dataset(generate_dataset(2, seed=9), tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[1] = '{"id": 1, "captions": []}'  # missing image and regions
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match="line 2"):
            read_dataset(tmp_path)

    def test_different_base_seeds_share_no_scene(self, tmp_path):
        a = generate_dataset(30, seed=1)
        b = generate_dataset(30, seed=2)
        images_a = {scene.image.tobytes() for scene in a.scenes}
        images_b = {scene.image.tobytes() for scene in b.scenes}
        assert not images_a & images_b


class TestHostilePpm:
    @pytest.mark.parametrize("dims", [b"-1 -3", b"0 16", b"16 0", b"-4 4"])
    def test_non_positive_size_is_a_manifest_error(self, tmp_path, dims):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n" + dims + b"\n255\n" + bytes(48))
        with pytest.raises(ManifestError, match="not positive"):
            read_ppm(path)


class TestOverwrite:
    def test_a_new_file_gets_the_mode_open_gives_it(self, tmp_path):
        overwrite(tmp_path / "new", b"abc")
        with open(tmp_path / "plain", "wb") as fh:
            fh.write(b"abc")
        assert (tmp_path / "new").read_bytes() == b"abc"
        assert os.stat(tmp_path / "new").st_mode == os.stat(tmp_path / "plain").st_mode

    def test_rasters_are_cut_to_their_own_length(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.full((3, 8, 8), 7, dtype=np.uint8))
        write_ppm(path, np.full((3, 2, 3), 9, dtype=np.uint8))
        assert path.read_bytes() == b"P6\n3 2\n255\n" + bytes([9]) * 18
        write_pgm(path, np.full((4, 4), 5, dtype=np.uint8))
        assert path.read_bytes() == b"P5\n4 4\n255\n" + bytes([5]) * 16


def _edit_line_2(tmp_path, edit):
    """A two-scene dataset whose second manifest record is replaced by ``edit(record)``
    (a dict, or a raw line)."""
    write_dataset(generate_dataset(2, seed=9), tmp_path)
    manifest = tmp_path / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    edited = edit(json.loads(lines[1]))
    lines[1] = edited if isinstance(edited, str) else json.dumps(edited)
    manifest.write_text("\n".join(lines) + "\n")


def _outside_image(tmp_path):
    """A valid raster beside, not inside, the dataset directory ``tmp_path``."""
    outside = tmp_path.parent / f"{tmp_path.name}-outside.ppm"
    write_ppm(outside, np.zeros((3, 16, 16), dtype=np.uint8))
    return outside


class TestHostileManifest:
    @pytest.mark.parametrize("edit", [
        lambda r, _: {**r, "regions": [{"phrase": "a purple blob", "bbox": [0, 0, 8, 8]}]},
        lambda r, out: {**r, "image": str(out)},
        lambda r, out: {**r, "image": f"images/../../{out.name}"},
        lambda r, _: {**r, "regions": [{**r["regions"][0], "bbox": [1, 2, 3]}]},
        lambda r, _: {**r, "regions": [{**r["regions"][0], "bbox": [1, 2, -3, -3]}]},
        lambda r, _: {**r, "regions": [{**r["regions"][0], "bbox": [1, 2, 3.5, 4]}]},
        lambda r, _: "[" * 100_000 + "]" * 100_000,
        lambda r, _: {**r, "image": "images"},
        lambda r, _: {**r, "id": 0},
        lambda r, _: {**r, "id": 0.9},
        lambda r, _: {**r, "id": True},
        lambda r, _: {**r, "regions": [{**r["regions"][0], "bbox": [60, 60, 30, 30]}]},
        lambda r, _: {**r, "regions": [{**r["regions"][0], "bbox": [-1, 0, 8, 8]}]},
    ], ids=["phrase-without-color-and-shape", "absolute-image-path", "image-path-climbs-out",
            "bbox-of-3", "bbox-of-negative-size", "bbox-not-integers", "nested-too-deep",
            "image-is-a-directory", "duplicate-id", "fractional-id", "boolean-id",
            "bbox-leaves-the-image", "bbox-starts-left-of-the-image"])
    def test_reported_with_its_line_number(self, tmp_path, edit):
        outside = _outside_image(tmp_path)
        _edit_line_2(tmp_path, lambda record: edit(record, outside))
        with pytest.raises(ManifestError, match="^manifest line 2: "):
            read_dataset(tmp_path)

    def test_bad_raster_has_one_prefix(self, tmp_path):
        _edit_line_2(tmp_path, lambda record: record)
        (tmp_path / "images" / "000001.ppm").write_bytes(b"P6\n16 16\n255\n" + bytes(5))
        with pytest.raises(ManifestError, match="^manifest line 2: ") as info:
            read_dataset(tmp_path)
        assert str(info.value).count("manifest line") == 1
        assert "truncated pixel data" in str(info.value)

    @pytest.mark.parametrize("vocab, message", [
        (None, r"No such file.*vocab\.txt"),
        (b"<unk>\nred\n\xff\xfeblue\n", r"vocab\.txt: line 2: not UTF-8"),
        (b"<unk>\nred\n\nblue\n", r"vocab\.txt: line 2: '' is not a new"),
        (b"<unk>\nred\nblue\nred\n", r"vocab\.txt: line 3: 'red' is not a new"),
        (b"<unk>\nred\n<unk>\nblue\n", r"vocab\.txt: line 2: '<unk>' is not a new"),
        (b"red\n<unk>\n", r"vocab\.txt: line 0 must be"),
        (b"", r"vocab\.txt: line 0 must be"),
    ], ids=["missing", "not-utf-8", "blank-line", "repeated-token", "second-unk",
            "line-0-not-unk", "empty"])
    def test_bad_vocabulary_file_names_its_line(self, tmp_path, vocab, message):
        write_dataset(generate_dataset(2, seed=9), tmp_path)
        path = tmp_path / "vocab.txt"
        path.unlink()
        if vocab is not None:
            path.write_bytes(vocab)
        with pytest.raises(ManifestError, match=message) as info:
            read_dataset(tmp_path)
        assert info.value.line_no == 0 and "manifest line" not in str(info.value)

    @pytest.mark.parametrize("make", [lambda root: None, lambda root: root.mkdir(),
                                      lambda root: (root / "manifest.jsonl").mkdir(parents=True)],
                             ids=["no-directory", "no-manifest", "manifest-is-a-directory"])
    def test_unreadable_manifest_is_a_manifest_error(self, tmp_path, make):
        root = tmp_path / "data"
        make(root)
        with pytest.raises(ManifestError, match=r"manifest\.jsonl") as info:
            read_dataset(root)
        assert info.value.line_no == 0 and "manifest line" not in str(info.value)


def _check_image(image):
    assert isinstance(image, np.ndarray) and image.dtype == np.uint8
    assert image.ndim == 3 and image.shape[0] == 3 and min(image.shape) >= 1


_HEADER_TOKENS = st.one_of(st.integers(-2, 6).map(lambda v: str(v).encode()),
                           st.sampled_from([b"P6", b"P5", b"255", b"65535", b"#x\n", b"1e3"]),
                           st.binary(max_size=4))
_HEADER = st.lists(st.tuples(_HEADER_TOKENS, st.sampled_from([b" ", b"\n", b"\t", b"#c\n", b""])),
                   max_size=5).map(lambda parts: b"".join(t + sep for t, sep in parts))
_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                     max_leaves=6)
_REGION = st.fixed_dictionaries({
    "phrase": st.sampled_from(["a red circle", "a blue square", "a purple blob", ""]) | _JSON,
    "bbox": st.lists(st.integers(-2, 70), min_size=3, max_size=5) | _JSON}) | _JSON
_RECORD = st.fixed_dictionaries({}, optional={
    "id": st.integers() | _JSON,
    "image": st.sampled_from(["images/000000.ppm", "images/../images/000000.ppm",
                              "images/missing.ppm", "images", "", "/no/such.ppm",
                              "../000000.ppm"]) | _JSON,
    "captions": st.lists(st.text(max_size=12), max_size=3) | _JSON,
    "regions": st.lists(_REGION, max_size=3) | _JSON})
_VOCAB = (st.lists(st.sampled_from(["<unk>", "red", "circle", "", " ", "\r"]) | st.text(max_size=4),
                   max_size=4).map(lambda tokens: "\n".join(tokens).encode())
          | st.binary(max_size=12))
_LINE = _RECORD.map(lambda r: json.dumps(r).encode()) | st.text(max_size=30).map(str.encode) | st.binary(max_size=30)


class TestHostileInputProperties:
    """A reader returns a valid object or raises a ``semvis.errors`` type, never another one."""

    @settings(max_examples=300, deadline=None)
    @given(magic=st.sampled_from([b"P6", b"P5", b""]) | st.binary(max_size=2), header=_HEADER,
           payload=st.binary(max_size=80))
    def test_read_ppm(self, tmp_path_factory, magic, header, payload):
        path = tmp_path_factory.getbasetemp() / "property.ppm"
        path.write_bytes(magic + header + payload)
        try:
            image = read_ppm(path)
        except TYPED_ERRORS:
            return
        _check_image(image)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_LINE, max_size=3), vocab=st.none() | _VOCAB)
    def test_read_dataset(self, tmp_path_factory, lines, vocab):
        """``vocab`` None keeps the dataset's own vocabulary file."""
        root = tmp_path_factory.getbasetemp() / "property-dataset"
        if not root.exists():
            write_dataset(generate_dataset(1, seed=4), root)
            (root / "vocab.orig").write_bytes((root / "vocab.txt").read_bytes())
        (root / "manifest.jsonl").write_bytes(b"\n".join(lines))
        (root / "vocab.txt").write_bytes((root / "vocab.orig").read_bytes() if vocab is None
                                         else vocab)
        try:
            dataset = read_dataset(root)
        except TYPED_ERRORS:
            return
        assert isinstance(dataset, Dataset)
        tokens = dataset.vocab.tokens
        assert tokens[0] == "<unk>" and all(tokens) and len(set(tokens)) == len(tokens)
        ids = [scene.scene_id for scene in dataset.scenes]
        assert all(type(i) is int for i in ids) and len(set(ids)) == len(ids)
        for scene in dataset.scenes:
            _check_image(scene.image)
            assert all(isinstance(c, str) for c in scene.captions)
            assert len(scene.objects) == len(scene.regions)
            height, width = scene.image.shape[1:]
            for phrase, (x, y, w, h) in scene.regions:
                assert isinstance(phrase, str) and min(w, h) > 0
                assert 0 <= x and x + w <= width and 0 <= y and y + h <= height
