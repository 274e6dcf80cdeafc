"""Scene generator and dataset round-trip tests."""

import json
import os

import numpy as np
import pytest

from semvis.data import (COLORS, SHAPES, Scene, SceneConfig, build_vocab, caption_objects,
                         generate_dataset, generate_scene, read_dataset, write_dataset)
from semvis.errors import GenerationError, ManifestError
from semvis.ppm import read_ppm


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
