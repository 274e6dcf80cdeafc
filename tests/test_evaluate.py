"""Retrieval metrics against brute-force ranking; pointing game on oracle models."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semvis import evaluate
from semvis.autodiff import Tensor, no_grad
from semvis.data import generate_dataset
from semvis.errors import ContractError, ShapeError
from semvis.evaluate import center_baseline, eval_pointing, eval_retrieval
from semvis.localize import (LocalizationConfig, activation_maps, heatmap, peak_points, point,
                             region_heat, top_k_indices)
from semvis.model import Model, ModelConfig

from conftest import argsort_retrieval_ranks
from conftest import oracle_retrieval_ranks as oracle_reports


class TestEvalRetrieval:
    def test_block_diagonal_is_perfect(self):
        sim = np.full((3, 6), 0.1)
        owners = [0, 0, 1, 1, 2, 2]
        for j, owner in enumerate(owners):
            sim[owner, j] = 0.9
        cap, img = eval_retrieval(sim, owners)
        assert cap.r_at[1] == 1.0 and img.r_at[1] == 1.0
        assert cap.median_rank == 1.0 and img.median_rank == 1.0

    def test_two_by_two_swap(self):
        # Each image ranks the other's caption first.
        cap, img = eval_retrieval(np.array([[0.1, 0.9], [0.8, 0.2]]), [0, 1])
        assert cap.r_at[1] == 0.0
        assert eval_retrieval(np.array([[0.1, 0.9], [0.8, 0.2]]), [0, 1],
                              r_values=(1, 2))[0].r_at[2] == 1.0
        assert img.r_at[1] == 0.0
        assert cap.median_rank == 2.0

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n_img = int(rng.integers(2, 11))
            caps_per = int(rng.integers(1, 6))
            owners = [i for i in range(n_img) for _ in range(caps_per)]
            sim = rng.normal(size=(n_img, len(owners)))
            cap, img = eval_retrieval(sim, owners, r_values=(1, 5, 10))
            cap_ranks, img_ranks = oracle_reports(sim, owners)
            for r in (1, 5, 10):
                assert cap.r_at[r] == np.mean([rk <= r for rk in cap_ranks])
                assert img.r_at[r] == np.mean([rk <= r for rk in img_ranks])
            assert cap.median_rank == np.median(cap_ranks)
            assert img.median_rank == np.median(img_ranks)

    @pytest.mark.parametrize("n_img,caps_per", [(7, 3), (40, 200)])
    def test_tie_heavy_matrix_matches_the_argsort_ranking(self, n_img, caps_per):
        """Scores from three levels, so most comparisons are ties; the larger case
        spans several counting blocks both ways.  Recall at every rank pins the
        whole rank distribution."""
        rng = np.random.default_rng(n_img)
        owners = rng.permutation(np.repeat(np.arange(n_img), caps_per))
        sim = rng.integers(0, 3, size=(n_img, owners.size)) / 2.0
        every = tuple(range(1, owners.size + 1))
        cap, img = eval_retrieval(sim, owners, r_values=every)
        cap_ranks, img_ranks = argsort_retrieval_ranks(sim, owners)
        for report, ranks in ((cap, cap_ranks), (img, img_ranks)):
            assert report.r_at == {r: float(np.mean(np.asarray(ranks) <= r)) for r in every}
            assert report.median_rank == float(np.median(ranks))

    def test_recall_monotone_and_total(self):
        rng = np.random.default_rng(4)
        owners = [0, 0, 1, 1, 2]
        sim = rng.normal(size=(3, 5))
        cap, img = eval_retrieval(sim, owners, r_values=(1, 2, 3, 5))
        values = [cap.r_at[r] for r in (1, 2, 3, 5)]
        assert values == sorted(values)
        assert cap.r_at[5] == 1.0  # every image has a caption within the full list
        assert img.r_at[3] == 1.0

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(5)
        owners = [0, 1, 2, 0, 1, 2]
        sim = rng.normal(size=(3, 6))
        a = eval_retrieval(sim, owners)
        b = eval_retrieval(np.exp(2.0 * sim) + 1.0, owners)
        assert a[0] == b[0] and a[1] == b[1]

    def test_constant_matrix_spans_the_largest_block(self):
        """Every score ties, and a block of 255 rows counts 255 ties in every column."""
        sim, owners = np.zeros((256, 256)), np.arange(256)
        cap, img = eval_retrieval(sim, owners, r_values=(1, 255, 256))
        cap_ranks, img_ranks = argsort_retrieval_ranks(sim, owners)
        assert cap_ranks == img_ranks == list(range(1, 257))
        for report in (cap, img):
            assert report.r_at == {1: 1 / 256, 255: 255 / 256, 256: 1.0}
            assert report.median_rank == 128.5

    def test_nan_own_score_rejected(self):
        sim = np.eye(3)
        sim[1, 1] = np.nan
        with pytest.raises(ContractError, match="NaN"):
            eval_retrieval(sim, [0, 1, 2])

    def test_nan_elsewhere_ranks_below_every_score(self):
        sim = np.array([[0.5, np.nan], [0.1, 0.2]])
        cap, img = eval_retrieval(sim, [0, 1], r_values=(1,))
        assert cap.r_at[1] == 1.0 and img.r_at[1] == 1.0

    def test_ownerless_image_rejected(self):
        with pytest.raises(ContractError):
            eval_retrieval(np.zeros((3, 2)), [0, 1])

    def test_out_of_range_owner_rejected(self):
        with pytest.raises(ContractError):
            eval_retrieval(np.zeros((2, 2)), [0, 5])

    def test_report_json_shape(self):
        cap, _ = eval_retrieval(np.eye(3), [0, 1, 2])
        d = cap.to_dict()
        assert set(d) == {"direction", "r_at", "median_rank"}
        assert set(d["r_at"]) == {"1", "5", "10"}


@st.composite
def _ranking_case(draw):
    """A similarity matrix over 1-8 images with 1-6 captions each, owners shuffled, and
    scores from a few levels (mostly ties) or from many; plus a counting block size."""
    per_image = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    owners = draw(st.permutations(np.repeat(np.arange(len(per_image)), per_image).tolist()))
    levels = draw(st.sampled_from([1, 2, 3, 1000]))
    cells = len(per_image) * len(owners)
    scores = draw(st.lists(st.integers(0, levels - 1), min_size=cells, max_size=cells))
    sim = np.reshape(scores, (len(per_image), len(owners))) / 2.0
    return sim, owners, draw(st.integers(1, 2 * len(owners)))


class TestEvalRetrievalProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=_ranking_case())
    @example(case=(np.array([[0.5, 0.5, 0.0]]), [0, 0, 0], 1))
    def test_matches_the_argsort_ranking(self, case):
        sim, owners, block_cells = case
        every = tuple(range(1, len(owners) + 1))
        with mock.patch.object(evaluate, "_RANK_BLOCK_CELLS", block_cells):
            cap, img = eval_retrieval(sim, owners, r_values=every)
        for report, ranks in zip((cap, img), argsort_retrieval_ranks(sim, owners)):
            assert report.r_at == {r: float(np.mean(np.asarray(ranks) <= r)) for r in every}
            assert report.median_rank == float(np.median(ranks))


class _OracleModel:
    """Pointing-game stub: one activation map per phrase, painted on its box."""

    def __init__(self, phrases, stacks):
        self.phrase_index = {p: i for i, p in enumerate(phrases)}
        self.stacks = stacks  # id(image) -> (d, h, w) indicator stack
        d = len(phrases)
        self.params = {"proj.weight": Tensor(np.eye(d))}

    def pooled_features(self, images):
        return None, Tensor(np.stack([self.stacks[id(image)] for image in images], axis=1))

    def encode_texts(self, phrases, training=False, rng_keys=None):
        return Tensor(np.eye(len(self.phrase_index))[[self.phrase_index[p] for p in phrases]])


def build_oracle_case(rng, n_scenes=6, side=64, cell=16):
    """Scenes of one box each; the oracle paints the heat on exactly the cells
    whose centers fall inside the box."""
    phrases = [f"thing {i}" for i in range(n_scenes)]
    regions, stacks = [], {}
    g = side // cell
    for i in range(n_scenes):
        w, h = int(rng.integers(16, 30)), int(rng.integers(16, 30))
        x = int(rng.integers(0, side - w))
        y = int(rng.integers(0, side - h))
        image = np.zeros((3, side, side), dtype=np.uint8)
        stack = np.zeros((n_scenes, g, g))
        centers_x = (np.arange(g) + 0.5) * cell
        centers_y = (np.arange(g) + 0.5) * cell
        inside = ((centers_y[:, None] >= y) & (centers_y[:, None] < y + h)
                  & (centers_x[None, :] >= x) & (centers_x[None, :] < x + w))
        assert inside.any()
        stack[i][inside] = 1.0
        stacks[id(image)] = stack
        regions.append((image, phrases[i], (x, y, w, h)))
    return _OracleModel(phrases, stacks), regions


class TestPointingGame:
    def test_oracle_model_scores_perfectly(self):
        model, regions = build_oracle_case(np.random.default_rng(0))
        report = eval_pointing(model, regions, LocalizationConfig(top_k=1))
        assert report.accuracy == 1.0
        assert all(report.hits)

    def test_box_covering_whole_image_always_hits(self):
        model, regions = build_oracle_case(np.random.default_rng(1), n_scenes=1)
        image, phrase, _ = regions[0]
        report = eval_pointing(model, [(image, phrase, (0, 0, 64, 64))],
                               LocalizationConfig(top_k=1))
        assert report.accuracy == 1.0

    def test_heat_outside_the_box_misses(self):
        model, regions = build_oracle_case(np.random.default_rng(2), n_scenes=2)
        image, phrase, _ = regions[0]
        # Claim a box far from the painted cells at the opposite_corner.
        x, y, w, h = regions[0][2]
        fake = (64 - 8, 64 - 8, 8, 8) if x < 32 and y < 32 else (0, 0, 8, 8)
        report = eval_pointing(model, [(image, phrase, fake)], LocalizationConfig(top_k=1))
        if report.hits[0]:  # peak happened to sit in the fake corner: not this geometry
            pytest.fail("oracle peak should stay inside its own box")

    def test_empty_region_list_rejected(self):
        model, _ = build_oracle_case(np.random.default_rng(3), n_scenes=1)
        with pytest.raises(ContractError):
            eval_pointing(model, [], LocalizationConfig(top_k=1))

    def test_report_json_shape(self):
        model, regions = build_oracle_case(np.random.default_rng(4), n_scenes=2)
        report = eval_pointing(model, regions, LocalizationConfig(top_k=1))
        assert set(report.to_dict()) == {"accuracy", "baseline", "n"}
        assert report.to_dict()["n"] == 2


class TestCenterBaseline:
    def test_full_image_boxes_always_contain_the_center(self):
        image = np.zeros((3, 64, 64), dtype=np.uint8)
        regions = [(image, "p", (0, 0, 64, 64))] * 3
        assert center_baseline(regions) == 1.0

    def test_corner_boxes_never_do(self):
        image = np.zeros((3, 64, 64), dtype=np.uint8)
        regions = [(image, "p", (0, 0, 8, 8)), (image, "p", (50, 50, 10, 10))]
        assert center_baseline(regions) == 0.0

    def test_uniform_random_point_matches_mean_area_fraction(self):
        # Statistical: hit rate of uniform points equals the mean box-area
        # fraction within 3 sigma over >= 10^4 trials.
        rng = np.random.default_rng(6)
        side = 64
        boxes = [(int(rng.integers(0, 40)), int(rng.integers(0, 40)),
                  int(rng.integers(5, 25)), int(rng.integers(5, 25))) for _ in range(20)]
        trials_per_box = 1000
        total = trials_per_box * len(boxes)
        hits = 0
        for (x, y, w, h) in boxes:
            px = rng.uniform(0, side, size=trials_per_box)
            py = rng.uniform(0, side, size=trials_per_box)
            hits += int(np.sum((px >= x) & (px < x + w) & (py >= y) & (py < y + h)))
        expected = float(np.mean([w * h / side ** 2 for (_, _, w, h) in boxes]))
        sigma = np.sqrt(expected * (1 - expected) / total)
        assert abs(hits / total - expected) < 3 * sigma


class _CountingModel(_OracleModel):
    def __init__(self, phrases, stacks):
        super().__init__(phrases, stacks)
        self.text_calls, self.image_calls = [], []

    def pooled_features(self, images):
        self.image_calls.append([id(image) for image in images])
        return super().pooled_features(images)

    def encode_texts(self, phrases, training=False, rng_keys=None):
        self.text_calls.append(list(phrases))
        return super().encode_texts(phrases, training, rng_keys)


class TestPointingEncodesEachPhraseOnce:
    def test_repeated_phrase_is_encoded_once(self):
        oracle, regions = build_oracle_case(np.random.default_rng(5), n_scenes=4)
        model = _CountingModel(list(oracle.phrase_index), oracle.stacks)
        # Every region asked twice, plus every phrase asked of the first image.
        queries = regions + regions + [(regions[0][0], phrase, regions[0][2])
                                       for _, phrase, _ in regions]
        report = eval_pointing(model, queries, LocalizationConfig(top_k=1))
        assert len(model.text_calls) == 1
        assert sorted(model.text_calls[0]) == sorted(oracle.phrase_index)
        assert model.image_calls == [[id(image) for image, _, _ in regions]]
        one_by_one = [eval_pointing(oracle, [q], LocalizationConfig(top_k=1)).hits[0]
                      for q in queries]
        assert report.hits == one_by_one


def _single_encode_points(model, regions, cfg):
    """The heat peak of every region, each image and each phrase encoded on its own."""
    points = []
    for image, phrase, _ in regions:
        _, stack = model.encode_image(image)
        maps = activation_maps(stack.data, model.params["proj.weight"].data)[0]
        points.append(point(heatmap(maps, model.encode_text(phrase).data, cfg), image.shape[1:]))
    return points


class TestPointingBatches:
    def test_hits_equal_a_single_encode_loop(self):
        """41 distinct 64x64 images span two batches, and 32x48 crops of three of them
        form a second size; the regions are asked in a shuffled order."""
        dataset = generate_dataset(41, seed=12)
        model = Model.initialize(ModelConfig(), dataset.vocab, seed=3)
        cfg = LocalizationConfig(top_k=model.cfg.effective_top_k())
        crops = [np.ascontiguousarray(s.image[:, :32, :48]) for s in dataset.scenes[:3]]
        regions = list(dataset.regions()) + [(crop, phrase, (0, 0, 16, 16))
                                             for crop, scene in zip(crops, dataset.scenes)
                                             for phrase, _ in scene.regions]
        order = np.random.default_rng(0).permutation(len(regions))
        regions = [regions[i] for i in order]
        points = _single_encode_points(model, regions, cfg)
        report = eval_pointing(model, regions, cfg)
        assert report.hits == [x <= px < x + w and y <= py < y + h
                               for (_, _, (x, y, w, h)), (px, py) in zip(regions, points)]
        # A one-pixel box on each single-encode peak: every batched peak is the same cell.
        pinned = [(image, phrase, (int(px), int(py), 1, 1))
                  for (image, phrase, _), (px, py) in zip(regions, points)]
        assert all(eval_pointing(model, pinned, cfg).hits)


def _per_region_oracle(image_maps, embedding, top_k, image_size):
    """The heat and peak of one region as the single-region code computed them before
    the batched path: a stable top-k, a ``tensordot`` of the magnitudes with the
    selected maps, and the first flat argmax at its cell's pixel center."""
    idx = np.sort(np.argsort(-embedding, kind="stable")[:top_k])
    heat = np.tensordot(np.abs(embedding[idx]), image_maps[idx], axes=1)
    h, w = heat.shape
    row, col = divmod(int(np.argmax(heat)), w)
    return heat, ((col + 0.5) * image_size[1] / w, (row + 0.5) * image_size[0] / h)


def _image_maps(stack, weight):
    """One image's (d, h, w) maps from its own (C, h, w) stack: the per-image product."""
    c, h, w = stack.shape
    return (weight @ stack.reshape(c, h * w)).reshape(weight.shape[0], h, w)


def _every_phrase_on_every_image(dataset):
    """Every phrase of the set asked of every image, plus 48x48 crops of three images."""
    crops = [np.ascontiguousarray(s.image[:, 16:64, 0:48]) for s in dataset.scenes[:3]]
    images = [s.image for s in dataset.scenes] + crops
    phrases = sorted({phrase for s in dataset.scenes for phrase, _ in s.regions})
    return images, phrases


class TestBatchedPointingMatchesThePerRegionOracle:
    @pytest.mark.parametrize("top_k", [1, 5, 64])
    def test_heat_and_peaks_are_bit_equal(self, top_k):
        dataset = generate_dataset(5, seed=21)
        model = Model.initialize(ModelConfig(), dataset.vocab, seed=4)
        weight = model.params["proj.weight"].data
        images, phrases = _every_phrase_on_every_image(dataset)
        with no_grad():
            embeddings = model.encode_texts(phrases).data
        picked = top_k_indices(embeddings, top_k)
        weights = np.abs(np.take_along_axis(embeddings, picked, axis=1))
        for size in {image.shape for image in images}:
            group = [image for image in images if image.shape == size]
            with no_grad():
                _, stacks = model.pooled_features(group)
            maps = activation_maps(stacks.data, weight)
            # One phrase asked of many images: region r is (image r // P, phrase r % P).
            image_of = np.repeat(np.arange(len(group)), len(phrases))
            rows = np.tile(np.arange(len(phrases)), len(group))
            heat = region_heat(maps, image_of, weights[rows], picked[rows])
            px, py = peak_points(heat, size[1:])
            for r, (i, p) in enumerate(zip(image_of, rows)):
                with no_grad():
                    _, stack = model.encode_image(group[i])
                image_maps = _image_maps(stack.data[:, 0], weight)
                np.testing.assert_array_equal(maps[i], image_maps)
                want_heat, want_peak = _per_region_oracle(image_maps, embeddings[p], top_k,
                                                          size[1:])
                np.testing.assert_array_equal(heat[r], want_heat)
                assert (px[r], py[r]) == want_peak

    @pytest.mark.parametrize("top_k", [1, 64])
    def test_two_sizes_in_one_call_score_the_oracle_peaks(self, top_k):
        dataset = generate_dataset(5, seed=22)
        model = Model.initialize(ModelConfig(), dataset.vocab, seed=6)
        weight = model.params["proj.weight"].data
        images, phrases = _every_phrase_on_every_image(dataset)
        peaks = {}
        for image in images:
            with no_grad():
                _, stack = model.encode_image(image)
            for phrase in phrases:
                with no_grad():
                    v = model.encode_text(phrase).data
                peaks[id(image), phrase] = _per_region_oracle(
                    _image_maps(stack.data[:, 0], weight), v, top_k, image.shape[1:])[1]
        queries = [(image, phrase) for phrase in phrases for image in images]
        order = np.random.default_rng(1).permutation(len(queries))
        queries = [queries[i] for i in order]
        # A one-pixel box on the oracle's peak hits; the same box one pixel left misses.
        on = [(image, phrase, (int(peaks[id(image), phrase][0]), int(peaks[id(image), phrase][1]),
                               1, 1)) for image, phrase in queries]
        off = [(image, phrase, (x - 1, y, 1, 1)) for image, phrase, (x, y, _, _) in on]
        report = eval_pointing(model, on + off, LocalizationConfig(top_k=top_k))
        assert report.hits == [True] * len(on) + [False] * len(off)

    def test_a_constant_stack_peaks_at_the_first_cell(self):
        oracle, regions = build_oracle_case(np.random.default_rng(7), n_scenes=3)
        flat = {key: np.full_like(stack, 0.25) for key, stack in oracle.stacks.items()}
        model = _OracleModel(list(oracle.phrase_index), flat)
        first = [(image, phrase, (8, 8, 1, 1)) for image, phrase, _ in regions]   # (8, 8): cell 0
        second = [(image, phrase, (24, 8, 1, 1)) for image, phrase, _ in regions]
        report = eval_pointing(model, first + second, LocalizationConfig(top_k=2))
        assert report.hits == [True] * 3 + [False] * 3
        heat = region_heat(np.full((2, 3, 4, 4), 0.25), [1, 0], np.ones((2, 2)),
                           np.array([[0, 2], [1, 2]]))
        assert [p.tolist() for p in peak_points(heat, (64, 64))] == [[8.0, 8.0], [8.0, 8.0]]

    def test_top_k_above_the_embedding_size_fails_before_any_image_encodes(self):
        oracle, regions = build_oracle_case(np.random.default_rng(8), n_scenes=3)
        model = _CountingModel(list(oracle.phrase_index), oracle.stacks)
        with pytest.raises(ShapeError, match="exceeds embedding size 3"):
            eval_pointing(model, regions, LocalizationConfig(top_k=4))
        assert model.image_calls == []
