"""Localization: activation maps, top-k selection, heatmaps, peak extraction."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semvis import autodiff as ad
from semvis.autodiff import Tensor, no_grad
from semvis.data import generate_dataset
from semvis.localize import (LocalizationConfig, activation_maps, bilinear_resize, heatmap,
                             point, render_heatmap, top_k_indices)
from semvis.model import Model, ModelConfig
from semvis.ppm import read_ppm

RNG = np.random.default_rng(21)


class TestActivationMaps:
    def test_identity_matrix_passes_through(self):
        stack = RNG.normal(size=(4, 1, 3, 3))
        np.testing.assert_array_equal(activation_maps(stack, np.eye(4))[0], stack[:, 0])

    def test_single_pixel_grid_is_a_matvec(self):
        stack = RNG.normal(size=(5, 1, 1, 1))
        mat = RNG.normal(size=(3, 5))
        out = activation_maps(stack, mat)
        np.testing.assert_array_equal(out[0, :, 0, 0], mat @ stack[:, 0, 0, 0])

    def test_bit_equal_to_1x1_convolution(self):
        stack = RNG.normal(size=(6, 1, 4, 5))
        mat = RNG.normal(size=(3, 6))
        got = activation_maps(stack, mat)
        conv = ad.conv2d(Tensor(stack), Tensor(mat.reshape(3, 6, 1, 1))).data
        np.testing.assert_array_equal(got[0], conv[:, 0])


class TestTopK:
    def test_two_largest_signed_entries(self):
        idx = top_k_indices(np.array([0.1, 0.9, -0.3, 0.2]), k=2)
        assert set(idx.tolist()) == {1, 3}

    def test_k_equal_to_dim_selects_all(self):
        idx = top_k_indices(RNG.normal(size=6), k=6)
        np.testing.assert_array_equal(idx, np.arange(6))

    def test_signed_rule_ignores_large_negative_entries(self):
        idx = top_k_indices(np.array([0.8, -0.6]), k=1)
        np.testing.assert_array_equal(idx, [0])

    def test_abs_ranking_variant(self):
        v = np.array([0.5, -0.9])
        np.testing.assert_array_equal(top_k_indices(v, 1), [0])

    def test_ties_break_to_the_lower_index(self):
        np.testing.assert_array_equal(top_k_indices(np.array([0.5, 0.7, 0.7]), 1), [1])

    def test_k_beyond_dim_rejected(self):
        from semvis.errors import ShapeError
        with pytest.raises(ShapeError):
            top_k_indices(np.zeros(3), 4)


class TestHeatmap:
    def test_single_map_with_unit_weight(self):
        maps = RNG.normal(size=(1, 2, 2))
        heat = heatmap(maps, np.array([1.0]), LocalizationConfig(top_k=1))
        np.testing.assert_array_equal(heat, maps[0])

    def test_zero_weight_from_signed_selection(self):
        # Top entry is the zero at index 1, so its map contributes nothing.
        maps = RNG.normal(size=(2, 2, 2))
        heat = heatmap(maps, np.array([-1.0, 0.0]), LocalizationConfig(top_k=1))
        np.testing.assert_array_equal(heat, np.zeros((2, 2)))

    def test_full_selection_matches_brute_force(self):
        maps = RNG.normal(size=(7, 3, 3))
        v = RNG.normal(size=7)
        heat = heatmap(maps, v, LocalizationConfig(top_k=7))
        want = sum(abs(v[u]) * maps[u] for u in range(7))
        np.testing.assert_allclose(heat, want, rtol=1e-13)

    def test_full_selection_invariant_to_summation_order(self):
        maps = RNG.normal(size=(5, 2, 2))
        v = RNG.normal(size=5)
        heat = heatmap(maps, v, LocalizationConfig(top_k=5))
        order = RNG.permutation(5)
        want = np.zeros((2, 2))
        for u in order:
            want += abs(v[u]) * maps[u]
        np.testing.assert_allclose(heat, want, rtol=1e-12)

    def test_positive_homogeneity_in_the_weights(self):
        maps = RNG.normal(size=(4, 2, 2))
        v = RNG.normal(size=4)
        cfg = LocalizationConfig(top_k=4)
        a = heatmap(maps, v, cfg)
        b = heatmap(maps, 3.0 * v, cfg)
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-12)


class TestPoint:
    def test_hand_example_on_2x2_grid(self):
        assert point(np.array([[0.0, 5.0], [1.0, 2.0]]), (64, 64)) == (48.0, 16.0)

    def test_constant_map_takes_the_first_cell(self):
        assert point(np.ones((2, 2)), (64, 64)) == (16.0, 16.0)

    def test_matches_exhaustive_scan(self):
        values = RNG.normal(size=(4, 4))
        best = None
        for i in range(4):
            for j in range(4):
                if best is None or values[i, j] > values[best[0], best[1]]:
                    best = (i, j)
        assert point(values, (64, 64)) == ((best[1] + 0.5) * 16.0, (best[0] + 0.5) * 16.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_point_always_inside_the_image(self, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        s = int(rng.integers(1, 20))
        px, py = point(rng.normal(size=(h, w)), (h * s, w * s))
        assert 0.0 <= px < w * s and 0.0 <= py < h * s


def _gather_resize(arr, out_h, out_w):
    """Oracle: bilinear resampling by four 2-D gathers of the corner values."""
    h, w = arr.shape
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    top = arr[np.ix_(y0, x0)] * (1 - wx) + arr[np.ix_(y0, x1)] * wx
    bottom = arr[np.ix_(y1, x0)] * (1 - wx) + arr[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


class TestBilinearAndRender:
    def test_ramp_upsampling_matches_hand_values(self):
        ramp = np.array([[0.0, 1.0], [2.0, 3.0]])
        got = bilinear_resize(ramp, 4, 4)
        want = np.array([
            [0.0, 0.25, 0.75, 1.0],
            [0.5, 0.75, 1.25, 1.5],
            [1.5, 1.75, 2.25, 2.5],
            [2.0, 2.25, 2.75, 3.0],
        ])
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_identity_when_sizes_match(self):
        arr = RNG.normal(size=(3, 5))
        np.testing.assert_allclose(bilinear_resize(arr, 3, 5), arr, rtol=1e-14)

    @pytest.mark.parametrize("shape, out", [((4, 4), (64, 64)), ((3, 5), (7, 2)),
                                            ((9, 6), (4, 13)), ((1, 1), (5, 3))])
    def test_bit_equal_to_the_two_dimensional_gather(self, shape, out):
        arr = RNG.normal(size=shape)
        np.testing.assert_array_equal(bilinear_resize(arr, *out), _gather_resize(arr, *out))

    def test_constant_map_renders_black(self, tmp_path):
        image = np.zeros((3, 32, 32), dtype=np.uint8)
        pgm, _ = render_heatmap(np.full((2, 2), 3.7), image, str(tmp_path / "out"))
        with open(pgm, "rb") as fh:
            fh.readline(), fh.readline(), fh.readline()
            assert set(fh.read()) == {0}

    def test_single_cell_map_gives_uniform_overlay(self, tmp_path):
        image = np.full((3, 16, 16), 100, dtype=np.uint8)
        _, ppm = render_heatmap(np.array([[4.0]]), image, str(tmp_path / "uni"))
        overlay = read_ppm(ppm)
        assert np.unique(overlay).size == 1  # constant in every channel

    def test_peak_cell_renders_brightest(self, tmp_path):
        values = np.array([[0.0, 1.0], [0.3, 0.6]])
        image = np.zeros((3, 32, 32), dtype=np.uint8)
        pgm, ppm = render_heatmap(values, image, str(tmp_path / "peak"))
        with open(pgm, "rb") as fh:
            for _ in range(3):
                fh.readline()
            gray = np.frombuffer(fh.read(), dtype=np.uint8).reshape(32, 32)
        assert gray.max() == 255
        peak_row, peak_col = np.unravel_index(np.argmax(gray), gray.shape)
        assert 0 <= peak_row < 16 and 16 <= peak_col < 32  # inside the peak cell block


# sha256 over every region's single-region heatmap values and peak, for the
# regions of generate_dataset(12, seed=5) and of 48x48 crops of its first four
# images, on Model.initialize(ModelConfig(), vocab, seed=3) at the default top_k.
GOLDEN_POINTING = "f8e9f6be32433e283c0a15a9a92362b741cdb02580aa1c13c6acc0ae2d89bf4a"


class TestPointingPin:
    def test_single_region_heat_and_peaks_are_pinned(self):
        dataset = generate_dataset(12, seed=5)
        crops = [(np.ascontiguousarray(s.image[:, 8:56, 16:64]), s) for s in dataset.scenes[:4]]
        regions = list(dataset.regions()) + [(crop, phrase, (0, 0, 16, 16))
                                             for crop, scene in crops for phrase, _ in scene.regions]
        model = Model.initialize(ModelConfig(), dataset.vocab, seed=3)
        cfg = LocalizationConfig(top_k=model.cfg.effective_top_k())
        digest = hashlib.sha256()
        with no_grad():
            for image, phrase, _ in regions:
                _, stack = model.encode_image(image)
                maps = activation_maps(stack.data, model.params["proj.weight"].data)[0]
                heat = heatmap(maps, model.encode_text(phrase).data, cfg)
                digest.update(heat.tobytes() + struct.pack("<2d", *point(heat, image.shape[1:])))
        assert digest.hexdigest() == GOLDEN_POINTING
