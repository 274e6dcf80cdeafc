"""Visual path: backbone shapes, adaptation, pooling modes, projection."""

import numpy as np
import pytest

from conftest import naive_conv2d, weighted_sum
from semvis.autodiff import Tensor
from semvis.errors import ShapeError
from semvis.model import Model, ModelConfig, init_params, param_shapes
from semvis.text import Vocab
from semvis.visual import (POOL_MAX_MIN, POOL_MEAN, adapt, backbone_forward, image_to_tensor,
                           pool, project)

RNG = np.random.default_rng(123)


def make_params(cfg=ModelConfig(), seed=0):
    # The visual tensors come first in the table, so they are drawn as they
    # would be alone; the text tensors drawn after them go unused.
    return init_params(param_shapes(cfg, 1), np.random.default_rng(seed))


def make_model(cfg=ModelConfig(), seed=0):
    """A ``Model`` over ``make_params``, with the one-token vocabulary they were drawn for."""
    return Model(cfg, Vocab([]), make_params(cfg, seed))


class TestBackbone:
    def test_zero_image_zero_biases_gives_zero(self):
        params = make_params()
        out = backbone_forward(Tensor(np.zeros((3, 32, 32))), params)
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_minimal_image_collapses_to_1x1(self):
        params = make_params()
        out = backbone_forward(Tensor(RNG.random((3, 16, 16))), params)
        assert out.shape == (64, 1, 1)

    def test_output_is_relu_nonnegative(self):
        params = make_params()
        out = backbone_forward(Tensor(RNG.random((3, 32, 32))), params)
        assert (out.data >= 0).all()

    def test_indivisible_size_error_names_the_multiple(self):
        params = make_params()
        with pytest.raises(ShapeError, match="16"):
            backbone_forward(Tensor(np.zeros((3, 60, 64))), params)

    @pytest.mark.parametrize("shape", [(3, 0, 16), (3, 16, 0), (3, 2, 0, 0)])
    def test_empty_image_rejected(self, shape):
        with pytest.raises(ShapeError, match="positive"):
            backbone_forward(Tensor(np.zeros(shape)), make_params())

    def test_matches_naive_convolution_chain(self):
        """Independent loop-based recomputation of the whole stack, one cell compared
        exactly and then the full map."""
        params = make_params(seed=3)
        image = RNG.random((3, 64, 64))
        got = backbone_forward(Tensor(image), params).data
        assert got.shape == (64, 4, 4)

        ref = image
        for i in range(4):
            ref = naive_conv2d(ref, params[f"backbone.{i}.kernel"].data, stride=2, pad=1)
            ref = np.maximum(ref + params[f"backbone.{i}.bias"].data[:, None, None], 0.0)
        assert got[17, 2, 1] == pytest.approx(ref[17, 2, 1], rel=1e-12)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)


class TestAdapt:
    def test_identity_kernel_passes_through(self):
        feats = Tensor(RNG.random((4, 3, 3)))
        params = {"adapt.kernel": Tensor(np.eye(4).reshape(4, 4, 1, 1)),
                  "adapt.bias": Tensor(np.zeros(4))}
        np.testing.assert_array_equal(adapt(feats, params).data, feats.data)

    def test_zero_kernel_yields_bias_everywhere(self):
        feats = Tensor(RNG.random((4, 3, 3)))
        beta = np.array([1.0, -2.0, 0.5])
        params = {"adapt.kernel": Tensor(np.zeros((3, 4, 1, 1))), "adapt.bias": Tensor(beta)}
        out = adapt(feats, params).data
        np.testing.assert_array_equal(out, np.broadcast_to(beta[:, None, None], (3, 3, 3)))

    def test_matches_reshaped_matmul(self):
        feats = RNG.random((5, 2, 3))
        kernel = RNG.normal(size=(4, 5, 1, 1))
        bias = RNG.normal(size=4)
        out = adapt(Tensor(feats), {"adapt.kernel": Tensor(kernel), "adapt.bias": Tensor(bias)}).data
        want = (kernel[:, :, 0, 0] @ feats.reshape(5, -1) + bias[:, None]).reshape(4, 2, 3)
        np.testing.assert_allclose(out, want, rtol=1e-13)


class TestPool:
    def test_max_min_hand_value(self):
        stack = Tensor([[[1.0, -2.0], [3.0, 0.0]]])
        np.testing.assert_array_equal(pool(stack, POOL_MAX_MIN).data, [1.0])

    def test_mean_hand_value(self):
        stack = Tensor([[[1.0, -2.0], [3.0, 0.0]]])
        np.testing.assert_array_equal(pool(stack, POOL_MEAN).data, [0.5])

    def test_modes_differ_on_skewed_map(self):
        stack = Tensor([[[0.0, 0.0], [0.0, 8.0]]])
        assert pool(stack, POOL_MAX_MIN).item() == 8.0
        assert pool(stack, POOL_MEAN).item() == 2.0

    def test_modes_have_identical_shape(self):
        stack = Tensor(RNG.random((7, 4, 4)))
        assert pool(stack, POOL_MAX_MIN).shape == pool(stack, POOL_MEAN).shape == (7,)


class TestProject:
    def test_identity_matrix_reduces_to_normalization(self):
        h = np.zeros(5)
        h[0], h[1] = 3.0, 4.0
        params = {"proj.weight": Tensor(np.eye(5)), "proj.bias": Tensor(np.zeros(5))}
        out = project(Tensor(h), params).data
        np.testing.assert_allclose(out, [0.6, 0.8, 0.0, 0.0, 0.0], atol=1e-15)

    def test_zero_matrix_returns_normalized_bias(self):
        b = np.array([1.0, 2.0, 2.0])
        params = {"proj.weight": Tensor(np.zeros((3, 5))), "proj.bias": Tensor(b)}
        out = project(Tensor(RNG.random(5)), params).data
        np.testing.assert_allclose(out, b / 3.0, rtol=1e-15)

    def test_output_is_unit_norm(self):
        params = {"proj.weight": Tensor(RNG.normal(size=(6, 5))),
                  "proj.bias": Tensor(RNG.normal(size=6))}
        out = project(Tensor(RNG.random(5)), params).data
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_train_mode_dropout_changes_result(self):
        params = {"proj.weight": Tensor(RNG.normal(size=(6, 32))), "proj.bias": Tensor(np.zeros(6))}
        h = Tensor(RNG.random(32) + 0.5)
        eval_out = project(h, params, dropout_p=0.5, training=False).data
        train_out = project(h, params, dropout_p=0.5, training=True, rng_key=(1, 2)).data
        assert not np.allclose(eval_out, train_out)


class TestEncodeImage:
    def test_composition_equals_manual_chain(self):
        cfg = ModelConfig()
        model = make_model(cfg, seed=9)
        params = model.params
        image = RNG.random((3, 64, 64))
        x, stack = model.encode_image(image)
        feats = backbone_forward(Tensor(image), params, len(cfg.hidden_channels) + 1)
        stack2 = adapt(feats, params)
        x2 = project(pool(stack2, cfg.pooling), params)
        np.testing.assert_array_equal(x.data, x2.data)
        np.testing.assert_array_equal(stack.data, stack2.data)

    def test_deterministic_in_eval_mode(self):
        model = make_model(seed=2)
        image = RNG.random((3, 32, 32))
        a, _ = model.encode_image(image)
        b, _ = model.encode_image(image)
        np.testing.assert_array_equal(a.data, b.data)

    def test_shape_contract_at_defaults(self):
        x, stack = make_model().encode_image(RNG.random((3, 64, 64)))
        assert x.shape == (64,) and stack.shape == (64, 4, 4)

    @pytest.mark.parametrize("side", [16, 32, 80])
    def test_variable_input_sizes(self, side):
        x, stack = make_model().encode_image(RNG.random((3, side, side)))
        assert x.shape == (64,)
        assert stack.shape == (64, side // 16, side // 16)
        assert abs(np.linalg.norm(x.data) - 1.0) <= 1e-12

    def test_different_images_embed_differently(self):
        model = make_model()
        a, _ = model.encode_image(RNG.random((3, 32, 32)))
        b, _ = model.encode_image(RNG.random((3, 32, 32)))
        assert not np.allclose(a.data, b.data)

    def test_gradient_reaches_every_parameter(self):
        cfg = ModelConfig(backbone_channels=8, hidden_channels=(4, 4, 4), adapt_channels=8,
                          embed_dim=8)
        model = make_model(cfg, seed=1)
        params = model.params
        x, _ = model.encode_image(np.random.default_rng(0).random((3, 16, 16)))
        weighted_sum((x, np.random.default_rng(1).normal(size=8))).backward()
        named = [params[n] for n in ("proj.weight", "proj.bias", "adapt.kernel", "adapt.bias")]
        named += [params[f"backbone.{i}.{k}"] for i in range(4) for k in ("kernel", "bias")]
        for tensor in named:
            assert tensor.grad is not None and np.any(tensor.grad != 0.0)

    def test_uint8_input_scaled_to_unit_range(self):
        img = (RNG.random((3, 16, 16)) * 255).astype(np.uint8)
        t = image_to_tensor(img)
        assert t.data.max() <= 1.0 and t.data.min() >= 0.0
        np.testing.assert_allclose(t.data, img.astype(np.float64) / 255.0, rtol=0)


class TestBatchedImages:
    def test_batch_rows_equal_one_image_encodes(self, micro_model):
        rng = np.random.default_rng(70)
        images = [(rng.random((3, 32, 32)) * 255).astype(np.uint8) for _ in range(3)]
        keys = [(2, 0, 5, j) for j in range(3)]
        for training in (False, True):
            rows = micro_model.encode_images(images, training=training, rng_keys=keys).data
            for image, key, row in zip(images, keys, rows):
                one, _ = micro_model.encode_image(image, training=training, rng_key=key)
                np.testing.assert_array_equal(row, one.data)

    def test_mixed_sizes_keep_input_order(self, micro_model):
        rng = np.random.default_rng(71)
        images = [rng.random((3, side, side)) for side in (16, 32, 16)]
        rows = micro_model.encode_images(images).data
        for image, row in zip(images, rows):
            np.testing.assert_array_equal(row, micro_model.encode_image(image)[0].data)

    def test_batch_stack_is_channel_major(self, micro_model):
        cfg = micro_model.cfg
        batch = np.random.default_rng(72).random((3, 2, 32, 32))
        pooled, stack = micro_model.pooled_features([batch[:, 0], batch[:, 1]])
        x = micro_model.project(pooled)
        assert x.shape == (2, cfg.embed_dim)
        assert stack.shape == (cfg.adapt_channels, 2, 2, 2)
        np.testing.assert_allclose(stack.data[:, 1], micro_model.encode_image(batch[:, 1])[1].data,
                                   rtol=1e-13, atol=1e-15)
