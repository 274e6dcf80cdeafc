"""Text path: tokenizer, vocabulary file, recurrent cell, sequence encoding."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sru_cell, sru_layer_oracle, weighted_sum, where_sigmoid
from semvis import autodiff as ad
from semvis.autodiff import Tensor
from semvis.errors import DegenerateInputError
from semvis.model import ModelConfig, init_params, param_shapes
from semvis.text import Vocab, _stable_sigmoid, encode_text, sru_layer, tokenize

VOCAB = Vocab(["a", "red", "circle", "blue", "square", "the", "is"])


class TestTokenize:
    def test_known_words_map_to_their_indices(self):
        ids = tokenize("A red circle.", VOCAB)
        assert ids == [VOCAB.lookup("a"), VOCAB.lookup("red"), VOCAB.lookup("circle")]
        assert 0 not in ids

    def test_out_of_vocabulary_becomes_unk(self):
        assert tokenize("xyzzy", VOCAB) == [0]

    def test_case_folding(self):
        ids = tokenize("Red RED red", VOCAB)
        assert len(set(ids)) == 1 and ids[0] == VOCAB.lookup("red")

    def test_punctuation_is_a_separator(self):
        assert tokenize("red,circle!", VOCAB) == tokenize("red circle", VOCAB)

    @pytest.mark.parametrize("text", ["", "   ", "?!;"])
    def test_empty_after_split_rejected(self, text):
        with pytest.raises(DegenerateInputError):
            tokenize(text, VOCAB)


class TestVocabFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        VOCAB.to_file(path)
        assert Vocab.from_file(path) == VOCAB
        assert path.read_text().splitlines()[0] == "<unk>"

    def test_missing_unk_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nred\n")
        with pytest.raises(ValueError):
            Vocab.from_file(path)

    # A dropped line would move every later token's index down by one.
    @pytest.mark.parametrize("lines, bad", [(["<unk>", "a", "<unk>", "red"], 2),
                                            (["<unk>", "a", "", "red"], 2),
                                            (["<unk>", "a", "red", "a"], 3)])
    def test_bad_line_rejected_with_its_number(self, tmp_path, lines, bad):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"vocab.txt: line {bad}: "):
            Vocab.from_file(path)
        with pytest.raises(ValueError, match=f"vocabulary index {bad}: "):
            Vocab(lines[1:])


def zero_layer(hidden, in_dim=None):
    """Layer 0's tensors, all zero."""
    in_dim = hidden if in_dim is None else in_dim
    layer = {"sru.0.weight": Tensor(np.zeros((3 * hidden, in_dim)), requires_grad=True),
             "sru.0.bias_f": Tensor(np.zeros(hidden), requires_grad=True),
             "sru.0.bias_r": Tensor(np.zeros(hidden), requires_grad=True)}
    if in_dim != hidden:
        layer["sru.0.proj"] = Tensor(np.zeros((hidden, in_dim)), requires_grad=True)
    return layer


def random_layer(hidden, in_dim, seed):
    """Layer 0's tensors, normal(0, 0.5)."""
    rng = np.random.default_rng(seed)
    layer = {}
    if in_dim != hidden:
        layer["sru.0.proj"] = Tensor(rng.normal(scale=0.5, size=(hidden, in_dim)),
                                     requires_grad=True)
    layer["sru.0.weight"] = Tensor(rng.normal(scale=0.5, size=(3 * hidden, in_dim)),
                                   requires_grad=True)
    layer["sru.0.bias_f"] = Tensor(rng.normal(scale=0.5, size=hidden), requires_grad=True)
    layer["sru.0.bias_r"] = Tensor(rng.normal(scale=0.5, size=hidden), requires_grad=True)
    return layer


def text_params(word_dim, hidden, layers, rng):
    """A config and its word table and recurrent layers, drawn from ``rng`` in
    ``Model.initialize``'s order."""
    cfg = ModelConfig(word_dim=word_dim, embed_dim=hidden, sru_layers=layers)
    shapes = {n: s for n, s in param_shapes(cfg, len(VOCAB)).items()
              if n.startswith(("word.", "sru."))}
    return cfg, init_params(shapes, rng)


class TestSruCell:
    def test_all_zero_weights_halve_the_input(self):
        # sigmoid(0) = 0.5 and tanh(0) = 0, so h = 0.5 * x and the carry stays 0.
        layer = zero_layer(4)
        x = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
        h, c = sru_cell(x, Tensor(np.zeros(4)), layer)
        np.testing.assert_array_equal(c.data, np.zeros(4))
        np.testing.assert_allclose(h.data, 0.5 * x.data, rtol=1e-15)

    def test_saturated_forget_gate_preserves_the_carry(self):
        layer = zero_layer(3)
        layer["sru.0.bias_f"] = Tensor(np.full(3, 40.0))
        c_prev = Tensor(np.array([1.0, -1.0, 2.0]))
        _, c = sru_cell(Tensor(np.zeros(3)), c_prev, layer)
        np.testing.assert_allclose(c.data, c_prev.data, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        layer = random_layer(hidden=4, in_dim=3, seed=0)
        x = Tensor(np.random.default_rng(1).normal(size=3), requires_grad=True)
        c_prev = Tensor(np.random.default_rng(2).normal(size=4), requires_grad=True)
        w1 = Tensor(np.random.default_rng(3).normal(size=4))
        w2 = Tensor(np.random.default_rng(4).normal(size=4))

        def f():
            h, c = sru_cell(x, c_prev, layer)
            return weighted_sum((h, w1), (c, w2))

        params = [x, c_prev, layer["sru.0.weight"], layer["sru.0.bias_f"],
                  layer["sru.0.bias_r"], layer["sru.0.proj"]]
        assert ad.grad_check(f, params) < 1e-5

    def test_equal_width_cell_without_projection(self):
        layer = random_layer(hidden=4, in_dim=4, seed=5)
        assert "sru.0.proj" not in layer
        x = Tensor(np.random.default_rng(6).normal(size=4), requires_grad=True)

        def f():
            h, _ = sru_cell(x, Tensor(np.zeros(4)), layer)
            return weighted_sum((h, 1.0))

        assert ad.grad_check(f, [x, layer["sru.0.weight"]]) < 1e-5


class TestSruLayerFusion:
    """The single-node layer must match the op-by-op cell chain exactly."""

    @pytest.mark.parametrize("in_dim,hidden,t_len", [(3, 4, 1), (4, 4, 5), (3, 5, 7)])
    def test_forward_matches_chained_cells(self, in_dim, hidden, t_len):
        layer = random_layer(hidden, in_dim, seed=in_dim * 100 + t_len)
        x = np.random.default_rng(0).normal(size=(t_len, in_dim))
        fused = sru_layer(Tensor(x), layer)
        c = Tensor(np.zeros(hidden))
        for t in range(t_len):
            h, c = sru_cell(Tensor(x[t]), c, layer)
            np.testing.assert_allclose(fused.data[t], h.data, rtol=1e-13, atol=1e-15)

    def test_gradients_match_chained_cells(self):
        layer = random_layer(hidden=4, in_dim=3, seed=9)
        x = np.random.default_rng(1).normal(size=(5, 3))
        w = np.random.default_rng(2).normal(size=(5, 4))

        def tensors():
            return (Tensor(x, requires_grad=True), random_layer(hidden=4, in_dim=3, seed=9))

        x_a, layer_a = tensors()
        out = sru_layer(x_a, layer_a)
        weighted_sum((out, w)).backward()

        x_b, layer_b = tensors()
        c = Tensor(np.zeros(4))
        hs = []
        for t in range(5):
            h, c = sru_cell(ad.take_row(x_b, t), c, layer_b)
            hs.append(h)
        weighted_sum(*zip(hs, w)).backward()

        np.testing.assert_allclose(x_a.grad, x_b.grad, rtol=1e-12, atol=1e-14)
        for name in ("sru.0.weight", "sru.0.bias_f", "sru.0.bias_r", "sru.0.proj"):
            np.testing.assert_allclose(layer_a[name].grad, layer_b[name].grad,
                                       rtol=1e-12, atol=1e-14)

    def test_gradient_against_finite_differences(self):
        layer = random_layer(hidden=3, in_dim=3, seed=4)
        x = Tensor(np.random.default_rng(5).normal(size=(4, 3)), requires_grad=True)
        w = Tensor(np.random.default_rng(6).normal(size=(4, 3)))

        def f():
            return weighted_sum((sru_layer(x, layer), w))

        assert ad.grad_check(f, [x, layer["sru.0.weight"], layer["sru.0.bias_f"],
                                 layer["sru.0.bias_r"]]) < 1e-5


def oracle_and_kernel(x, w, make_layer):
    """[output, x grad, layer grads by name] from ``sru_layer_oracle`` and from
    ``sru_layer``, each on a fresh layer and the loss sum(out * w)."""
    results = []
    for layer_fn in (sru_layer_oracle, sru_layer):
        layer = make_layer()
        x_t = Tensor(x, requires_grad=True)
        out = layer_fn(x_t, layer)
        weighted_sum((out, w)).backward()
        results.append([out.data, x_t.grad] + [layer[k].grad for k in sorted(layer)])
    return results


class TestSruLayerBytes:
    """The in-place kernel against the allocating one it replaced, byte for byte."""

    # hidden 1 leaves the bias sums over T one axis, which numpy adds pairwise from T = 8.
    @pytest.mark.parametrize("hidden", [1, 5])
    @pytest.mark.parametrize("with_proj", [False, True])
    @pytest.mark.parametrize("n", [None, 1, 2, 32])   # None: one (T, in) sequence
    @pytest.mark.parametrize("t_len", range(1, 10))
    def test_output_and_gradients_match_the_oracle(self, t_len, n, with_proj, hidden):
        in_dim = 3 if with_proj else hidden
        seed = 1000 * t_len + 10 * (n or 0) + 2 * hidden + with_proj
        rng = np.random.default_rng(seed)
        lead = () if n is None else (n,)
        x = rng.normal(size=(*lead, t_len, in_dim))
        w = rng.normal(size=(*lead, t_len, hidden))
        far = rng.uniform(-800.0, 800.0, size=2)   # gate pre-activations up to +-800

        def make_layer():
            layer = random_layer(hidden, in_dim, seed)
            if hidden > 1:   # beside units whose gates are not saturated
                layer["sru.0.bias_f"].data[:3] = (800.0, -800.0, far[0])
                layer["sru.0.bias_r"].data[:3] = (-800.0, 800.0, far[1])
            return layer

        want, got = oracle_and_kernel(x, w, make_layer)
        assert len(got) == (6 if with_proj else 5)
        for a, b in zip(want, got):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf])
    def test_a_non_finite_input_gives_the_oracles_bytes(self, bad):
        # NaN payloads and sign bits follow operand order, so this pins that too.
        x = np.random.default_rng(7).normal(size=(2, 6, 3))
        x[0, 2, 1] = x[1, 5, 0] = bad
        with np.errstate(invalid="ignore"):
            want, got = oracle_and_kernel(x, np.ones((2, 6, 4)), lambda: random_layer(4, 3, 8))
        for a, b in zip(want, got):
            assert a.tobytes() == b.tobytes()


class TestStableSigmoid:
    SPECIAL = np.array([0.0, 5e-324, 1e-300, 36.7, 709.8, 745.0, 800.0, np.inf])

    def test_bytes_match_the_where_form(self):
        for v in np.concatenate([self.SPECIAL, -self.SPECIAL]):   # -0.0 included
            assert _stable_sigmoid(np.array([v])).tobytes() == where_sigmoid(np.array([v])).tobytes()
        x = np.concatenate([self.SPECIAL, -self.SPECIAL,
                            np.random.default_rng(21).normal(size=10 ** 6) * 40.0])
        assert _stable_sigmoid(x).tobytes() == where_sigmoid(x).tobytes()

    @pytest.mark.parametrize("size", [1, 2, 1001])
    def test_nan_stays_nan_with_the_where_forms_sign_bit(self, size):
        x = np.full(size, np.nan)
        x[1::2] = -np.nan
        out = _stable_sigmoid(x)
        assert np.isnan(out).all() and np.signbit(out).all()
        assert out.tobytes() == where_sigmoid(x).tobytes()


class TestEncodeText:
    def test_single_token_zero_weights(self):
        # One zero-weight layer of matching width: v = normalize(0.5 * x) = x / |x|.
        cfg, params = text_params(4, 4, 1, np.random.default_rng(0))
        params.update(zero_layer(4))
        v = encode_text([2], params, cfg)
        row = params["word.table"].data[2]
        np.testing.assert_allclose(v.data, row / np.linalg.norm(row), rtol=1e-14)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_unit_norm_for_any_length(self, length, seed):
        rng = np.random.default_rng(seed)
        cfg, params = text_params(3, 5, 2, rng)
        tokens = rng.integers(0, len(VOCAB), size=length).tolist()
        v = encode_text(tokens, params, cfg)
        assert v.shape == (5,)
        assert abs(np.linalg.norm(v.data) - 1.0) <= 1e-12

    def test_token_order_matters(self):
        rng = np.random.default_rng(11)
        cfg, params = text_params(4, 4, 2, rng)
        fwd = encode_text([1, 2, 3], params, cfg).data
        rev = encode_text([3, 2, 1], params, cfg).data
        assert not np.allclose(fwd, rev)

    def test_empty_sequence_rejected(self):
        cfg, params = text_params(4, 4, 1, np.random.default_rng(0))
        with pytest.raises(DegenerateInputError):
            encode_text([], params, cfg)

    def test_gradient_reaches_exactly_the_used_rows(self):
        rng = np.random.default_rng(12)
        cfg, params = text_params(4, 5, 2, rng)
        v = encode_text([2, 5, 2], params, cfg)
        weighted_sum((v, rng.normal(size=5))).backward()
        used = np.any(params["word.table"].grad != 0.0, axis=1)
        np.testing.assert_array_equal(np.nonzero(used)[0], [2, 5])

    def test_eval_mode_is_deterministic(self):
        rng = np.random.default_rng(13)
        cfg, params = text_params(4, 4, 2, rng)
        a = encode_text([1, 2, 3], params, cfg).data
        b = encode_text([1, 2, 3], params, cfg).data
        np.testing.assert_array_equal(a, b)

    def test_interlayer_dropout_only_in_train_mode(self):
        rng = np.random.default_rng(14)
        cfg, params = text_params(4, 4, 2, rng)
        cfg = replace(cfg, sru_dropout=0.25)
        eval_v = encode_text([1, 2], params, cfg, training=False).data
        train_v = encode_text([1, 2], params, cfg, training=True, rng_key=(0, 0)).data
        train_v2 = encode_text([1, 2], params, cfg, training=True, rng_key=(0, 0)).data
        assert not np.allclose(eval_v, train_v)
        np.testing.assert_array_equal(train_v, train_v2)


class TestBatchedText:
    def test_batched_layer_rows_equal_single_sequences(self):
        layer = random_layer(hidden=4, in_dim=3, seed=12)
        x = np.random.default_rng(13).normal(size=(3, 5, 3))
        batched = sru_layer(Tensor(x), layer).data
        for j in range(3):
            np.testing.assert_array_equal(batched[j], sru_layer(Tensor(x[j]), layer).data)

    def test_two_length_buckets_gradient(self, micro_model):
        seqs = [[1, 2], [3, 4, 5], [2, 6], [1, 1, 3]]    # lengths 2 and 3, interleaved
        micro_model.params["word.table"].data *= 10.0   # keeps the differences well conditioned
        w = np.random.default_rng(14).normal(size=(4, micro_model.cfg.embed_dim))
        params = {n: p for n, p in micro_model.params.items() if n.startswith(("sru.", "word."))}

        def f():
            return weighted_sum((micro_model.encode_texts(seqs), w))

        assert ad.grad_check(f, list(params.values())) < 1e-5
        ad.zero_grads(params.values())
        f().backward()
        batched = {n: p.grad for n, p in params.items()}
        ad.zero_grads(params.values())
        weighted_sum(*((micro_model.encode_text(seq), row) for seq, row in zip(seqs, w))).backward()
        for name, p in params.items():
            np.testing.assert_allclose(batched[name], p.grad, rtol=1e-12, atol=1e-13)

    def test_batch_rows_equal_one_caption_encodes(self, micro_model):
        texts = ["a red circle", "the square is blue", "a blue circle", "red"]
        keys = [(4, 0, 1, j) for j in range(4)]
        for training in (False, True):
            rows = micro_model.encode_texts(texts, training=training, rng_keys=keys).data
            for text, key, row in zip(texts, keys, rows):
                one = micro_model.encode_text(text, training=training, rng_key=key).data
                np.testing.assert_array_equal(row, one)
