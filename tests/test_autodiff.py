"""Tensor engine tests: hand values, exhaustive oracles, finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (add_channel_bias, mul, naive_conv2d, np_pad_conv2d, relu, scale, sigmoid,
                      slice_rows, tanh, weighted_sum)
from semvis import autodiff as ad
from semvis.autodiff import Tensor
from semvis.errors import DegenerateInputError, GraphError, ShapeError


def randt(seed, *shape, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


class TestConv2d:
    def test_1x1_kernel_doubles(self):
        x = randt(0, 1, 3, 3)
        k = Tensor(np.full((1, 1, 1, 1), 2.0))
        np.testing.assert_array_equal(ad.conv2d(x, k).data, 2.0 * x.data)

    def test_full_kernel_sums_entries(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        k = Tensor(np.ones((1, 1, 2, 2)))
        np.testing.assert_array_equal(ad.conv2d(x, k).data, [[[10.0]]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for stride, pad in [(1, 0), (1, 1), (2, 1), (3, 2)]:
            x = rng.normal(size=(2, 7, 6))
            k = rng.normal(size=(3, 2, 3, 3))
            got = ad.conv2d(Tensor(x), Tensor(k), stride=stride, pad=pad).data
            np.testing.assert_allclose(got, naive_conv2d(x, k, stride, pad), rtol=1e-13)

    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_equals_np_pad_oracle_exactly(self, pad, stride):
        rng = np.random.default_rng(10 * pad + stride)
        x = Tensor(rng.normal(size=(3, 8, 7)))
        k = Tensor(rng.normal(size=(4, 3, 3, 3)))
        np.testing.assert_array_equal(ad.conv2d(x, k, stride=stride, pad=pad).data,
                                      np_pad_conv2d(x, k, stride, pad).data)

    @staticmethod
    def _assert_matches_per_offset_reference(x, kernel, stride, pad, seed):
        """Output and every gradient of ``conv2d`` against ``np_pad_conv2d``, bit for bit."""
        rng = np.random.default_rng(seed)
        b = rng.normal(size=kernel.shape[0])
        for bias, relu in [(False, False), (True, True)]:
            results = []
            for conv in (ad.conv2d, np_pad_conv2d):
                xs, ks = Tensor(x, requires_grad=True), Tensor(kernel, requires_grad=True)
                bs = Tensor(b, requires_grad=True) if bias else None
                out = conv(xs, ks, stride, pad, bias=bs, relu=relu)
                weights = Tensor(np.random.default_rng(seed + 1).normal(size=out.shape))
                weighted_sum((out, weights)).backward()
                results.append((out.data, xs.grad, ks.grad, bs.grad if bias else 0.0))
            for got, want in zip(*results):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("stride,pad,kernel_hw,shape", [
        (1, 0, (3, 3), (2, 3, 6, 5)),
        (1, 1, (3, 2), (2, 1, 5, 7)),
        (2, 1, (3, 3), (3, 3, 8, 8)),
        (2, 0, (3, 2), (2, 3, 8, 9)),     # (h - kh) % stride != 0 on both sides
        (3, 1, (3, 2), (2, 3, 9, 7)),
        (3, 2, (3, 3), (2, 1, 8, 7)),
        (1, 0, (1, 1), (4, 3, 3, 5)),
        (2, 2, (1, 1), (2, 3, 5, 4)),     # pad >= kh: the border outputs read only padding
        (3, 2, (2, 1), (2, 3, 4, 4)),     # pad >= kh and kw
        (2, 1, (3, 3), (3, 8, 8)),        # one image, no batch axis
    ])
    def test_equals_per_offset_reference_bit_for_bit(self, stride, pad, kernel_hw, shape):
        rng = np.random.default_rng(sum(shape) + 10 * stride + pad)
        x = rng.normal(size=shape)
        kernel = rng.normal(size=(4, shape[0], *kernel_hw))
        self._assert_matches_per_offset_reference(x, kernel, stride, pad, seed=len(shape))

    def test_a_new_image_size_gets_its_own_table(self):
        """Two sizes with the same channels, kernel, stride and pad, one after the other."""
        rng = np.random.default_rng(12)
        kernel = rng.normal(size=(3, 2, 3, 3))
        for side in [(64, 64), (32, 48), (64, 64)]:
            x = rng.uniform(size=(2, 2, *side))
            self._assert_matches_per_offset_reference(x, kernel, 2, 1, seed=side[1])

    def test_zero_size_output_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_gradient_matches_finite_differences(self):
        x = randt(10, 2, 5, 5)
        k = randt(11, 3, 2, 3, 3)
        err = ad.grad_check(lambda: weighted_sum((ad.conv2d(x, k, stride=2, pad=1), 1.0)), [x, k])
        assert err < 1e-5

    def test_non_square_stride_3_gradient_matches_finite_differences(self):
        x = randt(12, 2, 2, 8, 7)
        k = randt(13, 3, 2, 3, 2)
        b = randt(14, 3)
        w = Tensor(np.random.default_rng(15).normal(size=(3, 2, 3, 3)))
        err = ad.grad_check(
            lambda: weighted_sum((ad.conv2d(x, k, stride=3, pad=1, bias=b), w)), [x, k, b])
        assert err < 1e-5


DEFAULT_CONVS = [   # (cin, cout, side, kernel side, stride, pad) of the default image encoder
    (3, 16, 64, 3, 2, 1), (16, 32, 32, 3, 2, 1), (32, 64, 16, 3, 2, 1), (64, 64, 8, 3, 2, 1),
    (64, 64, 4, 1, 1, 0)]


class _IdleHelper:
    """A helper thread that never runs: it keeps every share handed to it."""

    def __init__(self):
        self.shares = []

    def submit(self, share):
        self.shares.append(share)


def _count_shares(monkeypatch):
    """Force the split on and count the shares that ``conv2d`` runs."""
    runs = []
    real = ad._Share.run
    monkeypatch.setattr(ad, "_split_engaged", lambda: True)
    monkeypatch.setattr(ad._Share, "run", lambda share: (runs.append(share), real(share))[1])
    return runs


def _conv_results(x, kernel, bias, stride, pad, relu, g, conv=ad.conv2d):
    xs, ks, bs = (Tensor(a, requires_grad=True) for a in (x, kernel, bias))
    out = conv(xs, ks, stride, pad, bias=bs, relu=relu)
    out._backward(g)
    return out.data, xs.grad, ks.grad, bs.grad


class TestConvSplit:
    """A batch's chunks give the per-offset reference's bits, on the calling thread alone
    or shared with the helper thread."""

    @staticmethod
    def _inputs(cin, cout, side, k, stride, pad, n=32, seed=0):
        rng = np.random.default_rng(seed)
        side_out = (side + 2 * pad - k) // stride + 1
        return (rng.normal(size=(cin, n, side, side)), rng.normal(size=(cout, cin, k, k)),
                rng.normal(size=cout), rng.normal(size=(cout, n, side_out, side_out)))

    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    @pytest.mark.parametrize("geometry", DEFAULT_CONVS, ids=lambda g: "{}to{}@{}".format(*g))
    def test_forced_on_equals_forced_off(self, monkeypatch, geometry, chunk_bytes):
        cin, cout, side, k, stride, pad = geometry
        x, kernel, bias, g = self._inputs(*geometry)
        oracle = _conv_results(x, kernel, bias, stride, pad, k == 3, g, np_pad_conv2d)
        if chunk_bytes is not None:   # one image per chunk: even the 1x1 layer splits
            monkeypatch.setattr(ad, "_CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(ad, "_split_engaged", lambda: False)
        serial = _conv_results(x, kernel, bias, stride, pad, k == 3, g)
        runs = _count_shares(monkeypatch)
        split = _conv_results(x, kernel, bias, stride, pad, k == 3, g)
        # the 1x1 layer is too small to split at the default chunk size
        assert len(runs) == (0 if chunk_bytes is None and k == 1 else 2)
        for got_off, got_on, want in zip(serial, split, oracle):
            np.testing.assert_array_equal(got_off, want)
            np.testing.assert_array_equal(got_on, want)

    @pytest.mark.parametrize("stride,pad,kernel_hw,shape", [
        (1, 1, (3, 2), (2, 9, 5, 7)),
        (3, 2, (3, 3), (1, 9, 8, 7)),
        (2, 2, (1, 1), (3, 11, 5, 4)),
    ])
    def test_uneven_chunks_equal_the_per_offset_reference(self, monkeypatch, stride, pad,
                                                          kernel_hw, shape):
        """Chunks of 2 images over an odd batch (enough for a split), the last holding one,
        with the helper forced off and then forced on."""
        monkeypatch.setattr(ad, "_CHUNK_BYTES", 2 * 8 * (shape[0] * kernel_hw[0] * kernel_hw[1])
                            * (((shape[2] + 2 * pad - kernel_hw[0]) // stride + 1)
                               * ((shape[3] + 2 * pad - kernel_hw[1]) // stride + 1) + 4))
        rng = np.random.default_rng(sum(shape))
        x, kernel = rng.normal(size=shape), rng.normal(size=(4, shape[0], *kernel_hw))
        monkeypatch.setattr(ad, "_split_engaged", lambda: False)
        TestConv2d._assert_matches_per_offset_reference(x, kernel, stride, pad, 3)
        runs = _count_shares(monkeypatch)
        TestConv2d._assert_matches_per_offset_reference(x, kernel, stride, pad, 3)
        assert runs and all(len(share._done) == -(-shape[1] // 2) for share in runs)

    def test_a_batch_of_one_never_splits(self, monkeypatch):
        runs = _count_shares(monkeypatch)
        monkeypatch.setattr(ad, "_CHUNK_BYTES", 1)
        x, kernel, bias, g = self._inputs(16, 32, 32, 3, 2, 1, n=1)
        _conv_results(x[:, 0], kernel, bias, 2, 1, True, g[:, 0])
        _conv_results(x, kernel, bias, 2, 1, True, g)
        assert runs == []

    def test_a_helper_that_never_runs_changes_nothing(self, monkeypatch):
        geometry = DEFAULT_CONVS[1]
        x, kernel, bias, g = self._inputs(*geometry)
        monkeypatch.setattr(ad, "_split_engaged", lambda: False)
        serial = _conv_results(x, kernel, bias, 2, 1, True, g)
        idle = _IdleHelper()
        monkeypatch.setattr(ad, "_helper", idle)
        runs = _count_shares(monkeypatch)
        split = _conv_results(x, kernel, bias, 2, 1, True, g)
        assert len(runs) == 2 and idle.shares == runs
        for got, want in zip(split, serial):
            np.testing.assert_array_equal(got, want)
        for share in idle.shares:   # a late helper finds nothing to claim and no arrays
            assert share._item is None and share._fold is None
            share.help()

    def test_an_error_on_the_helper_is_raised_by_the_caller(self, monkeypatch):
        monkeypatch.setattr(ad, "_helper", _IdleHelper())
        ran = []

        def run(j, t):
            if t == 1:
                raise MemoryError("on the helper")
            ran.append(j)

        share = ad._Share(4, run)
        share.help()   # the helper claims item 3 and fails
        with pytest.raises(MemoryError, match="on the helper"):
            share.run()
        assert ran == []

    def test_shares_under_contention_run_each_item_once_and_fold_in_order(self):
        """Four user threads on two cores, a 10 us switch interval: every item runs once,
        folds run n-1, ..., 0 on the calling thread, and the window holds."""
        import sys
        import threading

        problems = []

        def user(seed):
            rng = np.random.default_rng(seed)
            for _ in range(40):
                n, window = int(rng.integers(1, 12)), int(rng.integers(1, 4))
                runs, folds, caller = [0] * n, [], threading.get_ident()

                def run(j, t):
                    runs[j] += 1
                    if j + window < (folds[-1] if folds else n):   # unfolded: one less
                        problems.append(f"item {j} claimed past the window")

                def fold(j):
                    if threading.get_ident() != caller:
                        problems.append("fold off the calling thread")
                    folds.append(j)

                ad._Share(n, run, fold, window).run()
                if runs != [1] * n or folds != list(range(n - 1, -1, -1)):
                    problems.append(f"runs {runs}, folds {folds}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            users = [threading.Thread(target=user, args=(seed,)) for seed in range(4)]
            for t in users:
                t.start()
            for t in users:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in users)
        finally:
            sys.setswitchinterval(interval)
        assert problems == []

    def test_two_user_threads_match_serial_results(self, monkeypatch):
        """Independent graphs on two user threads at once, both splitting."""
        import threading

        inputs = [self._inputs(*DEFAULT_CONVS[i], seed=i) for i in (1, 2)]
        monkeypatch.setattr(ad, "_split_engaged", lambda: False)
        serial = [_conv_results(x, k, b, 2, 1, True, g) for x, k, b, g in inputs]
        monkeypatch.setattr(ad, "_split_engaged", lambda: True)
        results = [[], []]

        def user(i):
            x, k, b, g = inputs[i]
            for _ in range(5):
                results[i].append(_conv_results(x, k, b, 2, 1, True, g))

        users = [threading.Thread(target=user, args=(i,)) for i in (0, 1)]
        for t in users:
            t.start()
        for t in users:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in users)
        for want, got in zip(serial, results):
            assert len(got) == 5
            for repeat in got:
                for a, b in zip(repeat, want):
                    np.testing.assert_array_equal(a, b)

    def test_a_forked_child_splits_without_the_parents_thread(self, monkeypatch):
        import os
        import time

        x, kernel, bias, g = self._inputs(*DEFAULT_CONVS[1])
        monkeypatch.setattr(ad, "_split_engaged", lambda: False)
        serial = _conv_results(x, kernel, bias, 2, 1, True, g)
        runs = _count_shares(monkeypatch)
        _conv_results(x, kernel, bias, 2, 1, True, g)   # the parent's helper is running
        assert runs
        pid = os.fork()
        if pid == 0:
            try:
                got = _conv_results(x, kernel, bias, 2, 1, True, g)
                same = all(np.array_equal(a, b) for a, b in zip(got, serial))
                os._exit(0 if same else 3)
            finally:
                os._exit(4)
        deadline = time.monotonic() + 120
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if status[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0

    def test_engaged_only_on_two_cpus_with_one_blas_thread(self, monkeypatch):
        import os

        for cpus, blas, want in [({0, 1}, 1, True), ({0}, 1, False), ({0, 1}, 2, False),
                                 ({0, 1}, None, False)]:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            monkeypatch.setattr(ad, "_blas_thread_count",
                                lambda blas=blas: None if blas is None else (lambda: blas))
            assert ad._split_engaged() is want


class TestSpatialMaxMin:
    def test_hand_value(self):
        x = Tensor([[[1.0, -2.0], [3.0, 0.0]]])
        np.testing.assert_array_equal(ad.spatial_max_min(x).data, [1.0])

    def test_constant_map_doubles(self):
        for shape in [(2, 3, 3), (1, 1, 1)]:
            x = Tensor(np.full(shape, 2.5))
            np.testing.assert_array_equal(ad.spatial_max_min(x).data,
                                          np.full(shape[0], 5.0))

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3, 5))
        got = ad.spatial_max_min(Tensor(x)).data
        want = np.array([max(ch.reshape(-1)) + min(ch.reshape(-1)) for ch in x])
        np.testing.assert_array_equal(got, want)

    def test_gradient_routes_to_argmax_and_argmin(self):
        x = Tensor([[[1.0, -2.0], [3.0, 0.0]]], requires_grad=True)
        weighted_sum((ad.spatial_max_min(x), 1.0)).backward()
        np.testing.assert_array_equal(x.grad, [[[0.0, 1.0], [1.0, 0.0]]])

    def test_tied_cells_use_first_row_major(self):
        x = Tensor([[[5.0, 5.0], [5.0, 5.0]]], requires_grad=True)
        weighted_sum((ad.spatial_max_min(x), 1.0)).backward()
        np.testing.assert_array_equal(x.grad, [[[2.0, 0.0], [0.0, 0.0]]])

    def test_gradient_matches_finite_differences(self):
        x = randt(4, 3, 4, 4)  # continuous random values: ties have measure zero
        w = Tensor(np.random.default_rng(5).normal(size=3))
        err = ad.grad_check(lambda: weighted_sum((ad.spatial_max_min(x), w)), [x])
        assert err < 1e-6


class TestL2Normalize:
    def test_three_four_five(self):
        out = ad.l2_normalize(Tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_unit_vector_unchanged(self):
        v = np.array([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(ad.l2_normalize(Tensor(v)).data, v)

    def test_near_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            ad.l2_normalize(Tensor(np.zeros(4)))

    def test_gradient_matches_finite_differences(self):
        x = randt(6, 7)
        w = Tensor(np.random.default_rng(8).normal(size=7))
        err = ad.grad_check(lambda: weighted_sum((ad.l2_normalize(x), w)), [x])
        assert err < 1e-6

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_output_norm_is_one(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=int(rng.integers(1, 20)))
        if np.linalg.norm(v) <= 1e-12:
            return
        norm = np.linalg.norm(ad.l2_normalize(Tensor(v)).data)
        assert abs(norm - 1.0) <= 1e-12


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(Tensor([-1000.0, 1000.0])).data
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-300)

    def test_dropout_p_zero_is_identity_in_both_modes(self):
        x = randt(9, 6)
        for training in (True, False):
            np.testing.assert_array_equal(
                ad.dropout(x, 0.0, seed=1, training=training).data, x.data)

    def test_dropout_eval_mode_is_identity(self):
        x = randt(10, 6)
        np.testing.assert_array_equal(ad.dropout(x, 0.9, seed=1, training=False).data, x.data)

    def test_identity_dropout_returns_its_input(self):
        x = randt(10, 6)
        assert ad.dropout(x, 0.9, seed=1, training=False) is x
        assert ad.dropout(x, 0.0, seed=1, training=True) is x

    def test_dropout_deterministic_given_seed(self):
        x = randt(11, 50)
        a = ad.dropout(x, 0.5, seed=(1, 2, 3), training=True).data
        b = ad.dropout(x, 0.5, seed=(1, 2, 3), training=True).data
        c = ad.dropout(x, 0.5, seed=(1, 2, 4), training=True).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dropout_scales_survivors(self):
        x = Tensor(np.ones(1000))
        out = ad.dropout(x, 0.25, seed=0, training=True).data
        assert set(np.unique(out)) == {0.0, 1.0 / 0.75}

    def test_dropout_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.ones(2)), 1.0, seed=0)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = randt(12, 3, 4)
        weighted_sum((x, 1.0)).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_squares_gradient(self):
        x = randt(13, 5)
        weighted_sum((mul(x, x), 1.0)).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-15)

    def test_non_scalar_rejected(self):
        with pytest.raises(GraphError):
            randt(14, 3).backward()

    def test_repeated_backward_rejected(self):
        out = weighted_sum((randt(15, 3), 1.0))
        out.backward()
        with pytest.raises(GraphError):
            out.backward()

    def test_replay_through_a_shared_node_rejected(self):
        # Without the check, the second backward would re-send y's stale
        # gradient and leave x.grad == 2x instead of 0.
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = mul(x, x)
        weighted_sum((y, 1.0)).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        assert y.grad is None   # interior gradients are released after use
        x.grad = None
        with pytest.raises(GraphError):
            weighted_sum((scale(y, 0.0), 1.0)).backward()
        assert x.grad is None

    def test_gradients_accumulate_across_graphs(self):
        x = randt(16, 4)
        weighted_sum((x, 1.0)).backward()
        weighted_sum((x, 1.0)).backward()
        np.testing.assert_array_equal(x.grad, 2.0 * np.ones(4))
        ad.zero_grads([x])
        assert x.grad is None

    def test_every_tracked_ancestor_gets_a_grad(self):
        x = randt(17, 3)
        y = randt(18, 3)
        out = weighted_sum((relu(mul(x, y)), 1.0))
        out.backward()
        assert x.grad is not None and y.grad is not None

    def test_replay_determinism(self):
        def run():
            x = Tensor(np.random.default_rng(42).normal(size=(2, 8, 8)), requires_grad=True)
            k = Tensor(np.random.default_rng(43).normal(size=(3, 2, 3, 3)), requires_grad=True)
            h = ad.dropout(ad.conv2d(x, k, stride=2, pad=1, relu=True), 0.3, seed=7)
            out = weighted_sum((h, 1.0))
            out.backward()
            return out.data.copy(), x.grad.copy(), k.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestReductionsAndIndexing:
    def test_take_row_gradient_hits_only_that_row(self):
        table = randt(19, 4, 3)
        weighted_sum((ad.take_row(table, 2), 1.0)).backward()
        want = np.zeros((4, 3))
        want[2] = 1.0
        np.testing.assert_array_equal(table.grad, want)

    def test_slice_rows_roundtrip_gradient(self):
        x = randt(20, 6)
        err = ad.grad_check(lambda: weighted_sum((slice_rows(x, 2, 5), 1.0)), [x])
        assert err < 1e-9

    def test_add_channel_bias_gradient(self):
        x = randt(30, 3, 2, 2)
        b = randt(31, 3)
        err = ad.grad_check(lambda: weighted_sum((add_channel_bias(x, b), 1.0)), [x, b])
        assert err < 1e-9

    def test_spatial_mean_matches_numpy(self):
        x = randt(32, 4, 3, 5)
        np.testing.assert_allclose(ad.spatial_mean(x).data, x.data.mean(axis=(1, 2)),
                                   rtol=1e-15)


class TestGradCheckHarness:
    def test_quadratic_is_nearly_exact(self):
        p = randt(33, 6)
        err = ad.grad_check(lambda: weighted_sum((mul(p, p), 1.0)), [p])
        assert err < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_primitive_suite_at_random_points(self, seed):
        """Composite of every differentiable primitive, checked at 10 points."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(0.1, 1.0, size=(2, 4, 4)), requires_grad=True)
        k = Tensor(rng.uniform(-0.5, 0.5, size=(2, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-0.5, 0.5, size=2), requires_grad=True)
        w = Tensor(rng.uniform(-1.0, 1.0, size=(3, 2)), requires_grad=True)

        def f():
            conv = add_channel_bias(ad.conv2d(x, k, stride=1, pad=1), b)
            pooled = ad.spatial_max_min(tanh(conv))
            proj = ad.linear(sigmoid(pooled), w, Tensor(np.zeros(3)))
            return weighted_sum((mul(ad.l2_normalize(proj), relu(proj)), 1.0))

        assert ad.grad_check(f, [x, k, b, w]) < 1e-4


class TestNoGrad:
    def test_results_inside_the_scope_have_no_parents(self):
        x = randt(40, 3, 2)
        with ad.no_grad():
            out = weighted_sum((relu(mul(x, x)), 1.0))
        assert out._parents == () and out._backward is None and not out.requires_grad

    def test_gradients_flow_again_after_the_scope(self):
        x = randt(41, 4)
        with ad.no_grad():
            weighted_sum((x, 1.0))
        weighted_sum((scale(x, 3.0), 1.0)).backward()
        np.testing.assert_array_equal(x.grad, np.full(4, 3.0))

    def test_scope_is_restored_when_it_raises(self):
        x = randt(42, 2)
        with pytest.raises(ShapeError), ad.no_grad():
            ad.stack_rows([x, randt(43, 3)])
        assert weighted_sum((x, 1.0)).requires_grad


class TestBatchedKernels:
    """The channel-major (C, N, H, W) forms of the image ops and the row-wise ops."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("kernel_side,stride,pad", [(3, 2, 1), (1, 1, 0)])
    def test_fused_conv_gradient(self, n, relu, kernel_side, stride, pad):
        x = randt(50, 2, n, 5, 6)
        k = randt(51, 3, 2, kernel_side, kernel_side)
        b = randt(52, 3)
        w = Tensor(np.random.default_rng(53).normal(
            size=ad.conv2d(x, k, stride, pad).shape))
        err = ad.grad_check(
            lambda: weighted_sum((ad.conv2d(x, k, stride, pad, bias=b, relu=relu), w)),
            [x, k, b])
        # The loss is near 13, so central differences carry ~1e-9 of rounding
        # noise, and the smallest gradient entries (~3e-4) check to a few 1e-6.
        assert err < 1e-5

    def test_fused_conv_equals_conv_bias_relu(self):
        x, k, b = randt(54, 2, 3, 6, 6), randt(55, 4, 2, 3, 3), randt(56, 4)
        for nan_pixel in (False, True):
            if nan_pixel:   # the fused ReLU lets a NaN through, as np.maximum does
                x.data[1, 2, 3, 3] = np.nan
            fused = ad.conv2d(x, k, 2, 1, bias=b, relu=True).data
            want = relu(add_channel_bias(ad.conv2d(x, k, 2, 1), b)).data
            np.testing.assert_array_equal(fused, want)
        assert np.isnan(fused[:, 2, 1:3, 1:3]).all() and np.isnan(fused).sum() == 4 * 4

    def test_batched_conv_rows_equal_single_images(self):
        x, k, b = randt(57, 2, 3, 8, 8), randt(58, 4, 2, 3, 3), randt(59, 4)
        batched = ad.conv2d(x, k, 2, 1, bias=b, relu=True).data
        for j in range(3):
            single = ad.conv2d(Tensor(x.data[:, j]), k, 2, 1, bias=b, relu=True).data
            np.testing.assert_array_equal(batched[:, j], single)
            want = naive_conv2d(x.data[:, j], k.data, 2, 1) + b.data[:, None, None]
            np.testing.assert_allclose(single, np.maximum(want, 0.0), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("pool", [ad.spatial_max_min, ad.spatial_mean])
    def test_pooling_on_a_batch(self, pool):
        x = randt(60, 4, 3, 2, 5)
        w = Tensor(np.random.default_rng(61).normal(size=(3, 4)))
        assert ad.grad_check(lambda: weighted_sum((pool(x), w)), [x]) < 1e-6
        rows = pool(x).data
        assert rows.shape == (3, 4)
        for j in range(3):
            np.testing.assert_array_equal(rows[j], pool(Tensor(x.data[:, j])).data)

    def test_row_wise_l2_normalize(self):
        x = randt(62, 3, 5)
        w = Tensor(np.random.default_rng(63).normal(size=(3, 5)))
        assert ad.grad_check(lambda: weighted_sum((ad.l2_normalize(x), w)), [x]) < 1e-6
        np.testing.assert_allclose(np.linalg.norm(ad.l2_normalize(x).data, axis=1), 1.0,
                                   rtol=0, atol=1e-15)

    def test_row_dropout_keys_reproduce_single_masks(self):
        x = Tensor(np.ones((3, 40)))
        keys = [(1, 2, j) for j in range(3)]
        rows = ad.dropout(x, 0.5, keys).data
        for j, key in enumerate(keys):
            np.testing.assert_array_equal(rows[j], ad.dropout(Tensor(np.ones(40)), 0.5, key).data)

    # Row keys of 0 to 9 little-endian 32-bit words: shorter and longer than the
    # seed hash's 4-word pool, with bools, numpy integers and multi-word entries.
    SEED_KEYS = [(), 0, 2**32, (2**64 + 1,), (True, np.int64(3), 0), (1, 2, 3, 4),
                 (2**32 + 7, 0, 5, 31), (2**64 + 1, 2**32, 9, 1), (2**64 + 1, 2**64 + 1, 5, 6),
                 (2**64 + 1, 2**32, 9, 1, 2, 3), (5, 2**64 + 1, 2**32 - 1, 1)]

    def test_seed_words_match_numpys_seed_sequence(self):
        counts = [len(ad._key_words(key)) for key in self.SEED_KEYS]
        assert sorted(set(counts)) == list(range(10))
        together = ad._seed_words(self.SEED_KEYS)   # one list of mixed word counts
        for key, words in zip(self.SEED_KEYS, together):
            want = np.random.SeedSequence(key).generate_state(4, np.uint64)
            assert words.dtype == np.uint64
            np.testing.assert_array_equal(words, want)
            np.testing.assert_array_equal(ad._seed_words([key])[0], want)

    @pytest.mark.parametrize("n", [1, 2, 16, 32])
    @pytest.mark.parametrize("shape", [(64,), (7, 64)])
    def test_row_masks_match_default_rng_byte_for_byte(self, n, shape):
        keys = [(2**32 + 7, 1, 4, j, 2) if j % 3 else self.SEED_KEYS[j % len(self.SEED_KEYS)]
                for j in range(n)]
        rows = ad.dropout(Tensor(np.ones((n, *shape))), 0.5, keys).data
        for key, words, row in zip(keys, ad._seed_words(keys), rows):
            draws = np.random.default_rng(key).random(shape)
            drawn = np.random.Generator(np.random.PCG64(ad._SeedWords(words))).random(shape)
            assert drawn.tobytes() == draws.tobytes()
            assert row.tobytes() == ((draws >= 0.5) * 2.0).tobytes()

    @pytest.mark.parametrize("entry, error", [(-1, ValueError), (1.5, TypeError),
                                              ("a", ValueError)])
    def test_hostile_key_entries_raise_numpys_exception_types(self, entry, error):
        key = (1, 2, entry)
        with pytest.raises(error):
            np.random.default_rng(key)
        with pytest.raises(error):
            ad.dropout(Tensor(np.ones((2, 3))), 0.5, [(1, 2, 3), key])

    def test_linear_skips_the_input_gradient_of_untracked_rows(self, monkeypatch):
        rows = np.random.default_rng(64).normal(size=(4, 3))
        w = np.random.default_rng(65).normal(size=(4, 5))
        grads, products = [], []
        for tracked in (True, False):
            x, weight, bias = Tensor(rows, requires_grad=tracked), randt(66, 5, 3), randt(67, 5)
            loss = weighted_sum((ad.linear(x, weight, bias), w))
            with monkeypatch.context() as m:   # the input gradient is linear's only matmul
                m.setattr(np, "matmul", lambda *a, _mm=np.matmul: products.append(tracked) or _mm(*a))
                loss.backward()
            grads.append((x.grad, weight.grad.tobytes(), bias.grad.tobytes()))
        assert products == [True]
        assert grads[0][0] is not None and grads[1][0] is None
        assert grads[0][1:] == grads[1][1:]

    def test_sum_examples_adds_the_last_example_first(self):
        # Rounding tells the orders apart: (-1e16 + 1e16) + 1 is 1, (1 + 1e16) - 1e16 is 0.
        parts = np.array([[1.0], [1e16], [-1e16]])
        np.testing.assert_array_equal(ad.sum_examples(3, lambda k: parts[k]), [1.0])
        total = ad.sum_examples(1, lambda k: parts[k])
        total += 5.0                    # a copy: the caller's array stays as it was
        assert parts[0, 0] == 1.0
