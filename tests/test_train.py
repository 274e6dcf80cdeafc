"""Optimizer, schedule, epoch loop, checkpoint round-trips."""

import hashlib
import io
import os
import stat
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semvis.train as train_module
from semvis import autodiff, errors, visual
from semvis.autodiff import Tensor
from semvis.cli import main
from semvis.data import generate_dataset
from semvis.errors import CheckpointError, ContractError
from conftest import MICRO_CONFIG, np_pad_conv2d, per_example_train_epoch
from semvis.model import Model, ModelConfig
from semvis.ppm import write_ppm
from semvis.text import Vocab
from semvis.train import (AdamState, TrainSchedule, adam_step, effective_lr,
                          load_checkpoint, save_checkpoint, train, train_epoch,
                          trainable_set)
from semvis.train import HEADER_KEYS, _decode, _encode  # for the malformed-checkpoint tests

TINY = dict(backbone_channels=8, hidden_channels=(4, 4, 4), adapt_channels=8,
            embed_dim=16, word_dim=8, sru_layers=1)


def tiny_setup(n_scenes=12, seed=1, **cfg_overrides):
    dataset = generate_dataset(n_scenes, seed=seed)
    model = Model.initialize(ModelConfig(**{**TINY, **cfg_overrides}), dataset.vocab, seed=seed)
    return model, dataset


class TestAdam:
    def test_first_step_closed_form(self):
        # From zero state with unit gradient the bias corrections cancel and
        # the update is -lr/(1 + eps).
        p = Tensor(np.array([0.5]), requires_grad=True)
        p.grad = np.array([1.0])
        state = AdamState()
        adam_step({"p": p}, state, lr=0.001, names=["p"])
        assert p.data[0] == pytest.approx(0.5 - 0.001, abs=1e-10)
        assert state.m["p"][0] == pytest.approx(0.1)
        assert state.v["p"][0] == pytest.approx(0.001)
        assert state.t["p"] == 1

    def test_zero_gradient_moves_nothing(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        adam_step({"p": p}, AdamState(), lr=0.1, names=["p"])
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_converges_on_a_quadratic(self):
        # Reference trajectory cross-checked against an independent Adam
        # implementation: from 10.0 at lr 0.1 the iterate reaches 3.45239
        # after 100 steps and lands within 0.01 of the minimum by 200.
        p = Tensor(np.array([10.0]), requires_grad=True)
        state = AdamState()
        for step in range(200):
            p.grad = 2.0 * (p.data - 3.0)
            adam_step({"p": p}, state, lr=0.1, names=["p"])
            if step == 99:
                assert p.data[0] == pytest.approx(3.4523864, abs=1e-6)
        assert abs(p.data[0] - 3.0) < 0.01

    def test_missing_gradient_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ContractError, match="p"):
            adam_step({"p": p}, AdamState(), lr=0.1, names=["p"])


class TestSchedule:
    def test_lr_at_epoch_zero_is_lr0(self):
        assert effective_lr(0, TrainSchedule(lr0=0.001)) == 0.001

    def test_lr_halves_each_epoch(self):
        sched = TrainSchedule(lr0=0.001, halving_until_epoch=5)
        assert effective_lr(3, sched) == pytest.approx(0.000125)

    def test_lr_floor_after_halving_window(self):
        sched = TrainSchedule(lr0=0.001, halving_until_epoch=7)
        assert effective_lr(100, sched) == effective_lr(7, sched) == 0.001 / 128

    def test_frozen_phase_excludes_image_pipeline(self):
        model, _ = tiny_setup()
        sched = TrainSchedule(freeze_epochs=2)
        early = trainable_set(0, sched, model.params)
        assert all(n.startswith(("sru.", "word.", "proj.")) for n in early)
        assert not any(n.startswith(("backbone.", "adapt.")) for n in early)

    def test_boundary_epoch_unfreezes_everything(self):
        model, _ = tiny_setup()
        sched = TrainSchedule(freeze_epochs=2)
        assert trainable_set(2, sched, model.params) == sorted(model.params)


@pytest.fixture
def backbone_rows(monkeypatch):
    """How many images each backbone call encodes, one entry per call."""
    rows = []
    real_backbone = visual.backbone_forward

    def counting_backbone(image, params, blocks=4):
        rows.append(1 if image.data.ndim == 3 else image.data.shape[1])
        return real_backbone(image, params, blocks)

    monkeypatch.setattr(visual, "backbone_forward", counting_backbone)
    return rows


class TestTrainEpoch:
    def test_zero_lr_epoch_keeps_parameters(self):
        model, dataset = tiny_setup()
        before = {k: v.data.copy() for k, v in model.params.items()}
        sched = TrainSchedule(epochs=1, batch_size=4, lr0=1e-300)
        loss = train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)
        assert np.isfinite(loss)
        for name, value in before.items():
            np.testing.assert_allclose(model.params[name].data, value, atol=1e-290)

    def test_identical_seed_identical_loss(self):
        losses = []
        for _ in range(2):
            model, dataset = tiny_setup()
            sched = TrainSchedule(epochs=1, batch_size=4)
            losses.append(train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=3))
        assert losses[0] == losses[1]

    def test_frozen_phase_is_bit_stable(self):
        model, dataset = tiny_setup()
        frozen_before = {k: v.data.copy() for k, v in model.params.items()
                         if k.startswith(("backbone.", "adapt."))}
        sched = TrainSchedule(epochs=1, batch_size=4, freeze_epochs=2)
        train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)
        for name, value in frozen_before.items():
            np.testing.assert_array_equal(model.params[name].data, value)

    def test_frozen_tensors_leave_the_graph(self, monkeypatch):
        conv_backward_calls = []
        real_conv2d = autodiff.conv2d

        def counting_conv2d(*args, **kwargs):
            out = real_conv2d(*args, **kwargs)
            if out._backward is not None:
                inner = out._backward
                out._backward = lambda g: (conv_backward_calls.append(1), inner(g))
            return out

        with_grad = set()
        real_adam_step = train_module.adam_step

        def recording_adam_step(params, state, lr, names):
            with_grad.update(n for n, p in params.items() if p.grad is not None)
            real_adam_step(params, state, lr, names)

        monkeypatch.setattr(autodiff, "conv2d", counting_conv2d)
        monkeypatch.setattr(train_module, "adam_step", recording_adam_step)
        model, dataset = tiny_setup()
        sched = TrainSchedule(epochs=2, batch_size=4, freeze_epochs=1)
        train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)
        early = set(trainable_set(0, sched, model.params))
        assert with_grad == early
        assert not conv_backward_calls
        assert all(p.requires_grad for p in model.params.values())

        with_grad.clear()
        train_epoch(model, dataset, sched, AdamState(), epoch=1, seed=1)   # the control
        assert with_grad == set(model.params)
        assert conv_backward_calls

    def test_requires_grad_restored_when_the_epoch_raises(self, monkeypatch):
        def failing_loss(batch, cfg):
            raise RuntimeError("loss failed")

        monkeypatch.setattr(train_module, "batch_loss", failing_loss)
        model, dataset = tiny_setup()
        sched = TrainSchedule(epochs=1, batch_size=4, freeze_epochs=1)
        with pytest.raises(RuntimeError, match="loss failed"):
            train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)
        assert all(p.requires_grad for p in model.params.values())

        def failing_backbone(image, params, blocks=4):   # while the pooled table is built
            raise RuntimeError("encode failed")

        # A fresh model: the first one kept its pooled table and would not rebuild it.
        monkeypatch.setattr(visual, "backbone_forward", failing_backbone)
        model, dataset = tiny_setup()
        with pytest.raises(RuntimeError, match="encode failed"):
            train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)
        assert all(p.requires_grad for p in model.params.values())
        assert model._pooled_table is None   # a failed build keeps nothing

    def test_a_frozen_epoch_keeps_every_flag_and_its_graph_stops_at_proj(self, monkeypatch):
        """No parameter's ``requires_grad`` is cleared during a frozen epoch: the loss
        graph reaches no ``backbone.*`` or ``adapt.*`` tensor because a batch projects
        untracked pooled rows."""
        flags, reached = [], set()
        real_batch_loss = train_module.batch_loss

        def inspecting_batch_loss(batch, cfg):
            flags.append(all(p.requires_grad for p in model.params.values()))
            loss = real_batch_loss(batch, cfg)
            seen, stack = set(), [loss]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node._parents)
            reached.update(n for n, p in model.params.items() if id(p) in seen)
            return loss

        monkeypatch.setattr(train_module, "batch_loss", inspecting_batch_loss)
        model, dataset = tiny_setup()
        sched = TrainSchedule(epochs=2, batch_size=4, freeze_epochs=1)
        train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)
        assert flags and all(flags)
        assert reached == set(trainable_set(0, sched, model.params))

        reached.clear()
        train_epoch(model, dataset, sched, AdamState(), epoch=1, seed=1)   # the control
        assert reached == set(model.params)

    def test_a_frozen_epoch_encodes_each_scene_once(self, backbone_rows):
        model, dataset = tiny_setup()
        sched = TrainSchedule(epochs=2, batch_size=4, freeze_epochs=1)
        train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)
        assert sum(backbone_rows) == len(dataset.scenes)
        backbone_rows.clear()
        train_epoch(model, dataset, sched, AdamState(), epoch=1, seed=1)   # the control
        assert sum(backbone_rows) == sum(len(s.captions) for s in dataset.scenes)

    def test_a_later_frozen_epoch_reuses_the_pooled_table(self, backbone_rows):
        """The table is rebuilt when a frozen tensor, a pixel, the pooling mode or
        an unfrozen epoch changes what it was built from, and only then."""
        model, dataset = tiny_setup()
        sched = TrainSchedule(epochs=3, batch_size=4, freeze_epochs=2)

        def rows_encoded(epoch=0, batch_size=4):
            backbone_rows.clear()
            train_epoch(model, dataset, replace(sched, batch_size=batch_size), AdamState(),
                        epoch, seed=1)
            return sum(backbone_rows)

        everything = len(dataset.scenes)
        assert rows_encoded() == everything
        assert rows_encoded(epoch=1) == 0
        assert rows_encoded(batch_size=5) == 0
        kernel = model.params["backbone.0.kernel"]
        kernel.data = kernel.data.copy()   # a new array of the same bytes
        assert rows_encoded() == 0

        edits = {   # each in place, as Adam and a caller's assignment to an entry are
            "backbone": lambda: np.put(model.params["backbone.2.kernel"].data, 40, 0.5),
            "adapt": lambda: np.put(model.params["adapt.bias"].data, 3, 0.25),
            "pixel": lambda: np.put(dataset.scenes[5].image, 1000, 77),
            "pooling": lambda: setattr(model.cfg, "pooling", visual.POOL_MEAN),
            "unfrozen epoch": lambda: rows_encoded(epoch=2),
        }
        for what, edit in edits.items():
            edit()
            assert rows_encoded() == everything, what
            assert rows_encoded() == 0, what

    def test_an_unfrozen_epoch_drops_the_pooled_table(self):
        model, dataset = tiny_setup()
        sched = TrainSchedule(epochs=2, batch_size=4, freeze_epochs=1)
        train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)
        assert model._pooled_table is not None
        train_epoch(model, dataset, sched, AdamState(), epoch=1, seed=1)
        assert model._pooled_table is None

    def test_frozen_epoch_over_two_image_sizes_matches_the_oracle(self):
        """Scenes of 64x64 and 48x48 share batches; the projection's gradient sums
        over the rows in input order, as one graph per example does.  The second
        epoch reuses the first one's table."""
        sched = TrainSchedule(epochs=2, batch_size=8, freeze_epochs=2)
        (batched, dataset), (oracle, _) = (tiny_setup(sru_layers=2) for _ in range(2))
        for scene in dataset.scenes[::2]:
            scene.image = scene.image[:, 8:56, 8:56].copy()
        states = AdamState(), AdamState()
        for epoch in range(2):
            got = train_epoch(batched, dataset, sched, states[0], epoch, seed=5)
            want = per_example_train_epoch(oracle, dataset, sched, states[1], epoch, seed=5)
            assert got == want
            for name, p in batched.params.items():
                np.testing.assert_array_equal(p.data, oracle.params[name].data)

    @pytest.mark.parametrize("pooling", ["max_min", "mean"])
    def test_frozen_unfrozen_frozen_epochs_match_the_per_example_oracle(self, pooling):
        """Two frozen epochs (the second reuses the pooled table), an unfrozen one,
        then a frozen one again (the table is rebuilt): bit for bit at every step."""
        sched = TrainSchedule(epochs=3, batch_size=8, freeze_epochs=2)
        (batched, dataset), (oracle, _) = (tiny_setup(sru_layers=2, pooling=pooling)
                                           for _ in range(2))
        states = AdamState(), AdamState()
        for epoch in (0, 1, 2, 0):
            got = train_epoch(batched, dataset, sched, states[0], epoch, seed=5)
            want = per_example_train_epoch(oracle, dataset, sched, states[1], epoch, seed=5)
            assert got == want, epoch
            for name, p in batched.params.items():
                np.testing.assert_array_equal(p.data, oracle.params[name].data)

    @pytest.mark.parametrize("pooling, seed", [
        pytest.param(pooling, seed, id=pooling + suffix)
        for seed, suffix in [(5, ""), (2**32 + 7, "-two-word-seed")]
        for pooling in ["max_min", "mean"]])
    def test_batched_epochs_match_the_per_example_oracle(self, pooling, seed):
        """One graph per batch against one graph per example, through a frozen
        and an unfrozen epoch, with dropout at both sites: bit for bit.  The
        oracle seeds each example's dropout alone, so seed 2**32 + 7 pins the
        batched masks of two-word seeds."""
        sched = TrainSchedule(epochs=2, batch_size=8, freeze_epochs=1)
        (batched, dataset), (oracle, _) = (tiny_setup(sru_layers=2, pooling=pooling)
                                           for _ in range(2))
        states = AdamState(), AdamState()
        for epoch in range(2):
            got = train_epoch(batched, dataset, sched, states[0], epoch, seed=seed)
            want = per_example_train_epoch(oracle, dataset, sched, states[1], epoch, seed=seed)
            assert got == want
        for name, p in batched.params.items():
            np.testing.assert_array_equal(p.data, oracle.params[name].data)

    def test_training_matches_the_per_offset_conv_reference(self, tmp_path, monkeypatch):
        """Two epochs, the second through the convolutions' backward, with the
        library's conv2d and with the per-offset reference: the same checkpoint bytes.
        The split is forced off at batch 8 and on at batch 32, whatever BLAS and the
        CPUs allow, so there the library's 32-image batches share their work with the
        helper thread."""
        library_conv, share_run, shares = autodiff.conv2d, autodiff._Share.run, []
        monkeypatch.setattr(autodiff._Share, "run",
                            lambda share: (shares.append(share), share_run(share))[1])
        for batch_size, split in [(8, False), (32, True)]:
            monkeypatch.setattr(autodiff, "_split_engaged", lambda split=split: split)
            blobs = []
            for conv in (library_conv, np_pad_conv2d):
                monkeypatch.setattr(autodiff, "conv2d", conv)
                dataset = generate_dataset(8, seed=3)
                model = Model.initialize(ModelConfig(), dataset.vocab, seed=1)
                sched = TrainSchedule(epochs=2, batch_size=batch_size, freeze_epochs=1)
                state = AdamState()
                train(model, dataset, sched, seed=1, state=state)
                path = tmp_path / f"{batch_size}-{len(blobs)}.ckpt"
                save_checkpoint(path, model, state, sched, seed=1, next_epoch=2)
                blobs.append(path.read_bytes())
            assert blobs[0] == blobs[1], f"batch {batch_size}"
            assert bool(shares) is split

    def test_loss_decreases_over_a_short_run(self):
        model, dataset = tiny_setup(n_scenes=48)
        sched = TrainSchedule(epochs=6, batch_size=16, lr0=0.002,
                              halving_until_epoch=5, freeze_epochs=2)
        history = train(model, dataset, sched, seed=1)
        assert history[5]["loss"] < history[0]["loss"]

    def test_non_finite_loss_aborts_with_batch_index(self):
        # A NaN kernel entry reaches the loss only because conv2d's fused ReLU passes NaN.
        for name in ("proj.weight", "backbone.0.kernel"):
            model, dataset = tiny_setup()
            model.params[name].data.flat[0] = np.nan
            sched = TrainSchedule(epochs=1, batch_size=4)
            with pytest.raises(ArithmeticError, match="batch 0"):
                train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)

    def test_empty_dataset_rejected(self):
        model, dataset = tiny_setup()
        dataset.scenes = []
        with pytest.raises(ContractError):
            train_epoch(model, dataset, TrainSchedule(), AdamState(), epoch=0, seed=1)

    def test_log_records_have_the_expected_keys(self, tmp_path):
        import json
        model, dataset = tiny_setup()
        sched = TrainSchedule(epochs=2, batch_size=4)
        history = train(model, dataset, sched, seed=1, out=tmp_path / "train.ckpt")
        log = tmp_path / "train.ckpt.log.jsonl"
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(lines) == len(history) == 2
        assert set(lines[0]) == {"epoch", "loss", "lr", "trainable"}


# Digests of initialized models saved with AdamState(), TrainSchedule() and
# next_epoch=0 in format version 2 (the JSON header).  Their parameter entries
# are byte for byte those of version 1.
GOLDEN_CHECKPOINTS = {
    "micro": (5991, "e8539563ef185847221c85adcda142623bf2c08b8384f5dd2140b07ed8c69563"),
    "default": (758238, "5145c5d581d1447d30da9da8ec914c7bf73ed1c3744770e557530c0c7fac9b00"),
}


class TestCheckpoint:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CHECKPOINTS))
    def test_golden_checkpoint_bytes(self, tmp_path, case):
        if case == "micro":
            vocab = Vocab(["red", "circle", "a", "blue", "square", "the", "is"])
            model, seed = Model.initialize(ModelConfig(**MICRO_CONFIG), vocab, seed=5), 5
        else:
            vocab = generate_dataset(8, seed=3).vocab
            model, seed = Model.initialize(ModelConfig(), vocab, seed=1), 1
        path = tmp_path / "golden.ckpt"
        save_checkpoint(path, model, AdamState(), TrainSchedule(), seed=seed, next_epoch=0)
        blob = path.read_bytes()
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == GOLDEN_CHECKPOINTS[case]

    def test_a_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        model, _ = tiny_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, AdamState(), TrainSchedule(), seed=1, next_epoch=0)
        before = path.read_bytes()
        written = []

        class FullDisk(io.FileIO):
            def write(self, data):
                written.append(super().write(bytes(data)[:len(data) // 2]))
                raise OSError("disk full")

        monkeypatch.setattr(train_module, "open", FullDisk, raising=False)
        model.params["proj.bias"].data += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, AdamState(), TrainSchedule(), seed=1, next_epoch=1)
        assert written and written[0] > 0
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_the_temp_file_is_synced_before_the_rename(self, tmp_path, monkeypatch):
        model, _ = tiny_setup()
        path = tmp_path / "m.ckpt"
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def recording_fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync", st.st_ino, stat.S_ISDIR(st.st_mode), st.st_size))
            real_fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", os.fspath(src), os.fspath(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        save_checkpoint(path, model, AdamState(), TrainSchedule(), seed=1, next_epoch=0)
        written = path.stat()
        assert [e[0] for e in events] == ["fsync", "replace", "fsync"]
        # The renamed file keeps its inode: the first sync was the whole temp file.
        assert events[0][1:] == (written.st_ino, False, written.st_size)
        assert events[1][1].endswith(".tmp") and events[1][2] == os.fspath(path)
        assert events[2][1:3] == (tmp_path.stat().st_ino, True)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model, dataset = tiny_setup()
        sched = TrainSchedule(epochs=1, batch_size=4)
        state = AdamState()
        train_epoch(model, dataset, sched, state, epoch=0, seed=1)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, model, state, sched, seed=1, next_epoch=1)
        bundle = load_checkpoint(p1)
        save_checkpoint(p2, bundle.model, bundle.opt_state, bundle.schedule,
                        bundle.seed, bundle.next_epoch)
        assert p1.read_bytes() == p2.read_bytes()

    def test_decoded_arrays_are_writable_copies_of_the_file(self, tmp_path):
        # Adam updates parameters and moments in place, so none may be a view of the bytes read.
        model, dataset = tiny_setup()
        sched = TrainSchedule(epochs=1, batch_size=4)
        state = AdamState()
        train_epoch(model, dataset, sched, state, epoch=0, seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, sched, seed=1, next_epoch=1)
        blob = path.read_bytes()
        _, params, moments = _decode(blob, path)
        assert moments and params
        raw = np.frombuffer(blob, dtype=np.uint8)
        for arr in [*params.values(), *moments.values()]:
            assert arr.flags.writeable and arr.dtype == np.float64
            assert not np.shares_memory(arr, raw)

    def test_loaded_model_reproduces_embeddings(self, tmp_path):
        model, dataset = tiny_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, AdamState(), TrainSchedule(), seed=1, next_epoch=0)
        reloaded = load_checkpoint(path).model
        x1, _ = model.encode_image(dataset.scenes[0].image)
        x2, _ = reloaded.encode_image(dataset.scenes[0].image)
        np.testing.assert_array_equal(x1.data, x2.data)
        v1 = model.encode_text(dataset.scenes[0].captions[0])
        v2 = reloaded.encode_text(dataset.scenes[0].captions[0])
        np.testing.assert_array_equal(v1.data, v2.data)
        assert reloaded.vocab == model.vocab and reloaded.cfg == model.cfg

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        sched = TrainSchedule(epochs=4, batch_size=4, freeze_epochs=1)

        model_a, dataset = tiny_setup()
        state_a = AdamState()
        train(model_a, dataset, sched, seed=2, state=state_a)
        straight = tmp_path / "straight.ckpt"
        save_checkpoint(straight, model_a, state_a, sched, seed=2, next_epoch=4)

        model_b, _ = tiny_setup()
        state_b = AdamState()
        train(model_b, dataset, TrainSchedule(epochs=2, batch_size=4, freeze_epochs=1),
              seed=2, state=state_b)
        half = tmp_path / "half.ckpt"
        save_checkpoint(half, model_b, state_b, sched, seed=2, next_epoch=2)

        bundle = load_checkpoint(half)
        train(bundle.model, dataset, bundle.schedule, bundle.seed,
              state=bundle.opt_state, start_epoch=bundle.next_epoch)
        resumed = tmp_path / "resumed.ckpt"
        save_checkpoint(resumed, bundle.model, bundle.opt_state, bundle.schedule,
                        bundle.seed, next_epoch=4)
        assert resumed.read_bytes() == straight.read_bytes()

    def test_end_to_end_seeded_determinism(self, tmp_path):
        paths = []
        for name in ("one.ckpt", "two.ckpt"):
            model, dataset = tiny_setup()
            sched = TrainSchedule(epochs=2, batch_size=4)
            state = AdamState()
            train(model, dataset, sched, seed=5, state=state)
            path = tmp_path / name
            save_checkpoint(path, model, state, sched, seed=5, next_epoch=2)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_corrupted_magic_rejected(self, tmp_path):
        model, _ = tiny_setup()
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, model, AdamState(), TrainSchedule(), seed=1, next_epoch=0)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        model, _ = tiny_setup()
        path = tmp_path / "v9.ckpt"
        save_checkpoint(path, model, AdamState(), TrainSchedule(), seed=1, next_epoch=0)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model, _ = tiny_setup()
        path = tmp_path / "short.ckpt"
        save_checkpoint(path, model, AdamState(), TrainSchedule(), seed=1, next_epoch=0)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_unknown_tensor_name_rejected(self, tmp_path):
        model, _ = tiny_setup()
        path = tmp_path / "extra.ckpt"
        save_checkpoint(path, model, AdamState(), TrainSchedule(), seed=1, next_epoch=0)
        # Add one bogus tensor to the parameter section and reseal the checksum.
        header, params, moments = _decode(path.read_bytes(), path)
        params["bogus.weight"] = np.zeros(3)
        path.write_bytes(_encode(header, params, moments))
        with pytest.raises(CheckpointError, match="bogus.weight"):
            load_checkpoint(path)

    def test_every_bit_flip_and_truncation_is_refused(self, tmp_path, capsys, micro_model):
        path = tmp_path / "micro.ckpt"
        save_checkpoint(path, micro_model, AdamState(), TrainSchedule(), seed=5, next_epoch=0)
        blob = path.read_bytes()
        damaged = [blob[:n] for n in range(len(blob))]
        for offset in range(len(blob)):
            flipped = bytearray(blob)
            flipped[offset] ^= 1 << offset % 8
            damaged.append(bytes(flipped))
        image = tmp_path / "image.ppm"
        write_ppm(image, np.zeros((3, 16, 16), dtype=np.uint8))
        for i, bad in enumerate(damaged):
            path.write_bytes(bad)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
            if i % 499 == 0:   # and the CLI reports it as a runtime failure
                argv = ["localize", "--ckpt", str(path), "--image", str(image),
                        "--text", "red", "--out", str(tmp_path / "o")]
                assert main(argv) == 1
                assert capsys.readouterr().err.startswith("error:")


TYPED_ERRORS = tuple(v for v in vars(errors).values()
                     if isinstance(v, type) and v.__module__ == errors.__name__)
_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.integers() | st.floats()
    | st.sampled_from(["max_min", "mean", "hard", "random", "<unk>", "", "red"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["proj.bias", "proj.weight", "bogus"]) | st.text(max_size=4),
        inner, max_size=3),
    max_leaves=6)
# (key, delete it, else the value to set)
_HEADER_EDIT = st.tuples(st.sampled_from(sorted(HEADER_KEYS) + ["extra"]), st.booleans(), _VALUE)
_OFFSET = st.integers(0, 600) | st.integers(0, 10 ** 6)   # the header, or anywhere


@pytest.fixture(scope="module")
def micro_checkpoint(tmp_path_factory):
    """The bytes of a micro model's checkpoint with Adam state for two tensors."""
    vocab = Vocab(["red", "circle", "a", "blue", "square", "the", "is"])
    model = Model.initialize(ModelConfig(**MICRO_CONFIG), vocab, seed=5)
    state = AdamState()
    for name in ("proj.bias", "sru.1.weight"):
        shape = model.params[name].shape
        state.m[name], state.v[name], state.t[name] = np.full(shape, 0.1), np.ones(shape), 3
    path = tmp_path_factory.mktemp("micro") / "micro.ckpt"
    save_checkpoint(path, model, state, TrainSchedule(epochs=4), seed=5, next_epoch=2)
    return path.read_bytes()


def _load_or_typed_error(tmp_path_factory, blob):
    """Load ``blob``: a ``semvis.errors`` type, or a bundle that re-saves to a checkpoint
    which loads and re-saves to the same bytes."""
    path = tmp_path_factory.getbasetemp() / "property.ckpt"
    path.write_bytes(blob)
    try:
        bundle = load_checkpoint(path)
    except TYPED_ERRORS:
        return
    saved = []
    for _ in range(2):
        save_checkpoint(path, bundle.model, bundle.opt_state, bundle.schedule, bundle.seed,
                        bundle.next_epoch)
        saved.append(path.read_bytes())
        bundle = load_checkpoint(path)
    assert saved[0] == saved[1]
    assert type(bundle.seed) is int and type(bundle.next_epoch) is int


class TestHostileCheckpointProperties:
    """A checkpoint loads as a valid bundle or raises a ``semvis.errors`` type."""

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(_HEADER_EDIT, min_size=1, max_size=3), reseal=st.booleans())
    def test_header_edits(self, tmp_path_factory, micro_checkpoint, edits, reseal):
        header, params, moments = _decode(micro_checkpoint, "micro")
        for key, delete, value in edits:
            if delete:
                header.pop(key, None)
            else:
                header[key] = value
        blob = _encode(header, params, moments)
        _load_or_typed_error(tmp_path_factory,
                             blob if reseal else blob[:-4] + micro_checkpoint[-4:])

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(_OFFSET, st.integers(0, 255)), max_size=4),
           cut=st.none() | _OFFSET, tail=st.binary(max_size=8), reseal=st.booleans())
    def test_byte_edits(self, tmp_path_factory, micro_checkpoint, edits, cut, tail, reseal):
        blob = bytearray(micro_checkpoint)
        for offset, byte in edits:
            blob[offset % len(blob)] = byte
        if cut is not None:
            blob = blob[:cut % len(blob)] + tail
        if reseal:
            blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]))
        _load_or_typed_error(tmp_path_factory, bytes(blob))
