"""Optimizer, schedule, epoch loop, checkpoint round-trips."""

import hashlib
import os
import struct

import numpy as np
import pytest

import semvis.train as train_module
from semvis import autodiff, visual
from semvis.autodiff import Tensor
from semvis.data import generate_dataset
from semvis.errors import CheckpointError, ContractError
from conftest import MICRO_CONFIG, per_example_train_epoch
from semvis.model import Model, ModelConfig
from semvis.text import Vocab
from semvis.train import (AdamState, TrainSchedule, adam_step, effective_lr,
                          load_checkpoint, save_checkpoint, train, train_epoch,
                          trainable_set)
from semvis.train import _write_entry  # for the malformed-checkpoint test

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

        with_grad, tracked = set(), set()
        real_adam_step = train_module.adam_step

        def recording_adam_step(params, state, lr, names):
            with_grad.update(n for n, p in params.items() if p.grad is not None)
            tracked.update(n for n, p in params.items() if p.requires_grad)
            real_adam_step(params, state, lr, names)

        monkeypatch.setattr(autodiff, "conv2d", counting_conv2d)
        monkeypatch.setattr(train_module, "adam_step", recording_adam_step)
        model, dataset = tiny_setup()
        sched = TrainSchedule(epochs=2, batch_size=4, freeze_epochs=1)
        train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)
        early = set(trainable_set(0, sched, model.params))
        assert with_grad == tracked == early
        assert not conv_backward_calls
        assert all(p.requires_grad for p in model.params.values())

        with_grad.clear()
        tracked.clear()
        train_epoch(model, dataset, sched, AdamState(), epoch=1, seed=1)   # the control
        assert with_grad == tracked == set(model.params)
        assert conv_backward_calls

    def test_requires_grad_restored_when_the_epoch_raises(self, monkeypatch):
        def failing_loss(batch, cfg):
            assert not model.params["backbone.0.kernel"].requires_grad
            raise RuntimeError("loss failed")

        monkeypatch.setattr(train_module, "batch_loss", failing_loss)
        model, dataset = tiny_setup()
        sched = TrainSchedule(epochs=1, batch_size=4, freeze_epochs=1)
        with pytest.raises(RuntimeError, match="loss failed"):
            train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)
        assert all(p.requires_grad for p in model.params.values())

        def failing_backbone(image, params, blocks=4):   # while the pooled table is built
            assert not model.params["backbone.0.kernel"].requires_grad
            raise RuntimeError("encode failed")

        monkeypatch.setattr(visual, "backbone_forward", failing_backbone)
        with pytest.raises(RuntimeError, match="encode failed"):
            train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)
        assert all(p.requires_grad for p in model.params.values())

    def test_a_frozen_epoch_encodes_each_scene_once(self, monkeypatch):
        rows = []
        real_backbone = visual.backbone_forward

        def counting_backbone(image, params, blocks=4):
            rows.append(1 if image.data.ndim == 3 else image.data.shape[1])
            return real_backbone(image, params, blocks)

        monkeypatch.setattr(visual, "backbone_forward", counting_backbone)
        model, dataset = tiny_setup()
        sched = TrainSchedule(epochs=2, batch_size=4, freeze_epochs=1)
        train_epoch(model, dataset, sched, AdamState(), epoch=0, seed=1)
        assert sum(rows) == len(dataset.scenes)
        rows.clear()
        train_epoch(model, dataset, sched, AdamState(), epoch=1, seed=1)   # the control
        assert sum(rows) == sum(len(s.captions) for s in dataset.scenes)

    def test_frozen_epoch_over_two_image_sizes_matches_the_oracle(self):
        """Scenes of 64x64 and 48x48 share batches; the projection's gradient sums
        over the rows in input order, as one graph per example does."""
        sched = TrainSchedule(epochs=1, batch_size=8, freeze_epochs=1)
        (batched, dataset), (oracle, _) = (tiny_setup(sru_layers=2) for _ in range(2))
        for scene in dataset.scenes[::2]:
            scene.image = scene.image[:, 8:56, 8:56].copy()
        got = train_epoch(batched, dataset, sched, AdamState(), 0, seed=5)
        want = per_example_train_epoch(oracle, dataset, sched, AdamState(), 0, seed=5)
        assert got == want
        for name, p in batched.params.items():
            np.testing.assert_array_equal(p.data, oracle.params[name].data)

    @pytest.mark.parametrize("pooling", ["max_min", "mean"])
    def test_batched_epochs_match_the_per_example_oracle(self, pooling):
        """One graph per batch against one graph per example, through a frozen
        and an unfrozen epoch, with dropout at both sites: bit for bit."""
        sched = TrainSchedule(epochs=2, batch_size=8, freeze_epochs=1)
        (batched, dataset), (oracle, _) = (tiny_setup(sru_layers=2, pooling=pooling)
                                           for _ in range(2))
        states = AdamState(), AdamState()
        for epoch in range(2):
            got = train_epoch(batched, dataset, sched, states[0], epoch, seed=5)
            want = per_example_train_epoch(oracle, dataset, sched, states[1], epoch, seed=5)
            assert got == want
        for name, p in batched.params.items():
            np.testing.assert_array_equal(p.data, oracle.params[name].data)

    def test_loss_decreases_over_a_short_run(self):
        model, dataset = tiny_setup(n_scenes=48)
        sched = TrainSchedule(epochs=6, batch_size=16, lr0=0.002,
                              halving_until_epoch=5, freeze_epochs=2)
        history = train(model, dataset, sched, seed=1)
        assert history[5]["loss"] < history[0]["loss"]

    def test_non_finite_loss_aborts_with_batch_index(self):
        model, dataset = tiny_setup()
        model.params["proj.weight"].data[0, 0] = np.nan
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
        log = tmp_path / "train.log.jsonl"
        history = train(model, dataset, sched, seed=1, log_path=log)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(lines) == len(history) == 2
        assert set(lines[0]) == {"epoch", "loss", "lr", "trainable"}


# Digests of initialized models saved with AdamState(), TrainSchedule() and
# next_epoch=0, recorded before the parameters were addressed only by name.
GOLDEN_CHECKPOINTS = {
    "micro": (6654, "7fe23c210cf4dfc31007f2e1237547876d50845f25a70dcdf9aefcabb58b363f"),
    "default": (759328, "6b5621d1b7f0f477556f8ddc5c10f9f35b6adefe764dc1eda82941083feacb33"),
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
        real_write_section, sections = train_module._write_section, []

        def failing_write_section(fh, entries):
            sections.append(entries)
            if len(sections) == 2:
                fh.write(b"partial")
                raise OSError("disk full")
            real_write_section(fh, entries)

        monkeypatch.setattr(train_module, "_write_section", failing_write_section)
        model.params["proj.bias"].data += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, AdamState(), TrainSchedule(), seed=1, next_epoch=1)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]

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
        blob = path.read_bytes()
        # Splice one bogus tensor into the model section and bump its count.
        count = struct.unpack("<I", blob[8:12])[0]
        import io
        extra = io.BytesIO()
        _write_entry(extra, "bogus.weight", np.zeros(3))
        patched = (blob[:8] + struct.pack("<I", count + 1) + extra.getvalue() + blob[12:])
        path.write_bytes(patched)
        with pytest.raises(CheckpointError, match="bogus.weight"):
            load_checkpoint(path)
