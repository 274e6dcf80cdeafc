"""CLI subcommands: determinism, exit codes, JSON schemas."""

import contextlib
import filecmp
import inspect
import io
import json
import os
import struct
import zlib
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semvis
from semvis.cli import main
from semvis.data import read_dataset
from semvis.errors import CheckpointError
from semvis.model import Model, ModelConfig
from semvis.ppm import read_ppm, write_ppm
from semvis.train import TrainSchedule, _decode, _encode, load_checkpoint

TINY_FLAGS = ["--backbone-channels", "8", "--hidden-channels", "4,4,4",
              "--adapt-channels", "8", "--embed-dim", "16", "--word-dim", "8",
              "--sru-layers", "1"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small dataset plus an untrained and a briefly trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["generate-data", "--out", str(data), "--scenes", "8", "--seed", "3"]) == 0
    init_ckpt = root / "init.ckpt"
    args = ["train", "--data", str(data), "--out", str(init_ckpt),
            "--epochs", "0", "--seed", "3"] + TINY_FLAGS
    assert main(args) == 0
    trained_ckpt = root / "trained.ckpt"
    args = ["train", "--data", str(data), "--out", str(trained_ckpt),
            "--epochs", "2", "--batch-size", "4", "--seed", "3"] + TINY_FLAGS
    assert main(args) == 0
    return root, data, init_ckpt, trained_ckpt


class TestGenerateData:
    def test_identical_flags_identical_bytes(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _, _ = run(capsys, "generate-data", "--out", str(tmp_path / name),
                             "--scenes", "5", "--seed", "7")
            assert code == 0
        cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
        assert not cmp.diff_files and not cmp.left_only and not cmp.right_only
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a" / "images", tmp_path / "b" / "images",
            os.listdir(tmp_path / "a" / "images"), shallow=False)
        assert not mismatch and not errors
        assert (tmp_path / "a" / "manifest.jsonl").read_bytes() == \
               (tmp_path / "b" / "manifest.jsonl").read_bytes()

    def test_rewrite_over_a_larger_dataset_equals_a_fresh_one(self, tmp_path, capsys):
        assert run(capsys, "generate-data", "--out", str(tmp_path / "old"),
                   "--scenes", "5", "--seed", "7")[0] == 0
        (tmp_path / "old" / "images" / "notes.txt").write_text("not an image\n")
        for name in ("old", "fresh"):
            assert run(capsys, "generate-data", "--out", str(tmp_path / name),
                       "--scenes", "3", "--seed", "8")[0] == 0
        old, fresh = tmp_path / "old", tmp_path / "fresh"
        manifest = (fresh / "manifest.jsonl").read_bytes()
        assert (old / "manifest.jsonl").read_bytes() == manifest
        assert (old / "vocab.txt").read_bytes() == (fresh / "vocab.txt").read_bytes()
        images = [json.loads(line)["image"] for line in manifest.splitlines()]
        assert len(images) == 3
        for rel in images:
            assert (old / rel).read_bytes() == (fresh / rel).read_bytes()
        # the old dataset's other images are gone; a file outside their naming stays
        names = sorted(rel.removeprefix("images/") for rel in images)
        assert sorted(p.name for p in (fresh / "images").iterdir()) == names
        assert sorted(p.name for p in (old / "images").iterdir()) == names + ["notes.txt"]
        assert (old / "images" / "notes.txt").read_text() == "not an image\n"

    def test_zero_scenes_is_a_valid_dataset(self, tmp_path, capsys):
        code, _, _ = run(capsys, "generate-data", "--out", str(tmp_path / "empty"),
                         "--scenes", "0", "--seed", "1")
        assert code == 0
        assert read_dataset(tmp_path / "empty").scenes == []

    def test_manifest_line_count(self, tmp_path, capsys):
        code, _, _ = run(capsys, "generate-data", "--out", str(tmp_path / "n"),
                         "--scenes", "500", "--seed", "1")
        assert code == 0
        lines = (tmp_path / "n" / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 500

    def test_objects_range_flag(self, tmp_path, capsys):
        code, _, _ = run(capsys, "generate-data", "--out", str(tmp_path / "r"),
                         "--scenes", "6", "--seed", "1", "--objects", "1..1")
        assert code == 0
        assert all(len(s.regions) == 1 for s in read_dataset(tmp_path / "r").scenes)

    def test_bad_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate-data", "--scenes", "5"])  # missing --out
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["generate-data", "--out", "x", "--scenes", "5", "--objects", "3..1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--scenes", "-3"], ["--scenes", "5", "--objects", "5"],
                                       ["--scenes", "5", "--objects", "2..5"],
                                       ["--scenes", "5", "--seed", "-1"]])
    def test_counts_it_cannot_honour_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            main(["generate-data", "--out", str(out), *flags])
        assert exc.value.code == 2
        assert flags[-2] in capsys.readouterr().err   # the message names the flag
        assert not out.exists()


class TestTrain:
    def test_zero_epochs_equals_initialization(self, workspace):
        _, data, init_ckpt, _ = workspace
        bundle = load_checkpoint(init_ckpt)
        dataset = read_dataset(data)
        fresh = Model.initialize(bundle.model.cfg, dataset.vocab, seed=3)
        for name, tensor in fresh.params.items():
            np.testing.assert_array_equal(tensor.data, bundle.model.params[name].data)

    def test_flagless_schedule_is_the_library_default(self, tmp_path, workspace):
        _, data, init_ckpt, _ = workspace
        flagless = tmp_path / "flagless.ckpt"
        assert main(["train", "--data", str(data), "--out", str(flagless), "--epochs", "0"]) == 0
        bundle = load_checkpoint(flagless)
        assert bundle.model.cfg == ModelConfig()
        assert bundle.schedule == replace(TrainSchedule(), epochs=0)
        # The init checkpoint was trained with only --epochs among the schedule flags.
        assert load_checkpoint(init_ckpt).schedule == replace(TrainSchedule(), epochs=0)

    def test_every_config_key_reaches_the_checkpoint(self, tmp_path, capsys, workspace):
        _, data, _, _ = workspace
        model_values = dict(backbone_channels=8, hidden_channels=[4, 4, 4], adapt_channels=8,
                            embed_dim=16, word_dim=8, sru_layers=1, pooling="mean",
                            visual_dropout=0.3, sru_dropout=0.1, margin=0.5, mining="hard",
                            top_k=3)
        sched_values = dict(epochs=0, batch_size=4, lr0=0.002, halving_until_epoch=3,
                            freeze_epochs=1)
        values = {**model_values, **sched_values, "seed": 7}
        assert set(values) == ({f.name for f in fields(ModelConfig)}
                               | {f.name for f in fields(TrainSchedule)} | {"seed"})
        cfg_path = tmp_path / "all.json"
        cfg_path.write_text(json.dumps(values))
        from_file = tmp_path / "file.ckpt"
        assert main(["train", "--data", str(data), "--out", str(from_file),
                     "--config", str(cfg_path)]) == 0
        bundle = load_checkpoint(from_file)
        want_cfg = ModelConfig(**{**model_values, "hidden_channels": (4, 4, 4)})
        assert bundle.model.cfg == want_cfg and bundle.schedule == TrainSchedule(**sched_values)
        assert bundle.seed == 7
        for f in fields(ModelConfig):
            assert getattr(want_cfg, f.name) != f.default, f.name
        for f in fields(TrainSchedule):
            assert sched_values[f.name] != f.default, f.name

        # The same settings given as flags write the same bytes.
        flags = []
        for key, value in values.items():
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            flags += ["--" + key.replace("_", "-"), text]
        from_flags = tmp_path / "flags.ckpt"
        assert main(["train", "--data", str(data), "--out", str(from_flags)] + flags) == 0
        assert from_flags.read_bytes() == from_file.read_bytes()

        cfg_path.write_text(json.dumps({"crop_augment": True}))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(data), "--out", str(tmp_path / "x.ckpt"),
                  "--config", str(cfg_path)])
        assert exc.value.code == 2

    def test_training_decreases_loss_in_log(self, workspace):
        root, _, _, trained_ckpt = workspace
        lines = [json.loads(line)
                 for line in open(str(trained_ckpt) + ".log.jsonl", encoding="utf-8")]
        assert len(lines) == 2
        assert all(np.isfinite(rec["loss"]) for rec in lines)

    def test_resume_continues_bit_exactly(self, tmp_path, capsys, workspace):
        _, data, _, _ = workspace
        straight = tmp_path / "straight.ckpt"
        args = ["train", "--data", str(data), "--out", str(straight),
                "--epochs", "2", "--batch-size", "4", "--seed", "11"] + TINY_FLAGS
        assert main(args) == 0

        half = tmp_path / "half.ckpt"
        args = ["train", "--data", str(data), "--out", str(half),
                "--epochs", "1", "--batch-size", "4", "--seed", "11"] + TINY_FLAGS
        assert main(args) == 0
        # Stretch the stored schedule to 2 epochs, then resume.
        bundle = load_checkpoint(half)
        bundle.schedule.epochs = 2
        from semvis.train import save_checkpoint
        save_checkpoint(half, bundle.model, bundle.opt_state, bundle.schedule,
                        bundle.seed, bundle.next_epoch)
        resumed = tmp_path / "resumed.ckpt"
        assert main(["train", "--data", str(data), "--resume", str(half),
                     "--out", str(resumed)]) == 0
        assert resumed.read_bytes() == straight.read_bytes()

    def test_a_crash_keeps_every_finished_epoch(self, tmp_path, capsys, workspace):
        _, data, _, _ = workspace
        flags = ["--epochs", "4", "--batch-size", "4", "--seed", "11"] + TINY_FLAGS
        straight = tmp_path / "straight.ckpt"
        assert main(["train", "--data", str(data), "--out", str(straight)] + flags) == 0

        real = semvis.train.train_epoch

        def crash_in_epoch_2(model, dataset, sched, state, epoch, seed):
            if epoch == 2:
                raise RuntimeError("killed in epoch 2")
            return real(model, dataset, sched, state, epoch, seed)

        crashed = tmp_path / "crashed.ckpt"
        with mock.patch.object(semvis.train, "train_epoch", crash_in_epoch_2):
            assert main(["train", "--data", str(data), "--out", str(crashed)] + flags) == 1
        bundle = load_checkpoint(crashed)
        assert bundle.next_epoch == 2 and bundle.schedule.epochs == 4
        resumed = tmp_path / "resumed.ckpt"
        assert main(["train", "--data", str(data), "--resume", str(crashed),
                     "--out", str(resumed)]) == 0
        assert resumed.read_bytes() == straight.read_bytes()

    def test_resuming_a_finished_run_rewrites_its_checkpoint(self, tmp_path, workspace):
        _, data, _, trained_ckpt = workspace
        bundle = load_checkpoint(trained_ckpt)
        assert bundle.next_epoch == bundle.schedule.epochs == 2
        out = tmp_path / "again.ckpt"
        assert main(["train", "--data", str(data), "--resume", str(trained_ckpt),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == trained_ckpt.read_bytes()
        assert not (tmp_path / "again.ckpt.log.jsonl").exists()

    def test_a_fresh_run_starts_its_log_afresh(self, tmp_path, workspace):
        """Two fresh runs into one --out leave the log of one run into an empty path
        (an empty log when the second has no epoch), and a run resumed into its own
        --out appends to its log."""
        _, data, _, _ = workspace

        def log_after(out, *seeds, epochs=2):
            for seed in seeds:
                assert main(["train", "--data", str(data), "--out", str(out), "--epochs",
                             str(epochs), "--batch-size", "4", "--seed", str(seed)]
                            + TINY_FLAGS) == 0
            return open(f"{out}.log.jsonl", "rb").read()

        straight = log_after(tmp_path / "fresh.ckpt", 9)
        assert len(straight.splitlines()) == 2
        assert log_after(tmp_path / "m.ckpt", 1, 9) == straight
        assert log_after(tmp_path / "m.ckpt", 1, epochs=0) == b""

        half = tmp_path / "half.ckpt"
        log_after(half, 9, epochs=1)
        bundle = load_checkpoint(half)   # stretch the stored schedule to 2 epochs
        semvis.train.save_checkpoint(half, bundle.model, bundle.opt_state,
                                     replace(bundle.schedule, epochs=2), bundle.seed,
                                     bundle.next_epoch)
        assert main(["train", "--data", str(data), "--resume", str(half), "--out", str(half)]) == 0
        assert open(f"{half}.log.jsonl", "rb").read() == straight

    def test_resume_on_another_vocabulary_exit_1(self, tmp_path, capsys, workspace):
        _, _, _, trained_ckpt = workspace
        other = tmp_path / "other"
        assert main(["generate-data", "--out", str(other), "--scenes", "2", "--seed", "40",
                     "--objects", "1"]) == 0
        assert read_dataset(other).vocab != load_checkpoint(trained_ckpt).model.vocab
        out = tmp_path / "resumed.ckpt"
        code, _, err = run(capsys, "train", "--data", str(other), "--resume", str(trained_ckpt),
                           "--out", str(out))
        assert code == 1
        assert "vocabulary" in err and not out.exists()

    def test_config_file_and_flag_precedence(self, tmp_path, capsys, workspace):
        _, data, _, _ = workspace
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"embed_dim": 16, "word_dim": 8, "sru_layers": 1,
                                        "backbone_channels": 8, "hidden_channels": [4, 4, 4],
                                        "adapt_channels": 8, "epochs": 0, "seed": 3,
                                        "margin": 0.5}))
        out = tmp_path / "cfg.ckpt"
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--config", str(cfg_path), "--margin", "0.3"]) == 0
        assert load_checkpoint(out).model.cfg.margin == 0.3  # flag beats file

    def test_unknown_config_key_exit_2(self, tmp_path, workspace):
        _, data, _, _ = workspace
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(data), "--out", str(tmp_path / "x.ckpt"),
                  "--config", str(cfg_path)])
        assert exc.value.code == 2

    def test_missing_data_dir_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "nowhere"),
                           "--out", str(tmp_path / "x.ckpt"))
        assert code == 1
        assert "error" in err

    def test_data_dir_without_manifest_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--data", str(tmp_path),
                           "--out", str(tmp_path / "x.ckpt"))
        assert code == 1
        assert "manifest.jsonl" in err and "Traceback" not in err


class TestEvalCommands:
    def test_retrieval_report_schema_and_determinism(self, capsys, workspace):
        _, data, _, trained_ckpt = workspace
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "eval-retrieval", "--ckpt", str(trained_ckpt),
                               "--data", str(data))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert set(report) == {"caption_retrieval", "image_retrieval"}
        for side in report.values():
            assert set(side) == {"direction", "r_at", "median_rank"}
            assert set(side["r_at"]) == {"1", "5", "10"}
            values = [side["r_at"][r] for r in ("1", "5", "10")]
            assert values == sorted(values)

    def test_retrieval_fold_averaging_runs(self, capsys, workspace):
        _, data, _, trained_ckpt = workspace
        code, out, _ = run(capsys, "eval-retrieval", "--ckpt", str(trained_ckpt),
                           "--data", str(data), "--folds", "2")
        assert code == 0
        json.loads(out)

    @pytest.mark.parametrize("folds", ["0", "9"])
    def test_folds_outside_one_to_image_count_exit_2(self, capsys, workspace, folds):
        _, data, _, trained_ckpt = workspace  # 8 scenes
        with mock.patch.object(Model, "encode_images", side_effect=AssertionError("encoded")), \
                pytest.raises(SystemExit) as exc:
            main(["eval-retrieval", "--ckpt", str(trained_ckpt), "--data", str(data),
                  "--folds", folds])
        assert exc.value.code == 2
        assert "--folds" in capsys.readouterr().err

    def test_empty_dataset_exit_1_before_encoding(self, tmp_path, capsys, workspace):
        _, _, _, trained_ckpt = workspace
        empty = tmp_path / "empty"
        assert main(["generate-data", "--out", str(empty), "--scenes", "0"]) == 0
        capsys.readouterr()
        with mock.patch.object(Model, "encode_images", side_effect=AssertionError("encoded")):
            code, out, err = run(capsys, "eval-retrieval", "--ckpt", str(trained_ckpt),
                                 "--data", str(empty))
        assert code == 1 and out == ""
        assert "empty" in err and str(empty) in err and "Traceback" not in err

    def test_pointing_report_schema_and_k_override(self, capsys, workspace):
        _, data, _, trained_ckpt = workspace
        code, out, _ = run(capsys, "eval-pointing", "--ckpt", str(trained_ckpt),
                           "--data", str(data), "--k", "3")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"accuracy", "baseline", "n", "k"}
        assert report["k"] == 3
        assert 0.0 <= report["accuracy"] <= 1.0

    @pytest.mark.parametrize("k", ["0", "-3", "17"])
    def test_k_outside_one_to_embed_dim_exit_2(self, capsys, workspace, k):
        _, data, _, trained_ckpt = workspace  # embed_dim 16
        with pytest.raises(SystemExit) as exc:
            main(["eval-pointing", "--ckpt", str(trained_ckpt), "--data", str(data), "--k", k])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err

    def test_k_equal_to_embed_dim_runs(self, capsys, workspace):
        _, data, _, trained_ckpt = workspace
        code, out, _ = run(capsys, "eval-pointing", "--ckpt", str(trained_ckpt),
                           "--data", str(data), "--k", "16")
        assert code == 0
        assert json.loads(out)["k"] == 16


LOCALIZED = (".pgm", "_overlay.ppm", ".json")


def _localize(capsys, ckpt, image, prefix, text="red"):
    """Run ``localize``; its stdout and the bytes of its three files."""
    code, out, err = run(capsys, "localize", "--ckpt", str(ckpt), "--image", str(image),
                         "--text", text, "--out", str(prefix))
    assert code == 0, err
    return out, tuple(open(f"{prefix}{ext}", "rb").read() for ext in LOCALIZED)


class TestLocalize:
    def test_writes_all_artifacts_and_repeats_identically(self, tmp_path, capsys, workspace):
        _, data, _, trained_ckpt = workspace
        image = str(data / "images" / "000000.ppm")
        phrase = read_dataset(data).scenes[0].regions[0][0]
        blobs = []
        for name in ("p1", "p2", "p2"):   # the second p2 request rewrites its own files
            prefix = str(tmp_path / name)
            code, out, _ = run(capsys, "localize", "--ckpt", str(trained_ckpt),
                               "--image", image, "--text", phrase, "--out", prefix)
            assert code == 0
            payload = json.loads(out)
            assert set(payload) == {"x", "y", "heat_max"}
            assert payload == json.loads(open(prefix + ".json", encoding="utf-8").read())
            assert out.encode("utf-8") == open(prefix + ".json", "rb").read()
            blobs.append(tuple(open(prefix + ext, "rb").read() for ext in LOCALIZED))
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("stale", [b"\xff" * 100_000, b"x"], ids=["longer", "shorter"])
    def test_existing_files_are_replaced_whole(self, tmp_path, capsys, workspace, stale):
        _, data, _, trained_ckpt = workspace
        image = data / "images" / "000000.ppm"
        fresh = _localize(capsys, trained_ckpt, image, tmp_path / "fresh")
        for ext in LOCALIZED:
            (tmp_path / f"old{ext}").write_bytes(stale)
        assert _localize(capsys, trained_ckpt, image, tmp_path / "old") == fresh

    def test_smaller_image_after_a_larger_one(self, tmp_path, capsys, workspace):
        _, data, _, trained_ckpt = workspace
        large = read_ppm(data / "images" / "000000.ppm")
        assert large.shape == (3, 64, 64)
        small = tmp_path / "small.ppm"
        write_ppm(small, large[:, 16:48, 16:48])
        _localize(capsys, trained_ckpt, data / "images" / "000000.ppm", tmp_path / "o")
        rewritten = _localize(capsys, trained_ckpt, small, tmp_path / "o")
        assert rewritten == _localize(capsys, trained_ckpt, small, tmp_path / "fresh")
        _, (pgm, overlay, _) = rewritten
        assert len(pgm) == len(b"P5\n32 32\n255\n") + 32 * 32
        assert len(overlay) == len(b"P6\n32 32\n255\n") + 3 * 32 * 32
        assert read_ppm(tmp_path / "o_overlay.ppm").shape == (3, 32, 32)

    def test_a_request_truncates_no_file_on_open(self, tmp_path, capsys, workspace):
        _, data, _, trained_ckpt = workspace
        image = data / "images" / "000000.ppm"
        _localize(capsys, trained_ckpt, image, tmp_path / "o")
        opened, os_flags = [], []
        real_open, real_os_open = open, os.open

        def spy_open(file, mode="r", *args, **kwargs):
            opened.append((file, mode))
            return real_open(file, mode, *args, **kwargs)

        def spy_os_open(path, flags, *args):
            os_flags.append(flags)
            return real_os_open(path, flags, *args)

        with mock.patch("builtins.open", spy_open), mock.patch("os.open", spy_os_open):
            assert main(["localize", "--ckpt", str(trained_ckpt), "--image", str(image),
                         "--text", "red", "--out", str(tmp_path / "o")]) == 0
        # Every write goes through a descriptor from os.open, none of them with O_TRUNC.
        assert all(isinstance(file, int) or "w" not in mode for file, mode in opened)
        assert len(os_flags) == 3 and not any(flags & os.O_TRUNC for flags in os_flags)

    def test_unwritable_output_paths_exit_1(self, tmp_path, capsys, workspace):
        _, data, _, trained_ckpt = workspace
        (tmp_path / "taken.pgm").mkdir()
        for prefix in (tmp_path / "missing" / "o", tmp_path / "taken"):
            code, out, err = run(capsys, "localize", "--ckpt", str(trained_ckpt),
                                 "--image", str(data / "images" / "000000.ppm"),
                                 "--text", "red", "--out", str(prefix))
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "Traceback" not in err

    def test_empty_text_exit_2(self, tmp_path, capsys, workspace):
        _, data, _, trained_ckpt = workspace
        code, _, err = run(capsys, "localize", "--ckpt", str(trained_ckpt),
                           "--image", str(data / "images" / "000000.ppm"),
                           "--text", "?!", "--out", str(tmp_path / "e"))
        assert code == 2

    def test_oov_phrase_warns_and_proceeds(self, tmp_path, capsys, workspace):
        _, data, _, trained_ckpt = workspace
        code, out, err = run(capsys, "localize", "--ckpt", str(trained_ckpt),
                             "--image", str(data / "images" / "000000.ppm"),
                             "--text", "xyzzy plugh", "--out", str(tmp_path / "oov"))
        assert code == 0
        assert "out of vocabulary" in err
        json.loads(out)


def _with_header(blob, edit):
    """The checkpoint ``blob`` rewritten, CRC32 resealed, after ``edit(header, params,
    moments)`` changes its header and its two sections in place."""
    header, params, moments = _decode(blob, "ckpt")
    edit(header, params, moments)
    return _encode(header, params, moments)


def _resealed(blob):
    """``blob`` with its CRC32 trailer recomputed, so an edit reaches the field checks."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def _replaced(blob, old, new):
    assert len(old) == len(new) and blob.count(old) == 1
    return _resealed(blob.replace(old, new))


def _overflowing_dims(blob):
    # One parameter whose dims multiply to 2**64: np.prod would wrap to 0.
    end = 12 + struct.unpack("<I", blob[8:12])[0]
    name = b"proj.weight"
    return _resealed(blob[:end] + struct.pack("<II", 1, len(name)) + name
                     + struct.pack("<IQQ", 2, 2 ** 32, 2 ** 32) + bytes(4))


def _header_edit(**values):
    return lambda b: _with_header(b, lambda h, p, m: h.update(values))


MALFORMED = {
    "pooling code 5": (_header_edit(pooling=5), "pooling"),
    "no hidden_channels": (lambda b: _with_header(
        b, lambda h, p, m: h.pop("hidden_channels")), "hidden_channels"),
    "embed_dim 0": (_header_edit(embed_dim=0), "embed_dim"),
    "vector pooling": (_header_edit(pooling=[0, 0]), "pooling"),
    "non-UTF-8 token": (lambda b: _replaced(b, b'"vocab": ["a"', b'"vocab": ["\xff"'),
                        "UTF-8"),
    "batch_size 0": (_header_edit(batch_size=0), "batch_size"),
    "overflowing dims": (_overflowing_dims, "truncated"),
    "non-UTF-8 name": (lambda b: _replaced(b, b"proj.weight", b"proj.wei\xffht"),
                       "proj.weight"),
    "adam moments of shape (1,)": (lambda b: _with_header(
        b, lambda h, p, m: (m.update({"adam.m.proj.bias": np.zeros(1),
                                      "adam.v.proj.bias": np.ones(1)}),
                            h["adam_steps"].update({"proj.bias": 1}))),
        "adam.m.proj.bias"),
    "adam.v missing": (lambda b: _with_header(
        b, lambda h, p, m: (m.update({"adam.m.proj.bias": np.zeros(16)}),
                            h["adam_steps"].update({"proj.bias": 1}))),
        "adam.v and adam_steps name different tensors"),
    "lr0 NaN": (_header_edit(lr0=float("nan")), "lr0 must be a finite number"),
    "next_epoch past epochs": (_header_edit(next_epoch=1),
                               "next_epoch 1 exceeds the schedule's epochs 0"),
    "hidden_channels string": (_header_edit(hidden_channels="4"), "hidden_channels"),
    "embed_dim true": (_header_edit(embed_dim=True), "embed_dim"),
    "top_k -1": (_header_edit(top_k=-1), "top_k"),
    "<unk> token": (lambda b: _with_header(
        b, lambda h, p, m: h["vocab"].insert(2, "<unk>")), "index 3"),
    "seed string": (_header_edit(seed="3"), "seed"),
    "version 1": (lambda b: b[:4] + struct.pack("<I", 1) + b[8:], "unsupported version 1"),
    "proj.weight NaN": (lambda b: _with_header(
        b, lambda h, p, m: p["proj.weight"].__setitem__((0, 0), np.nan)), "proj.weight holds"),
    "adam.v inf": (lambda b: _with_header(
        b, lambda h, p, m: (m.update({"adam.m.proj.bias": np.zeros(16),
                                      "adam.v.proj.bias": np.full(16, np.inf)}),
                            h["adam_steps"].update({"proj.bias": 1}))),
        "adam.v.proj.bias holds"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_entry_is_a_checkpoint_error(tmp_path, capsys, workspace, case):
    _, data, init_ckpt, _ = workspace
    corrupt, entry = MALFORMED[case]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt(init_ckpt.read_bytes()))
    with pytest.raises(CheckpointError, match=entry):
        load_checkpoint(bad)
    code, _, err = run(capsys, "localize", "--ckpt", str(bad),
                       "--image", str(data / "images" / "000000.ppm"),
                       "--text", "red", "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [dict(pooling="avg"), dict(mining="soft"),
                                     dict(embed_dim=0), dict(hidden_channels=(16, 0, 64)),
                                     dict(sru_layers=0), dict(visual_dropout=1.0),
                                     dict(sru_dropout=1.5), dict(sru_dropout=-0.1),
                                     dict(margin=0.0)])
    def test_bad_values_raise_at_construction(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ModelConfig(**bad)

    # (config, the error's text); the last cases were accepted or converted once: a
    # string of channels trained a one-block backbone and NaN ran until the loss.
    @pytest.mark.parametrize("bad", [
        ({"embed_dim": 16.9}, "embed_dim must be a whole number"),
        ({"hidden_channels": [4, 4.5, 4]}, "hidden_channels must be a whole number"),
        ({"top_k": 2.5}, "top_k must be a whole number"),
        ({"hidden_channels": "4"}, "hidden_channels must be a list"),
        ({"embed_dim": True}, "embed_dim must be a finite number"),
        ({"lr0": "1e-3"}, "lr0 must be a finite number"),
        ({"lr0": float("nan")}, "lr0 must be a finite number"),
        ({"margin": float("inf")}, "margin must be a finite number"),
        ({"lr0": 10 ** 400}, "lr0 must be a finite number"),
        ({"hidden_channels": [4, True]}, "hidden_channels must be a finite number"),
        ({"pooling": 0}, "pooling must be a string"),
        ({"top_k": -1}, "top_k must be in"),
        ({"seed": "3"}, "seed must be a finite number"),
        ({"seed": -1}, "seed must be >= 0")])
    def test_fractional_integer_setting_exit_2(self, tmp_path, capsys, workspace, bad):
        _, data, _, _ = workspace
        values, message = bad
        cfg_path = tmp_path / "frac.json"
        cfg_path.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(data), "--out", str(tmp_path / "x.ckpt"),
                  "--config", str(cfg_path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("text", ["[" * 100_000, "\udcff"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, workspace, text):
        _, data, _, _ = workspace
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(data), "--out", str(tmp_path / "x.ckpt"),
                  "--config", str(cfg_path)])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_non_finite_flag_exit_2(self, tmp_path, capsys, workspace):
        _, data, _, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(data), "--out", str(tmp_path / "x.ckpt"),
                  "--lr0", "nan"])
        assert exc.value.code == 2
        assert "lr0 must be a finite number" in capsys.readouterr().err

    def test_unknown_pooling_flag_exit_2(self, tmp_path, workspace):
        _, data, _, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(data), "--out", str(tmp_path / "x.ckpt"),
                  "--pooling", "avg"])
        assert exc.value.code == 2


_CONFIG_KEYS = [f.name for f in (*fields(ModelConfig), *fields(TrainSchedule))] + [
    "seed", "next_epoch", "crop_augment"]
# Numbers stay small: an accepted config initializes and saves a model of that size.
_CONFIG_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, 0.5, 2.0, 4.0, 1e-3])
    | st.sampled_from(["max_min", "mean", "hard", "random", "4", "1e-3", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=5)
_PLAUSIBLE = {"hidden_channels": st.lists(st.integers(1, 4), max_size=3),
              "pooling": st.sampled_from(["max_min", "mean"]),
              "mining": st.sampled_from(["hard", "random"]), "top_k": st.none() | st.integers(1, 4),
              "lr0": st.floats(1e-4, 1.0), "margin": st.floats(0.01, 1.0),
              "visual_dropout": st.floats(0.0, 0.9), "sru_dropout": st.floats(0.0, 0.9)}
_CONFIG_TEXT = (st.lists(st.sampled_from(_CONFIG_KEYS), max_size=4, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _PLAUSIBLE.get(k, st.integers(0, 4)) | _CONFIG_VALUE
                                        for k in keys})).map(json.dumps).map(str.encode)
                | st.sampled_from([b"[" * 100_000, b"\xff{}", b"[1, 2]", b"NaN", b"", b"{"])
                | st.binary(max_size=12))


class TestConfigProperty:
    """A --config file gives exit 2, or a checkpoint whose header holds its values."""

    @settings(max_examples=200, deadline=None)
    @given(text=_CONFIG_TEXT)
    def test_config_file(self, tmp_path_factory, workspace, text):
        _, data, _, _ = workspace
        root = tmp_path_factory.getbasetemp()
        cfg_path, out = root / "property.json", root / "property.ckpt"
        cfg_path.write_bytes(text)
        out.unlink(missing_ok=True)
        argv = ["train", "--data", str(data), "--out", str(out), "--config", str(cfg_path)]
        with mock.patch.object(semvis.train, "train_epoch", lambda *args: 0.0), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                assert main(argv) == 0
            except SystemExit as exc:
                assert exc.code == 2 and not out.exists()
                return
        bundle = load_checkpoint(out)
        for key, value in json.loads(text).items():
            held = (bundle.seed if key == "seed" else getattr(
                bundle.model.cfg if hasattr(bundle.model.cfg, key) else bundle.schedule, key))
            assert (list(held) if isinstance(held, tuple) else held) == value, key


class TestTopLevel:
    def test_train_module_name_is_the_module(self):
        assert inspect.ismodule(semvis.train)

    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_second_call_behaves_like_a_fresh_one(self, tmp_path, capsys, workspace):
        # One parser serves every call in a process; a failed parse must leave
        # nothing behind for the next.
        _, data, _, trained_ckpt = workspace
        image = str(data / "images" / "000000.ppm")
        with pytest.raises(SystemExit) as exc:
            main(["localize", "--ckpt", str(trained_ckpt), "--image", image, "--text", "red"])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        code, out, _ = run(capsys, "localize", "--ckpt", str(trained_ckpt), "--image", image,
                           "--text", "red", "--out", str(tmp_path / "a"))
        assert code == 0
        assert json.loads(out) == json.loads((tmp_path / "a.json").read_text())
