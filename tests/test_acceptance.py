"""The acceptance gate: one test per numbered criterion, most-expensive last.

Each test prints one ``ACCEPTANCE n (...): PASS/FAIL`` line (visible with
``pytest -s``).  Criterion 6 trains the reference model, so the module takes
on the order of ten minutes; everything else is seconds.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import (MICRO_CONFIG, add_channel_bias, enumerate_batch_loss,
                      oracle_retrieval_ranks, relu, sru_cell, triplet_hinge, weighted_sum)
from semvis import autodiff as ad
from semvis.autodiff import Tensor
from semvis.data import generate_dataset
from semvis.evaluate import eval_pointing, eval_retrieval
from semvis.localize import LocalizationConfig, activation_maps, heatmap, point, top_k_indices
from semvis.loss import Batch, LossConfig, batch_loss
from semvis.model import Model, ModelConfig
from semvis.text import Vocab
from semvis.train import (AdamState, TrainSchedule, effective_lr, load_checkpoint,
                          save_checkpoint, train, trainable_set)
from semvis.visual import project
from test_loss import embeddings_with_similarities, random_unit_batch, unit


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({label}): PASS")


GRAD_TOL = 1e-4
FD_POINTS = 10


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------

def _check_conv2d(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 1, 5, 5)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    return ad.grad_check(lambda: weighted_sum((ad.conv2d(x, k, stride=2, pad=1), 1.0)), [x, k])


def _check_spatial_max_min(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 1, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(1, 3)))
    flat = x.data.reshape(3, -1)
    gaps = np.sort(flat, axis=1)
    assert (gaps[:, 1] - gaps[:, 0] > 1e-3).all() and (gaps[:, -1] - gaps[:, -2] > 1e-3).all()
    return ad.grad_check(lambda: weighted_sum((ad.spatial_max_min(x), w)), [x])


def _check_l2_normalize(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(1, 7)), requires_grad=True)
    w = Tensor(rng.normal(size=(1, 7)))
    return ad.grad_check(lambda: weighted_sum((ad.l2_normalize(x), w)), [x])


def _check_sru_cell(seed):
    rng = np.random.default_rng(seed)
    layer = {name: Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True)
             for name, shape in (("sru.0.weight", (12, 3)), ("sru.0.bias_f", 4),
                                 ("sru.0.bias_r", 4), ("sru.0.proj", (4, 3)))}
    x = Tensor(rng.normal(size=3), requires_grad=True)
    c_prev = Tensor(rng.normal(size=4), requires_grad=True)
    w1, w2 = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))

    def f():
        h, c = sru_cell(x, c_prev, layer)
        return weighted_sum((h, w1), (c, w2))

    return ad.grad_check(f, [x, c_prev, *layer.values()])


def _check_project(seed):
    rng = np.random.default_rng(seed)
    params = {"proj.weight": Tensor(rng.normal(size=(4, 6)), requires_grad=True),
              "proj.bias": Tensor(rng.normal(size=4), requires_grad=True)}
    h = Tensor(rng.normal(size=(1, 6)) + 2.0, requires_grad=True)
    w = Tensor(rng.normal(size=(1, 4)))
    return ad.grad_check(lambda: weighted_sum((project(h, params), w)),
                         [h, *params.values()])


def _check_triplet(seed):
    rng = np.random.default_rng(seed)
    while True:
        y, z, zp = (unit(rng.normal(size=5)) for _ in range(3))
        violation = 0.2 - y @ z + y @ zp
        if violation > 1e-3:  # active hinge, away from the kink
            break
    ty = Tensor(y, requires_grad=True)
    tz = Tensor(z, requires_grad=True)
    tzp = Tensor(zp, requires_grad=True)
    return ad.grad_check(lambda: triplet_hinge(ty, tz, tzp, 0.2), [ty, tz, tzp])


def _hinge_gaps(batch, margin):
    """Distances of every contrastive hinge from its kink."""
    x = np.stack([t.data for t in batch.images])
    v = np.stack([t.data for t in batch.captions])
    sim = x @ v.T
    pos = np.diag(sim)
    ids = np.asarray(batch.image_ids)
    off = ids[:, None] != ids[None, :]
    gaps = np.concatenate([(margin - pos[:, None] + sim)[off],
                           (margin - pos[:, None] + sim.T)[off]])
    return np.abs(gaps)


def _check_batch_loss_hard(seed):
    rng = np.random.default_rng(seed)
    while True:
        batch = random_unit_batch(rng, 4, dim=6)
        if _hinge_gaps(batch, 0.2).min() > 1e-3:
            break
    params = batch.images + batch.captions
    return ad.grad_check(lambda: batch_loss(batch, LossConfig(0.2, "hard")), params)


def _reference_micro_batch(seed=7):
    """Four image/caption pairs through a micro model, at a generic point.

    A finite-difference step can cross a non-differentiable locus, so the
    point is made generic on purpose: strictly positive random pixels and
    randomized biases (synthetic scenes over zero biases put ReLU
    pre-activations exactly at their kinks), with seed 7 picked so every
    margin measured by ``kink_distances`` clears the FD crossing radius.
    """
    rng = np.random.default_rng(seed)
    vocab = Vocab(["red", "circle", "a", "blue", "square", "the", "is"])
    model = Model.initialize(ModelConfig(**MICRO_CONFIG, mining="hard"), vocab, seed=seed)
    for name, p in model.params.items():
        if name.endswith(("bias", "bias_f", "bias_r")):
            p.data = p.data + rng.uniform(-0.3, 0.3, size=p.data.shape)
    images = [rng.uniform(0.05, 1.0, size=(3, 64, 64)) for _ in range(4)]
    token_seqs = [rng.integers(0, len(vocab), size=int(rng.integers(2, 6))).tolist()
                  for _ in range(4)]

    def f():
        xs, vs = [], []
        for image, tokens in zip(images, token_seqs):
            x, _ = model.encode_image(image, training=False)
            xs.append(x)
            vs.append(model.encode_text(tokens, training=False))
        return batch_loss(Batch(xs, vs, [0, 1, 2, 3]), LossConfig(0.2, "hard"))

    def kink_distances():
        from semvis import visual as vis
        relu_margin, pool_margin = np.inf, np.inf
        for image in images:
            out = vis.image_to_tensor(np.asarray(image)[:, None])
            for i in range(len(model.cfg.hidden_channels) + 1):
                pre = add_channel_bias(ad.conv2d(out, model.params[f"backbone.{i}.kernel"],
                                                 stride=2, pad=1),
                                       model.params[f"backbone.{i}.bias"])
                relu_margin = min(relu_margin, np.abs(pre.data).min())
                out = relu(pre)
            stack = vis.adapt(out, model.params)
            cells = np.sort(stack.data.reshape(stack.data.shape[0], -1), axis=1)
            pool_margin = min(pool_margin, (cells[:, -1] - cells[:, -2]).min(),
                              (cells[:, 1] - cells[:, 0]).min())
        xs = np.stack([model.encode_image(img)[0].data for img in images])
        vs = np.stack([model.encode_text(t).data for t in token_seqs])
        sim = xs @ vs.T
        pos = np.diag(sim)
        gaps = np.stack([0.2 - pos[:, None] + sim, 0.2 - pos[:, None] + sim.T])
        off = ~np.eye(4, dtype=bool)
        ordered = np.sort(gaps[:, off].reshape(2, 4, 3), axis=2)
        tie_margin = (ordered[:, :, -1] - ordered[:, :, -2]).min()
        return relu_margin, pool_margin, np.abs(gaps[:, off]).min(), tie_margin

    return model, f, kink_distances


def test_criterion_1_gradient_suite():
    started = time.time()
    with criterion(1, "gradient suite"):
        checks = {"conv2d": _check_conv2d, "spatial_max_min": _check_spatial_max_min,
                  "l2_normalize": _check_l2_normalize, "sru_cell": _check_sru_cell,
                  "project": _check_project, "triplet_loss": _check_triplet,
                  "batch_loss_hard": _check_batch_loss_hard}
        for name, check in checks.items():
            worst = max(check(seed) for seed in range(FD_POINTS))
            assert worst < GRAD_TOL, f"{name}: worst relative error {worst:.2e}"

        model, f, kink_distances = _reference_micro_batch()
        assert f().item() > 0.0  # hinges active, so the check is informative
        relu_m, pool_m, hinge_m, tie_m = kink_distances()
        assert relu_m > 1e-5 and pool_m > 1e-5, "a ReLU or pooling margin is inside FD reach"
        assert hinge_m > 1e-3 and tie_m > 1e-3, "batch sits too close to a hinge kink or max tie"
        worst = ad.grad_check(f, list(model.params.values()))
        assert worst < GRAD_TOL, f"end-to-end: worst relative error {worst:.2e}"

        elapsed = time.time() - started
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criteria 2-5: exhaustive oracles
# ---------------------------------------------------------------------------

def test_criterion_2_pooling_oracle():
    with criterion(2, "pooling oracle"):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            c, h, w = (int(rng.integers(1, 6)) for _ in range(3))
            stack = rng.normal(size=(c, h, w))
            got = ad.spatial_max_min(Tensor(stack[:, None])).data[0]
            want = np.array([ch.reshape(-1).max() + ch.reshape(-1).min() for ch in stack])
            assert (got == want).all()


def test_criterion_3_loss_oracle():
    with criterion(3, "loss oracle"):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            batch = random_unit_batch(rng, n, dim=6)
            for mining in ("hard", "random"):
                got = batch_loss(batch, LossConfig(0.2, mining)).item()
                want = enumerate_batch_loss([x.data for x in batch.images],
                                            [v.data for v in batch.captions],
                                            batch.image_ids, 0.2, mining)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

        images, captions = embeddings_with_similarities([[0.9, 0.8], [0.1, 0.7]])
        worked = Batch([Tensor(x) for x in images], [Tensor(v) for v in captions], [0, 1])
        assert batch_loss(worked, LossConfig(0.2, "hard")).item() == pytest.approx(0.2, abs=1e-12)


def test_criterion_4_retrieval_oracle():
    with criterion(4, "retrieval-metric oracle"):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_img = int(rng.integers(2, 11))
            caps_per = int(rng.integers(1, 6))
            owners = [i for i in range(n_img) for _ in range(caps_per)]
            sim = rng.normal(size=(n_img, len(owners)))
            cap, img = eval_retrieval(sim, owners, r_values=(1, 5, 10))
            cap_ranks, img_ranks = oracle_retrieval_ranks(sim, owners)
            for r in (1, 5, 10):
                assert cap.r_at[r] == np.mean([rk <= r for rk in cap_ranks])
                assert img.r_at[r] == np.mean([rk <= r for rk in img_ranks])
            assert cap.median_rank == np.median(cap_ranks)
            assert img.median_rank == np.median(img_ranks)


def test_criterion_5_localization_identities():
    with criterion(5, "localization identities"):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(6, 3, 4))
        assert (activation_maps(stack[:, None], np.eye(6))[0] == stack).all()

        maps = rng.normal(size=(6, 3, 4))
        v = rng.normal(size=6)
        heat = heatmap(maps, v, LocalizationConfig(top_k=6))
        brute = np.zeros((3, 4))
        for u in range(6):
            brute += abs(v[u]) * maps[u]
        assert np.allclose(heat, brute, rtol=1e-13, atol=0)

        for _ in range(50):
            values = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            h, w = values.shape
            heat = heatmap(values[None].repeat(2, axis=0), np.array([1.0, -1.0]),
                           LocalizationConfig(top_k=1))
            px, py = point(heat, (h * 16, w * 16))
            best = max(((i, j) for i in range(h) for j in range(w)),
                       key=lambda ij: (values[ij], -ij[0] * w - ij[1]))
            assert (px, py) == ((best[1] + 0.5) * 16.0, (best[0] + 0.5) * 16.0)


# ---------------------------------------------------------------------------
# criterion 6: end-to-end toy reproduction (reference run)
# ---------------------------------------------------------------------------

# Frozen from the reference run (seed 1 training data, seed 2 test data);
# reruns are bit-identical, the tolerance absorbs platform variation.
FROZEN_TRAINED_CAPTION_R1 = 0.47
FROZEN_POINTING_ACCURACY = 0.964

REFERENCE_SEED = 1
TEST_DATA_SEED = 2


@pytest.fixture(scope="module")
def reference_run():
    started = time.time()
    train_ds = generate_dataset(500, seed=REFERENCE_SEED)
    test_ds = generate_dataset(100, seed=TEST_DATA_SEED)
    model = Model.initialize(ModelConfig(), train_ds.vocab, seed=REFERENCE_SEED)

    def retrieval(m):
        images, captions, owners = [], [], []
        for i, scene in enumerate(test_ds.scenes):
            images.append(m.encode_image(scene.image)[0].data)
            for cap in scene.captions:
                captions.append(m.encode_text(cap).data)
                owners.append(i)
        return eval_retrieval(np.stack(images) @ np.stack(captions).T, owners)

    untrained_cap, _ = retrieval(model)
    train(model, train_ds, TrainSchedule(), seed=REFERENCE_SEED, state=AdamState())
    trained_cap, trained_img = retrieval(model)
    pointing = eval_pointing(model, test_ds.regions(),
                             LocalizationConfig(top_k=model.cfg.effective_top_k()))
    return {"untrained_cap_r1": untrained_cap.r_at[1],
            "trained_cap_r1": trained_cap.r_at[1],
            "trained_img_r1": trained_img.r_at[1],
            "pointing": pointing.accuracy,
            "baseline": pointing.baseline_accuracy,
            "elapsed": time.time() - started,
            "model": model, "test_ds": test_ds}


def test_criterion_6_end_to_end_reproduction(reference_run):
    r = reference_run
    with criterion(6, "end-to-end toy reproduction"):
        print(f"\n  untrained caption R@1 {r['untrained_cap_r1']:.3f} | "
              f"trained {r['trained_cap_r1']:.3f} | pointing {r['pointing']:.3f} "
              f"vs center {r['baseline']:.3f} | {r['elapsed'] / 60:.1f} min")
        # R@1 over the 100 test images moves in steps of one image; compare
        # whole images, since 0.41 - 0.01 is 0.39999999999999997 in floats.
        assert round(100 * (r["trained_cap_r1"] - r["untrained_cap_r1"])) >= 40
        assert r["pointing"] - r["baseline"] >= 0.15
        assert r["trained_cap_r1"] == pytest.approx(FROZEN_TRAINED_CAPTION_R1, abs=0.05)
        assert r["pointing"] == pytest.approx(FROZEN_POINTING_ACCURACY, abs=0.05)
        assert r["elapsed"] < 15 * 60


# ---------------------------------------------------------------------------
# criterion 7: ablation directions
# ---------------------------------------------------------------------------

ABLATION_SEEDS = (1, 2, 3)


def _small_caption_r1(model, test_ds):
    images, captions, owners = [], [], []
    for i, scene in enumerate(test_ds.scenes):
        images.append(model.encode_image(scene.image)[0].data)
        for cap in scene.captions:
            captions.append(model.encode_text(cap).data)
            owners.append(i)
    cap, _ = eval_retrieval(np.stack(images) @ np.stack(captions).T, owners)
    return cap.r_at[1]


def test_criterion_7_ablation_directions():
    with criterion(7, "ablation directions"):
        mine_votes, pool_votes = [], []
        for seed in ABLATION_SEEDS:
            train_ds = generate_dataset(120, seed=seed)
            test_ds = generate_dataset(60, seed=seed + 100)
            sched = TrainSchedule(epochs=8, batch_size=32)

            # Mining: fine-tune a shared warm start with each strategy (the
            # hardest-negative loss needs structured embeddings to compare).
            warm = Model.initialize(ModelConfig(), train_ds.vocab, seed=seed)
            warm_state = AdamState()
            train(warm, train_ds, sched, seed=seed, state=warm_state)
            scores = {}
            for mining in ("hard", "random"):
                arm = Model.from_params(replace(warm.cfg, mining=mining), warm.vocab,
                                        {k: v.data.copy() for k, v in warm.params.items()})
                tune = TrainSchedule(epochs=12, batch_size=32, freeze_epochs=0)
                train(arm, train_ds, tune, seed=seed + 7, state=AdamState(),
                      start_epoch=8)
                scores[mining] = _small_caption_r1(arm, test_ds)
            mine_votes.append(scores["hard"] >= scores["random"])
            print(f"\n  seed {seed}: R@1 hard {scores['hard']:.3f} "
                  f"vs random {scores['random']:.3f}")

            # Pooling: same training procedure, only the pooling mode differs.
            accs = {}
            for pooling in ("max_min", "mean"):
                m = Model.initialize(ModelConfig(pooling=pooling), train_ds.vocab, seed=seed)
                train(m, train_ds, sched, seed=seed, state=AdamState())
                accs[pooling] = eval_pointing(
                    m, test_ds.regions(),
                    LocalizationConfig(top_k=m.cfg.effective_top_k())).accuracy
            pool_votes.append(accs["max_min"] >= accs["mean"])
            print(f"  seed {seed}: pointing max+min {accs['max_min']:.3f} "
                  f"vs mean {accs['mean']:.3f}")

        assert sum(mine_votes) >= 2, f"hard >= random in only {sum(mine_votes)}/3 seeds"
        assert sum(pool_votes) >= 2, f"max+min >= mean in only {sum(pool_votes)}/3 seeds"


# ---------------------------------------------------------------------------
# criterion 8: invariants
# ---------------------------------------------------------------------------

def test_criterion_8_invariants(tmp_path, reference_run):
    with criterion(8, "invariants"):
        model = reference_run["model"]
        test_ds = reference_run["test_ds"]
        for scene in test_ds.scenes[:10]:
            x, _ = model.encode_image(scene.image)
            assert abs(np.linalg.norm(x.data) - 1.0) <= 1e-12
            for cap in scene.captions:
                v = model.encode_text(cap)
                assert abs(np.linalg.norm(v.data) - 1.0) <= 1e-12

        # Frozen phase, seeded reproducibility, checkpoint round trip (small).
        small = generate_dataset(12, seed=9)
        cfg = ModelConfig(**MICRO_CONFIG)
        sched = TrainSchedule(epochs=2, batch_size=8, freeze_epochs=2)
        blobs = []
        for run in range(2):
            m = Model.initialize(cfg, small.vocab, seed=9)
            frozen = {k: v.data.copy() for k, v in m.params.items()
                      if k.startswith(("backbone.", "adapt."))}
            state = AdamState()
            train(m, small, sched, seed=9, state=state)
            for name, before in frozen.items():
                assert (m.params[name].data == before).all(), f"{name} drifted while frozen"
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(path, m, state, sched, seed=9, next_epoch=2)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1], "seeded training is not bit-reproducible"

        bundle = load_checkpoint(tmp_path / "run0.ckpt")
        save_checkpoint(tmp_path / "resaved.ckpt", bundle.model, bundle.opt_state,
                        bundle.schedule, bundle.seed, bundle.next_epoch)
        assert (tmp_path / "resaved.ckpt").read_bytes() == blobs[0]


# ---------------------------------------------------------------------------
# criterion 9: full-scale configuration dry run
# ---------------------------------------------------------------------------

def test_criterion_9_full_scale_configuration():
    with criterion(9, "full-scale configuration dry run"):
        cfg = ModelConfig(backbone_channels=2048, adapt_channels=2400, embed_dim=2400,
                          word_dim=620, sru_layers=4, top_k=180)
        vocab = Vocab(["a", "red", "circle", "blue", "square"])
        model = Model.initialize(cfg, vocab, seed=0)

        # Wiring: channel plan 3 -> 16 -> 32 -> 64 -> 2048, adaptation
        # 2048 -> 2400, projection (2400 + 1) x 2400, four recurrent layers
        # of width 2400 fed by 620-dim word vectors.
        assert model.params["backbone.3.kernel"].shape == (2048, 64, 3, 3)
        assert model.params["adapt.kernel"].shape == (2400, 2048, 1, 1)
        assert model.params["adapt.kernel"].data.size == 2048 * 2400
        assert model.params["proj.weight"].shape == (2400, 2400)
        assert model.params["proj.bias"].shape == (2400,)
        assert model.params["word.table"].shape == (len(vocab), 620)
        assert model.params["sru.0.weight"].shape == (3 * 2400, 620)
        assert model.params["sru.0.proj"].shape == (2400, 620)
        assert model.params["sru.3.weight"].shape == (3 * 2400, 2400)
        assert "sru.3.proj" not in model.params  # equals hidden width by then

        image = (np.random.default_rng(0).random((3, 64, 64)) * 255).astype(np.uint8)
        x, stack = model.encode_image(image)
        v = model.encode_text("a red circle")
        assert x.shape == (2400,) and v.shape == (2400,)
        assert abs(np.linalg.norm(x.data) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(v.data) - 1.0) <= 1e-12
        assert stack.shape == (2400, 1, 4, 4)
        assert len(top_k_indices(v.data, cfg.effective_top_k())) == 180

        sched = TrainSchedule(epochs=30, batch_size=160, lr0=0.001,
                              halving_until_epoch=7, freeze_epochs=8)
        assert effective_lr(0, sched) == 0.001
        assert effective_lr(7, sched) == effective_lr(100, sched) == 0.001 / 128
        early = trainable_set(7, sched, model.params)
        assert not any(n.startswith(("backbone.", "adapt.")) for n in early)
        assert trainable_set(8, sched, model.params) == sorted(model.params)
