"""Ranking loss tests against exhaustive triplet enumeration."""

import numpy as np
import pytest

from conftest import cosine_sim, similarity_matrix, triplet_hinge, triplet_loss
from semvis.autodiff import Tensor
from semvis.errors import ContractError
from semvis.loss import Batch, LossConfig, batch_loss


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_unit_batch(rng, n, dim):
    images = [Tensor(unit(rng.normal(size=dim)), requires_grad=True) for _ in range(n)]
    captions = [Tensor(unit(rng.normal(size=dim)), requires_grad=True) for _ in range(n)]
    return Batch(images, captions, list(range(n)))


from conftest import enumerate_batch_loss as enumerate_loss


def embeddings_with_similarities(sims, base_cos=0.3):
    """Two unit images with cosine ``base_cos`` and unit captions realizing the
    requested 2x2 similarity matrix."""
    t = base_cos
    x1 = np.array([1.0, 0.0, 0.0, 0.0])
    x2 = np.array([t, np.sqrt(1 - t * t), 0.0, 0.0])
    captions = []
    for j in range(2):
        a, b = sims[0][j], sims[1][j]
        alpha = (a - t * b) / (1 - t * t)
        beta = (b - t * a) / (1 - t * t)
        gamma = np.sqrt(1.0 - (alpha ** 2 + beta ** 2 + 2 * t * alpha * beta))
        captions.append(alpha * x1 + beta * x2 + gamma * np.array([0.0, 0.0, 1.0, 0.0]))
    return [x1, x2], captions


class TestCosineAndTriplet:
    def test_identical_vectors(self):
        v = unit([1.0, 2.0, 2.0])
        assert cosine_sim(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_vectors(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert cosine_sim([0.6, 0.8], [1.0, 0.0]) == pytest.approx(0.6)

    def test_triplet_inactive_when_separated(self):
        # sims 0.9 vs 0.5 with margin 0.2: the hinge is closed.
        y = np.array([1.0, 0.0, 0.0])
        z = unit([0.9, np.sqrt(1 - 0.81), 0.0])
        zp = unit([0.5, 0.0, np.sqrt(1 - 0.25)])
        assert triplet_loss(y, z, zp, margin=0.2) == 0.0

    def test_triplet_open_hinge_value(self):
        y = np.array([1.0, 0.0, 0.0])
        z = unit([0.5, np.sqrt(0.75), 0.0])
        zp = unit([0.6, 0.0, 0.8])
        assert triplet_loss(y, z, zp, margin=0.2) == pytest.approx(0.3, abs=1e-12)

    def test_same_negative_as_positive_gives_margin(self):
        y, z = unit([1.0, 1.0]), unit([1.0, -1.0])
        assert triplet_loss(y, z, z, margin=0.2) == pytest.approx(0.2, abs=1e-15)

    def test_hinge_graph_matches_float_version(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y, z, zp = (unit(rng.normal(size=5)) for _ in range(3))
            graph = triplet_hinge(Tensor(y), Tensor(z), Tensor(zp), 0.2).item()
            assert graph == pytest.approx(triplet_loss(y, z, zp, 0.2), abs=1e-14)


class TestBatchLoss:
    def test_perfectly_separated_batch_has_zero_loss(self):
        # Captions equal to their images, mutually orthogonal across images.
        eye = np.eye(4)
        batch = Batch([Tensor(eye[i]) for i in range(3)],
                      [Tensor(eye[i]) for i in range(3)], [0, 1, 2])
        assert batch_loss(batch, LossConfig(0.2, "hard")).item() == 0.0

    @pytest.mark.parametrize("mining", ["hard", "random"])
    def test_worked_two_pair_example(self, mining):
        # Hand similarity matrix [[0.9, 0.8], [0.1, 0.7]]: caption-side hinges
        # 0.1 and 0, image-side 0 and 0.3, so the mean over the batch is 0.2.
        images, captions = embeddings_with_similarities([[0.9, 0.8], [0.1, 0.7]])
        sim = np.array(images) @ np.array(captions).T
        np.testing.assert_allclose(sim, [[0.9, 0.8], [0.1, 0.7]], atol=1e-12)
        batch = Batch([Tensor(x) for x in images], [Tensor(v) for v in captions], [0, 1])
        assert batch_loss(batch, LossConfig(0.2, mining)).item() == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("mining", ["hard", "random"])
    def test_matches_enumeration_oracle(self, mining):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            batch = random_unit_batch(rng, n, dim=6)
            got = batch_loss(batch, LossConfig(0.2, mining)).item()
            want = enumerate_loss([x.data for x in batch.images],
                                  [v.data for v in batch.captions],
                                  batch.image_ids, 0.2, mining)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_hard_term_dominates_every_triplet(self):
        rng = np.random.default_rng(7)
        batch = random_unit_batch(rng, 5, dim=6)
        hard = batch_loss(batch, LossConfig(0.2, "hard")).item()
        n = len(batch.images)
        per_triplet = 0.0
        for i in range(n):
            for m in range(n):
                if m != i:
                    per_triplet = max(per_triplet,
                                      triplet_loss(batch.images[i].data,
                                                   batch.captions[i].data,
                                                   batch.captions[m].data, 0.2) / n)
        assert hard >= per_triplet - 1e-15

    def test_hard_at_least_random(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            batch = random_unit_batch(rng, int(rng.integers(2, 8)), dim=5)
            hard = batch_loss(batch, LossConfig(0.2, "hard")).item()
            rand = batch_loss(batch, LossConfig(0.2, "random")).item()
            assert hard >= rand - 1e-12

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            batch = random_unit_batch(rng, 4, dim=4)
            assert batch_loss(batch, LossConfig(0.2, "hard")).item() >= 0.0

    def test_shared_image_ids_are_never_negatives(self):
        # Two captions of the same image: with only the other pair as negative,
        # a batch where the same-id caption is closest must ignore it.
        x0 = np.array([1.0, 0.0, 0.0])
        batch = Batch(
            images=[Tensor(x0), Tensor(x0), Tensor(np.array([0.0, 1.0, 0.0]))],
            captions=[Tensor(unit([0.9, 0.1, 0.0])), Tensor(unit([0.8, 0.2, 0.0])),
                      Tensor(np.array([0.0, 1.0, 0.0]))],
            image_ids=[5, 5, 6],
        )
        got = batch_loss(batch, LossConfig(0.2, "hard")).item()
        want = enumerate_loss([x.data for x in batch.images],
                              [v.data for v in batch.captions], [5, 5, 6], 0.2, "hard")
        assert got == pytest.approx(want, abs=1e-15)

    def test_single_distinct_image_rejected(self):
        v = Tensor(np.array([1.0, 0.0]))
        with pytest.raises(ContractError):
            batch_loss(Batch([v, v], [v, v], [3, 3]), LossConfig())

    def test_mismatched_lengths_rejected(self):
        v = Tensor(np.array([1.0, 0.0]))
        with pytest.raises(ContractError):
            Batch([v, v], [v], [0, 1])

    def test_uninvolved_embedding_gets_zero_gradient(self):
        # Entries 0 and 1 carry every active hinge; entry 2 is perfectly
        # matched, orthogonal to the rest, and never the hardest negative.
        x = [Tensor(np.eye(4)[i], requires_grad=True) for i in range(3)]
        v = [Tensor(unit([0.5, 0.5, 0.0, 0.0]), requires_grad=True),
             Tensor(unit([0.5, 0.8, 0.0, 0.0]), requires_grad=True),
             Tensor(np.eye(4)[2], requires_grad=True)]
        loss = batch_loss(Batch(x, v, [0, 1, 2]), LossConfig(0.2, "hard"))
        assert loss.item() > 0.0
        loss.backward()
        np.testing.assert_array_equal(x[2].grad, np.zeros(4))
        np.testing.assert_array_equal(v[2].grad, np.zeros(4))
        assert np.any(x[0].grad != 0.0)

    def test_depends_only_on_the_gram_matrix(self):
        rng = np.random.default_rng(10)
        batch = random_unit_batch(rng, 4, dim=6)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        rotated = Batch([Tensor(q @ x.data) for x in batch.images],
                        [Tensor(q @ v.data) for v in batch.captions], batch.image_ids)
        a = batch_loss(batch, LossConfig(0.2, "hard")).item()
        b = batch_loss(rotated, LossConfig(0.2, "hard")).item()
        assert a == pytest.approx(b, abs=1e-10)

    def test_margin_must_be_positive(self):
        with pytest.raises(ValueError):
            LossConfig(margin=0.0)


class TestSimilarityMatrix:
    def test_orthonormal_self_similarity_is_identity(self):
        vecs = [Tensor(np.eye(4)[i]) for i in range(4)]
        np.testing.assert_array_equal(similarity_matrix(vecs, vecs).data, np.eye(4))

    def test_single_image_two_captions(self):
        x = [unit([1.0, 1.0, 0.0])]
        v = [unit([1.0, 0.0, 0.0]), unit([0.0, 1.0, 1.0])]
        out = similarity_matrix(x, v).data
        assert out.shape == (1, 2)
        np.testing.assert_allclose(out[0], [cosine_sim(x[0], v[0]), cosine_sim(x[0], v[1])])

    def test_matches_entrywise_cosine(self):
        rng = np.random.default_rng(11)
        images = [unit(rng.normal(size=5)) for _ in range(3)]
        captions = [unit(rng.normal(size=5)) for _ in range(4)]
        out = similarity_matrix(images, captions).data
        for i in range(3):
            for j in range(4):
                assert out[i, j] == cosine_sim(images[i], captions[j])
