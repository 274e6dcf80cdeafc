"""Train a small joint embedding and watch retrieval sharpen.

Uses a reduced configuration so the whole script runs in about a minute.

Run:  python3 demos/03_train_and_retrieve.py
"""

from semvis.autodiff import no_grad
from semvis.data import generate_dataset
from semvis.evaluate import eval_retrieval
from semvis.model import Model, ModelConfig
from semvis.train import AdamState, TrainSchedule, train


def retrieval_r1(model, dataset):
    """Both retrieval reports: every image and every caption embedded as one batch."""
    with no_grad():
        images = model.encode_images([scene.image for scene in dataset.scenes]).data
        captions = model.encode_texts([cap for scene in dataset.scenes
                                       for cap in scene.captions]).data
    owners = [i for i, scene in enumerate(dataset.scenes) for _ in scene.captions]
    return eval_retrieval(images @ captions.T, owners)


train_set = generate_dataset(120, seed=1)
test_set = generate_dataset(40, seed=2)

cfg = ModelConfig(embed_dim=48, adapt_channels=48, backbone_channels=48, word_dim=24)
model = Model.initialize(cfg, train_set.vocab, seed=1)

cap0, img0 = retrieval_r1(model, test_set)
print(f"untrained: caption R@1 {cap0.r_at[1]:.3f}  image R@1 {img0.r_at[1]:.3f}")

sched = TrainSchedule(epochs=12, batch_size=24, freeze_epochs=2)
history = train(model, train_set, sched, seed=1, state=AdamState())
print("loss:", " -> ".join(f"{h['loss']:.3f}" for h in history[::3]))

cap1, img1 = retrieval_r1(model, test_set)
print(f"trained:   caption R@1 {cap1.r_at[1]:.3f}  image R@1 {img1.r_at[1]:.3f}")
print(f"           caption R@5 {cap1.r_at[5]:.3f}  median rank {cap1.median_rank}")
