"""Point at the object a phrase names, using only the retrieval-trained model.

No box supervision is involved: the projection matrix applied per pixel
yields one activation map per embedding dimension, and the phrase embedding
says which maps to blend.

Run:  python3 demos/04_localize_phrase.py [out_prefix]
"""

import sys

from semvis.data import generate_dataset
from semvis.localize import LocalizationConfig, activation_maps, heatmap, point, render_heatmap
from semvis.model import Model, ModelConfig
from semvis.train import AdamState, TrainSchedule, train

train_set = generate_dataset(120, seed=1)
cfg = ModelConfig(embed_dim=48, adapt_channels=48, backbone_channels=48, word_dim=24)
model = Model.initialize(cfg, train_set.vocab, seed=1)
train(model, train_set, TrainSchedule(epochs=12, batch_size=24), seed=1, state=AdamState())

scene = generate_dataset(8, seed=3).scenes[5]
print("objects in the probe scene:")
for obj in scene.objects:
    print(f"  {obj.phrase:20s} bbox {obj.bbox}")

_, stack = model.encode_image(scene.image)
maps = activation_maps(stack.data, model.params["proj.weight"].data)
loc_cfg = LocalizationConfig(top_k=model.cfg.effective_top_k())

for phrase, bbox in scene.regions:
    heat = heatmap(maps, model.encode_text(phrase).data, loc_cfg)
    px, py = point(heat, scene.image.shape[1:])
    x, y, w, h = bbox
    hit = x <= px < x + w and y <= py < y + h
    print(f"{phrase:20s} -> peak ({px:4.1f}, {py:4.1f})  box {bbox}  {'HIT' if hit else 'miss'}")

if len(sys.argv) > 1:
    phrase = scene.regions[0][0]
    heat = heatmap(maps, model.encode_text(phrase).data, loc_cfg)
    paths = render_heatmap(heat, scene.image, sys.argv[1])
    print(f"wrote {paths[0]} and {paths[1]} for {phrase!r}")
