"""A tour of the float64 autodiff engine, on the ops the model runs.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from semvis import autodiff as ad
from semvis.autodiff import Tensor

# The image path in miniature: a convolution with its channel bias and ReLU
# fused into one node -> max+min pooling -> affine projection -> l2 norm.
rng = np.random.default_rng(0)
image = Tensor(rng.random((2, 8, 8)), requires_grad=True)
kernel = Tensor(rng.normal(scale=0.3, size=(3, 2, 3, 3)), requires_grad=True)
bias = Tensor(rng.normal(scale=0.1, size=3), requires_grad=True)
weight = Tensor(rng.normal(scale=0.5, size=(4, 3)), requires_grad=True)
offset = Tensor(rng.normal(scale=0.1, size=4), requires_grad=True)
caption = ad.l2_normalize(Tensor(rng.normal(size=4)))   # stands in for a caption embedding


def embed():
    features = ad.conv2d(image, kernel, stride=2, pad=1, bias=bias, relu=True)
    pooled = ad.spatial_max_min(features)          # per channel: max + min
    return ad.l2_normalize(ad.linear(pooled, weight, offset))


def score(x, v):
    """The cosine <x, v> of two unit vectors as one graph node: a kernel and its
    hand-written backward, joined by ``ad.fused_op`` as the recurrent layer and
    the ranking loss are."""
    def backward(g, accumulate):
        accumulate(x, g * v.data)
        accumulate(v, g * x.data)

    return ad.fused_op(x.data @ v.data, (x, v), "score", backward)


embedding = embed()
print("embedding:", np.round(embedding.data, 4), "| norm:", np.linalg.norm(embedding.data))

# Reverse-mode gradients of a scalar flow back to every tracked input.
similarity = score(embedding, caption)
similarity.backward()
print(f"score {similarity.item():.4f}; grad wrt kernel has shape", kernel.grad.shape,
      "and mean magnitude", float(np.abs(kernel.grad).mean()))

# The engine's gradients agree with central finite differences.
err = ad.grad_check(lambda: score(embed(), caption), [image, kernel, bias, weight, offset])
print(f"worst relative error vs finite differences: {err:.2e}")

# max+min pooling keeps negative evidence: a strongly negative cell
# subtracts from the channel's score, unlike plain max pooling.
stack = Tensor(np.array([[[5.0, 0.0], [0.0, -4.0]]]))
print("max+min of [[5,0],[0,-4]]:", ad.spatial_max_min(stack).data[0], "(5 + -4)")
