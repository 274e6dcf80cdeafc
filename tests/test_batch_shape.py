"""One batch shape: every engine op and encoder takes a batch, and the unbatched
forms they once also took (one image, one vector, one sequence, one dropout key)
end in a typed ``semvis.errors`` exception."""

import numpy as np
import pytest

from semvis import autodiff as ad
from semvis import localize, text, visual
from semvis.autodiff import Tensor
from semvis.errors import ContractError, ShapeError

UNBATCHED = {   # name: (call on the model's params and config, the error it raises)
    "conv2d": (lambda p, cfg: ad.conv2d(Tensor(np.ones((3, 16, 16))), p["backbone.0.kernel"]),
               ShapeError),
    "spatial_max_min": (lambda p, cfg: ad.spatial_max_min(Tensor(np.ones((5, 2, 2)))),
                        ShapeError),
    "spatial_mean": (lambda p, cfg: ad.spatial_mean(Tensor(np.ones((5, 2, 2)))), ShapeError),
    "backbone_forward": (lambda p, cfg: visual.backbone_forward(Tensor(np.ones((3, 16, 16))), p),
                         ShapeError),
    "pooled_features": (lambda p, cfg: visual.pooled_features(Tensor(np.ones((3, 16, 16))), p,
                                                              cfg), ShapeError),
    "activation_maps": (lambda p, cfg: localize.activation_maps(
        np.ones((5, 2, 2)), p["proj.weight"].data), ShapeError),
    "linear": (lambda p, cfg: ad.linear(Tensor(np.ones(5)), p["proj.weight"], p["proj.bias"]),
               ShapeError),
    "l2_normalize": (lambda p, cfg: ad.l2_normalize(Tensor(np.ones(6))), ShapeError),
    "sru_layer": (lambda p, cfg: text.sru_layer(Tensor(np.ones((4, 3))), p), ShapeError),
    "take_row": (lambda p, cfg: ad.take_row(Tensor(np.ones((4, 6))), -1), ShapeError),
    "encode_text": (lambda p, cfg: text.encode_text([1, 2, 3], p, cfg), ShapeError),
    "dropout with a tuple key": (lambda p, cfg: ad.dropout(Tensor(np.ones((1, 6))), 0.5, (1, 2)),
                                 ContractError),
    "dropout with an int key": (lambda p, cfg: ad.dropout(Tensor(np.ones((1, 6))), 0.5, 7),
                                ContractError),
    "dropout with a tuple key, eval mode": (lambda p, cfg: ad.dropout(
        Tensor(np.ones((1, 6))), 0.5, (1, 2), training=False), ContractError),
    "subkey": (lambda p, cfg: ad.subkey((1, 2), 3), ContractError),
}


@pytest.mark.parametrize("name", UNBATCHED)
def test_the_unbatched_form_raises_a_typed_error(name, micro_model):
    call, error = UNBATCHED[name]
    with pytest.raises(error):
        call(micro_model.params, micro_model.cfg)

