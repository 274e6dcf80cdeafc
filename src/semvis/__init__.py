"""semvis: a joint image/text embedding with phrase localization, at desk scale.

A fully convolutional image encoder (max+min spatial pooling, affine
projection) and a recurrent caption encoder map both modalities onto the
unit sphere of a shared space, trained with a batch hard-negative triplet
ranking loss.  The projection matrix doubles as a bank of 1x1 filters that
turn any text embedding into an image heatmap, evaluated with the pointing
game.  Everything runs on the package's own float64 autodiff engine; the
only dependency is numpy.
"""

__version__ = "0.1.0"
