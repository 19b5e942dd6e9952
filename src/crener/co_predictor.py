"""Co-predictor: biaffine scores over character representations plus MLP
scores over the final round's tag features, summed per cell. Each head reads
its weights from the `ParamStore` by name (`pred.subj.*`, `pred.obj.*`,
`pred.biaffine.*`; `pred.mlp.*`); a head of width 0 has none there.

The MLP head reads the tag map that the forward builds once
(`relation_enhance.tag_affine`). A cell carries every tag scoring above
a fixed threshold s0, and the matching loss, one
`autodiff.threshold_loss` op, drives every gold-tag score above s0 and
every other score below it. A cell may carry several tags: a 2-character
mention needs NNC and HTC_y in one cell, so no choice of one tag per
cell decodes it.
Prediction returns the boolean (n, n, |R|) grid that the decoder reads
and the gold codec writes. Scores, grids and the loss also take leading
batch axes: (..., n, n, |R|) with (..., n, n) masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .errors import ConfigError


@dataclass
class PredictorConfig:
    d_biaffine: int = 32
    d_hidden: int = 64
    threshold: float = 0.0

    def validate(self) -> None:
        if self.d_biaffine < 0 or self.d_hidden < 0:
            raise ConfigError("predictor widths must be >= 0")
        if self.d_biaffine == 0 and self.d_hidden == 0:
            raise ConfigError("cannot disable both predictor heads")


def biaffine_scores(h: Tensor, store: ParamStore) -> Tensor:
    """y'[i, j] = s_i^T U o_j + W [s_i ; o_j] + b over all cells.

    The bilinear term is two GEMMs: s @ U gives every (i, t) row s_i^T U_t,
    stacked as an (..., n * |R|, d_b) matrix, and one product with o^T
    scores it against every o_j. A swap of the last two axes turns the
    (..., n, |R|, n) result into (..., n, n, |R|).
    """
    lead, n = h.shape[:-2], h.shape[-2]
    u = store["pred.biaffine.u"]  # (d_b, |R|, d_b)
    d_b, n_tags, _ = u.shape
    s = ad.linear(h, store["pred.subj.w"], store["pred.subj.b"], gelu=True)
    o = ad.linear(h, store["pred.obj.w"], store["pred.obj.b"], gelu=True)

    u2 = u.reshape((d_b, n_tags * d_b))
    left = (s @ u2).reshape(lead + (n * n_tags, d_b))
    bilinear = ad.swapaxes(
        (left @ ad.swapaxes(o, -1, -2)).reshape(lead + (n, n_tags, n)), -2, -1
    )

    w = store["pred.biaffine.w"]  # (2*d_b, |R|)
    w_s = w[:d_b]
    w_o = w[d_b:]
    linear = (s @ w_s).reshape(lead + (n, 1, n_tags)) + (o @ w_o).reshape(lead + (1, n, n_tags))
    return bilinear + linear + store["pred.biaffine.b"]


def mlp_scores(q: Tensor, store: ParamStore, tag_map: tuple[Tensor, Tensor]) -> Tensor:
    """y''[i, j] = affine(GELU(affine(TF[i, j]))), width |R|, from the final
    round's convolved grid Q, where TF = Q W_tag + b_tag are its tag
    features by the forward's tag map (W_tag, b_tag).

    Nothing lies between the tag-feature map and the first layer, so they
    run as one map of Q: W = W_tag W1 and b = b_tag W1 + b1, recomputed on
    every call, which the gradients reach through these small products.
    The (..., n, n, 4*d_r) tag-feature grid is never built.
    """
    w_tag, b_tag = tag_map
    w1 = store["pred.mlp.w1"]
    hidden = ad.linear(q, w_tag @ w1, ad.linear(b_tag, w1, store["pred.mlp.b1"]), gelu=True)
    return ad.linear(hidden, store["pred.mlp.w2"], store["pred.mlp.b2"])


def fuse_scores(y_biaffine: Tensor | None, y_mlp: Tensor | None) -> Tensor:
    """Sum of whichever predictor heads have a nonzero width (at least one
    has; see `PredictorConfig.validate`)."""
    if y_biaffine is None:
        return y_mlp
    if y_mlp is None:
        return y_biaffine
    return y_biaffine + y_mlp


def predict_cells(fused: Tensor, mask2d: np.ndarray, s0: float = 0.0) -> np.ndarray:
    """Boolean (n, n, |R|) predicted tag grid from fused scores: every tag
    with score > s0. Masked cells carry no tags."""
    return (fused.data > s0) & mask2d[..., None]


def multi_tag_loss(
    fused: Tensor,
    gold: np.ndarray,
    mask2d: np.ndarray,
    s0: float = 0.0,
) -> Tensor:
    """Per cell: log(e^{-s0} + sum_pos e^{-s}) + log(e^{s0} + sum_neg e^{s}).

    Every gold tag is pushed above s0 and every other tag below it. The
    per-cell loss is one `autodiff.threshold_loss` op, and the loss is its
    sum over unmasked cells.
    """
    return ad.threshold_loss(fused, gold, mask2d, s0).sum()
