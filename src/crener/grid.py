"""Character-pair grid construction.

Subject/object projections of the encoder output feed a conditional
layer normalization: the subject vector generates per-row gain and bias
applied to the normalized object vector, giving V[i, j]. Each cell is
then concatenated with three index embeddings (signed-log distance
bucket, triangle region, bucketed encoder attention weight), reduced by
an MLP, and run through parallel dilated convolutions whose outputs are
concatenated channel-wise. Bucket indices are plain integers computed
outside the graph; only the embedding tables behind them train. An
ablated embedding has no table and ablated convolutions no kernels.

Grids are (..., n, n, c) with any number of leading batch axes, and
masks (..., n, n); the index ids depend on n alone and broadcast over
the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CrenerError


@dataclass
class GridConfig:
    d_dist: int = 16
    d_region: int = 8
    d_attn: int = 8
    distance_buckets: int = 20
    attn_buckets: int = 16
    d_reduced: int = 64
    d_conv: int = 16
    dilations: tuple[int, ...] = (1, 2, 3)
    kernel: int = 3

    def validate(self) -> None:
        for name in (
            "d_dist", "d_region", "d_attn", "distance_buckets",
            "attn_buckets", "d_reduced", "d_conv", "kernel",
        ):
            if getattr(self, name) < 1:
                raise CrenerError(f"grid.{name} must be >= 1")
        if not self.dilations or len(set(self.dilations)) != len(self.dilations):
            raise CrenerError("grid.dilations must be non-empty and distinct")
        if self.distance_buckets < 19:
            raise CrenerError("grid.distance_buckets must cover the 19 signed-log ids")
        if self.kernel % 2 != 1:
            raise CrenerError("grid.kernel must be odd for same-size padding")


@dataclass
class GridParams:
    subj_w: Tensor
    subj_b: Tensor
    obj_w: Tensor
    obj_b: Tensor
    cln_gain_w: Tensor
    cln_gain_b: Tensor
    cln_bias_w: Tensor
    cln_bias_b: Tensor
    dist_table: Tensor | None
    region_table: Tensor | None
    attn_table: Tensor | None
    mlp1_w: Tensor
    mlp1_b: Tensor
    conv_w: list[Tensor]  # one kernel per dilation; empty for no convolution
    conv_b: list[Tensor]


def project_subject_object(h: Tensor, params: GridParams) -> tuple[Tensor, Tensor]:
    """Affine subject and object views of the character representations."""
    h_s = h @ params.subj_w + params.subj_b
    h_o = h @ params.obj_w + params.obj_b
    return h_s, h_o


def conditional_layer_norm(
    h_s: Tensor, h_o: Tensor, params: GridParams, eps: float = 1e-5
) -> Tensor:
    """V[i, j] = gain(h_s[i]) * normalize(h_o[j]) + bias(h_s[i]).

    Normalization is over the feature axis of the object vector;
    sqrt(var + eps) keeps constant vectors finite.
    """
    lead, (n, d) = h_s.shape[:-2], h_s.shape[-2:]
    rows, cols = lead + (n, 1, d), lead + (1, n, d)
    gain = h_s @ params.cln_gain_w + params.cln_gain_b
    bias = h_s @ params.cln_bias_w + params.cln_bias_b
    mu = h_o.mean(axis=-1, keepdims=True)
    centered = h_o - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered * ad.pow_const(var + eps, -0.5)
    return gain.reshape(rows) * normed.reshape(cols) + bias.reshape(rows)


def pair_mask(mask: np.ndarray) -> np.ndarray:
    """(..., n, n) cell mask from an (..., n) character mask: both valid."""
    return np.logical_and(mask[..., :, None], mask[..., None, :])


def distance_bucket(dist: np.ndarray) -> np.ndarray:
    """Signed-log bucket ids for relative offsets.

    0 maps to id 0; positive offsets to 1..9 via
    {1, 2, 3, 4, 5-7, 8-15, 16-31, 32-63, >=64}; negative offsets mirror
    to 10..18. 19 ids total.
    """
    dist = np.asarray(dist)
    mag = np.abs(dist)
    safe = np.maximum(mag, 1)
    logpart = np.minimum(9, 3 + np.floor(np.log2(safe)).astype(np.int64))
    base = np.where(mag <= 4, mag, logpart)
    return np.where(dist == 0, 0, np.where(dist > 0, base, 9 + base)).astype(np.int64)


def region_ids(n: int) -> np.ndarray:
    """0 below the diagonal (i > j), 1 on it, 2 above it."""
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    return (1 + np.sign(cols - rows)).astype(np.int64)


def attention_bucket(attn: np.ndarray, buckets: int) -> np.ndarray:
    """Uniform bucket ids over [0, 1] attention weights."""
    ids = np.floor(np.asarray(attn) * buckets).astype(np.int64)
    return np.clip(ids, 0, buckets - 1)


def pair_features(
    v: Tensor,
    attn: np.ndarray,
    params: GridParams,
    config: GridConfig,
) -> Tensor:
    """Reduce [V ; E^d ; E^r ; E^a] per cell to d_reduced channels.

    Only the index embeddings whose table exists join the concatenation;
    a `None` table is an ablated one, and `mlp1_w` is built that narrower.
    """
    n = v.shape[-2]
    cells = v.shape[:-1]
    parts = [v]
    if params.dist_table is not None:
        offs = np.arange(n)[None, :] - np.arange(n)[:, None]  # j - i
        # GridConfig.validate makes the table cover all 19 distance ids.
        parts.append(ad.embedding(params.dist_table, np.broadcast_to(distance_bucket(offs), cells)))
    if params.region_table is not None:
        parts.append(ad.embedding(params.region_table, np.broadcast_to(region_ids(n), cells)))
    if params.attn_table is not None:
        ids = attention_bucket(attn, config.attn_buckets)
        parts.append(ad.embedding(params.attn_table, ids))
    cat = parts[0] if len(parts) == 1 else ad.concat(parts, axis=-1)
    return ad.gelu(cat @ params.mlp1_w + params.mlp1_b)


def dilated_convolutions(
    c: Tensor, mask2d: np.ndarray, params: GridParams, config: GridConfig
) -> Tensor:
    """Channel concatenation of GELU(DConv_i(C)) over the dilation rates.

    Zero padding keeps every output cell aligned with its input cell.
    Masked cells are zeroed going in, so a kernel reads padding as the
    zeros beyond the grid's edge; what it writes there is left as is.
    """
    c = c * mask2d.astype(c.dtype)[..., None]
    outs = []
    for w, b, dilation in zip(params.conv_w, params.conv_b, config.dilations):
        outs.append(ad.gelu(ad.conv2d_dilated(c, w, b, dilation)))
    return outs[0] if len(outs) == 1 else ad.concat(outs, axis=-1)
