"""Character-pair grid construction.

Subject/object projections of the encoder output feed a conditional
layer normalization: the subject vector generates per-row gain and bias
applied to the normalized object vector, giving V[i, j], in one
`autodiff.layer_norm` op. The two views travel as one stacked
(2, ..., n, d_h) pair, [0] the subject and [1] the object, so each pair
of per-view weights is one op. Each cell's V is then joined by three
index embeddings E (signed-log distance bucket, triangle region, bucketed
encoder attention weight), reduced by an MLP, and run through parallel
dilated convolutions whose outputs are concatenated channel-wise. Bucket
indices are plain integers computed outside the graph, and the
embeddings depend on them alone, so a forward looks them up and projects
them by their rows of the MLP's weight once for every round
(`pair_projection`); each round's reduction adds that term to its V GEMM
and builds no concatenated grid. Only the tables behind the embeddings
train. Every weight is read from the `ParamStore` under its `grid.*`
name; an ablated embedding table or convolution kernel has no name there
and is skipped.

Grids are (..., n, n, c) with any number of leading batch axes, and
masks (..., n, n); the distance and region ids depend on n alone and
broadcast over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .errors import ConfigError


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
                raise ConfigError(f"grid.{name} must be >= 1")
        if not self.dilations or len(set(self.dilations)) != len(self.dilations):
            raise ConfigError("grid.dilations must be non-empty and distinct")
        if min(self.dilations) < 1:
            raise ConfigError("grid.dilations must all be >= 1")
        if self.distance_buckets < 19:
            raise ConfigError("grid.distance_buckets must cover the 19 signed-log ids")
        if self.kernel % 2 != 1:
            raise ConfigError("grid.kernel must be odd for same-size padding")


def project_subject_object(h: Tensor, store: ParamStore) -> Tensor:
    """Affine subject and object views of the (..., n, d_h) character
    representations, stacked as one (2, ..., n, d_h) pair."""
    return ad.linear(h.reshape((1,) + h.shape), (store["grid.subj.w"], store["grid.obj.w"]),
                     (store["grid.subj.b"], store["grid.obj.b"]))


def conditional_layer_norm(pair: Tensor, store: ParamStore, eps: float = 1e-5) -> Tensor:
    """V[i, j] = gain(h_s[i]) * normalize(h_o[j]) + bias(h_s[i]) for the
    stacked (2, ..., n, d) pair of subject views h_s and object views h_o.

    Normalization is over the feature axis of the object vector;
    sqrt(var + eps) keeps constant vectors finite. Gain and bias, both
    affine maps of h_s, are one op; the layer norm that broadcasts them
    over the object rows is another.
    """
    gain_bias = ad.linear(  # (2, ..., n, 1, d): the gain, then the bias
        pair[:1, ..., None, :], (store["grid.cln.gain_w"], store["grid.cln.bias_w"]),
        (store["grid.cln.gain_b"], store["grid.cln.bias_b"]),
    )
    return ad.layer_norm(pair[1, ..., None, :, :], gain_bias[0], gain_bias[1], eps)


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
    """Uniform bucket ids over [0, 1] attention weights.

    Out-of-range weights clip to the end buckets. NaN goes to bucket 0:
    `fmax` drops it before the cast, which would warn on it.
    """
    ids = np.fmin(np.fmax(np.floor(np.asarray(attn) * buckets), 0), buckets - 1)
    return ids.astype(np.int64)


def index_features(attn: np.ndarray, store: ParamStore, config: GridConfig) -> list[Tensor]:
    """[E^d, E^r, E^a]: the (..., n, n, d_*) embeddings of every cell's
    distance, region and attention-bucket ids, for the (..., n, n) encoder
    attention `attn`.

    Only the tables in the store are looked up; an ablated one has none.
    The ids depend on n and `attn` alone, so one forward looks these up
    once, for `pair_projection`.
    """
    cells = attn.shape
    n = cells[-1]
    features = []
    if "grid.dist_emb" in store:
        offs = np.arange(n)[None, :] - np.arange(n)[:, None]  # j - i
        # GridConfig.validate makes the table cover all 19 distance ids.
        ids = np.broadcast_to(distance_bucket(offs), cells)
        features.append(ad.embedding(store["grid.dist_emb"], ids))
    if "grid.region_emb" in store:
        features.append(ad.embedding(store["grid.region_emb"], np.broadcast_to(region_ids(n), cells)))
    if "grid.attn_emb" in store:
        ids = attention_bucket(attn, config.attn_buckets)
        features.append(ad.embedding(store["grid.attn_emb"], ids))
    return features


def pair_projection(attn: np.ndarray, store: ParamStore, config: GridConfig) -> tuple[Tensor, Tensor]:
    """`pair_features`' weight and bias for the (..., n, n) encoder
    attention `attn`: W_v, the rows of `grid.mlp1.w` that read the CLN grid
    V, and the (..., n, n, d_reduced) index term E W_e + b1, where E is the
    concatenated `index_features` and W_e the rest of `grid.mlp1.w`.

    [V ; E] W_1 + b1 = V W_v + (E W_e + b1), and E is the same in every
    round, so one forward builds this pair once and every round's
    `pair_features` reads it; W_v and W_e are two views of the one
    checkpoint array. With every index embedding ablated, the pair is
    `grid.mlp1.w` and `grid.mlp1.b` themselves.
    """
    w, b = store["grid.mlp1.w"], store["grid.mlp1.b"]
    index = index_features(attn, store, config)
    if not index:
        return w, b
    e = ad.concat(index, axis=-1)
    d_v = w.shape[0] - e.shape[-1]
    return w[:d_v], ad.linear(e, w[d_v:], b)


def pair_features(v: Tensor, projection: tuple[Tensor, Tensor]) -> Tensor:
    """Reduce [V ; E^d ; E^r ; E^a] per cell to d_reduced channels, as
    GELU(V W_v + (E W_e + b1)) with `projection` the (W_v, E W_e + b1) pair
    of `pair_projection`: one `linear` op whose bias is the grid-shaped
    index term."""
    return ad.linear(v, *projection, gelu=True)


def dilated_convolutions(
    c: Tensor, mask2d: np.ndarray, store: ParamStore, config: GridConfig
) -> Tensor:
    """Channel concatenation of GELU(DConv_i(C)) over the dilation rates
    whose `grid.conv{d}.*` kernel is in the store, as one
    `autodiff.dilated_conv_gelu` op; `c` itself when there is none.

    Zero padding keeps every output cell aligned with its input cell.
    Masked cells are zeroed going in, inside the op, so a kernel reads
    padding as the zeros beyond the grid's edge; what it writes there is
    left as is.
    """
    dilations = [d for d in config.dilations if f"grid.conv{d}.w" in store]
    if not dilations:
        return c
    weights = [store[f"grid.conv{d}.w"] for d in dilations]
    biases = [store[f"grid.conv{d}.b"] for d in dilations]
    return ad.dilated_conv_gelu(c, mask2d, weights, biases, dilations)
