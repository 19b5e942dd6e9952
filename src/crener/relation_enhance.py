"""Iterative relation enhancement.

Each round maps the convolved grid into four tag-group feature planes
(NNC, PNC, HTC, THC), max-pools them back into per-character subject
and object vectors, refines those with shared multi-head self-attention
followed by cross-attention against the round-0 projections, and fuses
through a GELU linear layer with a residual layer norm. The refined
subject/object vectors condition the next round's grid, so only the
rounds before the last one pool and enhance. Weights are shared
across rounds and read from the `ParamStore` by name.

The subject and object views run as one stream: a (2, ..., n, d_h)
pair, [0] the subject and [1] the object (see `grid`). The two views
share the self- and cross-attention weights, so each attention runs once
over both, and each per-view weight pair (`enh.pool_s`/`pool_o`,
`enh.out_s`/`out_o`, and the residual `layer_norm`'s `enh.ln_s`/`ln_o`)
is one op. The forward concatenates the four tag-group maps into one tag
map (`tag_affine`) once and hands it to every round and to the MLP
predictor. The final round's tag features feed only that predictor's
first affine map, with nothing in between, so that round stops at its
convolved grid and `co_predictor.mlp_scores` applies the two maps as
one. With one round (`enhance.rounds = 1`, the
no-enhancement ablation) the grid is built once, nothing is enhanced,
and the pool, attention and fuse weights (`enh.pool_*`, `enh.self.*`,
`enh.cross.*`, `enh.out_*`, `enh.ln_*`) are not in the store.

Every function accepts any number of leading batch axes: character
vectors are (..., n, d), view pairs (2, ..., n, d), grids (..., n, n, c)
and masks (..., n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import grid as grid_mod
from .autodiff import ParamStore, Tensor
from .errors import ConfigError

_MASK_FILL = -1e9

# The tag groups, in the order their features are concatenated.
TAG_GROUPS = ("nnc", "pnc", "htc", "thc")


@dataclass
class EnhanceConfig:
    d_r: int = 32
    rounds: int = 2
    heads: int = 4

    def validate(self) -> None:
        if self.d_r < 1:
            raise ConfigError("enhance.d_r must be >= 1")
        if self.rounds < 1:
            raise ConfigError("enhance.rounds must be >= 1")
        if self.heads < 1:
            raise ConfigError("enhance.heads must be >= 1")


def tag_affine(store: ParamStore) -> tuple[Tensor, Tensor]:
    """The tag map: the four tag-group affine maps side by side, in the
    order NNC, PNC, HTC, THC, as a (c, 4*d_r) weight and a (4*d_r,) bias.
    A forward builds it once and hands it to every stage that reads it."""
    w = ad.concat([store[f"enh.tag_{group}.w"] for group in TAG_GROUPS])
    b = ad.concat([store[f"enh.tag_{group}.b"] for group in TAG_GROUPS])
    return w, b


def tag_features(q: Tensor, tag_map: tuple[Tensor, Tensor]) -> Tensor:
    """The four tag-group affine maps of the grid, concatenated in the order
    NNC, PNC, HTC, THC: (..., n, n, 4*d_r), as one `linear` by the tag map.
    """
    return ad.linear(q, *tag_map)


def pool_recover(tf: Tensor, mask: np.ndarray, store: ParamStore) -> Tensor:
    """Max over columns -> subject vectors, max over rows -> object vectors,
    as one (2, ..., n, d_h) pair.

    One `autodiff.masked_max` op reads masked cells as a large negative
    constant, so they never win a real row's or column's max; each pooled
    map passes through its own affine + GELU to character width, both in
    one op. A padded position pools only that constant, so its rows are
    re-zeroed rather than carry its scale into enhancement.
    """
    pooled = ad.masked_max(tf, grid_mod.pair_mask(mask), _MASK_FILL)
    pair = ad.linear(pooled, (store["enh.pool_s.w"], store["enh.pool_o.w"]),
                     (store["enh.pool_s.b"], store["enh.pool_o.b"]), gelu=True)
    return pair * mask.astype(tf.dtype)[..., None]


def _multi_head_attention(
    q_in: Tensor, kv_in: Tensor, mask: np.ndarray, store: ParamStore, name: str, heads: int,
) -> Tensor:
    """Standard scaled dot-product attention with the `enh.{name}.*`
    weights; key columns follow `mask`."""
    p = f"enh.{name}."
    out, _ = ad.attention(
        q_in @ store[p + "wq"], kv_in @ store[p + "wk"], kv_in @ store[p + "wv"], mask, heads,
        scale=1.0 / np.sqrt(q_in.shape[-1] // heads),
    )
    return out @ store[p + "wo"]


def enhance_round(
    recovered: Tensor,
    pair0: Tensor,
    mask: np.ndarray,
    store: ParamStore,
    config: EnhanceConfig,
) -> Tensor:
    """Self-attention over the recovered (2, ..., n, d) pair, cross-attention
    against the round-0 pair `pair0`, GELU linear, then
    LayerNorm(recovered + out); each view attends only within itself."""
    heads = config.heads
    tt = _multi_head_attention(recovered, recovered, mask, store, "self", heads)
    ct = _multi_head_attention(tt, pair0, mask, store, "cross", heads)
    out = ad.linear(ct, (store["enh.out_s.w"], store["enh.out_o.w"]),
                    (store["enh.out_s.b"], store["enh.out_o.b"]), gelu=True)
    return ad.layer_norm(recovered + out, (store["enh.ln_s.g"], store["enh.ln_o.g"]),
                         (store["enh.ln_s.b"], store["enh.ln_o.b"]))


def run_enhancement(
    h: Tensor,
    mask: np.ndarray,
    attn: np.ndarray,
    store: ParamStore,
    grid_config: grid_mod.GridConfig,
    enhance_config: EnhanceConfig,
    tag_map: tuple[Tensor, Tensor],
) -> Tensor:
    """Run the grid + enhancement loop; returns the final round's convolved
    grid Q, (..., n, n, c).

    Round 0 projects the encoder output into the subject/object pair.
    Every one of the `enhance_config.rounds` rounds rebuilds the grid from
    the current pair (CLN, pair features, convolutions), reading the index
    embeddings' projection that the forward built once; every round but the
    last then maps it to tag features, pools, attends, and fuses, feeding
    the refined pair to the next round. So the `enh.*` pool, attention
    and fuse weights are read only with two rounds or more, and each stage
    skips what the store lacks: no `grid.conv{d}.*` kernel, no
    convolution. Tag features are one `linear` by `tag_map`, the
    `tag_affine` pair that the forward built. The last round's are left
    to `co_predictor.mlp_scores`, which folds them into its first layer.

    Each grid is referenced only by the stage that reads it, so a
    tape-free forward frees it as soon as that stage returns.
    """
    mask2d = grid_mod.pair_mask(mask)  # read by the convolutions alone
    projection = grid_mod.pair_projection(attn, store, grid_config)

    def conv_grid(pair: Tensor) -> Tensor:
        grid = grid_mod.pair_features(grid_mod.conditional_layer_norm(pair, store), projection)
        return grid_mod.dilated_convolutions(grid, mask2d, store, grid_config)

    pair0 = grid_mod.project_subject_object(h, store)
    pair = pair0
    for _ in range(enhance_config.rounds - 1):
        recovered = pool_recover(tag_features(conv_grid(pair), tag_map), mask, store)
        pair = enhance_round(recovered, pair0, mask, store, enhance_config)
    return conv_grid(pair)
