"""Iterative relation enhancement.

Each round maps the convolved grid into four tag-group feature planes
(NNC, PNC, HTC, THC), max-pools them back into per-character subject
and object vectors, refines those with shared multi-head self-attention
followed by cross-attention against the round-0 projections, and fuses
through a GELU linear layer with a residual layer norm. The refined
subject/object vectors condition the next round's grid, so only the
rounds before the last one pool and enhance. Parameters are shared
across rounds; the final round's tag features feed the MLP predictor.
With one round (`enhance.rounds = 1`, the no-enhancement ablation) the
grid is built once, nothing is enhanced, and the pool, attention and
fuse weights (`EnhanceParams`) do not exist.

Every function accepts any number of leading batch axes: character
vectors are (..., n, d), grids (..., n, n, c) and masks (..., n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import grid as grid_mod
from .autodiff import Tensor
from .errors import CrenerError

_MASK_FILL = -1e9


@dataclass
class EnhanceConfig:
    d_r: int = 32
    rounds: int = 2
    heads: int = 4

    def validate(self) -> None:
        if self.d_r < 1:
            raise CrenerError("enhance.d_r must be >= 1")
        if self.rounds < 1:
            raise CrenerError("enhance.rounds must be >= 1")
        if self.heads < 1:
            raise CrenerError("enhance.heads must be >= 1")


@dataclass
class TagParams:
    """The four tag-group projections of the grid, run every round."""

    tag_nnc_w: Tensor
    tag_nnc_b: Tensor
    tag_pnc_w: Tensor
    tag_pnc_b: Tensor
    tag_htc_w: Tensor
    tag_htc_b: Tensor
    tag_thc_w: Tensor
    tag_thc_b: Tensor


@dataclass
class EnhanceParams:
    """Pool, attention and fuse weights, run by every round but the last."""

    pool_s_w: Tensor
    pool_s_b: Tensor
    pool_o_w: Tensor
    pool_o_b: Tensor
    self_wq: Tensor
    self_wk: Tensor
    self_wv: Tensor
    self_wo: Tensor
    cross_wq: Tensor
    cross_wk: Tensor
    cross_wv: Tensor
    cross_wo: Tensor
    out_s_w: Tensor
    out_s_b: Tensor
    out_o_w: Tensor
    out_o_b: Tensor
    ln_s_g: Tensor
    ln_s_b: Tensor
    ln_o_g: Tensor
    ln_o_b: Tensor


def tag_features(q: Tensor, params: TagParams) -> Tensor:
    """The four tag-group affine maps of the grid, concatenated in the order
    NNC, PNC, HTC, THC: (..., n, n, 4*d_r).

    Computed as one `linear` against the four weights placed side by side,
    with their biases side by side.
    """
    w = ad.concat([params.tag_nnc_w, params.tag_pnc_w, params.tag_htc_w, params.tag_thc_w])
    b = ad.concat([params.tag_nnc_b, params.tag_pnc_b, params.tag_htc_b, params.tag_thc_b])
    return ad.linear(q, w, b)


def pool_recover(
    tf: Tensor, mask: np.ndarray, params: EnhanceParams
) -> tuple[Tensor, Tensor]:
    """Max over columns -> subject vectors, max over rows -> object vectors.

    One `autodiff.masked_max` op reads masked cells as a large negative
    constant, so they never win a real row's or column's max; each pooled
    map passes through its own affine + GELU to character width. A padded
    position pools only that constant, so its rows are re-zeroed rather
    than carry its scale into enhancement.
    """
    pooled_s, pooled_o = ad.masked_max(tf, grid_mod.pair_mask(mask), _MASK_FILL)
    h_s = ad.linear(pooled_s, params.pool_s_w, params.pool_s_b, gelu=True)
    h_o = ad.linear(pooled_o, params.pool_o_w, params.pool_o_b, gelu=True)
    mcol = mask.astype(tf.dtype)[..., None]
    return h_s * mcol, h_o * mcol


def _multi_head_attention(
    q_in: Tensor, kv_in: Tensor, mask: np.ndarray,
    wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, heads: int,
) -> Tensor:
    """Standard scaled dot-product attention; key columns follow `mask`."""
    out, _ = ad.attention(
        q_in @ wq, kv_in @ wk, kv_in @ wv, mask, heads,
        scale=1.0 / np.sqrt(q_in.shape[-1] // heads),
    )
    return out @ wo


def enhance_round(
    h_s_r: Tensor,
    h_o_r: Tensor,
    h_s0: Tensor,
    h_o0: Tensor,
    mask: np.ndarray,
    params: EnhanceParams,
    config: EnhanceConfig,
) -> tuple[Tensor, Tensor]:
    """Self-attention over the recovered vectors, cross-attention against
    the round-0 projections, GELU linear, then LayerNorm(recovered + out)."""
    self_w = (params.self_wq, params.self_wk, params.self_wv, params.self_wo)
    cross_w = (params.cross_wq, params.cross_wk, params.cross_wv, params.cross_wo)
    s_tt = _multi_head_attention(h_s_r, h_s_r, mask, *self_w, config.heads)
    o_tt = _multi_head_attention(h_o_r, h_o_r, mask, *self_w, config.heads)
    s_ct = _multi_head_attention(s_tt, h_s0, mask, *cross_w, config.heads)
    o_ct = _multi_head_attention(o_tt, h_o0, mask, *cross_w, config.heads)
    s_out = ad.linear(s_ct, params.out_s_w, params.out_s_b, gelu=True)
    o_out = ad.linear(o_ct, params.out_o_w, params.out_o_b, gelu=True)
    h_s_next = ad.layer_norm(h_s_r + s_out, params.ln_s_g, params.ln_s_b)
    h_o_next = ad.layer_norm(h_o_r + o_out, params.ln_o_g, params.ln_o_b)
    return h_s_next, h_o_next


def run_enhancement(
    h: Tensor,
    mask: np.ndarray,
    attn: np.ndarray,
    grid_params: grid_mod.GridParams,
    tag_params: TagParams,
    enhance_params: EnhanceParams | None,
    grid_config: grid_mod.GridConfig,
    enhance_config: EnhanceConfig,
) -> Tensor:
    """Run the grid + enhancement loop; returns the final round's TF.

    Round 0 projects the encoder output into subject/object views. Every
    one of the `enhance_config.rounds` rounds rebuilds the grid from the
    current views (CLN, pair features, convolutions, tag features); every
    round but the last then pools, attends, and fuses, feeding the
    refined views to the next round. `enhance_params` is None with one
    round, and an empty `grid_params.conv_w` skips the convolutions.

    Each grid is referenced only by the stage that reads it, so a
    tape-free forward frees it as soon as that stage returns.
    """
    mask2d = grid_mod.pair_mask(mask)  # read by the convolutions alone

    def tag_grid(h_s: Tensor, h_o: Tensor) -> Tensor:
        grid = grid_mod.pair_features(
            grid_mod.conditional_layer_norm(h_s, h_o, grid_params), attn, grid_params, grid_config
        )
        if grid_params.conv_w:
            grid = grid_mod.dilated_convolutions(grid, mask2d, grid_params, grid_config)
        return tag_features(grid, tag_params)

    h_s0, h_o0 = grid_mod.project_subject_object(h, grid_params)
    h_s, h_o = h_s0, h_o0
    for _ in range(enhance_config.rounds - 1):
        h_s_r, h_o_r = pool_recover(tag_grid(h_s, h_o), mask, enhance_params)
        h_s, h_o = enhance_round(
            h_s_r, h_o_r, h_s0, h_o0, mask, enhance_params, enhance_config
        )
    return tag_grid(h_s, h_o)
