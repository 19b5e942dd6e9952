"""Character encoder: four concatenated embeddings plus an adapted
transformer whose self-attention is relative-position aware, direction
aware (signed distances), and deliberately unscaled.

Per layer the pre-softmax score is

    A_rel[i,j] = Q_i . K_j + Q_i . (R_ij W_kR) + u . K_j + v . R_ij

with R the fixed sinusoidal embedding of the signed offset i - j. The
softmax omits the usual 1/sqrt(d_k): with only a few entity characters
per sentence, sharper attention rows help. Padding columns are masked
to weight exactly zero; nothing else is masked, so padded rows carry
whatever their ids give them. Blocks are post-LN residual with a square
feed-forward.

Every function takes (..., n) ids and masks with any number of leading
batch axes; the sentences of a batch share n and differ in their masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import read_lines
from .errors import CorpusError, CrenerError


@dataclass
class EncoderConfig:
    d_context: int = 32
    d_pos: int = 16
    d_region: int = 8
    d_attn: int = 8
    layers: int = 1
    heads: int = 4
    dropout: float = 0.1
    max_len: int = 256

    @property
    def d_h(self) -> int:
        return self.d_context + self.d_pos + self.d_region + self.d_attn

    def validate(self) -> None:
        for name in ("d_context", "d_pos", "d_region", "d_attn", "heads", "max_len"):
            if getattr(self, name) < 1:
                raise CrenerError(f"encoder.{name} must be >= 1")
        if self.layers < 0:
            raise CrenerError("encoder.layers must be >= 0")
        if self.d_h % self.heads != 0:
            raise CrenerError(
                f"encoder width {self.d_h} not divisible by heads {self.heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise CrenerError("encoder.dropout must be in [0, 1)")


@dataclass
class AttentionLayerParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wkr: Tensor
    u: Tensor
    v: Tensor
    wo: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor


@dataclass
class EncoderParams:
    config: EncoderConfig
    context_table: Tensor
    position_table: Tensor
    region_table: Tensor
    attn_wq: Tensor
    attn_wk: Tensor
    attn_wv: Tensor
    layers: list[AttentionLayerParams] = field(default_factory=list)


def load_sidecar_vectors(path, d_context: int) -> dict[str, np.ndarray]:
    """Load precomputed contextual vectors keyed by sentence id.

    The file is jsonl: {"id": str, "vectors": [[...], ...]} with one row
    per character, each of width d_context. Widths and finiteness (in
    float32) are validated here, row counts against each sentence by
    `CrenerModel.sentence_inputs`.
    """
    import json

    out: dict[str, np.ndarray] = {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            sid = str(obj["id"])
            with np.errstate(over="ignore"):  # beyond float32's range reads inf
                vectors = np.asarray(obj["vectors"], dtype=np.float32)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{path}:{lineno}: bad sidecar record: {exc}") from None
        if vectors.ndim != 2 or vectors.shape[1] != d_context:
            raise CorpusError(
                f"{path}:{lineno}: vectors for {sid!r} have shape "
                f"{vectors.shape}, expected (N, {d_context})"
            )
        if not np.isfinite(vectors).all():
            raise CorpusError(f"{path}:{lineno}: vectors for {sid!r} are not all finite float32")
        out[sid] = vectors
    return out


def relative_position_embedding(n: int, d_model: int) -> np.ndarray:
    """Sinusoidal embedding of the signed offset i - j; no parameters.

    R[i, j, 2k]   = sin((i - j) / 10000^(2k / d_model))
    R[i, j, 2k+1] = cos((i - j) / 10000^(2k / d_model))
    """
    if n < 1 or d_model < 2 or d_model % 2 != 0:
        raise CrenerError("relative embedding needs n >= 1 and even d_model >= 2")
    offsets = np.arange(1 - n, n)  # every value of i - j
    ks = np.arange(d_model // 2)
    inv_freq = 10000.0 ** (-2.0 * ks / d_model)
    ang = offsets[:, None].astype(np.float64) * inv_freq[None, :]
    table = np.empty((2 * n - 1, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(ang)
    table[:, 1::2] = np.cos(ang)
    dist = np.arange(n)[:, None] - np.arange(n)[None, :]
    return table[dist + n - 1]


def draw_dropout(
    rng: np.random.Generator, n: int, config: EncoderConfig, dtype
) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """One sentence's dropout multipliers, or None when dropout is off.

    One (attention output, FFN output) pair of (n, d_h) arrays per layer,
    drawn in the order `adapted_attention` applies them; 0 marks a
    dropped entry and 1 / (1 - p) a kept one. Drawing a batch's masks
    sentence by sentence before any forward consumes `rng` exactly as
    running the sentences one at a time would.
    """
    p = config.dropout
    if p <= 0.0:
        return None

    def keep() -> np.ndarray:
        return (rng.random((n, config.d_h)) >= p).astype(dtype) / (1.0 - p)

    return [(keep(), keep()) for _ in range(config.layers)]


def _embed_with_attention(
    char_ids: np.ndarray,
    mask: np.ndarray,
    params: EncoderParams,
    context_vectors: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Concatenation of contextual, positional, region, and attention
    embeddings, one (..., n, d_h) row per character, plus the
    raw-attention weights used for H^A."""
    cfg = params.config
    char_ids = np.asarray(char_ids)
    n = char_ids.shape[-1]
    if n > cfg.max_len:
        raise CrenerError(f"sentence length {n} exceeds max_len {cfg.max_len}")

    if context_vectors is not None:
        ctx_arr = np.asarray(context_vectors, dtype=params.context_table.dtype)
        expected = char_ids.shape + (cfg.d_context,)
        if ctx_arr.shape != expected:
            raise CrenerError(f"context vectors shape {ctx_arr.shape} != {expected}")
        h_ctx = Tensor(ctx_arr)
    else:
        h_ctx = ad.embedding(params.context_table, char_ids)
    positions = np.broadcast_to(np.arange(n), char_ids.shape)
    h_pos = ad.embedding(params.position_table, positions)
    h_reg = ad.embedding(params.region_table, positions % 2)

    # H^A: one scaled self-attention pass over the raw context embeddings.
    q = h_ctx @ params.attn_wq
    k = h_ctx @ params.attn_wk
    v = h_ctx @ params.attn_wv
    scores = (q @ ad.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(cfg.d_attn))
    attn = ad.softmax(scores, mask=mask[..., None, :])
    h_att = attn @ v

    return ad.concat([h_ctx, h_pos, h_reg, h_att], axis=-1), attn.data


def adapted_attention(
    h: Tensor,
    mask: np.ndarray,
    layer: AttentionLayerParams,
    config: EncoderConfig,
    rel: np.ndarray | None = None,
    use_scaling: bool = False,
    dropout: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Tensor, np.ndarray]:
    """One residual block of relative-position self-attention plus FFN.

    Each of the four score terms of the module docstring is one matmul
    that contracts d_head per head: Q K^T, R W_kR against each Q_i
    (a matrix-vector product per head and row), K u and R v. Takes
    (..., n, d_h) rows and their (..., n) mask; returns the new rows and
    the (..., heads, n, n) attention weights.
    `use_scaling` restores the conventional 1/sqrt(d_k) factor (off by
    default). Dropout runs only when the (attention output, FFN output)
    multipliers of `draw_dropout` are supplied.
    """
    lead, n = h.shape[:-2], h.shape[-2]
    d_model = config.d_h
    heads = config.heads
    d_head = d_model // heads
    if rel is None:
        rel = relative_position_embedding(n, d_model)
    rel = rel.astype(h.dtype)

    def split_heads(x: Tensor) -> Tensor:
        return ad.swapaxes(x.reshape(lead + (n, heads, d_head)), -3, -2)

    q = split_heads(h @ layer.wq)  # (..., heads, n, d_head)
    k = split_heads(h @ layer.wk)
    v = split_heads(h @ layer.wv)

    rel_t = Tensor(rel)
    # (heads, n_i, n_j, d_head) slices of R W_kR and of R itself.
    rel_proj = (rel_t @ layer.wkr).reshape(n, n, heads, d_head).transpose(2, 0, 1, 3)
    rel_heads = Tensor(rel.reshape(n, n, heads, d_head).transpose(2, 0, 1, 3))

    content = q @ ad.swapaxes(k, -1, -2)  # Q_i . K_j
    position = (rel_proj @ q.reshape(lead + (heads, n, d_head, 1))).reshape(
        lead + (heads, n, n)
    )  # Q_i . R_ij W_kR
    content_bias = (k @ layer.u.reshape(heads, d_head, 1)).reshape(
        lead + (heads, 1, n)
    )  # u . K_j
    position_bias = (rel_heads @ layer.v.reshape(heads, 1, d_head, 1)).reshape(
        heads, n, n
    )  # v . R_ij

    scores = content + position + content_bias + position_bias
    if use_scaling:
        scores = scores * (1.0 / np.sqrt(d_head))
    attn = ad.softmax(scores, mask=mask[..., None, None, :])

    out = ad.swapaxes(attn @ v, -3, -2).reshape(lead + (n, d_model)) @ layer.wo
    if dropout is not None:
        out = ad.dropout(out, dropout[0])
    h1 = ad.layer_norm(h + out, layer.ln1_g, layer.ln1_b)

    f = ad.gelu(h1 @ layer.ffn_w1 + layer.ffn_b1) @ layer.ffn_w2 + layer.ffn_b2
    if dropout is not None:
        f = ad.dropout(f, dropout[1])
    return ad.layer_norm(h1 + f, layer.ln2_g, layer.ln2_b), attn.data


def encode(
    char_ids: np.ndarray,
    mask: np.ndarray,
    params: EncoderParams,
    context_vectors: np.ndarray | None = None,
    use_scaling: bool = False,
    dropout: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Full encoder pass: embeddings then the adapted-transformer stack.

    Returns the (..., n, d_h) character rows and the attention matrix
    that feeds the pairwise attention buckets downstream: the head mean
    of the final layer, or the raw H^A attention when no layer runs
    (`encoder.layers = 0`, the no-adapted-transformer ablation).
    `dropout` holds one multiplier pair per layer, shaped like the
    layer's (..., n, d_h) activations (see `draw_dropout`).
    """
    h, attn = _embed_with_attention(char_ids, mask, params, context_vectors)
    if params.layers:
        rel = relative_position_embedding(h.shape[-2], params.config.d_h)
        for i, layer in enumerate(params.layers):
            h, attn_heads = adapted_attention(
                h, mask, layer, params.config, rel=rel, use_scaling=use_scaling,
                dropout=None if dropout is None else dropout[i],
            )
        attn = attn_heads.mean(axis=-3)
    return h, attn
