"""Character encoder: four concatenated embeddings plus an adapted
transformer whose self-attention is relative-position aware, direction
aware (signed distances), and deliberately unscaled.

Per layer the pre-softmax score is

    A_rel[i,j] = Q_i . K_j + Q_i . (R_ij W_kR) + u . K_j + v . R_ij

with R the fixed sinusoidal embedding of the signed offset i - j. Unless
`use_scaling_factor` is set, the softmax omits the usual 1/sqrt(d_k):
with only a few entity characters per sentence, sharper attention rows
help. Padding columns are masked to weight exactly zero; nothing else is
masked, so padded rows carry whatever their ids give them. Blocks are
post-LN residual with a square feed-forward.

Every function takes (..., n) ids and masks with any number of leading
batch axes; the sentences of a batch share n and differ in their masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .corpus import read_jsonl
from .errors import ConfigError, CorpusError

# The largest `encoder.max_len` a config may set. A float32 training forward
# with the default config keeps about 3.7 KB of tape per grid cell, so a
# single sentence of 1,024 characters already needs about 4 GB.
MAX_LEN_LIMIT = 1024


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
    use_scaling_factor: bool = False

    @property
    def d_h(self) -> int:
        return self.d_context + self.d_pos + self.d_region + self.d_attn

    def validate(self) -> None:
        for name in ("d_context", "d_pos", "d_region", "d_attn", "heads", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"encoder.{name} must be >= 1")
        if self.max_len > MAX_LEN_LIMIT:
            raise ConfigError(f"encoder.max_len must be <= {MAX_LEN_LIMIT}, got {self.max_len}")
        if self.layers < 0:
            raise ConfigError("encoder.layers must be >= 0")
        if self.d_h % self.heads != 0:
            raise ConfigError(
                f"encoder width {self.d_h} not divisible by heads {self.heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("encoder.dropout must be in [0, 1)")


def load_sidecar_vectors(path, d_context: int) -> dict[str, np.ndarray]:
    """Load precomputed contextual vectors keyed by sentence id.

    The file is jsonl: {"id": str, "vectors": [[...], ...]} with one row
    per character, each of width d_context. Widths, finiteness (in
    float32) and unique ids are validated here, row counts against each
    sentence by `CrenerModel.sentence_inputs`.
    """
    out: dict[str, np.ndarray] = {}
    for where, obj in read_jsonl(path):
        try:
            sid = str(obj["id"])
            with np.errstate(over="ignore"):  # beyond float32's range reads inf
                vectors = np.asarray(obj["vectors"], dtype=np.float32)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{where}: bad sidecar record: {exc}") from None
        if sid in out:
            raise CorpusError(f"{where}: duplicate sidecar id {sid!r}")
        if vectors.ndim != 2 or vectors.shape[1] != d_context:
            raise CorpusError(
                f"{where}: vectors for {sid!r} have shape "
                f"{vectors.shape}, expected (N, {d_context})"
            )
        if not np.isfinite(vectors).all():
            raise CorpusError(f"{where}: vectors for {sid!r} are not all finite float32")
        out[sid] = vectors
    return out


def relative_position_table(n: int, d_model: int, dtype=np.float64) -> np.ndarray:
    """Sinusoidal embedding of every signed offset i - j of an n-character
    sentence, as a (2n - 1, d_model) table whose row i - j + n - 1 is R_ij;
    no parameters.

    R_ij[2k]   = sin((i - j) / 10000^(2k / d_model))
    R_ij[2k+1] = cos((i - j) / 10000^(2k / d_model))

    An odd `d_model` ends with a sine column. Computed in float64, then cast
    to `dtype`.
    """
    offsets = np.arange(1 - n, n)  # every value of i - j
    ks = np.arange((d_model + 1) // 2)
    inv_freq = 10000.0 ** (-2.0 * ks / d_model)
    ang = offsets[:, None].astype(np.float64) * inv_freq[None, :]
    table = np.empty((2 * n - 1, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(ang)
    table[:, 1::2] = np.cos(ang[:, :d_model // 2])
    return table.astype(dtype, copy=False)


def draw_dropout(
    rng: np.random.Generator, n: int, config: EncoderConfig, dtype
) -> np.ndarray | None:
    """One sentence's dropout multipliers as one (n, layers, 2, d_h) array,
    or None when dropout is off or no layer runs.

    [:, i, 0] scales layer i's attention output and [:, i, 1] its FFN
    output; 0 marks a dropped entry and 1 / (1 - p) a kept one. One
    (layers, 2, n, d_h) draw, in the order the layers apply them, with n
    moved first so a batch pads it like its ids. Drawing a batch's masks
    sentence by sentence before any forward consumes `rng` exactly as
    running the sentences one at a time would.
    """
    p = config.dropout
    if p <= 0.0 or config.layers == 0:
        return None
    keep = (rng.random((config.layers, 2, n, config.d_h)) >= p).astype(dtype) / (1.0 - p)
    return np.moveaxis(keep, 2, 0)


def _embed_with_attention(
    char_ids: np.ndarray,
    mask: np.ndarray,
    store: ParamStore,
    config: EncoderConfig,
    context_vectors: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Concatenation of contextual, positional, region, and attention
    embeddings, one (..., n, d_h) row per character, plus the
    raw-attention weights used for H^A."""
    char_ids = np.asarray(char_ids)
    n = char_ids.shape[-1]
    if context_vectors is not None:
        h_ctx = Tensor(np.asarray(context_vectors, dtype=store.dtype))
    else:
        h_ctx = ad.embedding(store["embed.context"], char_ids)
    positions = np.broadcast_to(np.arange(n), char_ids.shape)
    h_pos = ad.embedding(store["embed.position"], positions)
    h_reg = ad.embedding(store["embed.region"], positions % 2)

    # H^A: one scaled single-head self-attention pass over the raw context
    # embeddings.
    h_att, attn = ad.attention(
        h_ctx @ store["embed.attn.wq"], h_ctx @ store["embed.attn.wk"],
        h_ctx @ store["embed.attn.wv"], mask, heads=1, scale=1.0 / np.sqrt(config.d_attn),
    )
    return ad.concat([h_ctx, h_pos, h_reg, h_att]), attn[..., 0, :, :]


def adapted_attention(
    h: Tensor,
    mask: np.ndarray,
    store: ParamStore,
    layer: int,
    config: EncoderConfig,
    table: np.ndarray,
    dropout: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Residual block `layer` (weights `enc{layer}.*`) of relative-position
    self-attention plus FFN.

    Of the four score terms of the module docstring, u . K_j joins
    Q_i . K_j as (Q_i + u) . K_j; the two terms in R_ij are one
    `autodiff.relative_scores` op, which scores each query against the
    2n - 1 offsets of `table` (the `relative_position_table` in the rows'
    dtype) and hands `autodiff.attention` the (..., heads, n, n) score
    bias. Takes (..., n, d_h) rows and their (..., n) mask; returns the new
    rows and the (..., heads, n, n) attention weights. `use_scaling_factor`
    of `config` restores the conventional 1/sqrt(d_k) factor. Dropout runs
    only when this layer's (..., n, 2, d_h) slice of the `draw_dropout`
    multipliers is supplied: [..., 0, :] scales the attention output and
    [..., 1, :] the FFN output.
    """
    p = f"enc{layer}."
    heads = config.heads
    d_head = config.d_h // heads

    q = h @ store[p + "wq"]
    score_bias = ad.relative_scores(q, store[p + "wkr"], store[p + "v"], table, heads)
    out, attn = ad.attention(
        q + store[p + "u"], h @ store[p + "wk"], h @ store[p + "wv"], mask, heads,
        scale=1.0 / np.sqrt(d_head) if config.use_scaling_factor else 1.0, score_bias=score_bias,
    )
    out = out @ store[p + "wo"]
    if dropout is not None:
        out = out * dropout[..., 0, :]
    h1 = ad.layer_norm(h + out, store[p + "ln1.g"], store[p + "ln1.b"])

    f = ad.linear(h1, store[p + "ffn.w1"], store[p + "ffn.b1"], gelu=True)
    f = ad.linear(f, store[p + "ffn.w2"], store[p + "ffn.b2"])
    if dropout is not None:
        f = f * dropout[..., 1, :]
    return ad.layer_norm(h1 + f, store[p + "ln2.g"], store[p + "ln2.b"]), attn


def encode(
    char_ids: np.ndarray,
    mask: np.ndarray,
    store: ParamStore,
    config: EncoderConfig,
    context_vectors: np.ndarray | None = None,
    dropout: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Full encoder pass: embeddings then the `config.layers` blocks of
    the adapted-transformer stack.

    Returns the (..., n, d_h) character rows and the attention matrix
    that feeds the pairwise attention buckets downstream: the head mean
    of the final layer, or the raw H^A attention when no layer runs
    (`encoder.layers = 0`, the no-adapted-transformer ablation). Every
    layer reads `config.use_scaling_factor`. `dropout` holds the (..., n,
    layers, 2, d_h) multipliers of `draw_dropout`, padded and stacked like
    the ids; layer i reads `dropout[..., i, :, :]`.
    """
    h, attn = _embed_with_attention(char_ids, mask, store, config, context_vectors)
    if config.layers:
        table = relative_position_table(h.shape[-2], config.d_h, h.dtype)
        for i in range(config.layers):
            h, attn_heads = adapted_attention(
                h, mask, store, i, config, table,
                dropout=None if dropout is None else dropout[..., i, :, :],
            )
        attn = attn_heads.mean(axis=-3)
    return h, attn
