"""Full model assembly: parameter construction, forward pass, loss, and
per-sentence prediction.

The config decides the architecture once, in `_build_params`, which
builds no parameter for an ablated ingredient; every stage then runs
what its parameters hold.

The forward pass takes (..., n) character ids and validity masks with any
number of leading batch axes. `batch_loss` pads a list of sentences to
the longest one and runs them as one (B, n) batch; the one-sentence loss
is the batch of one, and prediction runs one unpadded sentence at a time.
Prediction runs tape-free: `predict_grid` enters `autodiff.no_grad()`
around the same forward, so it records no tape and keeps no
intermediate array alive for a backward pass that never comes.
The loss is summed over unmasked cells; dividing by the total cell
count gives the mean over a batch.

Padding contract: a padded slot can reach a real one only where
positions mix, and only there is it masked: the key columns of the
three attention softmaxes (H^A, each adapted-transformer layer, and
enhancement's multi-head attention), masked inside the one
`autodiff.attention` op they all run; the input of the convolutions,
zeroed inside the one `autodiff.dilated_conv_gelu` op that
`grid.dilated_convolutions` runs; `relation_enhance.pool_recover`'s max,
whose -1e9 fill lives inside the one `autodiff.masked_max` op and whose
padded rows are re-zeroed after it, since they pool that fill alone;
and `co_predictor.multi_tag_loss` and `predict_cells`. Every
other stage works per character or per cell and leaves padded rows
holding whatever flows into them. So a padded batch agrees with its
sentences run alone on every unmasked cell, whatever ids fill the
padding, up to the order in which floating-point sums are taken.
"""

from __future__ import annotations

import numpy as np

from . import co_predictor as pred_mod
from . import decode as decode_mod
from . import encoder as enc_mod
from . import grid as grid_mod
from . import relation_enhance as enh_mod
from .autodiff import ParamStore, Tensor, no_grad
from .config import ModelConfig
from .corpus import CharVocabulary, EntityMention, Sentence, TagVocabulary, encode_grid
from .errors import ConfigError, CorpusError


def _pad_stack(rows: list[np.ndarray], width: int) -> np.ndarray:
    """Stack (n_i, ...) arrays into one (B, width, ...) array, zero-padded."""
    out = np.zeros((len(rows), width) + rows[0].shape[1:], dtype=rows[0].dtype)
    for b, row in enumerate(rows):
        out[b, :len(row)] = row
    return out


class CrenerModel:
    """Owns the parameter store and glues the component modules together."""

    def __init__(
        self,
        config: ModelConfig,
        char_vocab: CharVocabulary,
        tag_vocab: TagVocabulary,
        context_provider: dict[str, np.ndarray] | None = None,
    ):
        config.validate()
        if (config.predictor.mode == "softmax") == tag_vocab.none_is_implicit:
            raise ConfigError(
                "softmax mode requires an explicit-NONE tag vocabulary and "
                "threshold mode an implicit one"
            )
        self.config = config
        self.char_vocab = char_vocab
        self.tag_vocab = tag_vocab
        self.context_provider = context_provider
        dtype = np.float64 if config.optimizer.double_precision else np.float32
        self.store = ParamStore(dtype)
        self._rng_init = np.random.default_rng(config.optimizer.seed)
        self._build_params()

    # ------------------------------------------------------------------
    # parameter construction

    def _linear(self, name: str, fan_in: int, shape) -> Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        return self.store.add(name, self._rng_init.uniform(-bound, bound, size=shape))

    def _zeros(self, name: str, shape) -> Tensor:
        return self.store.add(name, np.zeros(shape))

    def _ones(self, name: str, shape) -> Tensor:
        return self.store.add(name, np.ones(shape))

    def _table(self, name: str, shape) -> Tensor:
        return self.store.add(name, self._rng_init.normal(0.0, 0.02, size=shape))

    def _build_params(self) -> None:
        """Build the parameter groups of the ingredients the config enables.
        An ablated ingredient has none: its group or index table is None,
        its convolution list empty. The forward runs what it finds here."""
        cfg = self.config
        ec, gc, nc, pc, abl = cfg.encoder, cfg.grid, cfg.enhance, cfg.predictor, cfg.ablations
        d_h, d4, n_tags = ec.d_h, 4 * nc.d_r, len(self.tag_vocab)

        layers = []
        for i in range(ec.layers):
            p = f"enc{i}."
            layers.append(enc_mod.AttentionLayerParams(
                wq=self._linear(p + "wq", d_h, (d_h, d_h)),
                wk=self._linear(p + "wk", d_h, (d_h, d_h)),
                wv=self._linear(p + "wv", d_h, (d_h, d_h)),
                wkr=self._linear(p + "wkr", d_h, (d_h, d_h)),
                u=self._table(p + "u", (d_h,)),
                v=self._table(p + "v", (d_h,)),
                wo=self._linear(p + "wo", d_h, (d_h, d_h)),
                ffn_w1=self._linear(p + "ffn.w1", d_h, (d_h, d_h)),
                ffn_b1=self._zeros(p + "ffn.b1", (d_h,)),
                ffn_w2=self._linear(p + "ffn.w2", d_h, (d_h, d_h)),
                ffn_b2=self._zeros(p + "ffn.b2", (d_h,)),
                ln1_g=self._ones(p + "ln1.g", (d_h,)),
                ln1_b=self._zeros(p + "ln1.b", (d_h,)),
                ln2_g=self._ones(p + "ln2.g", (d_h,)),
                ln2_b=self._zeros(p + "ln2.b", (d_h,)),
            ))
        self.encoder_params = enc_mod.EncoderParams(
            config=ec,
            context_table=self._table("embed.context", (len(self.char_vocab), ec.d_context)),
            position_table=self._table("embed.position", (ec.max_len, ec.d_pos)),
            region_table=self._table("embed.region", (2, ec.d_region)),
            attn_wq=self._linear("embed.attn.wq", ec.d_context, (ec.d_context, ec.d_attn)),
            attn_wk=self._linear("embed.attn.wk", ec.d_context, (ec.d_context, ec.d_attn)),
            attn_wv=self._linear("embed.attn.wv", ec.d_context, (ec.d_context, ec.d_attn)),
            layers=layers,
        )

        self.grid_params = self.tag_params = self.enhance_params = self.mlp_params = None
        if not abl.no_mlp_predictor:  # the grid and enhancement feed only the MLP head
            tables = [(gc.d_dist, abl.no_distance_matrix), (gc.d_region, abl.no_region_matrix),
                      (gc.d_attn, abl.no_attn_matrix)]
            pair_in = d_h + sum(width for width, ablated in tables if not ablated)
            dilations = () if abl.no_dilated_conv else gc.dilations
            self.grid_params = grid_mod.GridParams(
                subj_w=self._linear("grid.subj.w", d_h, (d_h, d_h)),
                subj_b=self._zeros("grid.subj.b", (d_h,)),
                obj_w=self._linear("grid.obj.w", d_h, (d_h, d_h)),
                obj_b=self._zeros("grid.obj.b", (d_h,)),
                cln_gain_w=self._linear("grid.cln.gain_w", d_h, (d_h, d_h)),
                cln_gain_b=self._ones("grid.cln.gain_b", (d_h,)),
                cln_bias_w=self._linear("grid.cln.bias_w", d_h, (d_h, d_h)),
                cln_bias_b=self._zeros("grid.cln.bias_b", (d_h,)),
                dist_table=None if abl.no_distance_matrix else self._table(
                    "grid.dist_emb", (gc.distance_buckets, gc.d_dist)),
                region_table=None if abl.no_region_matrix else self._table(
                    "grid.region_emb", (3, gc.d_region)),
                attn_table=None if abl.no_attn_matrix else self._table(
                    "grid.attn_emb", (gc.attn_buckets, gc.d_attn)),
                mlp1_w=self._linear("grid.mlp1.w", pair_in, (pair_in, gc.d_reduced)),
                mlp1_b=self._zeros("grid.mlp1.b", (gc.d_reduced,)),
                conv_w=[
                    self._linear(
                        f"grid.conv{dil}.w",
                        gc.kernel * gc.kernel * gc.d_reduced,
                        (gc.kernel, gc.kernel, gc.d_reduced, gc.d_conv),
                    )
                    for dil in dilations
                ],
                conv_b=[self._zeros(f"grid.conv{dil}.b", (gc.d_conv,)) for dil in dilations],
            )
            q_channels = gc.d_reduced if abl.no_dilated_conv else len(gc.dilations) * gc.d_conv
            tags = {}
            for group in ("nnc", "pnc", "htc", "thc"):
                tags[f"tag_{group}_w"] = self._linear(
                    f"enh.tag_{group}.w", q_channels, (q_channels, nc.d_r))
                tags[f"tag_{group}_b"] = self._zeros(f"enh.tag_{group}.b", (nc.d_r,))
            self.tag_params = enh_mod.TagParams(**tags)
            if nc.rounds > 1:  # only the rounds before the last enhance
                self.enhance_params = enh_mod.EnhanceParams(
                    pool_s_w=self._linear("enh.pool_s.w", d4, (d4, d_h)),
                    pool_s_b=self._zeros("enh.pool_s.b", (d_h,)),
                    pool_o_w=self._linear("enh.pool_o.w", d4, (d4, d_h)),
                    pool_o_b=self._zeros("enh.pool_o.b", (d_h,)),
                    self_wq=self._linear("enh.self.wq", d_h, (d_h, d_h)),
                    self_wk=self._linear("enh.self.wk", d_h, (d_h, d_h)),
                    self_wv=self._linear("enh.self.wv", d_h, (d_h, d_h)),
                    self_wo=self._linear("enh.self.wo", d_h, (d_h, d_h)),
                    cross_wq=self._linear("enh.cross.wq", d_h, (d_h, d_h)),
                    cross_wk=self._linear("enh.cross.wk", d_h, (d_h, d_h)),
                    cross_wv=self._linear("enh.cross.wv", d_h, (d_h, d_h)),
                    cross_wo=self._linear("enh.cross.wo", d_h, (d_h, d_h)),
                    out_s_w=self._linear("enh.out_s.w", d_h, (d_h, d_h)),
                    out_s_b=self._zeros("enh.out_s.b", (d_h,)),
                    out_o_w=self._linear("enh.out_o.w", d_h, (d_h, d_h)),
                    out_o_b=self._zeros("enh.out_o.b", (d_h,)),
                    ln_s_g=self._ones("enh.ln_s.g", (d_h,)),
                    ln_s_b=self._zeros("enh.ln_s.b", (d_h,)),
                    ln_o_g=self._ones("enh.ln_o.g", (d_h,)),
                    ln_o_b=self._zeros("enh.ln_o.b", (d_h,)),
                )

        d_b = pc.d_biaffine
        self.biaffine_params = None
        if not abl.no_biaffine_predictor:
            self.biaffine_params = pred_mod.BiaffineParams(
                subj_w=self._linear("pred.subj.w", d_h, (d_h, d_b)),
                subj_b=self._zeros("pred.subj.b", (d_b,)),
                obj_w=self._linear("pred.obj.w", d_h, (d_h, d_b)),
                obj_b=self._zeros("pred.obj.b", (d_b,)),
                biaffine_u=self._linear("pred.biaffine.u", d_b, (d_b, n_tags, d_b)),
                biaffine_w=self._linear("pred.biaffine.w", 2 * d_b, (2 * d_b, n_tags)),
                biaffine_b=self._zeros("pred.biaffine.b", (n_tags,)),
            )
        if not abl.no_mlp_predictor:
            self.mlp_params = pred_mod.MlpParams(
                mlp_w1=self._linear("pred.mlp.w1", d4, (d4, pc.d_hidden)),
                mlp_b1=self._zeros("pred.mlp.b1", (pc.d_hidden,)),
                mlp_w2=self._linear("pred.mlp.w2", pc.d_hidden, (pc.d_hidden, n_tags)),
                mlp_b2=self._zeros("pred.mlp.b2", (n_tags,)),
            )

    # ------------------------------------------------------------------
    # forward paths

    def sentence_inputs(self, sentence: Sentence, pad_to: int | None = None):
        """(char_ids, mask, context_vectors) for one sentence, optionally padded."""
        ids = self.char_vocab.encode(sentence.chars)
        n = len(ids)
        max_len = self.config.encoder.max_len
        if n > max_len:
            raise CorpusError(
                f"sentence {sentence.id!r} has {n} characters, more than "
                f"encoder.max_len {max_len}"
            )
        total = max(pad_to or n, n)
        mask = np.zeros(total, dtype=bool)
        mask[:n] = True
        if total > n:
            ids = np.concatenate([ids, np.full(total - n, self.char_vocab.pad_id, dtype=np.int64)])
        vectors = None
        if self.context_provider is not None:
            vectors = self.context_provider.get(sentence.id)
            if vectors is None:
                raise CorpusError(f"no sidecar vectors for sentence {sentence.id!r}")
            if vectors.shape[0] != n:
                raise CorpusError(
                    f"sidecar vectors for sentence {sentence.id!r} have {vectors.shape[0]} "
                    f"rows, expected one per character ({n})"
                )
            if total > n:
                vectors = np.concatenate(
                    [vectors, np.zeros((total - n, vectors.shape[1]), dtype=vectors.dtype)]
                )
        return ids, mask, vectors

    def draw_dropout(
        self, sentence: Sentence, rng: np.random.Generator
    ) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """One sentence's encoder dropout multipliers (see
        `encoder.draw_dropout`); None when the encoder drops nothing."""
        return enc_mod.draw_dropout(rng, len(sentence), self.config.encoder, self.store.dtype)

    def forward(
        self,
        char_ids: np.ndarray,
        mask: np.ndarray,
        context_vectors: np.ndarray | None = None,
        dropout: list[tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> tuple[Tensor, np.ndarray]:
        """(..., n, n, |R|) scores and the (..., n, n) cell mask for (..., n)
        ids and masks; scores at masked cells are meaningless. `dropout`,
        given in training only, holds one multiplier pair per encoder layer,
        shaped (..., n, d_h). A stage or head runs when its parameters exist."""
        h, attn = enc_mod.encode(
            char_ids, mask, self.encoder_params, context_vectors=context_vectors,
            use_scaling=self.config.ablations.use_scaling_factor, dropout=dropout,
        )
        tf = None if self.mlp_params is None else enh_mod.run_enhancement(
            h, mask, attn, self.grid_params, self.tag_params,
            self.enhance_params, self.config.grid, self.config.enhance,
        )
        y_bi = None if self.biaffine_params is None else pred_mod.biaffine_scores(
            h, self.biaffine_params
        )
        y_mlp = None if tf is None else pred_mod.mlp_scores(tf, self.mlp_params)
        fused = pred_mod.fuse_scores(y_bi, y_mlp)
        if not np.isfinite(fused.data).all():
            raise FloatingPointError("non-finite scores in forward pass")
        return fused, grid_mod.pair_mask(mask)

    def batch_loss(
        self,
        sentences: list[Sentence],
        dropout: list | None = None,
        reduction: str = "sum",
    ) -> tuple[Tensor, int]:
        """Loss over a batch padded to its longest sentence, plus the
        unmasked cell count; the sum over unmasked cells by default.

        In training `dropout` holds one `draw_dropout` result per
        sentence, in batch order.
        """
        width = max(len(s) for s in sentences)
        ids, masks, vectors = zip(*(self.sentence_inputs(s, pad_to=width) for s in sentences))
        ids, mask = np.stack(ids), np.stack(masks)
        vectors = None if self.context_provider is None else np.stack(vectors)
        gold = np.zeros(mask.shape + (width, len(self.tag_vocab)), dtype=bool)
        for b, s in enumerate(sentences):
            gold[b, :len(s), :len(s)] = encode_grid(s, self.tag_vocab)
        keep = None
        if dropout is not None and dropout[0] is not None:
            keep = [
                tuple(_pad_stack([d[layer][part] for d in dropout], width) for part in (0, 1))
                for layer in range(len(dropout[0]))
            ]
        fused, mask2d = self.forward(ids, mask, vectors, dropout=keep)
        loss = pred_mod.multi_tag_loss(
            fused, gold, self.tag_vocab, mask2d,
            s0=self.config.predictor.threshold, reduction=reduction,
        )
        return loss, int(mask2d.sum())

    def sentence_loss(
        self,
        sentence: Sentence,
        dropout_rng: np.random.Generator | None = None,
        reduction: str = "mean",
    ) -> tuple[Tensor, int]:
        """Loss over one sentence's grid plus the unmasked cell count;
        a `dropout_rng` (training) draws the encoder's dropout."""
        dropout = None if dropout_rng is None else [self.draw_dropout(sentence, dropout_rng)]
        return self.batch_loss([sentence], dropout, reduction)

    def predict_grid(self, sentence: Sentence) -> np.ndarray:
        """Boolean (n, n, |R|) predicted tag grid for one sentence.

        The forward runs tape-free (inside `no_grad()`): nothing is kept
        for a backward pass, and the scores are those of the taped forward.
        Non-finite scores raise FloatingPointError naming the sentence;
        the overflow or invalid operation that made them issues no numpy
        warning first.
        """
        ids, mask, vectors = self.sentence_inputs(sentence)
        try:
            with no_grad(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                fused, mask2d = self.forward(ids, mask, vectors)
        except FloatingPointError as exc:
            raise FloatingPointError(f"sentence {sentence.id!r}: {exc}") from None
        return pred_mod.predict_cells(
            fused, self.tag_vocab, mask2d,
            mode=self.config.predictor.mode, s0=self.config.predictor.threshold,
        )

    def predict_sentence(self, sentence: Sentence) -> set[EntityMention]:
        grid = self.predict_grid(sentence)
        return decode_mod.decode_grid(
            grid, self.tag_vocab, contiguous=self.config.decode.contiguous
        )
