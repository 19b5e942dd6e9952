"""Full model assembly: parameter construction, forward pass, loss, and
per-sentence prediction.

The config decides the architecture once, in `_build_params`, which
adds no weight for an ablated ingredient; every stage then reads its
weights from the `ParamStore` by their checkpoint names and runs what
it finds there.

The forward pass takes (..., n) character ids and validity masks with any
number of leading batch axes. With the MLP head, it builds the tag map
(`relation_enhance.tag_affine`) once and hands it to the enhancement
rounds and the head. `batch_loss` and `predict_batch` pad a list of
sentences to the longest one and run them as one (B, n) batch;
the one-sentence loss and the one-sentence prediction are each the
batch of one. Prediction runs tape-free: `predict_batch` enters
`autodiff.no_grad()` around the same forward, so it records no tape and
keeps no intermediate array alive for a backward pass that never comes.
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
from .errors import CorpusError


class _NonFiniteScores(FloatingPointError):
    """A forward's scores hold a non-finite value; `rows` holds the flat
    indices of the batch entries where they do, in ascending order."""

    def __init__(self, message: str, rows: np.ndarray):
        super().__init__(message)
        self.rows = rows


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

    def _linear(self, name: str, fan_in: int, shape) -> None:
        bound = 1.0 / np.sqrt(fan_in)
        self.store.add(name, self._rng_init.uniform(-bound, bound, size=shape))

    def _zeros(self, name: str, shape) -> None:
        self.store.add(name, np.zeros(shape))

    def _ones(self, name: str, shape) -> None:
        self.store.add(name, np.ones(shape))

    def _table(self, name: str, shape) -> None:
        self.store.add(name, self._rng_init.normal(0.0, 0.02, size=shape))

    def _build_params(self) -> None:
        """Add the weights of the ingredients the config enables to the
        store, under the names checkpoints use. An ablated ingredient adds
        none, and every stage reads only the names it finds. The order of
        these calls fixes the initial draws and the store's order."""
        cfg = self.config
        ec, gc, nc, pc, abl = cfg.encoder, cfg.grid, cfg.enhance, cfg.predictor, cfg.ablations
        d_h, d4, n_tags = ec.d_h, 4 * nc.d_r, len(self.tag_vocab)
        linear, zeros, ones, table = self._linear, self._zeros, self._ones, self._table

        for i in range(ec.layers):
            p = f"enc{i}."
            linear(p + "wq", d_h, (d_h, d_h))
            linear(p + "wk", d_h, (d_h, d_h))
            linear(p + "wv", d_h, (d_h, d_h))
            linear(p + "wkr", d_h, (d_h, d_h))
            table(p + "u", (d_h,))
            table(p + "v", (d_h,))
            linear(p + "wo", d_h, (d_h, d_h))
            linear(p + "ffn.w1", d_h, (d_h, d_h))
            zeros(p + "ffn.b1", (d_h,))
            linear(p + "ffn.w2", d_h, (d_h, d_h))
            zeros(p + "ffn.b2", (d_h,))
            ones(p + "ln1.g", (d_h,))
            zeros(p + "ln1.b", (d_h,))
            ones(p + "ln2.g", (d_h,))
            zeros(p + "ln2.b", (d_h,))
        table("embed.context", (len(self.char_vocab), ec.d_context))
        table("embed.position", (ec.max_len, ec.d_pos))
        table("embed.region", (2, ec.d_region))
        linear("embed.attn.wq", ec.d_context, (ec.d_context, ec.d_attn))
        linear("embed.attn.wk", ec.d_context, (ec.d_context, ec.d_attn))
        linear("embed.attn.wv", ec.d_context, (ec.d_context, ec.d_attn))

        if not abl.no_mlp_predictor:  # the grid and enhancement feed only the MLP head
            linear("grid.subj.w", d_h, (d_h, d_h))
            zeros("grid.subj.b", (d_h,))
            linear("grid.obj.w", d_h, (d_h, d_h))
            zeros("grid.obj.b", (d_h,))
            linear("grid.cln.gain_w", d_h, (d_h, d_h))
            ones("grid.cln.gain_b", (d_h,))
            linear("grid.cln.bias_w", d_h, (d_h, d_h))
            zeros("grid.cln.bias_b", (d_h,))
            pair_in = d_h
            if not abl.no_distance_matrix:
                table("grid.dist_emb", (gc.distance_buckets, gc.d_dist))
                pair_in += gc.d_dist
            if not abl.no_region_matrix:
                table("grid.region_emb", (3, gc.d_region))
                pair_in += gc.d_region
            if not abl.no_attn_matrix:
                table("grid.attn_emb", (gc.attn_buckets, gc.d_attn))
                pair_in += gc.d_attn
            linear("grid.mlp1.w", pair_in, (pair_in, gc.d_reduced))
            zeros("grid.mlp1.b", (gc.d_reduced,))
            dilations = () if abl.no_dilated_conv else gc.dilations
            for dil in dilations:
                linear(f"grid.conv{dil}.w", gc.kernel * gc.kernel * gc.d_reduced,
                       (gc.kernel, gc.kernel, gc.d_reduced, gc.d_conv))
            for dil in dilations:
                zeros(f"grid.conv{dil}.b", (gc.d_conv,))
            q_channels = gc.d_reduced if abl.no_dilated_conv else len(gc.dilations) * gc.d_conv
            for group in enh_mod.TAG_GROUPS:
                linear(f"enh.tag_{group}.w", q_channels, (q_channels, nc.d_r))
                zeros(f"enh.tag_{group}.b", (nc.d_r,))
            if nc.rounds > 1:  # only the rounds before the last enhance
                linear("enh.pool_s.w", d4, (d4, d_h))
                zeros("enh.pool_s.b", (d_h,))
                linear("enh.pool_o.w", d4, (d4, d_h))
                zeros("enh.pool_o.b", (d_h,))
                linear("enh.self.wq", d_h, (d_h, d_h))
                linear("enh.self.wk", d_h, (d_h, d_h))
                linear("enh.self.wv", d_h, (d_h, d_h))
                linear("enh.self.wo", d_h, (d_h, d_h))
                linear("enh.cross.wq", d_h, (d_h, d_h))
                linear("enh.cross.wk", d_h, (d_h, d_h))
                linear("enh.cross.wv", d_h, (d_h, d_h))
                linear("enh.cross.wo", d_h, (d_h, d_h))
                linear("enh.out_s.w", d_h, (d_h, d_h))
                zeros("enh.out_s.b", (d_h,))
                linear("enh.out_o.w", d_h, (d_h, d_h))
                zeros("enh.out_o.b", (d_h,))
                ones("enh.ln_s.g", (d_h,))
                zeros("enh.ln_s.b", (d_h,))
                ones("enh.ln_o.g", (d_h,))
                zeros("enh.ln_o.b", (d_h,))

        d_b = pc.d_biaffine
        if not abl.no_biaffine_predictor:
            linear("pred.subj.w", d_h, (d_h, d_b))
            zeros("pred.subj.b", (d_b,))
            linear("pred.obj.w", d_h, (d_h, d_b))
            zeros("pred.obj.b", (d_b,))
            linear("pred.biaffine.u", d_b, (d_b, n_tags, d_b))
            linear("pred.biaffine.w", 2 * d_b, (2 * d_b, n_tags))
            zeros("pred.biaffine.b", (n_tags,))
        if not abl.no_mlp_predictor:
            linear("pred.mlp.w1", d4, (d4, pc.d_hidden))
            zeros("pred.mlp.b1", (pc.d_hidden,))
            linear("pred.mlp.w2", pc.d_hidden, (pc.d_hidden, n_tags))
            zeros("pred.mlp.b2", (n_tags,))

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

    def _batch_inputs(self, sentences: list[Sentence]):
        """(B, width) char ids and masks and the (B, width, d_context)
        context vectors (None without a provider) of `sentences`, each
        padded to the longest one."""
        width = max(len(s) for s in sentences)
        ids, masks, vectors = zip(*(self.sentence_inputs(s, pad_to=width) for s in sentences))
        vectors = None if self.context_provider is None else np.stack(vectors)
        return np.stack(ids), np.stack(masks), vectors

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
        shaped (..., n, d_h). A stage or head runs when its weights are in the store.
        A non-finite score raises FloatingPointError, whose `rows` are the flat
        indices over the leading axes of the sentences that hold one."""
        store = self.store
        h, attn = enc_mod.encode(
            char_ids, mask, store, self.config.encoder, context_vectors=context_vectors,
            use_scaling=self.config.ablations.use_scaling_factor, dropout=dropout,
        )
        y_mlp = None
        if "pred.mlp.w1" in store:
            tag_map = enh_mod.tag_affine(store)
            q = enh_mod.run_enhancement(
                h, mask, attn, store, self.config.grid, self.config.enhance, tag_map
            )
            y_mlp = pred_mod.mlp_scores(q, store, tag_map)
        y_bi = None if "pred.subj.w" not in store else pred_mod.biaffine_scores(h, store)
        fused = pred_mod.fuse_scores(y_bi, y_mlp)
        if not np.isfinite(fused.data).all():
            finite = np.isfinite(fused.data).reshape(fused.shape[:-3] + (-1,)).all(axis=-1)
            raise _NonFiniteScores("non-finite scores in forward pass", np.flatnonzero(~finite))
        return fused, grid_mod.pair_mask(mask)

    def batch_loss(
        self,
        sentences: list[Sentence],
        dropout: list | None = None,
    ) -> tuple[Tensor, int]:
        """Loss summed over the unmasked cells of a batch padded to its
        longest sentence, plus the unmasked cell count.

        In training `dropout` holds one `draw_dropout` result per
        sentence, in batch order.
        """
        ids, mask, vectors = self._batch_inputs(sentences)
        width = mask.shape[-1]
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
        loss = pred_mod.multi_tag_loss(fused, gold, mask2d, s0=self.config.predictor.threshold)
        return loss, int(mask2d.sum())

    def sentence_loss(
        self,
        sentence: Sentence,
        dropout_rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, int]:
        """Loss averaged over one sentence's grid plus its cell count; a
        `dropout_rng` (training) draws the encoder's dropout."""
        dropout = None if dropout_rng is None else [self.draw_dropout(sentence, dropout_rng)]
        loss, cells = self.batch_loss([sentence], dropout)
        return loss * (1.0 / max(cells, 1)), cells

    def _predict_grids(self, sentences: list[Sentence]) -> list[np.ndarray]:
        """Boolean (n, n, |R|) predicted tag grids, one per sentence in input
        order, from one padded forward over all of them.

        The forward runs tape-free (inside `no_grad()`): nothing is kept
        for a backward pass. Non-finite scores raise FloatingPointError
        naming the first sentence in `sentences` that holds them; the
        overflow or invalid operation that made them issues no numpy
        warning first.
        """
        ids, mask, vectors = self._batch_inputs(sentences)
        try:
            with no_grad(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                fused, mask2d = self.forward(ids, mask, vectors)
        except _NonFiniteScores as exc:
            bad = sentences[int(exc.rows[0])]
            raise FloatingPointError(f"sentence {bad.id!r}: {exc}") from None
        hits = pred_mod.predict_cells(fused, mask2d, s0=self.config.predictor.threshold)
        return [hits[b, :len(s), :len(s)] for b, s in enumerate(sentences)]

    def predict_batch(self, sentences: list[Sentence]) -> list[set[EntityMention]]:
        """Each sentence's predicted mentions, in input order, from one
        padded no-grad forward and one `predict_cells` over the batch.

        Padding reaches no real cell (see the module docstring), so each
        sentence's scores are those of its batch of one up to the order of
        floating-point sums. Memory grows with the padded cells, size times
        longest length squared; `training` keeps a batch of two or more
        within `MAX_SUB_BATCH_CELLS` of them.
        """
        if not sentences:
            return []
        contiguous = self.config.decode.contiguous
        return [
            decode_mod.decode_grid(grid, self.tag_vocab, contiguous=contiguous)
            for grid in self._predict_grids(sentences)
        ]

    def predict_sentence(self, sentence: Sentence) -> set[EntityMention]:
        return self.predict_batch([sentence])[0]
