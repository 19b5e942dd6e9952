"""A plain float64 numpy forward of the whole model, written from the
paper's equations and the README, for one unpadded sentence.

It reads every weight from a model's `ParamStore` by its checkpoint name
and recomputes each stage one view, one head, one tag group and one
kernel tap at a time: no `Tensor`, no fused op, no folded MLP head, no
batch axis, no padding. GELU is x * Phi(x) with Phi from `scipy.special.erf`.
`tests/test_reference_forward.py` holds `CrenerModel`'s scores and loss to it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

TAG_GROUPS = ("nnc", "pnc", "htc", "thc")
LN_EPS = 1e-5


def gelu(x):
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def layer_norm(x, gain, bias):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gain + bias


def softmax_rows(scores):
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sinusoid(offset: int, d: int) -> np.ndarray:
    """R for one signed offset i - j: sin at even columns, cos at odd ones,
    column pair k at frequency 10000^(-2k / d)."""
    r = np.empty(d)
    for c in range(d):
        angle = offset / 10000.0 ** (2 * (c // 2) / d)
        r[c] = math.sin(angle) if c % 2 == 0 else math.cos(angle)
    return r


def distance_id(offset: int) -> int:
    """Signed-log bucket of j - i: 0; 1-4 as themselves; 5-7 -> 5,
    8-15 -> 6, 16-31 -> 7, 32-63 -> 8, >= 64 -> 9; negatives mirrored to
    10-18."""
    mag = abs(offset)
    if mag == 0:
        return 0
    base = mag if mag <= 4 else min(9, 3 + int(math.floor(math.log2(mag))))
    return base if offset > 0 else 9 + base


def region_id(i: int, j: int) -> int:
    return 0 if i > j else (1 if i == j else 2)


def attention_id(weight: float, buckets: int) -> int:
    return int(min(max(math.floor(weight * buckets), 0), buckets - 1))


class ReferenceForward:
    """Scores and loss of one sentence under `model`'s config and weights."""

    def __init__(self, model):
        self.p = {name: t.data.astype(np.float64) for name, t in model.store.items()}
        self.cfg = model.config
        self.char_vocab = model.char_vocab
        self.tag_vocab = model.tag_vocab

    def has(self, name: str) -> bool:
        return name in self.p

    # ------------------------------------------------------------------
    # encoder

    def embed(self, ids):
        p, ec = self.p, self.cfg.encoder
        n = len(ids)
        ctx = np.stack([p["embed.context"][c] for c in ids])
        pos = np.stack([p["embed.position"][i] for i in range(n)])
        reg = np.stack([p["embed.region"][i % 2] for i in range(n)])
        q, k, v = (ctx @ p["embed.attn." + w] for w in ("wq", "wk", "wv"))
        weights = softmax_rows(q @ k.T / math.sqrt(ec.d_attn))
        return np.concatenate([ctx, pos, reg, weights @ v], axis=1), weights

    def encoder_layer(self, h, layer: int):
        p, ec = self.p, self.cfg.encoder
        pre = f"enc{layer}."
        n, d = h.shape
        heads, dk = ec.heads, d // ec.heads
        scale = 1.0 / math.sqrt(dk) if self.cfg.ablations.use_scaling_factor else 1.0
        q, k, v = h @ p[pre + "wq"], h @ p[pre + "wk"], h @ p[pre + "wv"]
        u, vb = p[pre + "u"], p[pre + "v"]
        scores = np.zeros((heads, n, n))
        for i in range(n):
            for j in range(n):
                r = sinusoid(i - j, d)
                r_proj = r @ p[pre + "wkr"]
                for hd in range(heads):
                    sl = slice(hd * dk, (hd + 1) * dk)
                    scores[hd, i, j] = scale * (
                        q[i, sl] @ k[j, sl] + q[i, sl] @ r_proj[sl]
                        + u[sl] @ k[j, sl] + vb[sl] @ r[sl]
                    )
        merged = np.zeros((n, d))
        weights = np.zeros((heads, n, n))
        for hd in range(heads):
            sl = slice(hd * dk, (hd + 1) * dk)
            weights[hd] = softmax_rows(scores[hd])
            merged[:, sl] = weights[hd] @ v[:, sl]
        h1 = layer_norm(h + merged @ p[pre + "wo"], p[pre + "ln1.g"], p[pre + "ln1.b"])
        f = gelu(h1 @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"]) @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"]
        return layer_norm(h1 + f, p[pre + "ln2.g"], p[pre + "ln2.b"]), weights.mean(axis=0)

    def encode(self, ids):
        h, attn = self.embed(ids)
        for layer in range(self.cfg.encoder.layers):
            h, attn = self.encoder_layer(h, layer)
        return h, attn

    # ------------------------------------------------------------------
    # grid

    def grid(self, h_s, h_o, attn):
        """The convolved grid Q of one round from its subject/object views."""
        p, gc = self.p, self.cfg.grid
        n = h_s.shape[0]
        gain = h_s @ p["grid.cln.gain_w"] + p["grid.cln.gain_b"]
        bias = h_s @ p["grid.cln.bias_w"] + p["grid.cln.bias_b"]
        normed = layer_norm(h_o, 1.0, 0.0)
        rows = []
        for i in range(n):
            for j in range(n):
                cell = [gain[i] * normed[j] + bias[i]]
                if self.has("grid.dist_emb"):
                    cell.append(p["grid.dist_emb"][distance_id(j - i)])
                if self.has("grid.region_emb"):
                    cell.append(p["grid.region_emb"][region_id(i, j)])
                if self.has("grid.attn_emb"):
                    cell.append(p["grid.attn_emb"][attention_id(attn[i, j], gc.attn_buckets)])
                rows.append(np.concatenate(cell))
        c = gelu(np.stack(rows) @ p["grid.mlp1.w"] + p["grid.mlp1.b"]).reshape(n, n, -1)
        if self.cfg.ablations.no_dilated_conv:
            return c
        return np.concatenate([self.conv(c, d) for d in gc.dilations], axis=-1)

    def conv(self, c, dilation: int):
        """GELU of one same-size dilated convolution, zero beyond the edge."""
        w, b = self.p[f"grid.conv{dilation}.w"], self.p[f"grid.conv{dilation}.b"]
        k, n = w.shape[0], c.shape[0]
        out = np.zeros((n, n, w.shape[-1]))
        for i in range(n):
            for j in range(n):
                acc = b.copy()
                for a in range(k):
                    for t in range(k):
                        y, x = i + (a - k // 2) * dilation, j + (t - k // 2) * dilation
                        if 0 <= y < n and 0 <= x < n:
                            acc += c[y, x] @ w[a, t]
                out[i, j] = acc
        return gelu(out)

    # ------------------------------------------------------------------
    # relation enhancement

    def tag_features(self, q):
        p = self.p
        return np.concatenate(
            [q @ p[f"enh.tag_{g}.w"] + p[f"enh.tag_{g}.b"] for g in TAG_GROUPS], axis=-1)

    def attention(self, x, kv, name: str):
        p, heads = self.p, self.cfg.enhance.heads
        pre = f"enh.{name}."
        q, k, v = x @ p[pre + "wq"], kv @ p[pre + "wk"], kv @ p[pre + "wv"]
        dk = q.shape[1] // heads
        merged = np.zeros_like(q)
        for hd in range(heads):
            sl = slice(hd * dk, (hd + 1) * dk)
            merged[:, sl] = softmax_rows(q[:, sl] @ k[:, sl].T / math.sqrt(dk)) @ v[:, sl]
        return merged @ p[pre + "wo"]

    def enhance(self, q, h_s0, h_o0):
        """One round's refined subject and object views from its grid."""
        p = self.p
        tf = self.tag_features(q)
        views = []
        for side, pooled, h0 in (("s", tf.max(axis=1), h_s0), ("o", tf.max(axis=0), h_o0)):
            h_r = gelu(pooled @ p[f"enh.pool_{side}.w"] + p[f"enh.pool_{side}.b"])
            ct = self.attention(self.attention(h_r, h_r, "self"), h0, "cross")
            out = gelu(ct @ p[f"enh.out_{side}.w"] + p[f"enh.out_{side}.b"])
            views.append(layer_norm(h_r + out, p[f"enh.ln_{side}.g"], p[f"enh.ln_{side}.b"]))
        return views

    # ------------------------------------------------------------------
    # predictors and loss

    def biaffine(self, h):
        p = self.p
        s = gelu(h @ p["pred.subj.w"] + p["pred.subj.b"])
        o = gelu(h @ p["pred.obj.w"] + p["pred.obj.b"])
        u, w = p["pred.biaffine.u"], p["pred.biaffine.w"]
        d_b, n_tags = u.shape[0], u.shape[1]
        n = h.shape[0]
        y = np.zeros((n, n, n_tags))
        for i in range(n):
            for j in range(n):
                for t in range(n_tags):
                    y[i, j, t] = (s[i] @ u[:, t, :] @ o[j] + s[i] @ w[:d_b, t]
                                  + o[j] @ w[d_b:, t] + p["pred.biaffine.b"][t])
        return y

    def mlp(self, q):
        p = self.p
        hidden = gelu(self.tag_features(q) @ p["pred.mlp.w1"] + p["pred.mlp.b1"])
        return hidden @ p["pred.mlp.w2"] + p["pred.mlp.b2"]

    def scores(self, chars) -> np.ndarray:
        """(n, n, |R|) fused scores of one sentence's characters."""
        h, attn = self.encode(self.char_vocab.encode(chars))
        y = 0.0
        if self.has("pred.subj.w"):
            y = y + self.biaffine(h)
        if self.has("pred.mlp.w1"):
            p = self.p
            h_s0 = h @ p["grid.subj.w"] + p["grid.subj.b"]
            h_o0 = h @ p["grid.obj.w"] + p["grid.obj.b"]
            h_s, h_o = h_s0, h_o0
            for _ in range(self.cfg.enhance.rounds - 1):
                h_s, h_o = self.enhance(self.grid(h_s, h_o, attn), h_s0, h_o0)
            y = y + self.mlp(self.grid(h_s, h_o, attn))
        return y

    def loss(self, scores: np.ndarray, gold: np.ndarray) -> float:
        """Sum over cells of log(e^-s0 + sum_pos e^-s) + log(e^s0 + sum_neg e^s)."""
        s0 = self.cfg.predictor.threshold
        total = 0.0
        for cell, tags in zip(scores.reshape(-1, scores.shape[-1]), gold.reshape(-1, gold.shape[-1])):
            total += np.logaddexp.reduce(np.concatenate([[-s0], -cell[tags]]))
            total += np.logaddexp.reduce(np.concatenate([[s0], cell[~tags]]))
        return float(total)
