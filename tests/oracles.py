"""Test-only oracles and writers that the package itself never runs.

`brute_force_decode` is the decoder's differential oracle: it checks the
acceptance rule of `crener.decode.decode_grid` by plain enumeration,
reading the cells itself. `relative_position_embedding` gathers the
encoder's offset table into the full (n, n, d) table of R_ij, the form the
attention equations are written in. `save_config` writes a config in the text
format `crener.config.parse_config` reads, so tests can hand the CLI a
config file.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np

from crener.config import ModelConfig, config_to_flat
from crener.corpus import EntityMention, TagVocabulary
from crener.encoder import relative_position_table


def relative_position_embedding(n: int, d_model: int, dtype=np.float64) -> np.ndarray:
    """R[i, j] = R_ij, the sinusoid of the signed offset i - j, for every
    cell of an n-character sentence: the (n, n, d_model) gather of
    `relative_position_table`."""
    dist = np.arange(n)[:, None] - np.arange(n)[None, :]
    return relative_position_table(n, d_model, dtype)[dist + n - 1]


def brute_force_decode(
    grid: np.ndarray,
    vocab: TagVocabulary,
    contiguous: bool = True,
) -> set[EntityMention]:
    """Enumerate every candidate index sequence and test the tag rule.

    Exponential in grid size; refuses n > 12. Accepts [c_1..c_m] with
    type y iff THC_y sits at (c_m, c_1) or HTC_y at (c_1, c_m), and every
    consecutive pair carries NNC/PNC (vacuous for m = 1).
    """
    n = grid.shape[0]
    if n > 12:
        raise ValueError(f"grid side {n} too large for brute force (max 12)")
    cells = grid.tolist()
    nnc, pnc = vocab.nnc_id, vocab.pnc_id
    typed = [(y, vocab.thc_id(y), vocab.htc_id(y)) for y in vocab.entity_types]

    def candidates():
        if contiguous:
            for i in range(n):
                for j in range(i, n):
                    yield tuple(range(i, j + 1))
        else:
            for m in range(1, n + 1):
                yield from combinations(range(n), m)

    found: set[EntityMention] = set()
    for seq in candidates():
        head, tail = seq[0], seq[-1]
        triggered = [
            y for y, thc, htc in typed if cells[tail][head][thc] or cells[head][tail][htc]
        ]
        if not triggered:
            continue
        if all(cells[a][b][nnc] and cells[b][a][pnc] for a, b in zip(seq, seq[1:])):
            for y in triggered:
                found.add(EntityMention(seq, y))
    return found


def _format_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return json.dumps(list(value))
    if isinstance(value, str):
        return value
    return repr(value)


def config_to_text(config: ModelConfig) -> str:
    lines = []
    last_section = None
    for key, value in config_to_flat(config).items():
        section = key.split(".", 1)[0]
        if section != last_section:
            if last_section is not None:
                lines.append("")
            lines.append(f"# {section}")
            last_section = section
        lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def save_config(config: ModelConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_text(config))
