"""Turn a predicted tag grid back into entity mentions.

A grid is a boolean (n, n, |R|) array; grid[i, j, t] means cell (i, j)
carries tag t. A typed tag is a trigger: THC_y at (i, j) with i >= j, or
its mirror HTC_y at (j, i), names head j, tail i and type y. A link
a -> b carries BOTH NNC at (a, b) and PNC at (b, a). A mention is an
index sequence from head to tail whose consecutive pairs are all links.

* Contiguous mode (the default) is an interval test. Its only candidate
  is head..tail, which is a mention iff every link (a, a + 1) in
  [head, tail) is present. A running count of the broken links among
  the n - 1 neighbour pairs gives every index the number of breaks
  before it; a trigger is a mention iff its head and tail have the same
  count, so one vectorised comparison accepts or rejects every trigger.
* Discontinuous mode is a path search. From each trigger's head, a
  depth-first search follows links a -> b with b in (a, tail], never
  past the tail; every path that reaches the tail is one mention.
"""

from __future__ import annotations

import numpy as np

from .corpus import EntityMention, TagVocabulary


def decode_grid(
    grid: np.ndarray, vocab: TagVocabulary, contiguous: bool = True
) -> set[EntityMention]:
    """All entity mentions encoded by a (possibly noisy) predicted grid."""
    thc, htc = vocab.typed_slices
    # (head, tail, type) triggers: THC transposed onto HTC's side, so each
    # distinct triple is one hit on or above the diagonal.
    heads, tails, kinds = np.nonzero(grid[:, :, thc].transpose(1, 0, 2) | grid[:, :, htc])
    nnc, pnc = grid[:, :, vocab.nnc_id], grid[:, :, vocab.pnc_id]
    types = vocab.entity_types
    if contiguous:
        link = nnc.diagonal(1) & pnc.diagonal(-1)  # link[a]: a -> a + 1
        # broken[i]: the number of broken links before index i.
        broken = np.concatenate(([0], (~link).cumsum()))
        keep = (heads <= tails) & (broken[heads] == broken[tails])
        return {
            EntityMention.trusted(tuple(range(head, tail + 1)), types[k])
            for head, tail, k in zip(
                heads[keep].tolist(), tails[keep].tolist(), kinds[keep].tolist()
            )
        }

    edge = (nnc & pnc.T).tolist()
    found: set[EntityMention] = set()
    for head, tail, k in zip(heads.tolist(), tails.tolist(), kinds.tolist()):
        if head > tail:
            continue
        etype = types[k]
        if head == tail:
            found.add(EntityMention.trusted((head,), etype))
            continue
        # Iterative DFS over strictly increasing paths from head to tail.
        stack = [(head,)]
        while stack:
            path = stack.pop()
            a = path[-1]
            for b in range(a + 1, tail + 1):
                if not edge[a][b]:
                    continue
                if b == tail:
                    found.add(EntityMention.trusted(path + (b,), etype))
                else:
                    stack.append(path + (b,))
    return found
