"""References for the Chen-Stein sums.

The pair sums as a scalar loop over every ordered pair of listed
placements: `inventory.chen_stein_bound` sums the same four terms over
cycle types with orbit counts, and must agree with the loop to rounding.
The joint-moment buckets from every placement on the anchor's labels plus
the whole fresh pool: `inventory._pair_buckets` enumerates only the least
fresh labels of each size, and its dict must equal this one, items and
order.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from fthresh.fgraphs import FGraph, potential_copies_on
from fthresh.inventory import CycleInventory, _rows, _type_reps, _word_rows
from fthresh.patterns import Pattern


@dataclass(frozen=True)
class Item:
    """One placement on [n]."""
    copy_ids: tuple[int, ...]
    """Sorted ids of the cycle's copies in potential_copies_on(f, range(n))."""
    k: int
    sparse: bool
    verts: frozenset[int]
    shadow_mask: int
    """The shadow's edges as a bitmask, edge (u, v) at bit u * n + v."""


def inventory_items(f: Pattern, n: int,
                    lengths: Optional[frozenset[int]] = None) -> list[Item]:
    """Every placement of the wanted lengths on [n], from inventory._rows."""
    items = []
    for ids, k, sparse, words in zip(*_rows(f, n, lengths)):
        bits = int.from_bytes(words.astype("<u8").tobytes(), "little")
        items.append(Item(
            copy_ids=tuple(ids[:k].tolist()), k=int(k), sparse=bool(sparse),
            verts=frozenset(u for u in range(n) if bits >> u & 1),
            shadow_mask=bits >> n))
    return items


def pairwise_terms_loop(inv: CycleInventory, pi: float,
                        p: float) -> tuple[float, float]:
    """(bound_H, bound_G) by exact evaluation of every overlapping pair."""
    items = inventory_items(inv.f, inv.n, inv.lengths)
    s = inv.f.s
    th1 = tg1 = th2 = tg2 = 0.0
    for a in items:
        copies_a = set(a.copy_ids)
        dummies_a = 1 if a.sparse else 0
        for b in items:
            if not (a.verts & b.verts):
                continue
            th1 += pi ** a.k * pi ** b.k
            tg1 += p ** (a.k * s) * p ** (b.k * s)
            if b is a:
                continue
            union_copies = len(copies_a.union(b.copy_ids))
            union_edges = (a.shadow_mask | b.shadow_mask).bit_count()
            union_dummies = dummies_a + (1 if b.sparse else 0)
            th2 += pi ** union_copies
            tg2 += p ** (union_edges + union_dummies)
    return 4.0 * (th1 + th2), 4.0 * (tg1 + tg2)


def pair_buckets_full(f: Pattern, anchor: FGraph,
                      lengths: Optional[frozenset[int]] = None
                      ) -> dict[tuple[int, int, int], int]:
    """Joint-moment buckets against one fixed placement of the anchor type.

    The anchor, a clean_cycle_types representative, lies on the labels
    0..v-1. Enumerates every cycle placement meeting it on those labels
    plus a pool of interchangeable fresh labels, and buckets by (fresh
    vertices used, union F-edge count, union d-edge count), in order of
    first occurrence.
    """
    v_anchor = anchor.v()
    v_other_max = max(cy.v() for cy in _type_reps(f, lengths))
    n_labels = v_anchor + v_other_max - 1
    copies = potential_copies_on(f, range(n_labels))
    c0 = sorted(copies.index(fe) for fe in anchor.fedges)
    ids, ks, sparse, words = _rows(f, n_labels, lengths)
    at = np.flatnonzero((ks == len(c0))
                        & (ids[:, :len(c0)] == c0).all(axis=1))[0]
    n_words = words.shape[1]
    vertex, inside = (1 << n_labels) - 1, (1 << v_anchor) - 1
    anchor_bits, fresh, edges = _word_rows(
        [inside, vertex - inside,
         (1 << n_labels * (n_labels + 1)) - 1 - vertex], n_words)
    keep = (words & anchor_bits).any(axis=1)
    keep[at] = False
    keys = np.column_stack((
        np.bitwise_count(words & fresh).sum(axis=1, dtype=np.int64),
        len(c0) + ks - np.isin(ids, c0).sum(axis=1),
        np.bitwise_count((words | words[at]) & edges).sum(axis=1,
                                                          dtype=np.int64)
        + sparse[at] + sparse))[keep]
    uniq, first, counts = np.unique(keys, axis=0, return_index=True,
                                    return_counts=True)
    order = np.argsort(first)
    return dict(zip(map(tuple, uniq[order].tolist()), counts[order].tolist()))
