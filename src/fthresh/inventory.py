"""Potential clean-cycle placements and Chen-Stein total-variation bounds.

The inventory counts every potential clean cycle of length up to e(F) on
[n] from per-type orbit counts. Up to DEFAULT_PAIRWISE_LIMIT (600)
placements it also lists them as copy-id rows of cycle_placements, and the
bound runs pair by pair over the list; above it all sums run over
isomorphism types with exact orbit counting, the joint moments from
buckets around one placement of each type. Those buckets are built from
the placements whose fresh labels are the least ones of the pool, each
weighted by the number of fresh label sets of its size. The two paths
evaluate the same sums in different groupings and agree to rounding
(about 2e-12 relative), not bit for bit; the pairwise floats are the ones
pinned byte for byte.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dgraphs import clean_cycle_types, cycle_placements
from .errors import DomainError
from .fgraphs import FGraph, count_copies, potential_copies_on
from .patterns import Pattern

DEFAULT_PAIRWISE_LIMIT = 600
# pair terms per pass of _pairwise_terms: each float64 temporary of a pass
# stays under 128 KiB, glibc's default mmap and trim thresholds, and its
# integer ones are int16, so the passes reuse the same heap pages instead
# of faulting in fresh ones
_PASS_TERMS = 16_000


@dataclass(frozen=True)
class InventoryItem:
    copy_ids: tuple[int, ...]
    """Sorted ids of the cycle's copies in potential_copies_on(f, range(n))."""
    k: int
    sparse: bool
    verts: frozenset[int]
    shadow_mask: int
    """The shadow's edges as a bitmask, edge (u, v) at bit u * n + v."""

    def exponent_h(self) -> int:
        """F-edges of the cycle; E[X_C] = pi ** this."""
        return self.k

    def exponent_g(self, s: int) -> int:
        """Edges of the d-cycle incl. dummy; E[X'_C] = p ** this."""
        return self.k * s


@dataclass(frozen=True)
class CycleInventory:
    f: Pattern
    n: int
    items: Optional[tuple[InventoryItem, ...]]
    total_count: int
    lengths: Optional[frozenset[int]] = None
    """Restrict to these cycle lengths; None means 2..e(F). The coupling
    propositions treat each length class separately, so class-restricted
    inventories are first-class citizens."""


def _lengths(f: Pattern, lengths: Optional[frozenset[int]]) -> list[int]:
    """The wanted cycle lengths, in increasing order."""
    return [k for k in range(2, f.s + 1) if lengths is None or k in lengths]


def _word_rows(masks: list[int], n_words: int) -> np.ndarray:
    """Each bit mask as a row of n_words uint64 words, low word first."""
    return np.frombuffer(b"".join(m.to_bytes(8 * n_words, "little")
                                  for m in masks),
                         dtype="<u8").reshape(len(masks), n_words)


def _rows(f: Pattern, n_labels: int, lengths: Optional[frozenset[int]],
          cap: int = 10 ** 7, fresh_from: Optional[int] = None) -> tuple:
    """The wanted placements on the labels 0..n_labels-1 (with fresh_from,
    those of cycle_placements' fresh prefix): copy ids, lengths, sparse
    flags, and each placement's vertices and shadow edges as one bit set
    in uint64 words, vertex u at bit u and edge (u, v) at bit
    n_labels * (u + 1) + v."""
    wanted = _lengths(f, lengths)
    rows = cycle_placements(f, range(n_labels), max(wanted, default=0),
                            cap=cap, fresh_from=fresh_from)
    keep = np.isin(rows.lengths, wanted)
    # per copy, then an all-zero mask that the -1 padding of copy ids reads
    masks = [sum(1 << u for u in fe.vertices)
             | sum(1 << n_labels * (u + 1) + v for u, v in fe.edge_set)
             for fe in potential_copies_on(f, range(n_labels))] + [0]
    n_words = -(-n_labels * (n_labels + 1) // 64)
    words = _word_rows(masks, n_words)
    ids = rows.copy_ids[keep]
    # word by word and copy by copy, so that no temporary holds more than
    # one word per row; stored word-major, so each word of every row is
    # contiguous
    union = np.zeros((n_words, len(ids)), dtype=words.dtype)
    for w, word in enumerate(words.T):
        for column in ids.T:
            union[w] |= word[column]
    return ids, rows.lengths[keep], rows.sparse[keep], union.T


def inventory_size(f: Pattern, n: int,
                   lengths: Optional[frozenset[int]] = None) -> int:
    """Exact number of placements, from per-type orbit counts."""
    return sum(_safe_count(rep, n) for rep in _type_reps(f, lengths))


def build_inventory(f: Pattern, n: int,
                    lengths: Optional[frozenset[int]] = None,
                    cap: int = 10 ** 7) -> CycleInventory:
    """Exact placement count, with the placements listed when there are at
    most DEFAULT_PAIRWISE_LIMIT of them; only such lists are ever summed
    pair by pair."""
    if lengths is not None:
        lengths = frozenset(lengths)
    total = inventory_size(f, n, lengths)
    if total > DEFAULT_PAIRWISE_LIMIT:
        return CycleInventory(f=f, n=n, items=None, total_count=total,
                              lengths=lengths)
    items = []
    for ids, k, sparse, words in zip(*_rows(f, n, lengths, cap)):
        bits = int.from_bytes(words.astype("<u8").tobytes(), "little")
        items.append(InventoryItem(
            copy_ids=tuple(ids[:k].tolist()), k=int(k), sparse=bool(sparse),
            verts=frozenset(u for u in range(n) if bits >> u & 1),
            shadow_mask=bits >> n))
    # copy ids follow FEdge.sort_key, so this orders the cycles by their
    # sorted copies
    items.sort(key=lambda it: it.copy_ids)
    if len(items) != total:
        raise DomainError(
            f"placement enumeration found {len(items)}, expected {total}")
    return CycleInventory(f=f, n=n, items=tuple(items), total_count=total,
                          lengths=lengths)


# -- Chen-Stein bound --------------------------------------------------------

def _safe_count(shape: FGraph, n: int) -> int:
    return count_copies(shape, n) if n >= shape.v() else 0


def _pairwise_terms(inv: CycleInventory, pi: float,
                    p: float) -> tuple[float, float]:
    """(bound_H, bound_G) by exact evaluation of every overlapping pair.

    A block of rows a at a time against all rows b, at most _PASS_TERMS
    pairs (times shadow words) per block: the four sums take their terms
    in (a, b) row-major order and add them one at a time (np.cumsum after
    the running total), and every power is a Python pi ** k or p ** k, so
    every sum is the float of the scalar loop over the pairs, bit for bit.
    """
    items = inv.items
    s = inv.f.s
    n_rows = len(items)
    # copy and edge counts as int16, a quarter of a pass's float arrays
    ks = np.array([it.k for it in items], dtype=np.int16)
    k_max = int(ks.max())
    dummies = np.array([it.sparse for it in items], dtype=np.int16)
    verts = _word_rows([sum(1 << u for u in it.verts) for it in items],
                       -(-inv.n // 64))
    shadows = _word_rows([it.shadow_mask for it in items],
                         -(-inv.n * inv.n // 64))
    # copy-by-row incidence; the -1 padding of ids reads the last, zero row
    ids = np.array([it.copy_ids + (-1,) * (k_max - it.k) for it in items])
    incidence = np.zeros((int(ids.max()) + 2, n_rows), dtype=np.int8)
    incidence[ids, np.arange(n_rows)[:, None]] = 1
    incidence[-1] = 0
    mh = np.array([pi ** it.exponent_h() for it in items], dtype=np.float64)
    mg = np.array([p ** it.exponent_g(s) for it in items], dtype=np.float64)
    # exponents up to two cycles' copies, and their d-edges with dummies
    pow_h = np.array([pi ** k for k in range(2 * k_max + 1)],
                     dtype=np.float64)
    pow_g = np.array([p ** k for k in range(2 * k_max * s + 3)],
                     dtype=np.float64)
    sums = np.zeros(4)
    block = max(1, _PASS_TERMS // (n_rows * shadows.shape[1]))

    def add(i: int, terms: np.ndarray) -> None:
        # the running total enters as the first addition, then the rest
        # follow one at a time, in place
        if terms.size:
            terms[0] += sums[i]
            sums[i] = np.cumsum(terms, out=terms)[-1]

    for lo in range(0, n_rows, block):
        hi = min(lo + block, n_rows)
        meet = (verts[lo:hi, None, :] & verts[None, :, :]).any(axis=2)
        add(0, (mh[lo:hi, None] * mh[None, :])[meet])
        add(1, (mg[lo:hi, None] * mg[None, :])[meet])
        meet[np.arange(hi - lo), np.arange(lo, hi)] = False
        # the incidence product, summed over the copies of each row a
        shared = incidence[ids[lo:hi]].sum(axis=1, dtype=np.int16)
        union_copies = ks[lo:hi, None] + ks[None, :] - shared
        union_edges = np.bitwise_count(
            shadows[lo:hi, None, :] | shadows[None, :, :]).sum(
                axis=2, dtype=np.int16)
        add(2, pow_h[union_copies[meet]])
        add(3, pow_g[(union_edges + dummies[lo:hi, None]
                      + dummies[None, :])[meet]])
    th1, tg1, th2, tg2 = sums.tolist()
    return 4.0 * (th1 + th2), 4.0 * (tg1 + tg2)


def _type_reps(f: Pattern,
               lengths: Optional[frozenset[int]] = None) -> list[FGraph]:
    return [cycle for k in _lengths(f, lengths)
            for cycle, _sig in clean_cycle_types(f, k)]


def _pair_buckets(f: Pattern, anchor: FGraph,
                  lengths: Optional[frozenset[int]] = None
                  ) -> dict[tuple[int, int, int], int]:
    """Joint-moment buckets against one fixed placement of the anchor type.

    The anchor, a clean_cycle_types representative, lies on the labels
    0..v-1, followed by a pool of fresh labels. Every cycle placement
    meeting it on those labels is bucketed by (fresh vertices used j,
    union F-edge count, union d-edge count), in order of first occurrence
    among cycle_placements' rows. Scaled by binomials this reproduces the
    exact sum over [n].

    The pool labels are interchangeable, so only the placements whose
    fresh labels are the least j of the pool are built, each weighted by
    C(pool, j). The order-preserving relabelling of any j fresh labels
    onto those fixes the anchor's labels and every bucket key, and is a
    bijection between the placements on either set. It also lowers every
    copy id and keeps their order, so each bucket's first placement is
    one of those built, and the buckets come out in the same order.
    """
    v_anchor = anchor.v()
    pool = max(cy.v() for cy in _type_reps(f, lengths)) - 1
    n_labels = v_anchor + pool
    # the rows first: they check the cap before anything is built
    ids, ks, sparse, words = _rows(f, n_labels, lengths, fresh_from=v_anchor)
    copies = potential_copies_on(f, range(n_labels))
    c0 = sorted(copies.index(fe) for fe in anchor.fedges)
    at = np.flatnonzero((ks == len(c0))
                        & (ids[:, :len(c0)] == c0).all(axis=1))[0]
    vertex, inside = (1 << n_labels) - 1, (1 << v_anchor) - 1
    anchor_bits, fresh, edges = _word_rows(
        [inside, vertex - inside,
         (1 << n_labels * (n_labels + 1)) - 1 - vertex], words.shape[1])
    meets = np.zeros(len(ks), dtype=bool)
    n_fresh = np.zeros(len(ks), dtype=np.int64)
    union_edges = np.zeros(len(ks), dtype=np.int64)
    for w in range(words.shape[1]):  # one word of every row at a time
        meets |= (words[:, w] & anchor_bits[w]) != 0
        n_fresh += np.bitwise_count(words[:, w] & fresh[w])
        union_edges += np.bitwise_count((words[:, w] | words[at, w])
                                        & edges[w])
    del words  # the largest array; the keys need none of it
    meets[at] = False
    keys = (n_fresh[meets],
            len(c0) + ks[meets] - np.isin(ids[meets], c0).sum(axis=1),
            union_edges[meets] + sparse[at] + sparse[meets])
    # one int64 per key, so that the bucketing is a 1-D unique
    packed = np.ravel_multi_index(
        keys, tuple(int(key.max(initial=0)) + 1 for key in keys))
    # in order of first occurrence, so the sums over buckets add up in the
    # order of the placements
    _, first, counts = np.unique(packed, return_index=True,
                                 return_counts=True)
    order = np.argsort(first)
    return {(j, uh, ug): count * math.comb(pool, j)
            for j, uh, ug, count in zip(
                *(key[first[order]].tolist() for key in keys),
                counts[order].tolist())}


@functools.lru_cache(maxsize=8)
def _all_buckets(f: Pattern,
                 lengths: Optional[frozenset[int]]) -> tuple[dict, ...]:
    """The buckets of every type representative, in _type_reps order. Keyed
    by the labelled template: which type sits at which index depends on
    F's labelling, not only on its isomorphism type."""
    return tuple(_pair_buckets(f, rep, lengths)
                 for rep in _type_reps(f, lengths))


def _aggregate_terms(f: Pattern, n: int, pi: float, p: float,
                     lengths: Optional[frozenset[int]] = None
                     ) -> tuple[float, float]:
    """(bound_H, bound_G) from per-type orbit counts; exact for any n."""
    reps = _type_reps(f, lengths)
    s = f.s
    all_buckets = _all_buckets(f, lengths)

    th1 = tg1 = th2 = tg2 = 0.0
    counts = [_safe_count(rep, n) for rep in reps]
    for a, rep_a in enumerate(reps):
        va = rep_a.v()
        ka = rep_a.e()
        mh_a = pi ** ka
        mg_a = p ** (ka * s)
        # product term: overlapping ordered pairs = all minus disjoint
        for b, rep_b in enumerate(reps):
            kb = rep_b.e()
            overlapping = counts[a] * (counts[b] - _safe_count(rep_b, n - va))
            th1 += overlapping * mh_a * pi ** kb
            tg1 += overlapping * mg_a * p ** (kb * s)
        # joint term: bucketed relative placements around one anchor
        v_other_max = max(cy.v() for cy in reps)
        pool = v_other_max - 1
        sh = sg = 0.0
        for (j, uh, ug), cnt in all_buckets[a].items():
            if n - va < j:
                continue
            scale = cnt * math.comb(n - va, j) / math.comb(pool, j)
            sh += scale * pi ** uh
            sg += scale * p ** ug
        th2 += counts[a] * sh
        tg2 += counts[a] * sg
    return 4.0 * (th1 + th2), 4.0 * (tg1 + tg2)


def chen_stein_bound(inv: CycleInventory, pi: float, p: float,
                     pairwise_limit: int = DEFAULT_PAIRWISE_LIMIT
                     ) -> tuple[float, float]:
    """Total-variation bounds for the Poisson approximation of the cycle
    counts of H (first) and the d-cycle counts of G* (second).

    4 * (sum of E[X_C]E[X_C'] over pairs sharing a vertex, C' = C allowed,
    plus sum of E[X_C X_C'] over distinct such pairs). Small inventories are
    evaluated pair by pair; otherwise the type-aggregated form is used. The
    two agree to rounding, not bit for bit; the pairwise path is the one
    whose floats are pinned byte for byte.
    """
    if not 0.0 <= pi <= 1.0 or not 0.0 <= p <= 1.0:
        raise DomainError("pi and p must lie in [0, 1]")
    if inv.total_count == 0:
        return 0.0, 0.0
    if inv.items is not None and inv.total_count <= pairwise_limit:
        return _pairwise_terms(inv, pi, p)
    return _aggregate_terms(inv.f, inv.n, pi, p, inv.lengths)
