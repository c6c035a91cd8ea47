"""Potential clean-cycle placements and Chen-Stein total-variation bounds.

The inventory lists every potential clean cycle of length up to e(F) on [n].
For small instances the list is explicit; past a size threshold only the
aggregate description is kept and all sums run over isomorphism types with
exact orbit counting, which gives identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .dgraphs import clean_cycle_types
from .errors import DomainError
from .fgraphs import FEdge, FGraph, classify, count_copies, shadow
from .dgraphs import cycle_placements
from .graphs import Edge, canonical_form
from .patterns import Pattern

DEFAULT_EXPLICIT_LIMIT = 200_000
DEFAULT_PAIRWISE_LIMIT = 600


@dataclass(frozen=True)
class InventoryItem:
    cycle: FGraph
    k: int
    sparse: bool
    verts: frozenset[int]
    shadow_edges: frozenset[Edge]

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
    max_len: int
    items: Optional[tuple[InventoryItem, ...]]
    total_count: int
    lengths: Optional[frozenset[int]] = None
    """Restrict to these cycle lengths; None means 2..max_len. The coupling
    propositions treat each length class separately, so class-restricted
    inventories are first-class citizens."""

def _wanted(k: int, max_len: int, lengths: Optional[frozenset[int]]) -> bool:
    return k in lengths if lengths is not None else 2 <= k <= max_len


def inventory_size(f: Pattern, n: int, max_len: int,
                   lengths: Optional[frozenset[int]] = None) -> int:
    """Exact number of placements, from per-type orbit counts."""
    total = 0
    for k in range(2, max_len + 1):
        if not _wanted(k, max_len, lengths):
            continue
        for cycle, _sig in clean_cycle_types(f, k):
            if cycle.v() <= n:
                total += count_copies(cycle, n)
    return total


def build_inventory(f: Pattern, n: int, max_len: Optional[int] = None,
                    lengths: Optional[frozenset[int]] = None,
                    explicit_limit: int = DEFAULT_EXPLICIT_LIMIT,
                    cap: int = 10 ** 7) -> CycleInventory:
    """Deduplicated placement list, or its aggregate form when too large."""
    if max_len is None:
        max_len = f.s
    if lengths is not None:
        lengths = frozenset(lengths)
    total = inventory_size(f, n, max_len, lengths)
    if total > explicit_limit:
        return CycleInventory(f=f, n=n, max_len=max_len, items=None,
                              total_count=total, lengths=lengths)
    enum_len = max_len if lengths is None else min(max_len, max(lengths))
    items = []
    for cyc in cycle_placements(f, range(n), enum_len, cap=cap):
        cls = classify(cyc)
        if not _wanted(cls.length, max_len, lengths):
            continue
        items.append(InventoryItem(
            cycle=cyc, k=cls.length, sparse=(cls.sparsity == "sparse"),
            verts=cyc.vertices, shadow_edges=shadow(cyc).edges))
    items.sort(key=lambda it: tuple(sorted(
        fe.sort_key() for fe in it.cycle.fedges)))
    if len(items) != total:
        raise DomainError(
            f"placement enumeration found {len(items)}, expected {total}")
    return CycleInventory(f=f, n=n, max_len=max_len, items=tuple(items),
                          total_count=total, lengths=lengths)


# -- Chen-Stein bound --------------------------------------------------------

def _safe_count(shape: FGraph, n: int) -> int:
    return count_copies(shape, n) if n >= shape.v() else 0


def _pairwise_terms(inv: CycleInventory, pi: float,
                    p: float) -> tuple[float, float]:
    """(bound_H, bound_G) by exact evaluation of every overlapping pair."""
    items = inv.items
    s = inv.f.s
    th1 = tg1 = th2 = tg2 = 0.0
    for i, a in enumerate(items):
        copies_a = set(a.cycle.fedges)
        dummies_a = 1 if a.sparse else 0
        for b in items:
            if not (a.verts & b.verts):
                continue
            th1 += pi ** a.exponent_h() * pi ** b.exponent_h()
            tg1 += p ** a.exponent_g(s) * p ** b.exponent_g(s)
            if b.cycle == a.cycle:
                continue
            union_copies = len(copies_a | set(b.cycle.fedges))
            union_edges = len(a.shadow_edges | b.shadow_edges)
            union_dummies = dummies_a + (1 if b.sparse else 0)
            th2 += pi ** union_copies
            tg2 += p ** (union_edges + union_dummies)
    return 4.0 * (th1 + th2), 4.0 * (tg1 + tg2)


def _type_reps(f: Pattern, max_len: int,
               lengths: Optional[frozenset[int]] = None) -> list[FGraph]:
    reps = []
    for k in range(2, max_len + 1):
        if not _wanted(k, max_len, lengths):
            continue
        for cycle, _sig in clean_cycle_types(f, k):
            reps.append(cycle)
    return reps


def _relabel_cycle(cycle: FGraph, mapping: dict[int, int],
                   f: Pattern) -> FGraph:
    pverts = sorted(f.graph.vertices)
    fes = []
    for fe in cycle.fedges:
        images = [mapping[x] for x in fe.embedding]
        fes.append(FEdge.from_embedding(f, dict(zip(pverts, images))))
    return FGraph.from_fedges(fes)


def _pair_buckets(f: Pattern, anchor: FGraph, max_len: int,
                  lengths: Optional[frozenset[int]] = None
                  ) -> dict[tuple[int, int, int], int]:
    """Joint-moment buckets against one fixed placement of the anchor type.

    Enumerates every cycle placement meeting the anchor on the anchor's
    vertices plus a pool of interchangeable fresh labels, and buckets by
    (fresh vertices used, union F-edge count, union d-edge count). Scaled by
    binomials this reproduces the exact sum over [n].
    """
    v_anchor = anchor.v()
    relab = {u: i for i, u in enumerate(sorted(anchor.vertices))}
    c0 = _relabel_cycle(anchor, relab, f)
    c0_copies = set(c0.fedges)
    c0_edges = shadow(c0).edges
    c0_dummy = 1 if classify(c0).sparsity == "sparse" else 0
    v_other_max = max(cy.v() for cy in _type_reps(f, max_len, lengths))
    pool = v_other_max - 1
    ground = range(v_anchor + pool)
    anchor_set = set(range(v_anchor))
    enum_len = max_len if lengths is None else min(max_len, max(lengths))
    buckets: dict[tuple[int, int, int], int] = {}
    for cyc in cycle_placements(f, ground, enum_len):
        if not _wanted(cyc.e(), max_len, lengths):
            continue
        overlap = cyc.vertices & anchor_set
        if not overlap:
            continue
        if cyc == c0:
            continue
        j = cyc.v() - len(overlap)
        union_copies = len(c0_copies | set(cyc.fedges))
        union_edges = len(c0_edges | shadow(cyc).edges)
        dummies = c0_dummy + (1 if classify(cyc).sparsity == "sparse" else 0)
        key = (j, union_copies, union_edges + dummies)
        buckets[key] = buckets.get(key, 0) + 1
    return buckets


_BUCKET_CACHE: dict[tuple, list] = {}


def _aggregate_terms(f: Pattern, n: int, max_len: int, pi: float, p: float,
                     lengths: Optional[frozenset[int]] = None
                     ) -> tuple[float, float]:
    """(bound_H, bound_G) from per-type orbit counts; exact for any n."""
    reps = _type_reps(f, max_len, lengths)
    s = f.s
    key = ("buckets", canonical_form(f.graph), max_len, lengths)
    if key not in _BUCKET_CACHE:
        _BUCKET_CACHE[key] = [_pair_buckets(f, rep, max_len, lengths)
                              for rep in reps]
    all_buckets = _BUCKET_CACHE[key]

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
    evaluated pair by pair; otherwise the type-aggregated form is used, and
    both are exact.
    """
    if not 0.0 <= pi <= 1.0 or not 0.0 <= p <= 1.0:
        raise DomainError("pi and p must lie in [0, 1]")
    if inv.total_count == 0:
        return 0.0, 0.0
    if inv.items is not None and inv.total_count <= pairwise_limit:
        return _pairwise_terms(inv, pi, p)
    return _aggregate_terms(inv.f, inv.n, inv.max_len, pi, p, inv.lengths)
