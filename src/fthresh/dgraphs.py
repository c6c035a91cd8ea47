"""Auxiliary graphs with dummy edges, the isomorphism types of clean
cycles, and their placements on a label set.

A dummy edge stands for one sparse clean 2-cycle of template copies; it is
incident to every vertex of that cycle, so any subgraph containing it keeps
the full vertex set. Clean cycles of usual and dummy edges all carry exactly
k * e(F) edges; exponents certifies that each type is strictly balanced.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (InternalInconsistencyError, NotACleanCycleError,
                     ResourceLimitError)
from .graphs import (DEFAULT_ENUMERATION_CAP, Graph, _norm_edge,
                     canonical_form, relabellings)
from .fgraphs import (FEdge, FGraph, _clean_cycle_order,
                      all_potential_copies, classify, count_copies,
                      edge_positions, fgraph_automorphisms, shadow)
from .patterns import Pattern


@dataclass(frozen=True)
class DGraph:
    """A simple graph plus dummy edges keyed by sparse clean 2-cycles."""

    base: Graph
    dummies: frozenset  # each the frozenset of a sparse 2-cycle's copies

    def __post_init__(self):
        for key in self.dummies:
            for fe in key:
                if not fe.vertices <= self.base.vertices:
                    raise ValueError("dummy key vertex outside the base graph")

    def v(self) -> int:
        return self.base.v()

    def e(self) -> int:
        return self.base.e() + len(self.dummies)


@dataclass(frozen=True)
class CleanDCycle:
    """A clean cycle of template copies, in dummy-edge form.

    Dense cycles project to their shadow unchanged; a sparse 2-cycle keeps
    its shadow and gains one dummy edge, so the edge count is k * e(F)
    either way.
    """

    cycle: FGraph
    dgraph: DGraph
    k: int
    sparsity: str


def dcycle_of(cycle: FGraph, f: Pattern) -> CleanDCycle:
    """Dummy-edge form of a clean cycle of copies.

    Raises NotACleanCycleError unless the input classifies as one.
    """
    cls = classify(cycle)
    if cls.kind != "clean_cycle":
        raise NotACleanCycleError(
            f"classified as {cls.kind}, not a clean cycle")
    sh = shadow(cycle)
    if cls.sparsity == "sparse":
        dummies = frozenset([frozenset(cycle.fedges)])
    else:
        dummies = frozenset()
    dg = DGraph(base=sh, dummies=dummies)
    if dg.e() != cls.length * f.s:
        raise InternalInconsistencyError(
            f"clean cycle of length {cls.length} has {dg.e()} edges, "
            f"expected {cls.length * f.s}")
    return CleanDCycle(cycle=cycle, dgraph=dg, k=cls.length,
                       sparsity=cls.sparsity)


# -- isomorphism types of clean cycles ---------------------------------------

def _pattern_pair_orbits(f: Pattern, ordered: bool) -> list[tuple[int, int]]:
    """Orbit representatives of (ordered or unordered) distinct vertex pairs
    under the template's automorphism group: the least pair of each orbit,
    in ascending order."""
    pverts = sorted(f.graph.vertices)
    pos = {u: i for i, u in enumerate(pverts)}

    def image(a: tuple[int, ...], x: int, y: int) -> tuple[int, int]:
        u, v = a[pos[x]], a[pos[y]]
        return (u, v) if ordered or u < v else (v, u)

    pairs = (itertools.permutations if ordered
             else itertools.combinations)(pverts, 2)
    return sorted({min(image(a, x, y) for a in f.automorphisms)
                   for x, y in pairs})


def _place_copy(f: Pattern, pinned: dict[int, int],
                fresh_start: int) -> tuple[FEdge, dict[int, int]]:
    """Embed the template with some vertices pinned and the rest sent to
    consecutive fresh labels; returns the copy and the vertex images."""
    mapping = dict(pinned)
    nxt = fresh_start
    for u in sorted(f.graph.vertices):
        if u not in mapping:
            mapping[u] = nxt
            nxt += 1
    return FEdge.from_embedding(f, mapping), mapping


@functools.cache
def clean_cycle_types(f: Pattern, k: int) -> tuple[tuple[FGraph, str], ...]:
    """All isomorphism types of clean cycles of length k, with a signature
    recording which overlap-pair orbits built each representative.

    Per-copy choices range over automorphism-orbit representatives of the
    overlap vertices, which covers every type; duplicates are collapsed by
    the canonical form of the shadow together with the sparsity flag. Each
    representative lies on the labels 0..v-1 and carries F's labelling, so
    the types are built once per labelled template and k, and every reader
    shares them.
    """
    if k < 2:
        raise ValueError("cycle length must be >= 2")
    r = f.r
    pverts = sorted(f.graph.vertices)
    first = FEdge.from_embedding(f, {pv: i for i, pv in enumerate(pverts)})
    pos = {pv: i for i, pv in enumerate(pverts)}
    found: dict[tuple[str, str], tuple[FGraph, str]] = {}

    def record(cycle: FGraph, sig: str) -> None:
        cls = classify(cycle)
        if cls.kind != "clean_cycle" or cls.length != k:
            raise InternalInconsistencyError(
                f"construction produced {cls.kind} instead of a {k}-cycle")
        key = (cls.sparsity, canonical_form(shadow(cycle)))
        found.setdefault(key, (cycle, sig))

    if k == 2:
        for a1, a2 in _pattern_pair_orbits(f, ordered=False):
            for x, y in _pattern_pair_orbits(f, ordered=False):
                for px, py in ((x, y), (y, x)):
                    second, _ = _place_copy(f, {px: pos[a1], py: pos[a2]},
                                            r)
                    if second == first:
                        continue
                    record(FGraph.from_fedges([first, second]),
                           f"({a1},{a2})~({px},{py})")
        return tuple(sorted(found.values(), key=lambda t: t[1]))

    ordered_reps = _pattern_pair_orbits(f, ordered=True)
    for choice in itertools.product(ordered_reps, repeat=k):
        a, b = choice[0]
        in_label, out_label = pos[a], pos[b]
        copies = [first]
        fresh = r
        for i in range(1, k - 1):
            x, y = choice[i]
            fe, images = _place_copy(f, {x: out_label}, fresh)
            out_label = images[y]
            copies.append(fe)
            fresh += r - 1
        # x != y: the ordered representatives are pairs of distinct vertices
        x, y = choice[k - 1]
        last, _ = _place_copy(f, {x: out_label, y: in_label}, fresh)
        copies.append(last)
        record(FGraph.from_fedges(copies),
               "-".join(f"({p},{q})" for p, q in choice))
    return tuple(sorted(found.values(), key=lambda t: t[1]))


# -- concrete cycle placements on a label set --------------------------------

class CycleRows(NamedTuple):
    """Row i is the cycle with sorted copy ids copy_ids[i, :lengths[i]]
    (int32, padded with -1) and sparsity flag sparse[i]."""

    copy_ids: np.ndarray
    lengths: np.ndarray
    sparse: np.ndarray


def _vertex_sets(n_labels: int, v: int,
                 fresh_from: int) -> list[tuple[int, ...]]:
    """The v-subsets of 0..n_labels-1 whose labels from fresh_from on are
    the least ones, fresh_from..fresh_from+j-1 for some j, by j and then
    lexicographically; fresh_from = n_labels gives every v-subset."""
    return [base + tuple(range(fresh_from, fresh_from + j))
            for j in range(min(v, n_labels - fresh_from) + 1)
            for base in itertools.combinations(range(fresh_from), v - j)]


def _prefix_count(cycle: FGraph, n_labels: int, fresh_from: int) -> int:
    """The placements _vertex_sets(..., fresh_from) gives one cycle type:
    per vertex set, count_copies(cycle, v) relabellings."""
    v = cycle.v()
    return count_copies(cycle, v) * sum(
        math.comb(fresh_from, v - j)
        for j in range(min(v, n_labels - fresh_from) + 1))


def _type_rows(f: Pattern, cycle: FGraph, n_labels: int,
               fresh_from: int) -> np.ndarray:
    """Every placement of one cycle type on the labels 0..n_labels-1 as
    its copy ids, in cycle order: the representative under each distinct
    relabelling, carried monotonically onto each of _vertex_sets' v-subsets
    of the labels. A monotone map keeps
    each copy's shape index within its vertex set, so a copy's id is the
    lexicographic rank of its vertex set times the copies per vertex set,
    plus that index."""
    r, v = f.r, cycle.v()
    fes = (list(cycle.fedges) if cycle.e() == 2
           else _clean_cycle_order(cycle)[0])
    sigma = relabellings(shadow(cycle), fgraph_automorphisms(cycle))
    shape_of = {edges: i for i, (edges, _emb) in
                enumerate(f.canonical_copies)}
    edges = edge_positions(f)
    subsets = np.array(_vertex_sets(n_labels, v, fresh_from),
                       dtype=np.int32).reshape(-1, v)
    # the rank of a sorted r-set c of [N] is C(N, r) - 1 minus the sum of
    # the terms C(N - 1 - c_i, r - i)
    term = np.array([[math.comb(n_labels - 1 - c, r - i) for i in range(r)]
                     for c in range(n_labels)], dtype=np.int32)
    out = np.empty((len(subsets), len(sigma), len(fes)), dtype=np.int32)
    for c, fe in enumerate(fes):
        images = sigma[:, list(fe.embedding)]
        # a copy's shape index follows from the relative order of its
        # template vertices' images, here keyed as a base-r number
        ranks = images.argsort(axis=1).argsort(axis=1)
        _keys, first, which = np.unique(ranks @ r ** np.arange(r),
                                        return_index=True, return_inverse=True)
        shapes = np.array(
            [shape_of[tuple(sorted(_norm_edge(p[a], p[b]) for a, b in edges))]
             for p in ranks[first].tolist()], dtype=np.int32)[which]
        local = np.sort(images, axis=1)
        rank = math.comb(n_labels, r) - 1 - sum(
            term[subsets[:, local[:, i]], i] for i in range(r))
        out[:, :, c] = rank * f.copies_per_vertex_set + shapes
    return out.reshape(-1, len(fes))


def cycle_placements(f: Pattern, n_labels: int, lengths: Iterable[int],
                     cap: int = DEFAULT_ENUMERATION_CAP,
                     fresh_from: Optional[int] = None) -> CycleRows:
    """All clean-cycle placements of the given distinct lengths on the
    labels 0..n_labels-1, each row the sorted ids of its copies in
    potential_copies_on(f, range(n_labels)), built by relabelling the
    clean_cycle_types representatives. A clean k-cycle has k * (r - 1)
    vertices, so only the lengths with k * (r - 1) <= n_labels are built;
    the others have no placement.

    Every 2-cycle comes first, by its copy ids; then every longer cycle by
    its copy sequence read from its least copy id towards the smaller
    neighbour, lexicographically with a prefix before its extensions. More
    than cap placements of the built lengths, counted from the type
    orbits, raise ResourceLimitError before any is built.

    With fresh_from, the labels from fresh_from on are taken as
    interchangeable, and only the placements using the least j of them,
    for each j, are kept: a subsequence of the full rows, with the same
    copy ids and in the same order."""
    fresh_from = n_labels if fresh_from is None else fresh_from
    types = [(k, cycle) for k in lengths
             if k * (f.r - 1) <= n_labels
             for cycle, _sig in clean_cycle_types(f, k)]
    total = sum(_prefix_count(cycle, n_labels, fresh_from)
                for _k, cycle in types)
    if total > cap:
        raise ResourceLimitError(f"{total} cycle placements exceed cap {cap}")
    if not types:
        return CycleRows(np.empty((0, 0), dtype=np.int32),
                         np.empty(0, dtype=np.int32), np.empty(0, dtype=bool))
    width = max(k for k, _cycle in types)
    seqs, lengths, sparse = [], [], []
    for k, cycle in types:
        rows = _type_rows(f, cycle, n_labels, fresh_from)
        # read each cycle from its least id towards the smaller neighbour
        at = np.arange(len(rows))[:, None]
        start = rows.argmin(axis=1)[:, None]
        step = np.where(rows[at, (start + 1) % k] < rows[at, (start - 1) % k],
                        1, -1)
        seqs.append(np.full((len(rows), width), -1, dtype=np.int32))
        seqs[-1][:, :k] = rows[at, (start + step * np.arange(k)) % k]
        lengths.append(np.full(len(rows), k, dtype=np.int32))
        sparse.append(np.full(len(rows), classify(cycle).sparsity == "sparse"))
    seq = np.concatenate(seqs)
    lengths = np.concatenate(lengths)
    order = np.lexsort((*seq.T[::-1], lengths > 2))
    top = np.iinfo(np.int32).max
    ids = np.where(seq[order] < 0, top, seq[order])
    ids.sort(axis=1)
    ids[ids == top] = -1
    return CycleRows(ids, lengths[order], np.concatenate(sparse)[order])


def row_words(masks: Sequence[int], ids: np.ndarray,
              n_words: int) -> np.ndarray:
    """Per row of ids, the OR of the int bit masks it lists, as n_words
    uint64 words, low word first; an id of -1 lists nothing. Built word
    by word and id column by id column, so that no temporary holds more
    than one word per row; stored word-major, so each word of every row
    is contiguous."""
    # one row per mask, then an all-zero row that the -1 ids read
    words = np.frombuffer(b"".join(m.to_bytes(8 * n_words, "little")
                                   for m in masks) + bytes(8 * n_words),
                          dtype="<u8").reshape(len(masks) + 1, n_words)
    union = np.zeros((n_words, len(ids)), dtype=words.dtype)
    for w, word in enumerate(words.T):
        for column in ids.T:
            union[w] |= word[column]
    return union.T


def dummy_order(f: Pattern, copies: Sequence[FEdge],
                pairs: np.ndarray) -> np.ndarray:
    """The order of the sparse 2-cycles given as rows of two ascending ids
    into copies: by their shared vertex pair, then by copy ids. It is the
    order of the dummy slots, which the dummy stream of sample_gstar
    indexes."""
    verts = np.array([sorted(fe.vertices) for fe in copies]).reshape(-1, f.r)
    first, second = verts[pairs[:, 0]], verts[pairs[:, 1]]
    shared = first[(first[:, :, None] == second[:, None, :]).any(axis=2)]
    shared = shared.reshape(-1, 2)
    return np.lexsort((*pairs.T[::-1], *shared.T[::-1]))


def sparse_cycle_placements(f: Pattern, n: int) -> list[frozenset[FEdge]]:
    """Every sparse clean 2-cycle on [n], as unordered copy pairs in
    dummy_order. These key the dummy edges; they hold the objects of
    all_potential_copies(f, n), which every other reader of (f, n) holds
    too."""
    copies = all_potential_copies(f, n)
    rows = cycle_placements(f, n, (2,))
    pairs = rows.copy_ids[rows.sparse, :2].reshape(-1, 2)
    pairs = pairs[dummy_order(f, copies, pairs)]
    return [frozenset((copies[a], copies[b])) for a, b in pairs.tolist()]
