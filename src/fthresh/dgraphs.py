"""Auxiliary graphs with dummy edges, clean cycles of them, and the
strict-balance verification sweep.

A dummy edge stands for one sparse clean 2-cycle of template copies; it is
incident to every vertex of that cycle, so any subgraph containing it keeps
the full vertex set. Clean cycles of usual and dummy edges all carry exactly
k * e(F) edges, and every one of them must be strictly balanced for the
second-moment arguments downstream to apply.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (CounterexampleError, InternalInconsistencyError,
                     NotACleanCycleError, ResourceLimitError)
from .graphs import DEFAULT_ENUMERATION_CAP, Graph, canonical_form
from .fgraphs import (FEdge, FGraph, classify, is_sparse_pair,
                      potential_copies_on, shadow)
from .patterns import Pattern

DummyKey = frozenset  # frozenset[FEdge]: the two copies of a sparse 2-cycle


@dataclass(frozen=True)
class DGraph:
    """A simple graph plus dummy edges keyed by sparse clean 2-cycles."""

    base: Graph
    dummies: frozenset  # frozenset[DummyKey]

    def __post_init__(self):
        for key in self.dummies:
            for fe in key:
                if not fe.vertices <= self.base.vertices:
                    raise ValueError("dummy key vertex outside the base graph")

    def v(self) -> int:
        return self.base.v()

    def e(self) -> int:
        return self.base.e() + len(self.dummies)

    def dummy_span(self, key: DummyKey) -> frozenset[int]:
        return frozenset().union(*(fe.vertices for fe in key))


def project(g: DGraph) -> Graph:
    """Forget the dummy edges."""
    return g.base


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


# -- densities with dummy edges ----------------------------------------------

def dcycle_density(d: CleanDCycle) -> Fraction:
    return Fraction(d.dgraph.e(), d.dgraph.v())


def max_proper_subgraph_density(d: CleanDCycle) -> Fraction:
    """Largest edge density over proper subgraphs with at least one vertex.

    A dummy edge is incident to every vertex of its cycle, which here is the
    whole vertex set, so subgraphs on proper vertex subsets carry usual edges
    only; those are scanned exhaustively as induced subgraphs (dropping edges
    at fixed vertices only lowers density). Full-vertex-set proper subgraphs
    are dominated by the one missing a single edge.
    """
    g = d.dgraph.base
    verts = sorted(g.vertices)
    nv = len(verts)
    idx = {u: i for i, u in enumerate(verts)}
    best = Fraction(d.dgraph.e() - 1, nv)
    if nv >= 2:
        masks = np.arange(1, 2 ** nv - 1, dtype=np.uint32)
        counts = np.zeros(masks.shape, dtype=np.int64)
        for u, v in g.edges:
            bits = np.uint32((1 << idx[u]) | (1 << idx[v]))
            counts += (masks & bits) == bits
        sizes = np.bitwise_count(masks).astype(np.int64)
        # density a/b beats c/d iff a*d > c*b; track the argmax exactly
        score = counts * best.denominator - sizes * best.numerator
        top = int(np.argmax(score))
        if score[top] > 0:
            best = Fraction(int(counts[top]), int(sizes[top]))
    return best


def is_strictly_balanced_dcycle(d: CleanDCycle) -> bool:
    return max_proper_subgraph_density(d) < dcycle_density(d)


# -- isomorphism types of clean cycles ---------------------------------------

def _pattern_pair_orbits(f: Pattern, ordered: bool) -> list[tuple[int, int]]:
    """Orbit representatives of (ordered or unordered) distinct vertex pairs
    under the template's automorphism group."""
    pverts = sorted(f.graph.vertices)
    pos = {u: i for i, u in enumerate(pverts)}
    if ordered:
        pairs = set(itertools.permutations(pverts, 2))
    else:
        pairs = set(itertools.combinations(pverts, 2))
    reps = []
    while pairs:
        rep = min(pairs)
        reps.append(rep)
        for a in f.automorphisms:
            img = (a[pos[rep[0]]], a[pos[rep[1]]])
            if not ordered and img[0] > img[1]:
                img = (img[1], img[0])
            pairs.discard(img)
    return reps


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


def clean_cycle_types(f: Pattern, k: int) -> list[tuple[FGraph, str]]:
    """All isomorphism types of clean cycles of length k, with a signature
    recording which overlap-pair orbits built each representative.

    Per-copy choices range over automorphism-orbit representatives of the
    overlap vertices, which covers every type; duplicates are collapsed by
    the canonical form of the shadow together with the sparsity flag. Each
    representative lies on the labels 0..v-1.
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
        return sorted(found.values(), key=lambda t: t[1])

    ordered_reps = _pattern_pair_orbits(f, ordered=True)
    for choice in itertools.product(ordered_reps, repeat=k):
        a, b = choice[0]
        in_label, out_label = pos[a], pos[b]
        copies = [first]
        fresh = r
        ok = True
        for i in range(1, k - 1):
            x, y = choice[i]
            fe, images = _place_copy(f, {x: out_label}, fresh)
            out_label = images[y]
            copies.append(fe)
            fresh += r - 1
        x, y = choice[k - 1]
        if x == y:
            ok = False
        if ok:
            last, _ = _place_copy(f, {x: out_label, y: in_label}, fresh)
            copies.append(last)
            record(FGraph.from_fedges(copies),
                   "-".join(f"({p},{q})" for p, q in choice))
    return sorted(found.values(), key=lambda t: t[1])


@dataclass(frozen=True)
class DCycleRow:
    pattern: str
    k: int
    sparsity: str
    overlap_signature: str
    density: Fraction
    max_proper_density: Fraction
    strict_ok: bool


def verify_clean_dcycles_strictly_balanced(
        f: Pattern, max_len: int,
        pattern_name: str = "pattern") -> list[DCycleRow]:
    """Check every clean-cycle type of length 2..max_len for strict balance.

    Raises CounterexampleError with the offending cycle if any type fails;
    the returned rows back the CSV report either way.
    """
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    rows: list[DCycleRow] = []
    bad: Optional[CleanDCycle] = None
    for k in range(2, max_len + 1):
        for cycle, sig in clean_cycle_types(f, k):
            d = dcycle_of(cycle, f)
            dens = dcycle_density(d)
            proper = max_proper_subgraph_density(d)
            ok = proper < dens
            rows.append(DCycleRow(pattern=pattern_name, k=k,
                                  sparsity=d.sparsity, overlap_signature=sig,
                                  density=dens, max_proper_density=proper,
                                  strict_ok=ok))
            if not ok and bad is None:
                bad = d
    if bad is not None:
        raise CounterexampleError(
            f"clean {bad.k}-cycle ({bad.sparsity}) is not strictly balanced",
            witness=bad)
    return rows


def dcycle_report_csv(rows: Iterable[DCycleRow]) -> str:
    lines = ["pattern,k,sparsity,overlap_signature,density_num,density_den,"
             "max_proper_density,strict_ok"]
    for r in rows:
        lines.append(
            f"{r.pattern},{r.k},{r.sparsity},{r.overlap_signature},"
            f"{r.density.numerator},{r.density.denominator},"
            f"{r.max_proper_density.numerator}/{r.max_proper_density.denominator},"
            f"{str(r.strict_ok).lower()}")
    return "\n".join(lines) + "\n"


# -- concrete cycle placements on a label set --------------------------------

def sparse_cycle_placements(f: Pattern,
                            labels: Iterable[int]) -> list[frozenset[FEdge]]:
    """Every sparse clean 2-cycle on the given labels, as unordered copy
    pairs, in a deterministic order. These key the dummy edges."""
    copies = potential_copies_on(f, labels)
    by_pair: dict[tuple[int, int], list[int]] = {}
    for i, fe in enumerate(copies):
        for pair in itertools.combinations(sorted(fe.vertices), 2):
            by_pair.setdefault(pair, []).append(i)
    out: list[frozenset[FEdge]] = []
    seen: set[frozenset[int]] = set()
    for pair in sorted(by_pair):
        group = by_pair[pair]
        for ai, bi in itertools.combinations(group, 2):
            h1, h2 = copies[ai], copies[bi]
            if h1.vertices & h2.vertices != frozenset(pair):
                continue
            if not is_sparse_pair(h1, h2):
                continue
            key = frozenset((ai, bi))
            if key not in seen:
                seen.add(key)
                out.append(frozenset((h1, h2)))
    return out


def is_sparse_placement(copies: Sequence[FEdge],
                        ids: Sequence[int]) -> bool:
    """Sparsity of a cycle_placements row over its copy list: a clean cycle
    is sparse exactly when it is a pair of copies sharing an edge."""
    return len(ids) == 2 and is_sparse_pair(copies[ids[0]], copies[ids[1]])


def cycle_placements(f: Pattern, labels: Iterable[int], max_len: int,
                     cap: int = DEFAULT_ENUMERATION_CAP
                     ) -> Iterator[tuple[int, ...]]:
    """All clean-cycle placements of length 2..max_len on the given labels,
    each as the sorted ids of its copies in potential_copies_on(f, labels).

    Length-2 cycles come from copy pairs overlapping in two vertices; longer
    ones from chaining single-vertex overlaps, deduplicated by copy set.
    Every row is a clean cycle of length len(row).
    """
    copies = potential_copies_on(f, labels)
    m = len(copies)
    by_vertex: dict[int, list[int]] = {}
    for i, fe in enumerate(copies):
        for u in fe.vertices:
            by_vertex.setdefault(u, []).append(i)
    budget = cap

    def spend(amount: int = 1) -> None:
        nonlocal budget
        budget -= amount
        if budget < 0:
            raise ResourceLimitError(
                f"cycle placement enumeration exceeded cap {cap}")

    if max_len >= 2:
        for i in range(m):
            vi = copies[i].vertices
            partners = set()
            for u in vi:
                partners.update(j for j in by_vertex[u] if j > i)
            for j in sorted(partners):
                spend()
                if len(vi & copies[j].vertices) == 2:
                    yield (i, j)

    if max_len < 3:
        return

    emitted: set[tuple[int, ...]] = set()

    def extend(chain: list[int]) -> Iterator[tuple[int, ...]]:
        head = chain[0]
        tail = chain[-1]
        tail_verts = copies[tail].vertices
        cand = set()
        for u in tail_verts:
            cand.update(j for j in by_vertex[u] if j > head)
        for j in sorted(cand):
            if j in chain:
                continue
            spend()
            vj = copies[j].vertices
            if len(vj & tail_verts) != 1:
                continue
            if any(vj & copies[c].vertices for c in chain[1:-1]):
                continue
            if len(chain) == 1:
                # head and tail coincide; only extension is possible
                if len(chain) + 1 < max_len:
                    yield from extend(chain + [j])
                continue
            head_ov = vj & copies[head].vertices
            if len(head_ov) == 1:
                overlaps = []
                order = chain + [j]
                good = True
                kk = len(order)
                for t in range(kk):
                    ov = (copies[order[t]].vertices
                          & copies[order[(t + 1) % kk]].vertices)
                    if len(ov) != 1:
                        good = False
                        break
                    overlaps.append(next(iter(ov)))
                if good and len(set(overlaps)) == kk:
                    key = tuple(sorted(order))
                    if key not in emitted:
                        emitted.add(key)
                        yield key
            if len(chain) + 1 < max_len and not head_ov:
                yield from extend(chain + [j])

    for i in range(m):
        yield from extend([i])
