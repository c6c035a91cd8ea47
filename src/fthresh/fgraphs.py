"""F-graphs: shadow graphs, nullity, clean-cycle classification, induced
copies, avoidable configurations, and exact copy counting.

An F-edge is an embedded copy of the template; two embeddings that differ
by a template automorphism are the same copy, so copy identity is the pair
(vertex set, edge set).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import ResourceLimitError, WitnessNotFoundError
from .graphs import (DEFAULT_ENUMERATION_CAP, Edge, Graph,
                     _adjacency_matrix, _embedding_images, _norm_edge,
                     automorphisms, components)
from .patterns import Pattern


@dataclass(frozen=True)
class FEdge:
    vertices: frozenset[int]
    edge_set: frozenset[Edge]
    embedding: tuple[int, ...] = field(compare=False, hash=False, default=())
    """Images of the template's sorted vertices; lexicographically minimal
    representative of the copy's embedding class."""

    @staticmethod
    def from_embedding(f: Pattern, mapping: dict[int, int]) -> "FEdge":
        pverts = sorted(f.graph.vertices)
        edge_set = frozenset(_norm_edge(mapping[u], mapping[v])
                             for u, v in f.graph.edges)
        verts = frozenset(mapping[u] for u in pverts)
        best = min(tuple(mapping[x] for x in a) for a in f.automorphisms)
        return FEdge(verts, edge_set, best)

    @staticmethod
    def from_images(images: tuple[int, ...],
                    edges: list[tuple[int, int]]) -> "FEdge":
        """The copy whose least embedding is images, the images of the
        template's sorted vertices; edges as edge_positions gives them."""
        return FEdge(frozenset(images),
                     frozenset(_norm_edge(images[a], images[b])
                               for a, b in edges),
                     images)

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.vertices)), tuple(sorted(self.edge_set)))


@dataclass(frozen=True)
class FGraph:
    vertices: frozenset[int]
    fedges: frozenset[FEdge]

    def __post_init__(self):
        for h in self.fedges:
            if not h.vertices <= self.vertices:
                raise ValueError("F-edge vertex outside the vertex set")

    @staticmethod
    def from_fedges(fedges: Iterable[FEdge],
                    vertices: Optional[Iterable[int]] = None) -> "FGraph":
        fs = frozenset(fedges)
        vs = set()
        for h in fs:
            vs |= h.vertices
        if vertices is not None:
            vs |= set(vertices)
        return FGraph(frozenset(vs), fs)

    def e(self) -> int:
        return len(self.fedges)

    def v(self) -> int:
        return len(self.vertices)

    def with_fedge(self, h: FEdge) -> "FGraph":
        return FGraph(self.vertices | h.vertices, self.fedges | {h})


@dataclass(frozen=True)
class CycleClass:
    kind: str  # "avoidable" | "clean_cycle" | "other"
    nullity: int
    length: Optional[int] = None
    sparsity: Optional[str] = None  # "sparse" | "dense" for clean cycles


def shadow(h: FGraph) -> Graph:
    edges: set[Edge] = set()
    for fe in h.fedges:
        edges |= fe.edge_set
    return Graph(h.vertices, frozenset(edges))


def nullity(h: FGraph) -> int:
    """(r-1)e + c - v, with isolated vertices counting toward v and c."""
    if h.fedges:
        r = len(next(iter(h.fedges)).vertices)
    else:
        r = 0  # the (r-1)e term vanishes anyway
    c = components(shadow(h))
    return (r - 1) * h.e() + c - h.v()


def _clean_cycle_order(h: FGraph) -> Optional[tuple[list[FEdge], list[int]]]:
    """Cyclic ordering with single-vertex consecutive overlaps, or None.

    In a clean cycle every copy meets exactly its two neighbours, so the
    order is walked, not searched: from the first copy in copy order
    (sort_key) to the lesser of its two neighbours, then each step on to
    the neighbour not just left, k copies in all. The consecutive
    overlaps, the last copy's with the first included, must be k distinct
    single vertices, which a walk that closes early fails: it repeats its
    overlaps. Length 2 is the special two-overlap-vertices case and is
    handled by the caller; this only finds orderings for k >= 3.
    """
    fes = sorted(h.fedges, key=lambda x: x.sort_key())
    k = len(fes)
    if k < 3:
        return None
    meets = [[b for b in range(k)
              if b != a and fes[a].vertices & fes[b].vertices]
             for a in range(k)]
    if any(len(m) != 2 for m in meets):
        return None
    order = [0, meets[0][0]]
    while len(order) < k:
        a, b = meets[order[-1]]
        order.append(b if a == order[-2] else a)
    overlaps = [fes[a].vertices & fes[b].vertices
                for a, b in zip(order, order[1:] + order[:1])]
    if (any(len(ov) != 1 for ov in overlaps)
            or len(frozenset().union(*overlaps)) != k):
        return None
    return [fes[i] for i in order], [min(ov) for ov in overlaps]


def is_sparse_pair(h1: FEdge, h2: FEdge) -> bool:
    """Two copies overlapping in exactly two vertices that form an edge in both."""
    ov = h1.vertices & h2.vertices
    if len(ov) != 2:
        return False
    e = _norm_edge(*sorted(ov))
    return e in h1.edge_set and e in h2.edge_set


def classify(h: FGraph) -> CycleClass:
    """Avoidable configuration, clean cycle, or other.

    Clean-cycle recognition checks the overlap pattern explicitly; nullity
    1 alone does not imply cleanness.
    """
    nul = nullity(h)
    k = h.e()
    if k == 2:
        h1, h2 = sorted(h.fedges, key=lambda x: x.sort_key())
        ov = h1.vertices & h2.vertices
        if len(ov) == 2 and h.v() == len(h1.vertices | h2.vertices):
            sparsity = "sparse" if is_sparse_pair(h1, h2) else "dense"
            return CycleClass(kind="clean_cycle", nullity=nul, length=2,
                              sparsity=sparsity)
    elif k >= 3:
        found = _clean_cycle_order(h)
        if found is not None and h.v() == len(
                frozenset().union(*(fe.vertices for fe in h.fedges))):
            return CycleClass(kind="clean_cycle", nullity=nul, length=k,
                              sparsity="dense")
    connected = h.v() > 0 and components(shadow(h)) == 1
    if connected and nul >= 2:
        return CycleClass(kind="avoidable", nullity=nul)
    return CycleClass(kind="other", nullity=nul)


def edge_positions(f: Pattern) -> list[tuple[int, int]]:
    """The template's edges as pairs of indices into its sorted vertices,
    the coordinates of an image tuple."""
    pos = {u: i for i, u in enumerate(sorted(f.graph.vertices))}
    return [(pos[u], pos[v]) for u, v in f.graph.edges]


def copies_in(g: Graph, f: Pattern,
              cap: int = DEFAULT_ENUMERATION_CAP) -> set[FEdge]:
    """All copies of the template in g, as F-edges.

    The enumeration breaks the template's symmetry, so each copy is reached
    once, as the image tuple of its least embedding, which becomes the
    F-edge's embedding. cap bounds the number of copies, not of raw
    embeddings.
    """
    edges = edge_positions(f)
    hverts, adj = _adjacency_matrix(g)
    return {FEdge.from_images(tuple(emb), edges)
            for block in _embedding_images(f.graph, hverts, adj, cap,
                                           f.automorphisms)
            for emb in block.tolist()}


def inducing_witness(h: FGraph, f: Pattern, target: FEdge) -> FGraph:
    """Smallest sub-F-graph with <= e(F) F-edges inducing the target copy.

    The witness is always classified avoidable or clean cycle; an empty
    search would falsify a structural guarantee and raises. A combination
    of copies induces a target outside h exactly when its copies cover the
    target's edges: the template is connected, so the target's vertices
    are ends of those edges. A copy of h itself is induced by nothing.
    """
    fes = sorted(h.fedges, key=lambda x: x.sort_key())
    if target not in h.fedges:
        for size in range(1, f.s + 1):
            for combo in itertools.combinations(fes, size):
                if not target.edge_set <= frozenset(
                        e for fe in combo for e in fe.edge_set):
                    continue
                sub = FGraph.from_fedges(combo)
                if classify(sub).kind in ("avoidable", "clean_cycle"):
                    return sub
    raise WitnessNotFoundError(
        f"no inducing witness with <= {f.s} F-edges for {target}")


def find_avoidable(h: FGraph, max_fedges: int) -> Optional[FGraph]:
    """A connected sub-F-graph with <= max_fedges F-edges and nullity >= 2.
    Examining more than DEFAULT_ENUMERATION_CAP sub-F-graphs raises
    ResourceLimitError."""
    if max_fedges < 2:
        raise ValueError("max_fedges must be >= 2")
    fes = sorted(h.fedges, key=lambda x: x.sort_key())
    k = len(fes)
    touch = [[bool(fes[a].vertices & fes[b].vertices) for b in range(k)]
             for a in range(k)]
    seen: set[frozenset[int]] = set()
    examined = 0

    def grow(current: frozenset[int]) -> Optional[FGraph]:
        nonlocal examined
        examined += 1
        if examined > DEFAULT_ENUMERATION_CAP:
            raise ResourceLimitError("avoidable search exceeded cap "
                                     f"{DEFAULT_ENUMERATION_CAP}")
        sub = FGraph.from_fedges(fes[i] for i in current)
        if len(current) >= 2 and nullity(sub) >= 2:
            if components(shadow(sub)) == 1:
                return sub
        if len(current) >= max_fedges:
            return None
        for j in range(k):
            if j in current:
                continue
            if current and not any(touch[i][j] for i in current):
                continue
            nxt = current | {j}
            if nxt in seen:
                continue
            seen.add(nxt)
            hit = grow(nxt)
            if hit is not None:
                return hit
        return None

    for i in range(k):
        start = frozenset([i])
        if start not in seen:
            seen.add(start)
            hit = grow(start)
            if hit is not None:
                return hit
    return None


@functools.lru_cache(maxsize=4096)
def fgraph_automorphisms(shape: FGraph) -> tuple[tuple[int, ...], ...]:
    """Vertex permutations preserving the F-edge set (shadow auts filtered),
    each as the images of the sorted vertices, in automorphisms order.

    Memoised per F-graph, so every reader of one shape shares one group."""
    pos = {u: i for i, u in enumerate(sorted(shape.vertices))}
    copies = {(fe.vertices, fe.edge_set) for fe in shape.fedges}
    return tuple(a for a in automorphisms(shadow(shape))
                 if {(frozenset(a[pos[u]] for u in vs),
                      frozenset(_norm_edge(a[pos[u]], a[pos[v]])
                                for u, v in es))
                     for vs, es in copies} == copies)


def count_copies(shape: FGraph, n: int) -> int:
    """Distinct copies of shape on vertex set [n], exactly."""
    v = shape.v()
    if n < v:
        raise ValueError(f"n={n} smaller than v(shape)={v}")
    return (math.comb(n, v) * math.factorial(v)
            // len(fgraph_automorphisms(shape)))


# -- potential copies on [n], in the canonical order -------------------------

def copies_on_vertex_set(f: Pattern, vset: Iterable[int]) -> list[FEdge]:
    """The r!/aut distinct copies on one vertex set, canonically ordered.

    Relabels the pattern's copies on 0..r-1 through the sorted vertex set;
    a monotone relabelling keeps both the minimal embedding and the order.
    """
    vs = sorted(vset)
    assert len(vs) == f.r
    verts = frozenset(vs)
    return [FEdge(verts, frozenset((vs[a], vs[b]) for a, b in edges),
                  tuple(vs[i] for i in emb))
            for edges, emb in f.canonical_copies]


def potential_copies_on(f: Pattern, labels: Iterable[int]) -> list[FEdge]:
    """Every potential copy on the given labels: lexicographic on the sorted
    vertex set, then canonical embedding order."""
    out: list[FEdge] = []
    for vset in itertools.combinations(sorted(labels), f.r):
        out.extend(copies_on_vertex_set(f, vset))
    return out


@functools.lru_cache(maxsize=64)
def all_potential_copies(f: Pattern, n: int) -> tuple[FEdge, ...]:
    """Every potential copy on [n], in the fixed order the coupling replays;
    one tuple per key, shared by every reader."""
    return tuple(potential_copies_on(f, range(n)))
