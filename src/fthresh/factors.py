"""Perfect template factors: isolated vertices, the copy index of a host,
and a budgeted exact-cover search for a factor certificate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .fgraphs import FEdge, copies_in, edge_positions
from .graphs import Graph, _adjacency_matrix, _embedding_images
from .patterns import Pattern
from .sampling import slots_of


def f_isolated(g: Graph,
               f: Pattern) -> tuple[dict[int, int], frozenset[int]]:
    """Per-vertex copy counts and the set of vertices in no copy."""
    deg = {u: 0 for u in g.vertices}
    for fe in copies_in(g, f):
        for u in fe.vertices:
            deg[u] += 1
    return deg, frozenset(u for u, d in deg.items() if d == 0)


@dataclass(frozen=True)
class FactorResult:
    """Outcome of a factor search.

    status is one of "found", "none", "divisibility", "budget"; only "found"
    carries a certificate. nodes_expanded counts search-tree expansions.
    """

    status: str
    certificate: Optional[tuple[FEdge, ...]]
    nodes_expanded: int
    n_copies: int


def verify_factor(g: Graph, f: Pattern, parts: tuple[FEdge, ...]) -> bool:
    """parts must be vertex-disjoint copies present in g covering V(g)."""
    covered: set[int] = set()
    for fe in parts:
        if covered & fe.vertices:
            return False
        if not all(g.has_edge(u, v) for u, v in fe.edge_set):
            return False
        if len(fe.vertices) != f.r:
            return False
        covered |= fe.vertices
    return covered == set(g.vertices)


class CoverIndex:
    """Exact-cover index over distinct copy vertex sets on the positions
    0..n-1, searched under a live mask.

    sets are the vertex sets, the rows of an int array, ids by row;
    through[u] is the int bit mask of the sets holding u, read off the
    packed rows of the vertex x set incidence matrix. A caller that holds
    the copies of several nested graphs on one vertex set builds the index
    once, over the largest, and searches each graph with live the mask of
    its sets.
    """

    def __init__(self, n: int, sets: np.ndarray):
        self.sets = sets.tolist()
        incidence = np.zeros((n, len(sets)), dtype=bool)
        incidence[sets, np.arange(len(sets))[:, None]] = True
        self.through = [int.from_bytes(row.tobytes(), "little") for row in
                        np.packbits(incidence, axis=1, bitorder="little")]

    def covers(self, live: int) -> bool:
        """Every vertex lies in a live set; otherwise a vertex is in no
        copy and no factor exists."""
        return all(t & live for t in self.through)

    def search(self, live: int, budget: int) -> tuple[str, list[int], int]:
        """(status, chosen set ids, expansions) of the exact cover by live
        sets, status "found", "none" or "budget".

        Branches on the uncovered vertex with fewest live sets, ties to
        the least vertex. A set is live while all its vertices are
        uncovered, so a count is (live & through[u]).bit_count(), and
        choosing a set clears from live the through masks of its vertices.
        Every search node keeps its own live mask, so a release only puts
        the set's vertices back. The candidates are the pivot's live sets
        in ascending id order. The search runs on an explicit stack, so a
        factor of any size fits. A vertex in no live set is the first
        pivot, with no candidates, so the search ends at the root. Stops
        with status "budget" once the expansion budget is spent, so a miss
        under budget is exhaustive.
        """
        sets, through = self.sets, self.through
        # a pivot key is the count above the vertex, so min breaks ties
        # by the least vertex
        shift = len(through).bit_length()
        vertex = (1 << shift) - 1
        uncovered = set(range(len(through)))
        chosen: list[int] = []
        frames: list[list[int]] = []  # [untried candidates, live] per node
        expanded = 0
        while uncovered:
            expanded += 1
            if expanded > budget:
                return "budget", [], expanded
            pivot = min([(live & through[u]).bit_count() << shift | u
                         for u in uncovered]) & vertex
            frames.append([live & through[pivot], live])
            while frames:
                cands, live = frames[-1]
                if cands:
                    low = cands & -cands
                    frames[-1][0] = cands ^ low
                    i = low.bit_length() - 1
                    for u in sets[i]:
                        live &= ~through[u]
                    uncovered.difference_update(sets[i])
                    chosen.append(i)
                    break
                frames.pop()
                if chosen:
                    uncovered.update(sets[chosen.pop()])
            else:
                return "none", [], expanded
        return "found", chosen, expanded


def _host_copies(f: Pattern, adj: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The copies of the host on the positions 0..n-1 whose adjacency
    matrix is adj, as the image rows of their least embeddings in copy
    order (FEdge.sort_key); per copy, the slots of its edges in
    edge_order(n), ascending; and its sorted vertices. No F-edge is built.
    """
    n = len(adj)
    imgs = np.concatenate([np.zeros((0, f.r), dtype=np.intp),
                           *_embedding_images(f.graph, np.arange(n), adj,
                                              automorphisms=f.automorphisms)])
    ends = imgs[:, edge_positions(f)]
    slots = np.sort(slots_of(ends.min(axis=2), ends.max(axis=2), n), axis=1)
    verts = np.sort(imgs, axis=1)
    # FEdge.sort_key: sorted vertices, then sorted edges, whose order slot
    # order follows; lexsort's primary key is its last row
    order = np.lexsort(np.hstack([verts, slots]).T[::-1])
    return imgs[order], slots[order], verts[order]


def nested_searches(f: Pattern, adj: np.ndarray, us: Optional[np.ndarray],
                    ps: Sequence[float], budget: int,
                    host_at: Callable[[float], Graph]
                    ) -> list[tuple[FactorResult, bool]]:
    """Per p in ps, the factor search of host_at(p), and whether every
    vertex lies in a copy of it.

    The copies are those of the host adj, listed once by _host_copies,
    each born at the largest of the edge uniforms us among its edges, or
    at 0 with no us; the copies of host_at(p) are those born below p. Copies
    with one vertex set are adjacent in copy order, so one CoverIndex
    holds their sets, and each p searches it with live the sets that have
    a copy born below p; the same mask's cover test is the isolation
    indicator. F-edges are built only for a certificate, from the first
    copy of each chosen set born below p, with the positions mapped to
    the sorted vertices of host_at(p), and checked against it.
    """
    if budget <= 0:
        raise DomainError("budget must be positive")
    n = len(adj)
    embs, slots, verts = _host_copies(f, adj)
    births = (us[slots].max(axis=1) if us is not None
              else np.zeros(len(embs)))
    born = births.tolist()
    # set i holds the copies bounds[i] to bounds[i + 1] - 1
    change = np.ones(len(embs) + 1, dtype=bool)
    change[1:-1] = (verts[1:] != verts[:-1]).any(axis=1)
    bounds = np.flatnonzero(change)
    first_birth = np.minimum.reduceat(births, bounds[:-1])
    bounds = bounds.tolist()

    def first_present(i: int, p: float) -> list[int]:
        """The first copy of set i, in copy order, born below p."""
        return embs[next(k for k in range(bounds[i], bounds[i + 1])
                         if born[k] < p)].tolist()

    index = CoverIndex(n, verts[bounds[:-1]])
    edges = edge_positions(f)
    out = []
    for p in ps:
        live = int.from_bytes(np.packbits(first_birth < p,
                                          bitorder="little").tobytes(),
                              "little")
        covered = index.covers(live)
        n_copies = int(np.count_nonzero(births < p))
        if n % f.r:
            out.append((FactorResult("divisibility", None, 0, n_copies),
                        covered))
            continue
        status, chosen, expanded = index.search(live, budget)
        cert = None
        if status == "found":
            host = host_at(p)
            labels = sorted(host.vertices)
            cert = tuple(FEdge.from_images(
                tuple([labels[u] for u in first_present(i, p)]), edges)
                for i in chosen)
            assert verify_factor(host, f, cert)
        out.append((FactorResult(status, cert, expanded, n_copies), covered))
    return out


def find_f_factor(g: Graph, f: Pattern,
                  budget: int = 10 ** 6) -> FactorResult:
    """Search for vertex-disjoint copies covering every vertex.

    nested_searches at one point, where every copy of g is present, over
    the positions of g's sorted vertices: exact cover over the distinct
    copy vertex sets, in sorted-vertex order, by CoverIndex.search with
    every set live; the copy chosen per set is the first in copy order,
    since a factor only constrains vertex sets."""
    [(res, _covered)] = nested_searches(f, _adjacency_matrix(g)[1], None,
                                        [1.0], budget, lambda p: g)
    return res
