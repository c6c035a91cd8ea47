"""Perfect template factors: copy enumeration, isolated vertices, and a
budgeted exact-cover search for a factor certificate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .fgraphs import FEdge, copies_in
from .graphs import DEFAULT_ENUMERATION_CAP, Graph
from .patterns import Pattern


def enumerate_copies(g: Graph, f: Pattern,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> list[FEdge]:
    """All copies of the template in g, deterministically ordered."""
    return sorted(copies_in(g, f, cap=cap), key=lambda fe: fe.sort_key())


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
    """Exact-cover index over distinct copy vertex sets, searched under a
    live mask.

    sets are the vertex sets, ids by position; through[u] is the int bit
    mask of the sets holding u. A caller that holds the copies of several
    nested graphs on one vertex set builds the index once, over the
    largest, and searches each graph with live the mask of its sets. The
    search re-inserts a released set's vertices in the set's iteration
    order, so a caller may swap sets[i] for an equal frozenset built in
    another order between searches; through stays valid.
    """

    def __init__(self, vertices: frozenset[int],
                 sets: list[frozenset[int]]):
        self.vertices = vertices
        self.sets = sets
        through = {u: 0 for u in vertices}
        for i, vs in enumerate(sets):
            for u in vs:
                through[u] |= 1 << i
        self.through = through

    def covers(self, live: int) -> bool:
        """Every vertex lies in a live set; otherwise a vertex is in no
        copy and no factor exists."""
        return all(t & live for t in self.through.values())

    def search(self, live: int, budget: int) -> tuple[str, list[int], int]:
        """(status, chosen set ids, expansions) of the exact cover by live
        sets, status "found", "none" or "budget".

        Branches on the uncovered vertex with fewest live sets. A set is
        live while all its vertices are uncovered, so a count is
        (live & through[u]).bit_count(), and choosing a set clears from
        live the through masks of its vertices. Every search node keeps
        its own live mask, so a release only puts the set's vertices back.
        The candidates are the pivot's live sets in ascending id order,
        and ties for the pivot go to the first vertex in the uncovered
        set's iteration order. The search runs on an explicit stack, so a
        factor of any size fits. A vertex in no live set ends the search
        at the root, as the pivot with no candidates would. Stops with
        status "budget" once the expansion budget is spent, so a miss
        under budget is exhaustive.
        """
        if not self.covers(live):
            return "none", [], 1
        sets, through = self.sets, self.through
        uncovered = set(self.vertices)
        chosen: list[int] = []
        frames: list[list[int]] = []  # [untried candidates, live] per node
        expanded = 0
        while uncovered:
            expanded += 1
            if expanded > budget:
                return "budget", [], expanded
            us = list(uncovered)
            counts = [(live & through[u]).bit_count() for u in us]
            pivot = us[counts.index(min(counts))]
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


def find_f_factor(g: Graph, f: Pattern,
                  budget: int = 10 ** 6) -> FactorResult:
    """Search for vertex-disjoint copies covering every vertex.

    Exact cover over the distinct copy vertex sets, in tuple(sorted(vs))
    order, by CoverIndex.search with every set live; the copy chosen per
    set is the first in copy order, since a factor only constrains vertex
    sets."""
    if budget <= 0:
        raise DomainError("budget must be positive")
    copies = enumerate_copies(g, f)
    if g.v() % f.r != 0:
        return FactorResult(status="divisibility", certificate=None,
                            nodes_expanded=0, n_copies=len(copies))
    rep: dict[frozenset[int], FEdge] = {}
    for fe in copies:
        rep.setdefault(fe.vertices, fe)
    sets = sorted(rep, key=lambda vs: tuple(sorted(vs)))
    status, chosen, expanded = CoverIndex(g.vertices, sets).search(
        (1 << len(sets)) - 1, budget)
    cert = None
    if status == "found":
        cert = tuple(rep[sets[i]] for i in chosen)
        assert verify_factor(g, f, cert)
    return FactorResult(status=status, certificate=cert,
                        nodes_expanded=expanded, n_copies=len(copies))
