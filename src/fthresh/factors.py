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


def find_f_factor(g: Graph, f: Pattern, budget: int = 10 ** 6,
                  copies: Optional[list[FEdge]] = None) -> FactorResult:
    """Search for vertex-disjoint copies covering every vertex.

    Exact cover over the distinct copy vertex sets, branching on the vertex
    with fewest remaining candidates; the copy chosen per set is arbitrary
    since a factor only constrains vertex sets. A set is live while all its
    vertices are uncovered, and each vertex keeps its count of live sets,
    as in Knuth's dancing links: choosing a set kills every live set it
    meets and lowers their vertices' counts, and an undo stack restores
    both when the choice is released. Stops with status "budget" once the
    expansion budget is spent, so a miss under budget is exhaustive.
    A caller that already holds the copies of g, as enumerate_copies orders
    them, passes them as copies and the search skips the enumeration; g
    is then read only through vertices, v() and has_edge.
    """
    if budget <= 0:
        raise DomainError("budget must be positive")
    if copies is None:
        copies = enumerate_copies(g, f)
    if g.v() % f.r != 0:
        return FactorResult(status="divisibility", certificate=None,
                            nodes_expanded=0, n_copies=len(copies))
    rep: dict[frozenset[int], FEdge] = {}
    for fe in copies:
        rep.setdefault(fe.vertices, fe)
    sets = sorted(rep, key=lambda vs: tuple(sorted(vs)))
    by_vertex: dict[int, list[int]] = {u: [] for u in g.vertices}
    for i, vs in enumerate(sets):
        for u in vs:
            by_vertex[u].append(i)

    uncovered = set(g.vertices)
    live = [True] * len(sets)
    count = {u: len(ids) for u, ids in by_vertex.items()}
    killed: list[int] = []  # the undo stack of sets made dead
    chosen: list[int] = []
    expanded = 0

    def choose(i: int) -> int:
        """Cover set i; returns the undo mark that release takes."""
        mark = len(killed)
        for u in sets[i]:
            for j in by_vertex[u]:
                if live[j]:
                    live[j] = False
                    killed.append(j)
                    for w in sets[j]:
                        count[w] -= 1
        uncovered.difference_update(sets[i])
        return mark

    def release(i: int, mark: int) -> None:
        uncovered.update(sets[i])
        while len(killed) > mark:
            j = killed.pop()
            live[j] = True
            for w in sets[j]:
                count[w] += 1

    def search() -> Optional[str]:
        nonlocal expanded
        if not uncovered:
            return "found"
        expanded += 1
        if expanded > budget:
            return "budget"
        pivot = min(uncovered, key=count.__getitem__)
        cands = [i for i in by_vertex[pivot] if live[i]]
        for i in cands:
            mark = choose(i)
            chosen.append(i)
            out = search()
            if out is not None:
                return out
            chosen.pop()
            release(i, mark)
        return None

    out = search()
    if out == "found":
        cert = tuple(rep[sets[i]] for i in chosen)
        assert verify_factor(g, f, cert)
        return FactorResult(status="found", certificate=cert,
                            nodes_expanded=expanded, n_copies=len(copies))
    status = "budget" if out == "budget" else "none"
    return FactorResult(status=status, certificate=None,
                        nodes_expanded=expanded, n_copies=len(copies))
