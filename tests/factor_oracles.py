"""Reference copy enumeration and factor search, kept as they were before
the symmetry-broken enumeration and the live-count pivot.

copies_by_embedding reaches every copy once per template automorphism,
through the set-based reference enumerator of embedding_oracles, and
collapses the embeddings through FEdge.from_embedding;
recount_factor_search recounts, at every expansion, the candidate sets of
every uncovered vertex.
fthresh must agree with both exactly: the same copies with the same
embeddings, and the same status, expansions and certificate.
enumerate_copies lists fthresh's own copies in copy order, the order the
search numbers their vertex sets in.
"""

from typing import Optional

from embedding_oracles import set_embeddings

from fthresh.fgraphs import FEdge, copies_in
from fthresh.graphs import DEFAULT_ENUMERATION_CAP


def enumerate_copies(g, f, cap=DEFAULT_ENUMERATION_CAP) -> list:
    """All copies of the template in g, in copy order (FEdge.sort_key)."""
    return sorted(copies_in(g, f, cap=cap), key=lambda fe: fe.sort_key())


def copies_by_embedding(g, f, cap=DEFAULT_ENUMERATION_CAP) -> set:
    """Every copy of the template in g, one F-edge per embedding class;
    cap bounds the raw embeddings."""
    out = {}
    for m in set_embeddings(f.graph, g, cap=cap):
        fe = FEdge.from_embedding(f, m)
        out[(fe.vertices, fe.edge_set)] = fe
    return set(out.values())


def recount_factor_search(g, f, copies, budget: int
                          ) -> tuple[str, int, Optional[tuple]]:
    """(status, nodes expanded, certificate) of the exact cover over the
    copies' vertex sets, pivoting on the uncovered vertex with fewest sets
    inside the uncovered vertices, recounted at every expansion, ties to
    the least label."""
    if g.v() % f.r != 0:
        return "divisibility", 0, None
    rep = {}
    for fe in copies:
        rep.setdefault(fe.vertices, fe)
    sets = sorted(rep, key=lambda vs: tuple(sorted(vs)))
    by_vertex = {u: [] for u in g.vertices}
    for i, vs in enumerate(sets):
        for u in vs:
            by_vertex[u].append(i)

    uncovered = set(g.vertices)
    chosen = []
    expanded = 0

    def search():
        nonlocal expanded
        if not uncovered:
            return "found"
        expanded += 1
        if expanded > budget:
            return "budget"
        pivot = min(uncovered,
                    key=lambda u: (sum(1 for i in by_vertex[u]
                                       if sets[i] <= uncovered), u))
        cands = [i for i in by_vertex[pivot] if sets[i] <= uncovered]
        for i in cands:
            uncovered.difference_update(sets[i])
            chosen.append(i)
            out = search()
            if out is not None:
                return out
            chosen.pop()
            uncovered.update(sets[i])
        return None

    out = search()
    if out == "found":
        return "found", expanded, tuple(rep[sets[i]] for i in chosen)
    return ("budget" if out == "budget" else "none"), expanded, None
