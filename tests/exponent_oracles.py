"""Reference maximum of g1 over a clean d-cycle, by exhaustion.

fthresh.exponents.max_g1_of_dcycle searches families of vertex-disjoint
connected induced subgraphs, which rests on a reduction argument. This
oracle tries every proper sub-d-graph instead, dummy edge included, so it
is exponential in e(G) and only for cross-checking small cycles.
"""

import itertools
from fractions import Fraction

from fthresh.dgraphs import DGraph
from fthresh.graphs import Graph


def rank_of(d):
    """v(S) - c(S); a dummy edge merges every vertex of its cycle."""
    parent = {u: u for u in d.base.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for u, v in d.base.edges:
        union(u, v)
    for key in d.dummies:
        span = sorted(frozenset().union(*(fe.vertices for fe in key)))
        for u in span[1:]:
            union(span[0], u)
    c = len({find(u) for u in d.base.vertices})
    return d.base.v() - c


def brute_max_g1(f, d):
    """Maximum of g1 = e/d1(F) - rank - 1 over every proper edge subset of
    the d-cycle d, dummy included; the empty subset gives -1."""
    base_edges = sorted(d.dgraph.base.edges)
    dummies = sorted(d.dgraph.dummies, key=lambda k: sorted(
        fe.sort_key() for fe in k))
    items = [("e", e) for e in base_edges] + [("d", k) for k in dummies]
    best = Fraction(-1)
    for size in range(len(items)):
        for combo in itertools.combinations(items, size):
            es = frozenset(e for t, e in combo if t == "e")
            ds = frozenset(k for t, k in combo if t == "d")
            sub = DGraph(base=Graph(d.dgraph.base.vertices, es), dummies=ds)
            g1 = Fraction(sub.e()) / f.d1 - rank_of(sub) - 1
            if g1 > best:
                best = g1
    return best
