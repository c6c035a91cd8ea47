"""Small graph operations that only the tests use."""

from fthresh.graphs import Graph


def empty(n):
    """n vertices and no edges."""
    return Graph(frozenset(range(n)), frozenset())


def path(n):
    """The path 0-1-...-(n-1)."""
    return Graph.from_edges(((i, i + 1) for i in range(n - 1)),
                            vertices=range(n))


def relabel(g, mapping):
    """g with every vertex u renamed mapping[u]."""
    return Graph.from_edges(((mapping[u], mapping[v]) for u, v in g.edges),
                            vertices=(mapping[x] for x in g.vertices))


def merge_to_hr(h):
    """Vertex sets holding at least one copy: the merged hypergraph's edges."""
    return {fe.vertices for fe in h.fedges}
