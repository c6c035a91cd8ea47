"""Small graph operations that only the tests use."""

from fthresh.graphs import Graph


def relabel(g, mapping):
    """g with every vertex u renamed mapping[u]."""
    return Graph.from_edges(((mapping[u], mapping[v]) for u, v in g.edges),
                            vertices=(mapping[x] for x in g.vertices))


def merge_to_hr(h):
    """Vertex sets holding at least one copy: the merged hypergraph's edges."""
    return {fe.vertices for fe in h.fedges}
