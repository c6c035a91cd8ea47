"""Counter-based sampling of the three random structures.

All randomness flows through Philox keyed by (seed, stream_id), so the i-th
uniform of a stream is a pure function of the key. Edge, copy, and dummy
indicators each draw from their own stream in a fixed enumeration order,
which lets a threshold scan reuse one batch of uniforms across a whole
p-grid monotonically.
"""

from __future__ import annotations

import functools
import itertools
import numpy as np

from .dgraphs import DGraph, sparse_cycle_placements
from .fgraphs import FGraph, all_potential_copies
from .graphs import Graph
from .patterns import Pattern

# fixed stream roles
STREAM_EDGES = 0
STREAM_COPIES = 1
STREAM_DUMMIES = 2
STREAM_COUPLING = 3


def rng_for(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed, stream_id)))


def uniforms(seed: int, stream_id: int, count: int) -> np.ndarray:
    return rng_for(seed, stream_id).random(count)


@functools.lru_cache(maxsize=64)
def edge_order(n: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic order of the potential edges on [n]."""
    return tuple(itertools.combinations(range(n), 2))


def slots_of(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """The position of the edge (lo, hi) in edge_order(n), in closed form,
    for lo < hi, on ints or elementwise on arrays: the rows before lo hold
    n-1, n-2, ..., n-lo edges."""
    return lo * n - lo * (lo + 1) // 2 + hi - lo - 1


def edge_uniforms(n: int, seed: int) -> np.ndarray:
    return uniforms(seed, STREAM_EDGES, n * (n - 1) // 2)


def graph_from_uniforms(n: int, us: np.ndarray, p: float) -> Graph:
    """Threshold one batch of edge uniforms at p; monotone in p by design."""
    pairs = edge_order(n)
    if len(us) != len(pairs):
        raise ValueError(f"expected {len(pairs)} uniforms, got {len(us)}")
    return Graph.from_edges((pairs[i] for i in np.flatnonzero(us < p)),
                            vertices=range(n))


def neighbour_masks_at(n: int, us: np.ndarray, p: float) -> np.ndarray:
    """graph_from_uniforms(n, us, p) as its boolean adjacency matrix, one
    neighbour mask per row, the host form of the embedding search; no
    Graph is built."""
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu_indices(n, 1)] = us < p  # row-major: edge_order(n)
    adj |= adj.T
    return adj


class GraphAt:
    """graph_from_uniforms(n, us, p) as the factor search reads a graph
    whose copies it is given: the vertex set, and an edge test against the
    uniforms for the certificate check. No edge set is built."""

    def __init__(self, n: int, us: np.ndarray, p: float):
        self.vertices = frozenset(range(n))
        self._us, self._p, self._n = us, p, n

    def v(self) -> int:
        return len(self.vertices)

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = (u, v) if u < v else (v, u)
        return bool(self._us[slots_of(lo, hi, self._n)] < self._p)


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph on [n]."""
    return graph_from_uniforms(n, edge_uniforms(n, seed), p)


def sample_hf(f: Pattern, n: int, pi: float, seed: int) -> FGraph:
    """Independent copy indicators over every potential copy on [n]."""
    copies = all_potential_copies(f, n)
    us = uniforms(seed, STREAM_COPIES, len(copies))
    return FGraph.from_fedges((copies[i] for i in np.flatnonzero(us < pi)),
                              vertices=range(n))


@functools.lru_cache(maxsize=8)
def dummy_slots(f: Pattern, n: int) -> tuple[frozenset, ...]:
    """The sparse 2-cycles on [n] that key the dummy edges, in their fixed
    order; keyed by the labelled template, whose labelling the copies
    carry."""
    return tuple(sparse_cycle_placements(f, n))


def sample_gstar(f: Pattern, n: int, p: float, seed: int) -> DGraph:
    """Auxiliary random graph: usual edges and dummy edges, all independent
    with probability p. Dummy slots follow the fixed sparse-cycle order."""
    base = sample_gnp(n, p, seed)
    slots = dummy_slots(f, n)
    us = uniforms(seed, STREAM_DUMMIES, len(slots))
    dummies = frozenset(slots[i] for i in np.flatnonzero(us < p))
    return DGraph(base=base, dummies=dummies)
