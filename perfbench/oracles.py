"""Reference computations the benchmark checks fthresh against.

Everything here is written from the definitions, for the triangle template
only, and shares no code with fthresh: adjacency matrices from Philox
uniforms, triangle isolation from matrix products, an exact-cover search
over triangles, closed-form placement counts, and the length-2 Chen-Stein
sums evaluated pair by pair.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class SearchCapExceeded(Exception):
    """The reference exact-cover search hit its node cap without a verdict."""


def edge_uniforms(n: int, seed: int, stream: int) -> np.ndarray:
    """The uniform batch of one scan trial: Philox keyed (seed, stream),
    one value per vertex pair in lexicographic order."""
    gen = np.random.Generator(np.random.Philox(key=(seed, stream)))
    return gen.random((1, n * (n - 1) // 2))[0]


def adjacency(n: int, us: np.ndarray, p: float) -> np.ndarray:
    """0/1 adjacency matrix of the graph keeping pairs with uniform < p."""
    a = np.zeros((n, n), dtype=np.int64)
    rows, cols = np.triu_indices(n, 1)  # row-major = lexicographic pairs
    keep = us < p
    a[rows[keep], cols[keep]] = 1
    return a + a.T


def triangle_free_vertices(a: np.ndarray) -> np.ndarray:
    """Mask of vertices in no triangle: the row sums of (A @ A) * A are
    twice the triangle count at each vertex."""
    return ((a @ a) * a).sum(axis=1) == 0


def triangles(a: np.ndarray) -> list[tuple[int, int, int]]:
    """All triangles i < j < k of the graph."""
    nbrs = [set(np.flatnonzero(row).tolist()) for row in a]
    out = []
    for i in range(len(a)):
        for j in nbrs[i]:
            if j <= i:
                continue
            for k in nbrs[i] & nbrs[j]:
                if k > j:
                    out.append((i, j, k))
    return sorted(out)


def triangle_factor(n: int, tris: list[tuple[int, int, int]],
                    node_cap: int = 2_000_000):
    """A set of vertex-disjoint triangles covering [n], or None if there is
    none. Branches on the uncovered vertex with the fewest usable triangles;
    raises SearchCapExceeded past node_cap expansions."""
    if n % 3:
        return None
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    masks = []
    for t in tris:
        m = (1 << t[0]) | (1 << t[1]) | (1 << t[2])
        masks.append(m)
        for v in t:
            by_vertex[v].append(len(masks) - 1)
    full = (1 << n) - 1
    chosen: list[int] = []
    nodes = 0

    def search(covered: int) -> bool:
        nonlocal nodes
        if covered == full:
            return True
        nodes += 1
        if nodes > node_cap:
            raise SearchCapExceeded(f"more than {node_cap} nodes")
        best = None
        rest = full & ~covered
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            cands = [t for t in by_vertex[v] if not masks[t] & covered]
            if best is None or len(cands) < len(best):
                best = cands
                if not cands:
                    return False
        for t in best:
            chosen.append(t)
            if search(covered | masks[t]):
                return True
            chosen.pop()
        return False

    return [tris[t] for t in chosen] if search(0) else None


def is_triangle_factor(a: np.ndarray, parts) -> bool:
    """parts are vertex triples: pairwise disjoint, each a triangle of the
    graph, together covering every vertex."""
    seen: set[int] = set()
    for part in parts:
        if len(set(part)) != 3 or seen & set(part):
            return False
        if not all(a[u, v] for u, v in itertools.combinations(part, 2)):
            return False
        seen |= set(part)
    return seen == set(range(len(a)))


# -- triangle clean cycles ---------------------------------------------------

def cycle_count(n: int, lengths) -> int:
    """Clean triangle cycles on [n]: two triangles sharing an edge span 4
    vertices with 6 choices of the shared pair; three triangles meeting
    pairwise in distinct single vertices span 6 vertices in 120 ways."""
    per_length = {2: math.comb(n, 4) * 6, 3: math.comb(n, 6) * 120}
    return sum(per_length[k] for k in (lengths or (2, 3)))


def length2_chen_stein(n: int, pi: float, p: float) -> tuple[float, float]:
    """Chen-Stein bounds for the length-2 class, summed over every ordered
    pair of placements sharing a vertex.

    A placement is two triangles on four vertices sharing one edge; in H it
    needs its 2 copies (mean pi^2), in G* its 5 edges and its dummy edge
    (mean p^6). The bound is 4 * (sum of E[X_C] E[X_D] over overlapping
    pairs, C = D included, plus sum of E[X_C X_D] over distinct ones).
    """
    if n * (n - 1) // 2 > 64:
        raise ValueError("edge masks are uint64; n must be at most 11")
    pairs = itertools.combinations(range(n), 2)
    pair_bit = {e: i for i, e in enumerate(pairs)}
    vmask, tri_sets, emask = [], [], []
    for quad in itertools.combinations(range(n), 4):
        for shared in itertools.combinations(quad, 2):
            x, y = (v for v in quad if v not in shared)
            t1 = tuple(sorted(shared + (x,)))
            t2 = tuple(sorted(shared + (y,)))
            edges = {e for t in (t1, t2) for e in itertools.combinations(t, 2)}
            vmask.append(sum(1 << v for v in quad))
            tri_sets.append(frozenset((t1, t2)))
            emask.append(sum(1 << pair_bit[e] for e in edges))
    m = len(vmask)
    vm = np.array(vmask, dtype=np.uint64)
    em = np.array(emask, dtype=np.uint64)
    overlap = (vm[:, None] & vm[None, :]) != 0
    distinct = overlap & ~np.eye(m, dtype=bool)
    union_edges = np.bitwise_count(em[:, None] | em[None, :]).astype(float)
    union_copies = np.array([[len(a | b) for b in tri_sets] for a in tri_sets],
                            dtype=float)
    n_overlap = float(overlap.sum())
    th = n_overlap * pi ** 4 + float((pi ** union_copies)[distinct].sum())
    tg = n_overlap * p ** 12 + float((p ** (union_edges + 2))[distinct].sum())
    return 4.0 * th, 4.0 * tg
