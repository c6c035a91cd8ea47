"""Labeled simple graphs with exact density, balance, and symmetry analysis.

All density comparisons are carried out in exact rational arithmetic
(`fractions.Fraction`): strict inequalities between densities decide
correctness downstream, so floating point is not allowed here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError, UndefinedDensityError

Edge = tuple[int, int]

DEFAULT_ENUMERATION_CAP = 10**7


def _norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple graph on non-negative integer labels."""

    vertices: frozenset[int]
    edges: frozenset[Edge]

    def __post_init__(self):
        for u, v in self.edges:
            if u >= v:
                raise ValueError(f"edge {(u, v)} not normalized")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge {(u, v)} has an unlisted endpoint")
        if any(u < 0 for u in self.vertices):
            raise ValueError("vertex labels must be non-negative")

    @staticmethod
    def from_edges(edges: Iterable[tuple[int, int]],
                   vertices: Optional[Iterable[int]] = None) -> "Graph":
        es = frozenset(_norm_edge(u, v) for u, v in edges)
        vs = set(itertools.chain.from_iterable(es))
        if vertices is not None:
            vs |= set(vertices)
        return Graph(frozenset(vs), es)

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph.from_edges(itertools.combinations(range(n), 2),
                                vertices=range(n))

    @staticmethod
    def cycle(n: int) -> "Graph":
        return Graph.from_edges(((i, (i + 1) % n) for i in range(n)),
                                vertices=range(n))

    def v(self) -> int:
        return len(self.vertices)

    def e(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {u: set() for u in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def induced(self, vs: Iterable[int]) -> "Graph":
        keep = frozenset(vs)
        if not keep <= self.vertices:
            raise ValueError("induced subgraph on unknown vertices")
        return Graph(keep, frozenset((u, v) for u, v in self.edges
                                     if u in keep and v in keep))

    def is_connected(self) -> bool:
        return components(self) <= 1


def components(g: Graph) -> int:
    """The number of connected components; the empty graph has zero."""
    adj = g.adjacency()
    seen: set[int] = set()
    count = 0
    for start in g.vertices:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def one_density(g: Graph) -> Fraction:
    if g.v() < 2:
        raise UndefinedDensityError("1-density needs at least two vertices")
    return Fraction(g.e(), g.v() - 1)


def _subset_sums(masks: np.ndarray, terms: np.ndarray,
                 bits: int) -> np.ndarray:
    """Per mask m on `bits` axes, the sum of terms[i] over every i whose
    masks[i] is a subset of m: each term is scattered at its own mask, then
    one in-place pass per bit adds every mask without the bit into the same
    mask with it (the zeta transform of the subset lattice). Integer sums,
    so the order of the additions does not matter."""
    out = np.zeros(1 << bits, dtype=terms.dtype)
    np.add.at(out, masks, terms)
    for b in range(bits):
        v = out.reshape(-1, 2, 1 << b)
        v[:, 1, :] += v[:, 0, :]
    return out


def _induced_edge_counts(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Edge count and size of the induced subgraph on every vertex subset of
    g, indexed by its bit mask over the sorted vertices: the subset sums of
    one term per edge at the mask of its ends. More than
    DEFAULT_ENUMERATION_CAP subsets (24 vertices or more) raise
    ResourceLimitError before any array is built."""
    idx = {u: i for i, u in enumerate(sorted(g.vertices))}
    if 1 << len(idx) > DEFAULT_ENUMERATION_CAP:
        raise ResourceLimitError(f"{1 << len(idx)} vertex subsets exceed cap "
                                 f"{DEFAULT_ENUMERATION_CAP}")
    ends = np.array([(1 << idx[u]) | (1 << idx[v]) for u, v in g.edges],
                    dtype=np.intp)
    counts = _subset_sums(ends, np.ones(len(ends), dtype=np.int64), len(idx))
    sizes = np.bitwise_count(np.arange(1 << len(idx), dtype=np.uint32))
    return counts, sizes.astype(np.int64)


def strictly_1_balanced_violation(g: Graph) -> Optional[Graph]:
    """A non-trivial proper induced subgraph with d1 >= d1(g), if one
    exists: one with the fewest vertices, then the least sorted labels."""
    n, m = g.v(), g.e()
    if n < 2:
        return None
    counts, sizes = _induced_edge_counts(g)
    # e_W / (|W| - 1) >= m / (n - 1), cross-multiplied
    bad = np.flatnonzero((sizes < n) & (counts >= 1)
                         & (counts * (n - 1) >= m * (sizes - 1)))
    if not len(bad):
        return None
    verts = sorted(g.vertices)
    smallest = bad[sizes[bad] == sizes[bad].min()]
    sub = min([i for i in range(n) if mask >> i & 1]
              for mask in smallest.tolist())
    return g.induced(verts[i] for i in sub)


def automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All adjacency-preserving vertex permutations, each as the images of
    the sorted vertices, in _embedding_images order: the embeddings of g
    into itself, since an injective self-map of a finite graph that keeps
    every edge keeps the edge set."""
    return tuple(tuple(row) for block in
                 _embedding_images(g, *_adjacency_matrix(g))
                 for row in block.tolist())


def relabellings(g: Graph, group: Iterable[tuple[int, ...]]) -> np.ndarray:
    """Per coset sigma o group of a group of g's automorphisms, the least
    relabelling sigma of g onto 0..v-1, as the images of the sorted
    vertices: the join of g into the complete graph on those labels."""
    v = g.v()
    return np.concatenate(list(_embedding_images(
        g, range(v), ~np.eye(v, dtype=bool), automorphisms=group)))


# -- canonical labeling ------------------------------------------------------

def _refine(n: int, adj: list[set[int]], colors: list[int]) -> list[int]:
    """Equitable refinement; color ids are assigned canonically (sorted keys)."""
    while True:
        keys = [(colors[u], tuple(sorted(colors[w] for w in adj[u])))
                for u in range(n)]
        new_ids = {k: i for i, k in enumerate(sorted(set(keys)))}
        new_colors = [new_ids[k] for k in keys]
        if new_colors == colors:
            return colors
        colors = new_colors


def _canonical_encoding(g: Graph) -> tuple[int, tuple[Edge, ...]]:
    verts = sorted(g.vertices)
    n = len(verts)
    idx = {u: i for i, u in enumerate(verts)}
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in g.edges:
        adj[idx[u]].add(idx[v])
        adj[idx[v]].add(idx[u])

    best: Optional[tuple[Edge, ...]] = None

    def leaf(colors: list[int]) -> None:
        nonlocal best
        # colors are a discrete partition: position of vertex = its color
        enc = tuple(sorted(_norm_edge(colors[a], colors[b])
                           for a in range(n) for b in adj[a] if a < b))
        if best is None or enc < best:
            best = enc

    def descend(colors: list[int]) -> None:
        colors = _refine(n, adj, list(colors))
        cells: dict[int, list[int]] = {}
        for u, c in enumerate(colors):
            cells.setdefault(c, []).append(u)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                if target is None or len(cells[c]) < len(cells[target]):
                    target = c
        if target is None:
            leaf(colors)
            return
        for u in cells[target]:
            branched = list(colors)
            # individualize u: give it a fresh color just below its cell
            for w in range(n):
                if branched[w] >= branched[u] and w != u:
                    branched[w] += 1
            descend(branched)

    if n == 0:
        return 0, ()
    descend([0] * n)
    assert best is not None
    return n, best


def canonical_form(g: Graph) -> str:
    """Canonical label string: equal iff isomorphic, deterministic."""
    n, enc = _canonical_encoding(g)
    return f"n{n}:" + ",".join(f"{u}-{v}" for u, v in enc)


# -- subgraph embeddings -----------------------------------------------------

def _placement_order(pattern: Graph) -> list[int]:
    """The pattern vertices in the order the embedding search places them:
    each one after the first attaches to the already-placed part if
    possible (connected patterns: always), else the least is next."""
    pverts = sorted(pattern.vertices)
    padj = pattern.adjacency()
    order = pverts[:1]
    rest = set(pverts[1:])
    while rest:
        nxt = None
        for u in sorted(rest):
            if padj[u] & set(order):
                nxt = u
                break
        if nxt is None:
            nxt = min(rest)
        order.append(nxt)
        rest.remove(nxt)
    return order


def _adjacency_matrix(host: Graph) -> tuple[list[int], np.ndarray]:
    """The sorted host vertices, and the boolean adjacency matrix over that
    order, the host form of _embedding_images."""
    hverts = sorted(host.vertices)
    idx = {u: i for i, u in enumerate(hverts)}
    ends = np.array([(idx[u], idx[v]) for u, v in host.edges],
                    dtype=np.intp).reshape(-1, 2)
    adj = np.zeros((len(hverts), len(hverts)), dtype=bool)
    adj[ends[:, 0], ends[:, 1]] = True
    adj[ends[:, 1], ends[:, 0]] = True
    return hverts, adj


def _neighbour_masks(host: Graph) -> tuple[list[int], list[int]]:
    """The sorted host vertices, and per vertex the int bit mask of its
    neighbours over that order: the packed rows of _adjacency_matrix."""
    hverts, adj = _adjacency_matrix(host)
    return hverts, [int.from_bytes(row.tobytes(), "little") for row in
                    np.packbits(adj, axis=1, bitorder="little")]


# partial embeddings extended per numpy pass; bounds each candidate matrix
# at _JOIN_BLOCK x n booleans and each extension at _JOIN_BLOCK x n rows
_JOIN_BLOCK = 1024


def _embedding_images(pattern: Graph, hverts: Sequence[int], adj: np.ndarray,
                      cap: int = DEFAULT_ENUMERATION_CAP,
                      automorphisms: Iterable[tuple[int, ...]] = ()
                      ) -> Iterator[np.ndarray]:
    """Injective maps of pattern into host preserving pattern edges, in
    blocks: int arrays whose rows are the images of the sorted pattern
    vertices. The host is given as _adjacency_matrix returns it.

    Copies are not required to be induced; host edges outside the image
    are ignored. With no automorphisms every raw embedding is yielded.
    Given a group of pattern automorphisms, each as the images of the
    sorted pattern vertices, an embedding m survives exactly when its
    image tuple is lexicographically at most that of m o a for every a in
    the group: the least of its class {m o a}. Under Aut(pattern) that is
    one embedding per copy; under a subgroup, one per coset.

    The symmetry check reduces, per automorphism, to one pair of pattern
    vertices (the first vertex x it moves, and its image y) with
    m[x] < m[y], so partial embeddings are cut as soon as both are placed.
    An ordered join places the pattern vertices in _placement_order: one
    numpy pass extends a block of at most _JOIN_BLOCK partial embeddings
    by one position, as the AND of the adjacency rows of the placed
    neighbours' images and of the host vertices of at least the pattern
    vertex's degree, minus the other placed images, clipped above the
    largest and below the smallest bound. The candidates are read out row
    by row in ascending order, and blocks are extended depth first, so
    rows come out in lexicographic order of the images in placement
    order, over the sorted host vertices. Past cap embeddings, the first
    cap are yielded and ResourceLimitError is raised.
    """
    pverts = sorted(pattern.vertices)
    padj = pattern.adjacency()
    order = _placement_order(pattern)
    # per position: the host vertices of at least its degree, the earlier
    # positions it must be adjacent to, the other earlier positions, and
    # those whose images it must exceed (above) or stay below (below),
    # from the automorphisms' pairs
    pos_of = {u: i for i, u in enumerate(order)}
    hdeg = adj.sum(axis=1)
    fit = [hdeg >= len(padj[u]) for u in order]
    anchors = [[pos_of[w] for w in padj[u] if pos_of[w] < pos]
               for pos, u in enumerate(order)]
    others = [[j for j in range(pos) if j not in anchors[pos]]
              for pos in range(len(order))]
    above: list[list[int]] = [[] for _ in order]
    below: list[list[int]] = [[] for _ in order]
    for a in automorphisms:
        moved = [(x, y) for x, y in zip(pverts, a) if x != y]
        if moved:
            x, y = moved[0]
            if pos_of[x] < pos_of[y]:
                above[pos_of[y]].append(pos_of[x])
            else:
                below[pos_of[x]].append(pos_of[y])
    labels = np.asarray(hverts, dtype=np.intp)
    cols = np.arange(len(labels))
    slots = [pos_of[u] for u in pverts]  # position of each sorted vertex
    emitted = 0

    def extend(part: np.ndarray) -> Iterator[np.ndarray]:
        """The embeddings that extend part, whose rows are the host indices
        of the first part.shape[1] positions."""
        nonlocal emitted
        pos = part.shape[1]
        if pos == len(order):
            block = labels[part[:, slots]]
            if emitted + len(block) > cap:
                yield block[:cap - emitted]
                raise ResourceLimitError(
                    f"embedding enumeration exceeded cap {cap}")
            emitted += len(block)
            yield block
            return
        cands = np.repeat(fit[pos][None, :], len(part), axis=0)
        for a in anchors[pos]:
            cands &= adj[part[:, a]]
        if others[pos]:
            cands[np.arange(len(part))[:, None], part[:, others[pos]]] = False
        if above[pos]:
            cands &= cols > part[:, above[pos]].max(axis=1, keepdims=True)
        if below[pos]:
            cands &= cols < part[:, below[pos]].min(axis=1, keepdims=True)
        # row-major, as np.nonzero reads a 2-d array but several times faster
        rows, new = np.divmod(np.flatnonzero(cands), len(labels))
        grown = np.column_stack([part[rows], new])
        for start in range(0, len(grown), _JOIN_BLOCK):
            yield from extend(grown[start:start + _JOIN_BLOCK])

    yield from extend(np.zeros((1, 0), dtype=np.intp))


# -- edge-list text format ---------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the "u v" per-line format; optional "n=<k>" header line. A
    malformed line raises DomainError naming it."""
    n_declared: Optional[int] = None
    edges: dict[int, tuple[int, int]] = {}  # line number -> edge
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        try:
            if line.startswith("n="):
                n_declared = int(line[2:])
            elif line:
                u, v = map(int, line.split())
                if u == v or min(u, v) < 0:
                    raise ValueError("not an edge")
                edges[lineno] = (u, v)
        except ValueError:
            raise DomainError(f"line {lineno}: expected 'n=<k>' or 'u v' "
                              "with distinct non-negative integer labels, "
                              f"got {raw!r}") from None
    max_label = max((max(e) for e in edges.values()), default=-1)
    n = n_declared if n_declared is not None else max_label + 1
    for lineno, e in edges.items():
        if max(e) >= n:
            raise DomainError(f"line {lineno}: edge label {max(e)} exceeds "
                              f"declared n={n}")
    return Graph.from_edges(edges.values(), vertices=range(n))


def format_edge_list(g: Graph) -> str:
    lines = [f"n={max(g.vertices) + 1 if g.vertices else 0}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"
