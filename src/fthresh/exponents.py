"""Exponent calculus for the coupling error analysis.

For an intersection graph S inside the template, the good-edge exponent is
f(S) = f1(S) + eps * f2(S); inside a clean cycle in dummy-edge form, the
good-cycle exponent is g(S) = g1(S) + eps * g2(S) with g1 = f1 - 1. The
selection rule certifies max f1 and max g1 over their admissible domains in
exact rationals and derives delta and eps from them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .dgraphs import CleanDCycle, DGraph, clean_cycle_types, dcycle_of
from .errors import DomainError, InternalInconsistencyError
from .graphs import Graph, components
from .patterns import Pattern


@dataclass(frozen=True)
class ExponentReport:
    f1: Fraction
    f2: Fraction


@dataclass(frozen=True)
class SelectedConstants:
    delta: Fraction
    eps: Fraction
    certified_max_f1: Fraction
    certified_max_g1: Fraction


def _rank_of(d: DGraph) -> int:
    """v(S) - c(S); a dummy edge merges every vertex of its cycle."""
    parent = {u: u for u in d.base.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for u, v in d.base.edges:
        union(u, v)
    for key in d.dummies:
        span = sorted(d.dummy_span(key))
        for u in span[1:]:
            union(span[0], u)
    c = len({find(u) for u in d.base.vertices})
    return d.base.v() - c


def f_exponents(f: Pattern, s: Graph) -> ExponentReport:
    """Good-edge exponents f1 and f2 of an intersection graph; f(S) is
    f1 + eps * f2.

    f1 is additive over disjoint components and zero on isolated vertices.
    """
    vmc = s.v() - components(s)[0]
    return ExponentReport(f1=Fraction(s.e()) / f.d1 - vmc,
                          f2=vmc + 1 - Fraction(s.e(), f.s))


# -- admissible-S enumeration ------------------------------------------------

def admissible_f_subgraphs(f: Pattern) -> list[Graph]:
    """Nonempty proper edge subsets of the template, as graphs on their
    endpoints; isolated vertices never move f1 and are omitted."""
    edges = sorted(f.graph.edges)
    out = []
    for k in range(1, len(edges)):
        for combo in itertools.combinations(edges, k):
            out.append(Graph.from_edges(combo))
    return out


def certified_max_f1(f: Pattern) -> Fraction:
    subs = admissible_f_subgraphs(f)
    if not subs:
        raise DomainError("template needs at least two edges")
    return max(f_exponents(f, s).f1 for s in subs)


def _induced_edge_counts(g: Graph, verts: list[int]) -> np.ndarray:
    """Edge count of the induced subgraph for every vertex-subset mask."""
    nv = len(verts)
    idx = {u: i for i, u in enumerate(verts)}
    masks = np.arange(1 << nv, dtype=np.uint32)
    counts = np.zeros(masks.shape, dtype=np.int64)
    for u, v in g.edges:
        bits = np.uint32((1 << idx[u]) | (1 << idx[v]))
        counts += (masks & bits) == bits
    return counts


def max_g1_of_dcycle(f: Pattern, d: CleanDCycle) -> tuple[Fraction, str]:
    """Exact maximum of g1 over proper sub-d-graphs of one clean d-cycle.

    Any edge subset decomposes into components; a component's f1 is at most
    that of the induced subgraph on its span (extra in-span edges raise e
    without raising the rank), while an edge merging two components shifts
    f1 by 1/d1(F) - 1 < 0, so cross edges are best left out. The maximum of
    f1 is therefore attained by a family of vertex-disjoint connected
    induced subgraphs, searched exhaustively below, and g1 = f1 - 1. A
    sub-d-graph containing the dummy edge spans every vertex and is handled
    in closed form.
    """
    g = d.dgraph.base
    verts = sorted(g.vertices)
    nv = len(verts)
    full_mask = (1 << nv) - 1
    counts = _induced_edge_counts(g, verts)
    sizes = np.bitwise_count(np.arange(1 << nv, dtype=np.uint32)).astype(np.int64)
    d1n, d1d = f.d1.numerator, f.d1.denominator
    # h(W) = e_ind/d1 - (|W|-1) > 0, screened in integers
    positive = np.flatnonzero(counts * d1d > d1n * (sizes - 1))
    adj = g.adjacency()

    def connected(mask: int) -> bool:
        members = [verts[i] for i in range(nv) if mask >> i & 1]
        seen = {members[0]}
        stack = [members[0]]
        in_set = set(members)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in in_set and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(members)

    pieces: list[tuple[int, Fraction]] = []
    for m in positive:
        m = int(m)
        if m == 0 or not connected(m):
            continue
        h = Fraction(int(counts[m])) / f.d1 - (int(sizes[m]) - 1)
        pieces.append((m, h))
    pieces.sort(key=lambda t: -t[1])

    dense = not d.dgraph.dummies
    usable = [(m, h) for m, h in pieces
              if not (dense and m == full_mask)]
    suffix = [Fraction(0)] * (len(usable) + 1)
    for i in range(len(usable) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + usable[i][1]

    best = Fraction(0)  # the empty family

    def search(i: int, taken: int, acc: Fraction) -> None:
        nonlocal best
        if acc > best:
            best = acc
        if i >= len(usable) or acc + suffix[i] <= best:
            return
        m, h = usable[i]
        if not (m & taken):
            search(i + 1, taken | m, acc + h)
        search(i + 1, taken, acc)

    search(0, 0, Fraction(0))
    best_g1 = best - 1
    how = "family"

    if dense:
        # the full graph is not proper; its best proper edge subset drops one
        for u, v in g.edges:
            rest = Graph(g.vertices, g.edges - {(u, v)})
            vmc = rest.v() - components(rest)[0]
            cand = Fraction(rest.e()) / f.d1 - vmc - 1
            if cand > best_g1:
                best_g1 = cand
                how = "full_minus_edge"
    else:
        # dummy included: all vertices joined, rank pinned at v(G)-1
        cand = Fraction(d.dgraph.e() - 1) / f.d1 - d.dgraph.v()
        if cand > best_g1:
            best_g1 = cand
            how = "dummy"
    return best_g1, how


@dataclass(frozen=True)
class G1Row:
    k: int
    sparsity: str
    signature: str
    max_g1: Fraction
    attained_by: str


def certified_max_g1(f: Pattern, max_len: int) -> tuple[Fraction, list[G1Row]]:
    """Exact maximum of g1 over proper sub-d-graphs of every clean d-cycle
    type of length 2..max_len. The empty sub-d-graph contributes -1."""
    best = Fraction(-1)
    rows: list[G1Row] = []
    for k in range(2, max_len + 1):
        for cycle, sig in clean_cycle_types(f, k):
            d = dcycle_of(cycle, f)
            val, how = max_g1_of_dcycle(f, d)
            rows.append(G1Row(k=k, sparsity=d.sparsity, signature=sig,
                              max_g1=val, attained_by=how))
            if val > best:
                best = val
    return best, rows


def brute_max_g1(f: Pattern, d: CleanDCycle) -> Fraction:
    """Oracle: exhaust every proper edge subset, dummy included. Exponential
    in e(G); only for cross-checking small cycles."""
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
            g1 = Fraction(sub.e()) / f.d1 - _rank_of(sub) - 1
            if g1 > best:
                best = g1
    return best


# -- constant selection ------------------------------------------------------

def select_constants(f: Pattern, max_len: Optional[int] = None) -> SelectedConstants:
    """Pick delta and eps from the certified maxima.

    delta = -max(max f1, max g1)/4 leaves slack for the eps-dependent parts;
    eps is capped at delta/(2 e(F)) and shrunk until every f and g stays
    below -delta, using the uniform bounds max f1 + eps * max f2 and
    max g1 + eps * max g2.
    """
    if max_len is None:
        max_len = min(f.s, 4)
    mf1 = certified_max_f1(f)
    mg1, _rows = certified_max_g1(f, max_len)
    top = max(mf1, mg1)
    if top >= 0:
        raise DomainError(f"max exponent {top} is not negative; "
                          "constant selection is impossible")
    delta = -top / 4
    eps = delta / (2 * f.s)
    mf2 = max((f_exponents(f, s).f2
               for s in admissible_f_subgraphs(f)), default=Fraction(0))
    mg2 = Fraction(0)
    for k in range(2, max_len + 1):
        for cycle, _sig in clean_cycle_types(f, k):
            d = dcycle_of(cycle, f)
            mg2 = max(mg2, d.dgraph.v() - 1 + Fraction(k))
    if mf2 > 0:
        eps = min(eps, (-delta - mf1) / mf2 / 2)
    if mg2 > 0:
        eps = min(eps, (-delta - mg1) / mg2 / 2)
    out = SelectedConstants(delta=delta, eps=eps, certified_max_f1=mf1,
                            certified_max_g1=mg1)
    if not (max(mf1, mg1) < -2 * delta < 0 and eps < delta / f.s):
        raise InternalInconsistencyError("selected constants violate the rule")
    if not (mf1 + eps * max(mf2, Fraction(0)) < -delta
            and mg1 + eps * mg2 < -delta):
        raise InternalInconsistencyError("eps leaves an exponent above -delta")
    return out


def exponent_audit_csv(f: Pattern, max_len: Optional[int] = None) -> str:
    """CSV rows of every admissible (S, f1, f2) and the per-cycle-type g1
    maxima, for audit."""
    if max_len is None:
        max_len = min(f.s, 4)
    lines = ["kind,context,detail,e,v,value1,value2"]
    for s in admissible_f_subgraphs(f):
        rep = f_exponents(f, s)
        detail = ";".join(f"{u}-{v}" for u, v in sorted(s.edges))
        lines.append(f"f,pattern,{detail},{s.e()},{s.v()},{rep.f1},{rep.f2}")
    _best, rows = certified_max_g1(f, max_len)
    for r in rows:
        lines.append(f"g,dcycle,k={r.k} {r.sparsity} {r.signature} "
                     f"[{r.attained_by}],,,{r.max_g1},")
    return "\n".join(lines) + "\n"
