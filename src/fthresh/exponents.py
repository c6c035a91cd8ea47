"""Exponent calculus and the certificate of a template.

For an intersection graph S inside the template, the good-edge exponent is
f(S) = f1(S) + eps * f2(S); inside a clean cycle in dummy-edge form, the
good-cycle exponent is g(S) = g1(S) + eps * g2(S) with g1 = f1 - 1. One
pass over the admissible S and the clean d-cycle types certifies the two
facts the threshold rests on: every clean d-cycle is strictly balanced,
and max f1 and max g1 are negative. The selection rule derives delta and
eps from these maxima, all in exact rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .dgraphs import CleanDCycle, DGraph, clean_cycle_types, dcycle_of
from .errors import (CounterexampleError, DomainError,
                     InternalInconsistencyError)
from .graphs import (Graph, _induced_edge_counts, _neighbour_masks,
                     components)
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


@dataclass(frozen=True)
class TypeRow:
    """The certificate of one clean d-cycle type: its strict balance and
    the maximum of g1 over its proper sub-d-graphs."""

    k: int
    sparsity: str
    signature: str
    v: int
    density: Fraction
    max_proper_density: Fraction
    strict_ok: bool
    max_g1: Fraction
    attained_by: str
    dcycle: CleanDCycle = field(compare=False, repr=False)


@dataclass(frozen=True)
class Certificate:
    f: Pattern
    subgraphs: tuple[tuple[Graph, ExponentReport], ...]
    """Every admissible S with its exponents."""
    types: tuple[TypeRow, ...]
    """One row per clean d-cycle type, by length and then signature."""


def f_exponents(f: Pattern, s: Graph) -> ExponentReport:
    """Good-edge exponents f1 and f2 of an intersection graph; f(S) is
    f1 + eps * f2.

    f1 is additive over disjoint components and zero on isolated vertices.
    """
    vmc = s.v() - components(s)
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


def _subgraph_rows(f: Pattern) -> tuple[tuple[Graph, ExponentReport], ...]:
    rows = tuple((s, f_exponents(f, s)) for s in admissible_f_subgraphs(f))
    if not rows:
        raise DomainError("template needs at least two edges")
    return rows


# -- clean d-cycles ----------------------------------------------------------

def dcycle_density(d: CleanDCycle) -> Fraction:
    return Fraction(d.dgraph.e(), d.dgraph.v())


def max_proper_subgraph_density(
        dg: DGraph,
        induced: Optional[tuple[np.ndarray, np.ndarray]] = None) -> Fraction:
    """Largest edge density over proper subgraphs with at least one vertex;
    induced is _induced_edge_counts(dg.base), computed here if not given.

    A dummy edge is incident to every vertex of its cycle, which here is the
    whole vertex set, so subgraphs on proper vertex subsets carry usual edges
    only; those are scanned exhaustively as induced subgraphs (dropping edges
    at fixed vertices only lowers density), taking the most edges per size.
    Full-vertex-set proper subgraphs are dominated by the one missing a
    single edge.
    """
    counts, sizes = (induced if induced is not None
                     else _induced_edge_counts(dg.base))
    nv = dg.v()
    return max([Fraction(dg.e() - 1, nv)]
               + [Fraction(int(counts[sizes == size].max()), size)
                  for size in range(1, nv)])


def max_g1_of_dcycle(
        f: Pattern, d: CleanDCycle,
        induced: Optional[tuple[np.ndarray, np.ndarray]] = None
        ) -> tuple[Fraction, str]:
    """Exact maximum of g1 over proper sub-d-graphs of one clean d-cycle;
    induced is _induced_edge_counts(d.dgraph.base), computed here if not
    given.

    Any edge subset decomposes into components; a component's f1 is at most
    that of the induced subgraph on its span (extra in-span edges raise e
    without raising the rank), while an edge merging two components shifts
    f1 by 1/d1(F) - 1 < 0, so cross edges are best left out. The maximum of
    f1 is therefore attained by a family of vertex-disjoint connected
    induced subgraphs, searched exhaustively below, and g1 = f1 - 1.

    A dense cycle's whole graph is not proper, so its best proper edge
    subsets, the whole graph less one edge, are a closed form of their
    own. A sparse cycle needs no such form for its sub-d-graphs that hold
    the dummy edge: those have at most e(D) - 1 edges on all v vertices,
    so their best g1 is that of the full shadow, a connected piece, which
    the family search takes when its weight is positive and the empty
    family beats when it is not.

    The search runs on one integer scale: with d1 = d1n/d1d, a piece W
    weighs d1n * h(W) = e(W) * d1d - (|W| - 1) * d1n, where h(W) is its f1.
    Only pieces of positive weight can raise a family; they are tried
    heaviest first, and only the maximum becomes a Fraction.
    """
    g = d.dgraph.base
    _verts, nbr = _neighbour_masks(g)
    full_mask = (1 << len(nbr)) - 1
    counts, sizes = induced if induced is not None else _induced_edge_counts(g)
    d1n, d1d = f.d1.numerator, f.d1.denominator
    weights = counts * d1d - (sizes - 1) * d1n

    def connected(mask: int) -> bool:
        seen = todo = mask & -mask
        while todo:
            low = todo & -todo
            new = nbr[low.bit_length() - 1] & mask & ~seen
            seen |= new
            todo = (todo ^ low) | new
        return seen == mask

    dense = not d.dgraph.dummies
    # the full vertex set of a dense cycle is not a proper sub-d-graph
    masks = sorted((m for m in np.flatnonzero(weights > 0).tolist()
                    if m and not (dense and m == full_mask) and connected(m)),
                   key=lambda m: -weights[m])
    ws = weights[masks].tolist()
    suffix = list(itertools.accumulate(reversed(ws), initial=0))[::-1]

    best = 0  # the empty family
    # depth first over (next piece, vertices taken, weight so far), taking
    # piece i before leaving it out; a stack, since the pieces can outnumber
    # Python's frames
    stack = [(0, 0, 0)]
    while stack:
        i, taken, acc = stack.pop()
        if acc > best:
            best = acc
        if i >= len(ws) or acc + suffix[i] <= best:
            continue
        stack.append((i + 1, taken, acc))
        if not (masks[i] & taken):
            stack.append((i + 1, taken | masks[i], acc + ws[i]))
    best_g1 = Fraction(best, d1n) - 1
    how = "family"

    if dense:
        # the full graph is not proper; its best proper edge subset drops one
        for u, v in g.edges:
            rest = Graph(g.vertices, g.edges - {(u, v)})
            vmc = rest.v() - components(rest)
            cand = Fraction(rest.e()) / f.d1 - vmc - 1
            if cand > best_g1:
                best_g1 = cand
                how = "full_minus_edge"
    return best_g1, how


# -- the certificate ---------------------------------------------------------

def certify(f: Pattern, max_len: int) -> Certificate:
    """Every admissible S with f1 and f2, and one row per clean d-cycle
    type of length 2..max_len, in one pass over the types. A type that is
    not strictly balanced is recorded, not raised."""
    subgraphs = _subgraph_rows(f)
    if max_len < 2:
        raise DomainError("max_len must be >= 2")
    rows = []
    for k in range(2, max_len + 1):
        for cycle, sig in clean_cycle_types(f, k):
            d = dcycle_of(cycle, f)
            density = dcycle_density(d)
            induced = _induced_edge_counts(d.dgraph.base)
            proper = max_proper_subgraph_density(d.dgraph, induced)
            g1, how = max_g1_of_dcycle(f, d, induced)
            rows.append(TypeRow(
                k=k, sparsity=d.sparsity, signature=sig, v=d.dgraph.v(),
                density=density, max_proper_density=proper,
                strict_ok=proper < density, max_g1=g1, attained_by=how,
                dcycle=d))
    return Certificate(f=f, subgraphs=subgraphs, types=tuple(rows))


def verify_clean_dcycles_strictly_balanced(
        cert: Certificate) -> tuple[TypeRow, ...]:
    """The type rows, once every type is certified strictly balanced.

    Raises CounterexampleError with the first offending cycle otherwise.
    """
    for r in cert.types:
        if not r.strict_ok:
            raise CounterexampleError(
                f"clean {r.k}-cycle ({r.sparsity}) is not strictly balanced",
                witness=r.dcycle)
    return cert.types


# -- constant selection ------------------------------------------------------

def constants_of(cert: Certificate) -> SelectedConstants:
    """Pick delta and eps from the certified maxima.

    delta = -max(max f1, max g1)/4 leaves slack for the eps-dependent parts;
    eps is capped at delta/(2 e(F)) and shrunk until every f and g stays
    below -delta, using the uniform bounds max f1 + eps * max f2 and
    max g1 + eps * max g2.
    """
    f = cert.f
    mf1 = max(rep.f1 for _s, rep in cert.subgraphs)
    # the empty sub-d-graph contributes -1
    mg1 = max([Fraction(-1), *(r.max_g1 for r in cert.types)])
    top = max(mf1, mg1)
    if top >= 0:
        raise DomainError(f"max exponent {top} is not negative; "
                          "constant selection is impossible")
    delta = -top / 4
    eps = delta / (2 * f.s)
    mf2 = max(rep.f2 for _s, rep in cert.subgraphs)
    mg2 = max((Fraction(r.v - 1 + r.k) for r in cert.types),
              default=Fraction(0))
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


def select_constants(f: Pattern) -> SelectedConstants:
    """The constants of the certificate over clean d-cycles of length
    2..min(e(F), 4)."""
    return constants_of(certify(f, min(f.s, 4)))


# -- audit CSVs --------------------------------------------------------------

def dcycle_report_csv(rows: Iterable[TypeRow], pattern_name: str) -> str:
    lines = ["pattern,k,sparsity,overlap_signature,density_num,density_den,"
             "max_proper_density,strict_ok"]
    for r in rows:
        lines.append(
            f"{pattern_name},{r.k},{r.sparsity},{r.signature},"
            f"{r.density.numerator},{r.density.denominator},"
            f"{r.max_proper_density.numerator}/{r.max_proper_density.denominator},"
            f"{str(r.strict_ok).lower()}")
    return "\n".join(lines) + "\n"


def exponent_audit_csv(cert: Certificate) -> str:
    """CSV rows of every admissible (S, f1, f2) and the per-cycle-type g1
    maxima, for audit."""
    lines = ["kind,context,detail,e,v,value1,value2"]
    for s, rep in cert.subgraphs:
        detail = ";".join(f"{u}-{v}" for u, v in sorted(s.edges))
        lines.append(f"f,pattern,{detail},{s.e()},{s.v()},{rep.f1},{rep.f2}")
    for r in cert.types:
        lines.append(f"g,dcycle,k={r.k} {r.sparsity} {r.signature} "
                     f"[{r.attained_by}],,,{r.max_g1},")
    return "\n".join(lines) + "\n"
