"""Template validation and the closed-form threshold constants.

A Pattern is a strictly 1-balanced connected template together with its
cached invariants. All probability constants derived from it live in
ThresholdParams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (DisconnectedInputError, DomainError,
                     InternalInconsistencyError, NotStrictlyOneBalancedError)
from .graphs import (Edge, Graph, _norm_edge, automorphisms, components,
                     one_density, parse_edge_list,
                     strictly_1_balanced_violation)

# one copy of the template on 0..r-1: (sorted edge tuple, minimal embedding)
CanonicalCopy = tuple[tuple[Edge, ...], tuple[int, ...]]


@dataclass(frozen=True)
class Pattern:
    graph: Graph
    r: int
    s: int
    d1: Fraction
    strictly_1_balanced: bool
    automorphisms: tuple[tuple[int, ...], ...] = field(compare=False,
                                                        repr=False)
    """Aut(F): each automorphism as the images of the sorted vertices."""
    canonical_copies: tuple[CanonicalCopy, ...] = field(compare=False,
                                                        repr=False)
    """The distinct copies on the labels 0..r-1, in edge-tuple order."""

    @property
    def aut(self) -> int:
        return len(self.automorphisms)

    @property
    def copies_per_vertex_set(self) -> int:
        """Distinct copies of the template on one fixed r-vertex set."""
        return math.factorial(self.r) // self.aut


@dataclass(frozen=True)
class ThresholdParams:
    n: int
    divisible: bool
    eps: float
    delta: float
    pi: float
    p: float
    p_star: float
    pi_star: float
    pi_prime: float
    Delta: float


def _is_two_vertex_connected(g: Graph) -> bool:
    """Whether no single vertex disconnects g; g must be connected and have
    at least three vertices, as analyze_pattern checks first."""
    for u in g.vertices:
        rest = g.induced(g.vertices - {u})
        if components(rest)[0] > 1:
            return False
    return True


def _canonical_copies(g: Graph, auts: tuple[tuple[int, ...], ...]
                      ) -> tuple[CanonicalCopy, ...]:
    """Every copy of g on the labels 0..r-1, keyed by its sorted edge tuple,
    with the least embedding in its automorphism class."""
    pos = {u: i for i, u in enumerate(sorted(g.vertices))}
    best: dict[tuple[Edge, ...], tuple[int, ...]] = {}
    for images in itertools.permutations(range(len(pos))):
        edges = tuple(sorted(_norm_edge(images[pos[u]], images[pos[v]])
                             for u, v in g.edges))
        if edges not in best:
            best[edges] = min(tuple(images[pos[x]] for x in a) for a in auts)
    return tuple(sorted(best.items()))


def analyze_pattern(g: Graph) -> Pattern:
    """Validate a template and cache its invariants.

    Raises if g is disconnected or not strictly 1-balanced. For r >= 3 a
    strictly 1-balanced graph must be 2-vertex-connected; a violation would
    falsify a structural premise, so it aborts hard.
    """
    if g.v() < 2:
        raise DomainError("template needs at least two vertices")
    if not g.is_connected():
        raise DisconnectedInputError("template must be connected")
    witness = strictly_1_balanced_violation(g)
    if witness is not None:
        raise NotStrictlyOneBalancedError(
            f"subgraph on {sorted(witness.vertices)} has 1-density "
            f"{one_density(witness)} >= {one_density(g)}", witness=witness)
    if g.v() >= 3 and not _is_two_vertex_connected(g):
        raise InternalInconsistencyError(
            "strictly 1-balanced template on >= 3 vertices must be "
            "2-vertex-connected")
    auts = automorphisms(g)
    return Pattern(graph=g, r=g.v(), s=g.e(), d1=one_density(g),
                   strictly_1_balanced=True, automorphisms=auts,
                   canonical_copies=_canonical_copies(g, auts))


def p_star(f: Pattern, n: int) -> float:
    """Sharp threshold for the disappearance of template-isolated vertices."""
    if n <= f.r:
        raise DomainError(f"need n > r, got n={n}, r={f.r}")
    base = (f.aut / math.factorial(f.r)) * math.log(n) / math.comb(n - 1, f.r - 1)
    return base ** (1.0 / f.s)


def pi_star(f: Pattern, n: int) -> float:
    """Sharp threshold for a perfect matching in the merged hypergraph."""
    if n <= f.r:
        raise DomainError(f"need n > r, got n={n}, r={f.r}")
    return math.log(n) / math.comb(n - 1, f.r - 1)


def pi_upper_bound(f: Pattern, n: int, eps: float) -> float:
    """Default copy-inclusion probability: the n^eps-scaled upper bound."""
    return n ** eps / (f.copies_per_vertex_set * math.comb(n - 1, f.r - 1))


def pi_prime(f: Pattern, pi: float) -> float:
    """Per-vertex-set inclusion probability after merging copies."""
    return 1.0 - (1.0 - pi) ** f.copies_per_vertex_set


def max_degree_cutoff(n: int, eps: float) -> float:
    return n ** eps + math.log(n) * n ** (eps / 2.0)


def derive_params(f: Pattern, n: int, delta: float, eps: float,
                  pi: Optional[float] = None) -> ThresholdParams:
    """Populate every derived constant for an instance size.

    pi defaults to its upper bound; any smaller value may be passed in.
    """
    if delta <= 0 or eps <= 0:
        raise DomainError("delta and eps must be positive")
    if n <= f.r:
        raise DomainError(f"need n > r, got n={n}, r={f.r}")
    if pi is None:
        pi = pi_upper_bound(f, n, eps)
    if not 0.0 <= pi <= 1.0:
        raise DomainError(f"pi={pi} outside [0, 1]")
    p = (pi / (1.0 - n ** (-delta))) ** (1.0 / f.s)
    if p > 1.0:
        raise DomainError(f"derived p={p} exceeds 1; lower pi or raise n")
    return ThresholdParams(
        n=n, divisible=(n % f.r == 0), eps=eps, delta=delta, pi=pi, p=p,
        p_star=p_star(f, n), pi_star=pi_star(f, n), pi_prime=pi_prime(f, pi),
        Delta=max_degree_cutoff(n, eps))


_PRESETS = {
    "k2": Graph.from_edges([(0, 1)]),
    "k3": Graph.complete(3),
    "k4": Graph.complete(4),
    "c4": Graph.cycle(4),
    "c5": Graph.cycle(5),
    "k4me": Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
}


def pattern_preset(name: str) -> Pattern:
    try:
        g = _PRESETS[name.lower()]
    except KeyError:
        raise DomainError(f"unknown pattern preset {name!r}; "
                          f"known: {sorted(_PRESETS)}") from None
    return analyze_pattern(g)


def pattern_from_file(path: str) -> Pattern:
    with open(path, encoding="utf-8") as fh:
        return analyze_pattern(parse_edge_list(fh.read()))
