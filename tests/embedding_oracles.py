"""Reference subgraph-embedding enumeration, kept as it was before the
bit-mask candidate sets.

set_embeddings walks Python sets of host vertices, sorted per position,
and yields each embedding as a dict; fthresh.graphs._embedding_images must
list the same maps, as rows of the images of the sorted pattern vertices,
in the same order, and raise at the same count when capped.
"""

import math
from typing import Iterable, Iterator

from fthresh.errors import ResourceLimitError
from fthresh.graphs import DEFAULT_ENUMERATION_CAP


def set_embeddings(pattern, host, cap: int = DEFAULT_ENUMERATION_CAP,
                   automorphisms: Iterable[tuple[int, ...]] = ()
                   ) -> Iterator[dict[int, int]]:
    """Injective maps of pattern into host preserving pattern edges; with
    automorphisms (images of the sorted pattern vertices), only those whose
    image tuple is no larger than under any of them. More than cap yielded
    embeddings raise ResourceLimitError."""
    pverts = sorted(pattern.vertices)
    if not pverts:
        yield {}
        return
    padj = pattern.adjacency()
    hadj = host.adjacency()
    hdeg = {u: len(hadj[u]) for u in host.vertices}
    order = [pverts[0]]
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
    pdeg = {u: len(padj[u]) for u in pattern.vertices}
    pos_of = {u: i for i, u in enumerate(order)}
    above: list[set[int]] = [set() for _ in order]
    below: list[set[int]] = [set() for _ in order]
    for a in automorphisms:
        moved = [(x, y) for x, y in zip(pverts, a) if x != y]
        if moved:
            x, y = moved[0]
            if pos_of[x] < pos_of[y]:
                above[pos_of[y]].add(x)
            else:
                below[pos_of[x]].add(y)
    emitted = 0
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def place(pos: int) -> Iterator[dict[int, int]]:
        nonlocal emitted
        if pos == len(order):
            emitted += 1
            if emitted > cap:
                raise ResourceLimitError(
                    f"embedding enumeration exceeded cap {cap}")
            yield dict(mapping)
            return
        u = order[pos]
        anchors = [w for w in padj[u] if w in mapping]
        if anchors:
            cands = set(hadj[mapping[anchors[0]]])
            for w in anchors[1:]:
                cands &= hadj[mapping[w]]
            cands -= used
        else:
            cands = set(host.vertices) - used
        lo = max((mapping[w] for w in above[pos]), default=-1)
        hi = min((mapping[w] for w in below[pos]), default=math.inf)
        for t in sorted(cands):
            if hdeg[t] < pdeg[u] or not lo < t < hi:
                continue
            mapping[u] = t
            used.add(t)
            yield from place(pos + 1)
            del mapping[u]
            used.discard(t)

    yield from place(0)
