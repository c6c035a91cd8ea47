"""Reference enumerators of clean-cycle placements, independent of
clean_cycle_types.

fthresh builds its placements by relabelling the clean_cycle_types
representatives, so it is only as complete as that type list. These two
search the copies on the labels directly: a chain recursion over
single-vertex overlaps, and a loop over the copies sharing each vertex
pair. Both give their rows in the order fthresh promises.
"""

import itertools

from fthresh.fgraphs import is_sparse_pair, potential_copies_on


def chain_cycle_placements(f, labels, max_len):
    """Every clean-cycle placement of length 2..max_len on the labels, as
    sorted ids into potential_copies_on(f, labels): first the 2-cycles by
    copy-id pair, then the chains of single-vertex overlaps closed into
    cycles, in depth-first order, each cycle at its first sighting."""
    copies = potential_copies_on(f, labels)
    m = len(copies)
    by_vertex = {}
    for i, fe in enumerate(copies):
        for u in fe.vertices:
            by_vertex.setdefault(u, []).append(i)
    out = []
    if max_len >= 2:
        for i in range(m):
            vi = copies[i].vertices
            partners = set()
            for u in vi:
                partners.update(j for j in by_vertex[u] if j > i)
            for j in sorted(partners):
                if len(vi & copies[j].vertices) == 2:
                    out.append((i, j))
    if max_len < 3:
        return out
    emitted = set()

    def extend(chain):
        head, tail = chain[0], chain[-1]
        tail_verts = copies[tail].vertices
        cand = set()
        for u in tail_verts:
            cand.update(j for j in by_vertex[u] if j > head)
        for j in sorted(cand):
            if j in chain:
                continue
            vj = copies[j].vertices
            if len(vj & tail_verts) != 1:
                continue
            if any(vj & copies[c].vertices for c in chain[1:-1]):
                continue
            if len(chain) == 1:
                # head and tail coincide; only extension is possible
                if len(chain) + 1 < max_len:
                    extend(chain + [j])
                continue
            head_ov = vj & copies[head].vertices
            if len(head_ov) == 1:
                order = chain + [j]
                kk = len(order)
                overlaps = [copies[order[t]].vertices
                            & copies[order[(t + 1) % kk]].vertices
                            for t in range(kk)]
                if (all(len(ov) == 1 for ov in overlaps)
                        and len(frozenset().union(*overlaps)) == kk):
                    key = tuple(sorted(order))
                    if key not in emitted:
                        emitted.add(key)
                        out.append(key)
            if len(chain) + 1 < max_len and not head_ov:
                extend(chain + [j])

    for i in range(m):
        extend([i])
    return out


def by_pair_sparse_placements(f, labels):
    """Every sparse clean 2-cycle on the labels as a copy pair, ordered by
    shared vertex pair, then by copy ids."""
    copies = potential_copies_on(f, labels)
    by_pair = {}
    for i, fe in enumerate(copies):
        for pair in itertools.combinations(sorted(fe.vertices), 2):
            by_pair.setdefault(pair, []).append(i)
    out = []
    for pair in sorted(by_pair):
        for ai, bi in itertools.combinations(by_pair[pair], 2):
            h1, h2 = copies[ai], copies[bi]
            if h1.vertices & h2.vertices == frozenset(pair) \
                    and is_sparse_pair(h1, h2):
                out.append(frozenset((h1, h2)))
    return out
