"""Reference F-graph searches, kept as they were before fthresh read the
answer off the structure.

search_clean_cycle_order tries every cyclic order of the copies that
starts at the first one, in lexicographic order, where fthresh walks the
one cycle their overlaps form; the first order that passes is the walk
towards the lesser neighbour. induced_f_edges lists the induced copies by
enumerating the copies of the shadow, where fthresh's inducing_witness
only tests that a combination covers the target's edges.
"""

import itertools

from fthresh.fgraphs import copies_in, shadow


def search_clean_cycle_order(h):
    """(copies in cyclic order, overlap vertices) of the first order from
    the first copy in copy order whose consecutive copies share exactly
    one vertex, k distinct ones in all, and whose other pairs are
    disjoint; None if no order passes or h has fewer than three copies."""
    fes = sorted(h.fedges, key=lambda x: x.sort_key())
    k = len(fes)
    if k < 3:
        return None
    inter = {}
    for a, b in itertools.combinations(range(k), 2):
        inter[(a, b)] = inter[(b, a)] = fes[a].vertices & fes[b].vertices
    for rest in itertools.permutations(range(1, k)):
        order = (0,) + rest
        overlaps = [inter[(order[i], order[(i + 1) % k])] for i in range(k)]
        if any(len(ov) != 1 for ov in overlaps):
            continue
        if any(inter[(order[i], order[j])]
               for i, j in itertools.combinations(range(k), 2)
               if (j - i) % k not in (1, k - 1)):
            continue
        single = [next(iter(ov)) for ov in overlaps]
        if len(set(single)) == k:
            return [fes[i] for i in order], single
    return None


def induced_f_edges(h, f):
    """Copies of the template present in the shadow but absent from h."""
    return copies_in(shadow(h), f) - set(h.fedges)
