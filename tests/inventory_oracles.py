"""The Chen-Stein pair sums as a scalar loop over every ordered pair.

`inventory._pairwise_terms` computes the same four sums as blocked array
passes; this loop is the reference its floats must equal bit for bit.
"""

from fthresh.inventory import CycleInventory


def pairwise_terms_loop(inv: CycleInventory, pi: float,
                        p: float) -> tuple[float, float]:
    """(bound_H, bound_G) by exact evaluation of every overlapping pair."""
    items = inv.items
    s = inv.f.s
    th1 = tg1 = th2 = tg2 = 0.0
    for a in items:
        copies_a = set(a.copy_ids)
        dummies_a = 1 if a.sparse else 0
        for b in items:
            if not (a.verts & b.verts):
                continue
            th1 += pi ** a.exponent_h() * pi ** b.exponent_h()
            tg1 += p ** a.exponent_g(s) * p ** b.exponent_g(s)
            if b is a:
                continue
            union_copies = len(copies_a.union(b.copy_ids))
            union_edges = (a.shadow_mask | b.shadow_mask).bit_count()
            union_dummies = dummies_a + (1 if b.sparse else 0)
            th2 += pi ** union_copies
            tg2 += p ** (union_edges + union_dummies)
    return 4.0 * (th1 + th2), 4.0 * (tg1 + tg2)
