"""The exact engine's arrays and valid sets the slow way: one pass over
every mask per cycle, against which the subset-sum build and the
hash-first conditionals are checked; and the exact law's steps over a
state compacted at every decision, against which the live vectors are
checked."""

import numpy as np


def cycle_masks(eng):
    """Per cycle, its copy set over the copy axis and its shadow over the
    edge axis, read off the placement table."""
    tab = eng.table
    copy_sets = [sum(1 << c for c in tab.ids(i)) for i in range(tab.n_cycles)]
    shadows = [int(w) for w in tab.shadow_words[:, 0]]
    return copy_sets, shadows


def loop_arrays(eng):
    """(h_count, g_dense_count, g_s_all) with one pass per cycle over all
    2^M copy subsets or all 2^E edge masks."""
    copy_sets, shadows = cycle_masks(eng)
    hm = np.arange(2 ** eng.M, dtype=np.uint32)
    h_count = np.zeros(hm.shape, dtype=np.int64)
    for cm in copy_sets:
        h_count += (hm & cm) == cm
    gm = np.arange(2 ** eng.E, dtype=np.uint32)
    dense_count = np.zeros(gm.shape, dtype=np.int64)
    s_all = np.zeros(gm.shape, dtype=np.int64)
    for sm, sparse in zip(shadows, eng.table.sparse):
        if sparse:
            s_all += (gm & sm) == sm
        else:
            dense_count += (gm & sm) == sm
    return h_count, dense_count, s_all


def brute_valid_h(eng, c1):
    """Copy subsets, ascending, whose cycle set is exactly c1."""
    copy_sets, _ = cycle_masks(eng)
    hm = np.arange(2 ** eng.M, dtype=np.uint32)
    ok = np.ones(hm.shape, dtype=bool)
    for i, cm in enumerate(copy_sets):
        ok &= ((hm & cm) == cm) == (i in c1)
    return hm[ok]


def brute_valid_g_dense(eng, c1):
    """Edge masks, ascending, whose complete dense cycles are exactly c1's
    dense ones and whose complete shadows include c1's sparse ones."""
    _, shadows = cycle_masks(eng)
    gm = np.arange(2 ** eng.E, dtype=np.uint32)
    ok = np.ones(gm.shape, dtype=bool)
    for i, (sm, sparse) in enumerate(zip(shadows, eng.table.sparse)):
        complete = (gm & sm) == sm
        if i in c1:
            ok &= complete
        elif not sparse:
            ok &= ~complete
    return gm[ok]


class CompactingState:
    """The exact law's step state as a compacted copy: on each side the
    masks still consistent with the decisions and their weights, summed in
    full at every step and cut down by boolean indexing at every decision
    that is not None."""

    def __init__(self, eng, c1, pi, p):
        self.tab = eng.table
        self.masks_h, pc_h = eng.valid_h(c1)
        x = pi / (1.0 - pi)
        self.w_h = x ** pc_h.astype(np.float64)
        self.masks_g = eng.valid_g_dense(c1)
        self.w_g = eng.g_weights(p)[self.masks_g]

    def probs(self, j):
        """(pi_j, pi'_j) at step j."""
        self._has = (self.masks_h & np.uint32(1 << j)) != 0
        pi_prime_j = float(self.w_h[self._has].sum()) / float(self.w_h.sum())
        mj = np.uint32(self.tab.copy_bits[j])
        self._sup = (self.masks_g & mj) == mj
        pi_j = float(self.w_g[self._sup].sum()) / float(self.w_g.sum())
        return pi_j, pi_prime_j

    def commit(self, dec_h, dec_g):
        keep = self._has if dec_h else ~self._has
        self.masks_h, self.w_h = self.masks_h[keep], self.w_h[keep]
        if dec_g is not None:
            keep = self._sup if dec_g else ~self._sup
            self.masks_g, self.w_g = self.masks_g[keep], self.w_g[keep]
