"""Per-(F, n) placement table and the exact enumeration backend.

The placement table lists every potential copy of the template on [n] with
its edge bitmask, and every clean-cycle placement as one row of columnar
numpy arrays (padded copy ids, shadow words, sparse flags), taken straight
from the enumerator's arrays with no F-graph per cycle; both coupling
modes and the exact engine read it. The engine holds the full product
spaces behind both random objects: one axis per potential copy for the
copy process, one axis per potential usual edge for the auxiliary graph,
with dummy edges marginalized analytically. Everything downstream
(cycle-set probabilities, maximal pre-coupling, per-step conditional
probabilities, final conditional sampling) reduces to masked sums over
these arrays.
"""

from __future__ import annotations

import collections
import functools

import numpy as np

from .dgraphs import DGraph, cycle_placements, dummy_order, row_words
from .errors import InternalInconsistencyError, ResourceLimitError
from .fgraphs import FEdge, FGraph, all_potential_copies
from .graphs import Graph, _subset_sums
from .patterns import Pattern
from .sampling import dummy_slots, edge_order, slots_of

DEFAULT_OUTCOME_CAP = 2 ** 24
_WORD = 2 ** 64 - 1


class Placements:
    """Copies and clean-cycle placements of one template on [n].

    Copies follow the fixed order the coupling replays and cycles the
    order of cycle_placements; an index into either is the same object for
    every reader of the table.

    A cycle is stored only as row i of the columnar arrays:
    ``copy_ids[i, :lengths[i]]`` are its sorted copy ids, padded with -1;
    ``shadow_words[i]`` is its shadow edge mask, the OR of its copies'
    edge masks, split into 64-bit words (edge e in word e // 64, bit
    e % 64); ``sparse[i]`` is its sparsity flag, set exactly for the
    sparse pairs, and ``dummy_slot[i]`` its dummy edge's index into
    dummy_slots(f, n), -1 off the sparse rows. The table builds no dummy
    key of its own: it hands out the keys that sample_gstar draws.
    """

    def __init__(self, f: Pattern, n: int):
        self.f = f
        self.n = n
        self.pairs = edge_order(n)
        self.copies = all_potential_copies(f, n)
        self.copy_bits = tuple(self.edge_mask(fe.edge_set)
                               for fe in self.copies)
        # the rows index potential_copies_on(f, range(n)), i.e. self.copies
        self.copy_ids, self.lengths, self.sparse = cycle_placements(
            f, n, range(2, f.s + 1))
        self.n_cycles = len(self.lengths)
        sparse_rows = np.flatnonzero(self.sparse)
        order = dummy_order(f, self.copies,
                            self.copy_ids[sparse_rows, :2].reshape(-1, 2))
        self.dummy_slot = np.full(self.n_cycles, -1, dtype=np.int32)
        self.dummy_slot[sparse_rows[order]] = np.arange(len(order))
        # copy -> the rows that list it, ascending, in compressed sparse
        # rows: copy c's rows are copy_rows[row_start[c]:row_start[c + 1]];
        # the -1 padding sorts first and is dropped
        flat = self.copy_ids.ravel()
        order = np.argsort(flat, kind="stable")
        order //= max(self.copy_ids.shape[1], 1)
        counts = np.bincount(flat + 1, minlength=len(self.copies) + 1)
        self.copy_rows = order[counts[0]:].astype(np.int32)
        self.row_start = np.zeros(len(self.copies) + 1, dtype=np.int32)
        np.cumsum(counts[1:], out=self.row_start[1:])
        self.n_words = max(1, -(-len(self.pairs) // 64))
        # column-major: the scans below read one word of every cycle at once
        self.shadow_words = row_words(self.copy_bits, self.copy_ids,
                                      self.n_words)

    def ids(self, i: int) -> list[int]:
        """The sorted copy ids of cycle i."""
        return self.copy_ids[i, :self.lengths[i]].tolist()

    def rows_with(self, c: int) -> np.ndarray:
        """The rows of the cycles that list copy c, ascending."""
        return self.copy_rows[self.row_start[c]:self.row_start[c + 1]]

    def cycle(self, i: int) -> FGraph:
        """Cycle i as an F-graph, for the readers that need one."""
        return FGraph.from_fedges(self.copies[c] for c in self.ids(i))

    def dummy_keys(self, rows) -> list[frozenset[FEdge]]:
        """The dummy-edge keys of the listed sparse cycles, taken from
        dummy_slots(f, n)."""
        slots = dummy_slots(self.f, self.n)
        return [slots[s] for s in self.dummy_slot[rows].tolist()]

    def edge_mask(self, edges) -> int:
        return sum(1 << slots_of(u, v, self.n) for u, v in edges)

    def words(self, mask: int) -> list[np.uint64]:
        """An edge mask as the n_words 64-bit words of a shadow_words row."""
        return [np.uint64(mask >> (64 * w) & _WORD)
                for w in range(self.n_words)]

    def meets(self, mask: int) -> np.ndarray:
        """Per cycle, whether its shadow has an edge in the edge mask."""
        hit = np.zeros(self.n_cycles, dtype=bool)
        for col, w in zip(self.shadow_words.T, self.words(mask)):
            if w:
                hit |= (col & w) != 0
        return hit

    def edges_outside(self, rows: np.ndarray, mask: int) -> np.ndarray:
        """Per listed cycle, the number of its shadow edges not in mask."""
        out = np.zeros(len(rows), dtype=np.intp)
        for col, w in zip(self.shadow_words.T, self.words(~mask)):
            out += np.bitwise_count(col[rows] & w)
        return out

    def copy_flags(self, ids) -> np.ndarray:
        """Membership of each copy id in ids, with one extra True entry at
        the end that the -1 padding of copy_ids indexes."""
        out = np.zeros(len(self.copies) + 1, dtype=bool)
        out[list(ids)] = True
        out[-1] = True
        return out


@functools.lru_cache(maxsize=8)
def placements(f: Pattern, n: int) -> Placements:
    """The placement table of (f, n), keyed by the labelled template: copy
    embeddings depend on F's labelling, not only on its isomorphism type."""
    return Placements(f, n)


def _supersets(base: int, bits: int) -> np.ndarray:
    """The masks on `bits` axes that contain base, ascending: each free bit,
    lowest first, doubles the list with the bit set, and the new half lies
    above the old one since the old masks differ only in lower bits."""
    out = np.array([base], dtype=np.uint32)
    for b in range(bits):
        if not base >> b & 1:
            out = np.concatenate((out, out | np.uint32(1 << b)))
    return out


def weighted_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn with probability proportional to its weight.

    The total is numpy's pairwise sum and the cdf a running sum, so a draw
    near the top can land past the cdf's end; it then goes to the last
    index of positive weight, never to one the weights rule out."""
    total = float(weights.sum())
    if not total > 0:
        raise InternalInconsistencyError("empty conditional support")
    i = int(np.searchsorted(np.cumsum(weights), rng.random() * total,
                            side="right"))
    if i == len(weights):
        i = int(np.flatnonzero(weights)[-1])
    return i


def _memoise(limit: int = 512):
    """Memoise an engine method on its arguments, in a dict per method on
    the engine itself, so that an evicted engine takes its entries with
    it; the dict is emptied once it holds limit entries. Array results,
    alone or in a tuple, are made read-only, since every caller shares
    them."""
    def wrap(method):
        name = method.__name__

        @functools.wraps(method)
        def cached(self, *key):
            memo = self._memo[name]
            value = memo.get(key)
            if value is None:
                value = method(self, *key)
                for a in value if isinstance(value, tuple) else (value,):
                    if isinstance(a, np.ndarray):
                        a.flags.writeable = False
                if len(memo) >= limit:
                    memo.clear()
                memo[key] = value
            return value
        return cached
    return wrap


def _check_outcomes(axes: int) -> None:
    if 2 ** axes > DEFAULT_OUTCOME_CAP:
        raise ResourceLimitError(
            f"exact enumeration needs 2^{axes} outcomes, "
            f"cap is {DEFAULT_OUTCOME_CAP}")


class ExactEngine:
    """Shared per-(pattern, n) arrays; probabilities enter per call."""

    def __init__(self, f: Pattern, n: int):
        self.E = n * (n - 1) // 2
        _check_outcomes(self.E)  # before building the table for a large n
        self.table = tab = placements(f, n)
        self.M = len(tab.copies)
        _check_outcomes(self.M)
        # per cycle, its copy set and its shadow as masks over the copy and
        # edge axes; E, M <= 24, so one 32-bit word holds each
        self._copy_sets = row_words([1 << c for c in range(self.M)],
                                    tab.copy_ids, 1)[:, 0].astype(np.uint32)
        self._shadows = tab.shadow_words[:, 0].astype(np.uint32)

        # per mask, how many cycles it contains: on the copy axis the
        # cycles, on the edge axis the dense and the sparse shadows apart
        ones = np.ones(tab.n_cycles, dtype=np.min_scalar_type(tab.n_cycles))
        self.h_count = _subset_sums(self._copy_sets, ones, self.M)
        dense, sparse = ~tab.sparse, tab.sparse
        self.g_dense_count = _subset_sums(self._shadows[dense], ones[dense],
                                          self.E)
        self.g_s_all = _subset_sums(self._shadows[sparse], ones[sparse],
                                    self.E)

        # method name -> arguments -> result, filled by _memoise
        self._memo: dict[str, dict] = collections.defaultdict(dict)

    # -- translation ---------------------------------------------------------

    def h_cycle_ids(self, h: FGraph) -> frozenset[int]:
        tab = self.table
        # M <= 24, so a scan of the copy list is as quick as an index
        present = tab.copy_flags(tab.copies.index(fe) for fe in h.fedges)
        return frozenset(np.flatnonzero(
            present[tab.copy_ids].all(axis=1)).tolist())

    def gstar_cycle_ids(self, g: DGraph) -> frozenset[int]:
        tab = self.table
        complete = np.flatnonzero(~tab.meets(~tab.edge_mask(g.base.edges)))
        sparse = complete[tab.sparse[complete]]
        # a sparse cycle needs its dummy edge as well as its shadow
        missing = {i for i, key in zip(sparse.tolist(), tab.dummy_keys(sparse))
                   if key not in g.dummies}
        return frozenset(complete.tolist()) - missing

    # -- copy-process side ---------------------------------------------------

    @_memoise()
    def valid_h(self, c1: frozenset[int]) -> tuple[np.ndarray, np.ndarray]:
        """(masks, popcounts) of copy subsets whose cycle set is exactly c1,
        masks ascending: among the subsets holding every copy of c1, which
        contain all of c1's cycles, those that contain no other cycle."""
        rows = list(c1)
        cand = _supersets(int(np.bitwise_or.reduce(self._copy_sets[rows])),
                          self.M)
        masks = cand[self.h_count[cand] == len(rows)]
        return masks, np.bitwise_count(masks)

    @_memoise()
    def mu(self, c1: frozenset[int], pi: float) -> float:
        """Probability that the copy process has cycle set exactly c1."""
        if pi >= 1.0 or pi <= 0.0:
            full = frozenset(range(self.table.n_cycles))
            return float((c1 == full) if pi >= 1.0 else (not c1))
        return float(np.sum(self.h_weights(c1, pi))) * (1.0 - pi) ** self.M

    @_memoise()
    def h_weights(self, c1: frozenset[int], pi: float) -> np.ndarray:
        """Per valid_h(c1) mask, its probability over (1 - pi) ** M."""
        return (pi / (1.0 - pi)) ** self.valid_h(c1)[1].astype(np.float64)

    # -- auxiliary-graph side ------------------------------------------------

    @_memoise(limit=8)
    def g_weights(self, p: float) -> np.ndarray:
        """Per-edge-mask weight including the free-dummy marginal factor;
        2^E floats a p, so only the last few p are kept."""
        if p <= 0.0 or p >= 1.0:
            w = np.zeros(2 ** self.E)
            w[-1 if p >= 1.0 else 0] = 1.0
            return w
        lp, lq = np.log(p), np.log1p(-p)
        pc = np.bitwise_count(
            np.arange(2 ** self.E, dtype=np.uint32)).astype(np.float64)
        return np.exp(pc * lp + (self.E - pc) * lq
                      + self.g_s_all.astype(np.float64) * lq)

    @_memoise()
    def valid_g_dense(self, c1: frozenset[int]) -> np.ndarray:
        """Edge masks, ascending, whose complete dense cycles are exactly
        c1's dense part and whose complete sparse shadows cover c1's sparse
        part: among the masks holding every shadow of c1, those that
        complete no other dense cycle."""
        rows = list(c1)
        cand = _supersets(int(np.bitwise_or.reduce(self._shadows[rows])),
                          self.E)
        n_dense = len(rows) - int(self.table.sparse[rows].sum())
        return cand[self.g_dense_count[cand] == n_dense]

    @_memoise()
    def nu(self, c1: frozenset[int], p: float) -> float:
        """Probability that the auxiliary graph has d-cycle set exactly c1."""
        if p <= 0.0 or p >= 1.0:
            full = frozenset(range(self.table.n_cycles))
            return float((c1 == full) if p >= 1.0 else (not c1))
        n_sparse = sum(1 for i in c1 if self.table.sparse[i])
        # sparse cycles off c1 with complete shadow: dummy forced absent;
        # the g_weights factor (1-p)^{s_all} overcounts the c1 ones
        w = self.g_dense_weights(c1, p)
        return float(np.sum(w)) * (p / (1.0 - p)) ** n_sparse

    @_memoise()
    def g_dense_weights(self, c1: frozenset[int], p: float) -> np.ndarray:
        """The g_weights(p) of the valid_g_dense(c1) masks, in their order."""
        return self.g_weights(p)[self.valid_g_dense(c1)]

    @_memoise()
    def holding(self, c1: frozenset[int], j: int) -> tuple[np.ndarray, ...]:
        """The ascending positions of the valid_h(c1) masks with copy j's
        bit and of the valid_g_dense(c1) masks with all its edges."""
        mj = np.uint32(self.table.copy_bits[j])
        return (np.flatnonzero(self.valid_h(c1)[0] & np.uint32(1 << j)),
                np.flatnonzero((self.valid_g_dense(c1) & mj) == mj))

    def sample_g(self, masks: np.ndarray, weights: np.ndarray, p: float,
                 c1: frozenset[int], rng: np.random.Generator) -> DGraph:
        """Draw the auxiliary graph from its conditional law: an edge mask
        among the valid masks, proportional to its weight, then dummies."""
        mask = int(masks[weighted_index(weights, rng)])
        tab = self.table
        edges = [tab.pairs[i] for i in range(self.E) if mask >> i & 1]
        base = Graph.from_edges(edges, vertices=range(tab.n))
        rows = np.flatnonzero(tab.sparse).tolist()
        dummies = set()
        for i, key in zip(rows, tab.dummy_keys(rows)):
            sm = int(self._shadows[i])
            # off c1, a complete shadow forces the dummy absent
            if i in c1 or (mask & sm != sm and rng.random() < p):
                dummies.add(key)
        return DGraph(base=base, dummies=frozenset(dummies))


@functools.lru_cache(maxsize=4)
def get_engine(f: Pattern, n: int) -> ExactEngine:
    return ExactEngine(f, n)
