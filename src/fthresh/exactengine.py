"""Per-(F, n) placement table and the exact enumeration backend.

The placement table lists every potential copy and every clean-cycle
placement of the template on [n] as copy and edge bitmasks, and holds the
cycles once more as columnar numpy arrays (shadow words, padded copy ids,
sparse flags) for the passes that scan every cycle; both coupling modes and
the exact engine read it. The engine holds the full product spaces
behind both random objects: one axis per potential copy for the copy
process, one axis per potential usual edge for the auxiliary graph, with
dummy edges marginalized analytically. Everything downstream (cycle-set
probabilities, maximal pre-coupling, per-step conditional probabilities,
final conditional sampling) reduces to masked sums over these arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dgraphs import DGraph, cycle_placements
from .errors import InternalInconsistencyError, ResourceLimitError
from .fgraphs import (FEdge, FGraph, all_potential_copies, is_sparse_pair,
                      shadow)
from .graphs import Graph
from .patterns import Pattern
from .sampling import edge_order

DEFAULT_OUTCOME_CAP = 2 ** 24
_WORD = 2 ** 64 - 1


@dataclass(frozen=True, slots=True)
class CycleRec:
    cycle: FGraph
    copy_ids: tuple[int, ...]
    copy_bits: int
    shadow_bits: int
    sparse: bool


class Placements:
    """Copies and clean-cycle placements of one template on [n].

    Copies follow the fixed order the coupling replays and cycles the
    order of cycle_placements; an index into either is the same object for
    every reader of the table.

    Row i of the columnar views is cycle i: ``shadow_words[i]`` is its
    shadow edge mask split into 64-bit words (edge e in word e // 64, bit
    e % 64), ``copy_ids[i, :lengths[i]]`` its sorted copy ids, padded with
    -1, and ``sparse[i]`` its sparsity flag.
    """

    def __init__(self, f: Pattern, n: int):
        self.f = f
        self.n = n
        self.pairs = edge_order(n)
        self.edge_index = {e: i for i, e in enumerate(self.pairs)}
        self.copies = tuple(all_potential_copies(f, n))
        # keyed by copy identity as a plain tuple, which hashes faster than
        # the FEdge itself
        self.copy_index = {(fe.vertices, fe.edge_set): i
                           for i, fe in enumerate(self.copies)}
        self.copy_bits = tuple(self.edge_mask(fe.edge_set)
                               for fe in self.copies)
        cycles = []
        # every placement is a clean cycle, so it is sparse exactly when it
        # is a sparse pair
        for cyc in cycle_placements(f, range(n), f.s):
            ids = tuple(sorted(self.copy_id(fe) for fe in cyc.fedges))
            cycles.append(CycleRec(
                cycle=cyc, copy_ids=ids, copy_bits=sum(1 << i for i in ids),
                shadow_bits=self.edge_mask(shadow(cyc).edges),
                sparse=len(ids) == 2 and is_sparse_pair(*cyc.fedges)))
        self.cycles = tuple(cycles)
        self.n_words = max(1, -(-len(self.pairs) // 64))
        # column-major: the scans below read one word of every cycle at once
        self.shadow_words = np.array(
            [[rec.shadow_bits >> (64 * w) & _WORD for rec in cycles]
             for w in range(self.n_words)], dtype=np.uint64).T
        self.lengths = np.array([len(rec.copy_ids) for rec in cycles],
                                dtype=np.int32)
        width = int(self.lengths.max(initial=0))
        self.copy_ids = np.array(
            [rec.copy_ids + (-1,) * (width - len(rec.copy_ids))
             for rec in cycles], dtype=np.int32).reshape(len(cycles), width)
        self.sparse = np.array([rec.sparse for rec in cycles], dtype=bool)

    def copy_id(self, fe: FEdge) -> int:
        return self.copy_index[(fe.vertices, fe.edge_set)]

    def edge_mask(self, edges) -> int:
        return sum(1 << self.edge_index[e] for e in edges)

    def words(self, mask: int) -> list[np.uint64]:
        """An edge mask as the n_words 64-bit words of a shadow_words row."""
        return [np.uint64(mask >> (64 * w) & _WORD)
                for w in range(self.n_words)]

    def meets(self, mask: int) -> np.ndarray:
        """Per cycle, whether its shadow has an edge in the edge mask."""
        hit = np.zeros(len(self.cycles), dtype=bool)
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


def _check_outcomes(axes: int) -> None:
    if 2 ** axes > DEFAULT_OUTCOME_CAP:
        raise ResourceLimitError(
            f"exact enumeration needs 2^{axes} outcomes, "
            f"cap is {DEFAULT_OUTCOME_CAP}")


class ExactEngine:
    """Shared per-(pattern, n) arrays; probabilities enter per call."""

    def __init__(self, f: Pattern, n: int):
        self.f = f
        self.n = n
        self.E = n * (n - 1) // 2
        _check_outcomes(self.E)  # before building the table for a large n
        tab = placements(f, n)
        self.table = tab
        self.copies = tab.copies
        self.M = len(tab.copies)
        _check_outcomes(self.M)
        self.pairs = tab.pairs
        self.cycles = tab.cycles
        self.sparse_ids = [i for i, rec in enumerate(self.cycles)
                           if rec.sparse]

        # copy-subset space
        hm = np.arange(2 ** self.M, dtype=np.uint32)
        self.h_masks = hm
        self.h_pc = np.bitwise_count(hm).astype(np.uint8)
        rng = np.random.Generator(np.random.Philox(key=(0xC0FFEE, 0)))
        # keys small enough that any subset sum stays below 2**64
        self._cycle_keys = rng.integers(1, 2 ** 48, size=len(self.cycles),
                                        dtype=np.uint64)
        hh = np.zeros(hm.shape, dtype=np.uint64)
        for i, rec in enumerate(self.cycles):
            cm = np.uint32(rec.copy_bits)
            hh += self._cycle_keys[i] * ((hm & cm) == cm)
        self.h_hash = hh

        # usual-edge space
        gm = np.arange(2 ** self.E, dtype=np.uint32)
        self.g_masks = gm
        self.g_pc = np.bitwise_count(gm).astype(np.uint8)
        dense_count = np.zeros(gm.shape, dtype=np.int32)
        s_all = np.zeros(gm.shape, dtype=np.int32)
        gh = np.zeros(gm.shape, dtype=np.uint64)
        for i, rec in enumerate(self.cycles):
            sm = np.uint32(rec.shadow_bits)
            comp = (gm & sm) == sm
            if rec.sparse:
                s_all += comp
            else:
                dense_count += comp
                gh += self._cycle_keys[i] * comp
        self.g_dense_count = dense_count
        self.g_s_all = s_all
        self.g_dense_hash = gh

        self._valid_h_cache: dict[frozenset[int], tuple] = {}
        self._mu_cache: dict[tuple, float] = {}
        self._nu_cache: dict[tuple, float] = {}

    # -- translation ---------------------------------------------------------

    def h_cycle_ids(self, h: FGraph) -> frozenset[int]:
        tab = self.table
        present = tab.copy_flags(tab.copy_id(fe) for fe in h.fedges)
        return frozenset(np.flatnonzero(
            present[tab.copy_ids].all(axis=1)).tolist())

    def gstar_cycle_ids(self, g: DGraph) -> frozenset[int]:
        tab = self.table
        complete = np.flatnonzero(
            ~tab.meets(~tab.edge_mask(g.base.edges))).tolist()
        dummy_cycles = {frozenset(key) for key in g.dummies}
        return frozenset(i for i in complete if not tab.sparse[i]
                         or self.cycles[i].cycle.fedges in dummy_cycles)

    # -- copy-process side ---------------------------------------------------

    def valid_h(self, c1: frozenset[int]) -> tuple[np.ndarray, np.ndarray]:
        """(masks, popcounts) of copy subsets whose cycle set is exactly c1."""
        if c1 in self._valid_h_cache:
            return self._valid_h_cache[c1]
        target = np.uint64(0)
        for i in c1:
            target += self._cycle_keys[i]
        cand = np.flatnonzero(self.h_hash == target).astype(np.uint32)
        keep = np.ones(cand.shape, dtype=bool)
        for i, rec in enumerate(self.cycles):
            cm = np.uint32(rec.copy_bits)
            keep &= ((cand & cm) == cm) == (i in c1)
        masks = cand[keep]
        out = (masks, self.h_pc[masks])
        if len(self._valid_h_cache) > 512:
            self._valid_h_cache.clear()
        self._valid_h_cache[c1] = out
        return out

    def mu(self, c1: frozenset[int], pi: float) -> float:
        """Probability that the copy process has cycle set exactly c1."""
        key = (c1, pi)
        if key not in self._mu_cache:
            if pi >= 1.0 or pi <= 0.0:
                full = frozenset(range(len(self.cycles)))
                self._mu_cache[key] = float(
                    (c1 == full) if pi >= 1.0 else (not c1))
            else:
                _masks, pc = self.valid_h(c1)
                x = pi / (1.0 - pi)
                w = float(np.sum(x ** pc.astype(np.float64)))
                self._mu_cache[key] = w * (1.0 - pi) ** self.M
        return self._mu_cache[key]

    # -- auxiliary-graph side ------------------------------------------------

    def g_weights(self, p: float) -> np.ndarray:
        """Per-edge-mask weight including the free-dummy marginal factor."""
        if p <= 0.0 or p >= 1.0:
            w = np.zeros(2 ** self.E)
            w[-1 if p >= 1.0 else 0] = 1.0
            return w
        lp, lq = np.log(p), np.log1p(-p)
        pc = self.g_pc.astype(np.float64)
        return np.exp(pc * lp + (self.E - pc) * lq
                      + self.g_s_all.astype(np.float64) * lq)

    def valid_g_dense(self, c1: frozenset[int]) -> np.ndarray:
        """Edge masks whose complete dense cycles are exactly c1's dense part
        and whose complete sparse shadows cover c1's sparse part."""
        dense = [i for i in c1 if not self.cycles[i].sparse]
        target = np.uint64(0)
        for i in dense:
            target += self._cycle_keys[i]
        ok = self.g_dense_hash == target
        for i in dense:
            sm = np.uint32(self.cycles[i].shadow_bits)
            ok &= (self.g_masks & sm) == sm
        ok &= self.g_dense_count == len(dense)
        for i in c1:
            if self.cycles[i].sparse:
                sm = np.uint32(self.cycles[i].shadow_bits)
                ok &= (self.g_masks & sm) == sm
        return ok

    def nu(self, c1: frozenset[int], p: float) -> float:
        """Probability that the auxiliary graph has d-cycle set exactly c1."""
        key = (c1, p)
        if key in self._nu_cache:
            return self._nu_cache[key]
        if p <= 0.0 or p >= 1.0:
            full = frozenset(range(len(self.cycles)))
            val = float((c1 == full) if p >= 1.0 else (not c1))
        else:
            n_sparse = sum(1 for i in c1 if self.cycles[i].sparse)
            ok = self.valid_g_dense(c1)
            # sparse cycles off c1 with complete shadow: dummy forced absent;
            # the g_weights factor (1-p)^{s_all} overcounts the c1 ones
            w = self.g_weights(p)[ok]
            val = float(np.sum(w)) * (p / (1.0 - p)) ** n_sparse
        self._nu_cache[key] = val
        return val

    def sample_g(self, valid: np.ndarray, p: float, c1: frozenset[int],
                 rng: np.random.Generator) -> DGraph:
        """Draw the auxiliary graph from its conditional law: edge mask
        proportional to weight on the valid set, then dummies."""
        w = self.g_weights(p) * valid
        total = w.sum()
        if not total > 0:
            raise InternalInconsistencyError("empty conditional support")
        cdf = np.cumsum(w)
        mask = int(np.searchsorted(cdf, rng.random() * total, side="right"))
        mask = min(mask, 2 ** self.E - 1)
        edges = [self.pairs[i] for i in range(self.E) if mask >> i & 1]
        base = Graph.from_edges(edges, vertices=range(self.n))
        dummies = set()
        for i in self.sparse_ids:
            rec = self.cycles[i]
            if i in c1:
                dummies.add(frozenset(rec.cycle.fedges))
            elif mask & rec.shadow_bits == rec.shadow_bits:
                pass  # complete shadow off c1: dummy must be absent
            elif rng.random() < p:
                dummies.add(frozenset(rec.cycle.fedges))
        return DGraph(base=base, dummies=frozenset(dummies))


@functools.lru_cache(maxsize=4)
def get_engine(f: Pattern, n: int) -> ExactEngine:
    return ExactEngine(f, n)
