"""Stepwise coupling of the random copy process with the auxiliary graph.

The run first couples the two clean-cycle collections (the pre-coupling),
then walks the fixed copy order deciding containment in both structures
with coupled coins, stopping at B1 (degree cutoff), B2 (avoidable
configuration), B3 (cycle mismatch) or a step failure. One driver runs that
walk in both modes; a law object supplies what differs between them: the
pre-coupling, the step probabilities (pi_j, pi'_j) and the completion of
the final structures. The exact law evaluates every conditional
probability by enumeration and so needs tiny instances; the bound law
substitutes the proven operational bounds for the conditionals and scales
further, at the price of approximate marginals.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dgraphs import DGraph
from .errors import InternalInconsistencyError, ResourceLimitError
from .exactengine import (ExactEngine, Placements, get_engine, placements,
                          weighted_index)
from .fgraphs import FGraph, classify, find_avoidable, inducing_witness
from .graphs import Graph
from .patterns import Pattern, ThresholdParams
from .sampling import STREAM_COUPLING, rng_for, sample_gstar, sample_hf

OUTCOMES = ("success", "B1", "B2", "B3", "step_failure")

_MAX_PRECOUPLE_PROPOSALS = 200_000


# -- relative-error report ---------------------------------------------------

def _q_report(tab: Placements, j: int, nprime: set[int], r_bits: int,
              h0: set[int], p: float) -> dict:
    """Exact evaluation of the union-bound error term for step j, as the
    step's q record: split into cycle/edge and bad/good contributions, and
    each bad contributor, one fully covered by the present edges, with a
    structural witness or a recorded contradiction.

    The copy half loops over N'; the cycle half comes from _cycle_half,
    which the trials of one (F, n, p) share. Only contributors of exponent
    0 need witnesses, and only they build H0 plus copy j as an F-graph.
    No C1 cycle contributes: the present edges hold H0's edges, and H0
    holds C1's copies."""
    f = tab.f
    mj = tab.copy_bits[j]
    ej_free = mj & ~r_bits
    bad_copies: list[int] = []
    n_copies = 0
    q_eg = 0.0
    for i in nprime:
        ei = tab.copy_bits[i]
        if not ei & ej_free:
            continue
        n_copies += 1
        expo = (ei & ~(mj | r_bits)).bit_count()
        if expo == 0:
            bad_copies.append(i)
        else:
            q_eg += p ** expo

    q_cg, n_rows, bad_cycles = _cycle_half(f, tab.n, j, r_bits, p)

    bad: list[dict] = []
    if bad_copies or bad_cycles:
        h0j = FGraph.from_fedges((tab.copies[i] for i in h0),
                                 vertices=range(tab.n))
        if tab.copies[j] not in h0j.fedges:
            h0j = h0j.with_fedge(tab.copies[j])
        for i in bad_copies:
            w = inducing_witness(h0j, f, tab.copies[i])
            kind = classify(w).kind
            bad.append({"index": i + 1,
                        "kind": "avoidable" if kind == "avoidable"
                        else "cycle_contradiction",
                        "fedges": _embeddings(w)})
        av = find_avoidable(h0j, 2 * f.s * f.s) if bad_cycles else None
        for i in bad_cycles:
            w, kind = (av, "avoidable") if av is not None else \
                (tab.cycle(i), "cycle_contradiction")
            bad.append({"index": -(i + 1), "kind": kind,
                        "fedges": _embeddings(w)})

    q_eb = float(len(bad_copies))
    q_cb = float(len(bad_cycles))
    return {"total": q_cb + q_cg + q_eb + q_eg, "cb": q_cb, "cg": q_cg,
            "eb": q_eb, "eg": q_eg, "n_contributors": n_copies + n_rows,
            "bad": bad}


# 4,096 holds every K3 copy up to n = 30, so the common states of one
# (F, n, p), swept in copy order, stay cached from trial to trial
@functools.lru_cache(maxsize=4096)
def _cycle_half(f: Pattern, n: int, j: int, r_bits: int,
                p: float) -> tuple[float, int, tuple[int, ...]]:
    """The cycle half of step j's error term: q_cg, the number of cycle
    contributors, and the bad (fully covered) cycle rows in cycle order.

    One pass over the shadow words of every cycle that meets copy j's free
    edges; none in C1 does, since the present edges hold H0's edges and H0
    holds C1's copies. It depends only on its arguments, and the key is
    the labelled template, never the table, so the cache keeps alive no
    table that placements has dropped."""
    tab = placements(f, n)
    mj = tab.copy_bits[j]
    rows = np.flatnonzero(tab.meets(mj & ~r_bits))
    expos = tab.edges_outside(rows, mj | r_bits) + tab.sparse[rows]
    zero = expos == 0
    good = expos[~zero]
    # p ** k as Python computes it, accumulated left to right in cycle
    # order, so the sum is the one a scalar loop gives
    powers = np.array([p ** k
                       for k in range(int(expos.max(initial=0)) + 1)])
    q_cg = float(np.cumsum(powers[good])[-1]) if len(good) else 0.0
    return q_cg, len(rows), tuple(rows[zero].tolist())


# -- transcript --------------------------------------------------------------

@dataclass
class CouplingTranscript:
    """One run's inputs, steps and final structures. The JSON header and
    trailer are views over these fields, built only when read."""

    f: Pattern
    n: int
    params: ThresholdParams
    seed: int
    mode: str
    steps: list
    h: FGraph
    g: DGraph
    outcome: str
    containment: Optional[bool]
    witness: Optional[dict]
    g_law: str

    @property
    def header(self) -> dict:
        return {"pattern_edges": sorted(map(list, self.f.graph.edges)),
                "n": self.n, "params": params_as_jsonable(self.params),
                "seed": self.seed, "mode": self.mode}

    @property
    def trailer(self) -> dict:
        return {"outcome": self.outcome, "containment": self.containment,
                "witness": self.witness, "h": _embeddings(self.h),
                "g": _serialize_g(self.g), "g_law": self.g_law}

    def to_jsonl(self) -> str:
        lines = [json.dumps({"kind": "header", **self.header})]
        lines.extend(json.dumps({"kind": "step", **s}) for s in self.steps)
        lines.append(json.dumps({"kind": "trailer", **self.trailer}))
        return "\n".join(lines) + "\n"


def params_as_jsonable(params: ThresholdParams) -> dict:
    """Plain-float view of the parameters; exact fractions become floats."""
    out = {}
    for k, v in dataclasses.asdict(params).items():
        out[k] = float(v) if not isinstance(v, (bool, int)) else v
    return out


def _embeddings(h: FGraph) -> list:
    return sorted(list(fe.embedding) for fe in h.fedges)


def _serialize_g(g: DGraph) -> dict:
    return {"edges": sorted(map(list, g.base.edges)),
            "dummies": sorted(sorted(list(fe.embedding) for fe in key)
                              for key in g.dummies)}


# -- pre-coupling ------------------------------------------------------------

@dataclass(frozen=True)
class PreCouple:
    c1: frozenset[int]
    c2: frozenset[int]
    b3: bool
    h_pre: Optional[FGraph]
    g_pre: Optional[DGraph]


def _precouple_exact(f: Pattern, n: int, params: ThresholdParams,
                     seed: int, rng: np.random.Generator,
                     eng: ExactEngine) -> PreCouple:
    """Maximal coupling of the two cycle collections by rejection.

    The proposal samples carry over: on a match the copy process sample is
    conditionally exact, on a mismatch both retained samples have exactly
    the conditional laws the failed coupling prescribes.
    """
    h = sample_hf(f, n, params.pi, seed)
    c2 = eng.h_cycle_ids(h)
    mu2 = eng.mu(c2, params.pi)
    nu2 = eng.nu(c2, params.p)
    if not mu2 > 0:
        raise InternalInconsistencyError("observed cycle set has zero mass")
    if rng.random() < min(1.0, nu2 / mu2):
        return PreCouple(c1=c2, c2=c2, b3=False, h_pre=h, g_pre=None)
    for _ in range(_MAX_PRECOUPLE_PROPOSALS):
        sub = int(rng.integers(2 ** 62))
        g = sample_gstar(f, n, params.p, sub)
        cset = eng.gstar_cycle_ids(g)
        nu_c = eng.nu(cset, params.p)
        mu_c = eng.mu(cset, params.pi)
        if not nu_c > 0:
            raise InternalInconsistencyError("proposal set has zero mass")
        if rng.random() < max(0.0, 1.0 - mu_c / nu_c):
            return PreCouple(c1=cset, c2=c2, b3=True, h_pre=h, g_pre=g)
    raise ResourceLimitError("pre-coupling rejection loop did not terminate")


def _precouple_shared(f: Pattern, params: ThresholdParams,
                      rng: np.random.Generator,
                      tab: Placements) -> PreCouple:
    """One shared uniform per cycle placement; the two inclusion thresholds
    are ordered, so a mismatch means the uniform fell between them.

    A clean d-cycle of length k has k * e(F) edges counting its dummy, so
    its inclusion probability is p to that power; the copy-process cycle
    needs its k copies, so pi to the k, which is never larger."""
    us = rng.random(tab.n_cycles)
    ks = range(int(tab.lengths.max(initial=0)) + 1)
    p_k = np.array([params.p ** (k * f.s) for k in ks])[tab.lengths]
    pi_k = np.array([params.pi ** k for k in ks])[tab.lengths]
    c1 = frozenset(np.flatnonzero(us < p_k).tolist())
    c2 = frozenset(np.flatnonzero(us < pi_k).tolist())
    return PreCouple(c1=c1, c2=c2, b3=(c1 != c2), h_pre=None, g_pre=None)


# -- the two laws ------------------------------------------------------------

class _Live:
    """A live vector over the engine's read-only masks and weights. A step
    sums the live masks with copy j in ascending order, as a compacted
    state would; the live total becomes that sum after True, is summed
    again after a False that drops masks, and is otherwise kept."""

    def __init__(self, masks: np.ndarray, weights: np.ndarray):
        self.masks, self.weights = masks, weights
        self.live = np.ones(len(masks), dtype=bool)
        self.total = float(weights.sum())

    def prob(self, holding: np.ndarray) -> float:
        if not self.total > 0:
            raise InternalInconsistencyError("exact state has no support")
        self.hit = holding[self.live[holding]]
        self.num = float(self.weights[self.hit].sum())
        return self.num / self.total

    def commit(self, dec: Optional[bool]) -> None:
        if dec:
            self.live[:] = False
            self.live[self.hit] = True
            self.total = self.num
        elif dec is False and len(self.hit):
            self.live[self.hit] = False
            self.total = float(self.weights[self.live].sum())

    def state(self) -> tuple[np.ndarray, np.ndarray]:
        return self.masks[self.live], self.weights[self.live]


class _ExactLaw:
    """Every conditional probability by enumeration over the engine's
    product spaces; the final structures follow the exact conditional laws.
    Each side's state is a _Live vector over the masks valid for C1 (copy
    subsets, edge masks), read at the positions memoised per (C1, j)."""

    g_law = "exact"

    def __init__(self, f: Pattern, n: int, params: ThresholdParams,
                 seed: int, rng: np.random.Generator):
        self.eng = eng = get_engine(f, n)
        self.tab = eng.table
        self.params, self.rng = params, rng
        self.pre = pre = _precouple_exact(f, n, params, seed, rng, eng)
        if pre.b3:
            return
        c1, pi, p = pre.c1, params.pi, params.p
        self.h = _Live(eng.valid_h(c1)[0], eng.h_weights(c1, pi))
        self.g = _Live(eng.valid_g_dense(c1), eng.g_dense_weights(c1, p))

    def b3_structures(self) -> tuple[FGraph, DGraph]:
        return self.pre.h_pre, self.pre.g_pre

    def probs(self, j: int, q: dict, h0: set[int],
              r_bits: int) -> tuple[float, float]:
        holding_h, holding_g = self.eng.holding(self.pre.c1, j)
        return self.g.prob(holding_g), self.h.prob(holding_h)

    def commit(self, j: int, dec_h: bool, dec_g: Optional[bool]) -> None:
        self.h.commit(dec_h)
        self.g.commit(dec_g)

    def finish(self, outcome: str, decided: list, h0: set[int],
               r_bits: int) -> tuple[FGraph, DGraph]:
        masks_h, w_h = self.h.state()
        if outcome == "success":
            if len(masks_h) != 1:
                raise InternalInconsistencyError(
                    f"{len(masks_h)} copy states after full decision sequence")
            final_mask = int(masks_h[0])
        else:
            final_mask = int(masks_h[weighted_index(w_h, self.rng)])
        h = FGraph.from_fedges((fe for i, fe in enumerate(self.tab.copies)
                                if final_mask >> i & 1),
                               vertices=range(self.tab.n))
        g = self.eng.sample_g(*self.g.state(), self.params.p, self.pre.c1,
                              self.rng)
        return h, g


class _BoundLaw:
    """The proven probability bounds in place of the exact conditionals.
    The final structures only approximate the conditional laws and are
    labeled as such in the transcript."""

    g_law = "approximate"

    def __init__(self, f: Pattern, n: int, params: ThresholdParams,
                 seed: int, rng: np.random.Generator):
        self.f, self.seed = f, seed
        self.tab = placements(f, n)
        self.params = params
        self.rng = rng
        self.pre = _precouple_shared(f, params, rng, self.tab)

    def b3_structures(self) -> tuple[FGraph, DGraph]:
        n, pi, p = self.tab.n, self.params.pi, self.params.p
        return (sample_hf(self.f, n, pi, self.seed),
                sample_gstar(self.f, n, p, self.seed))

    def _pi_prime(self, j: int, h0: set[int]) -> float:
        """Copy j is certain once in H0, impossible once it would close a
        cycle, and otherwise has its unconditional rate. No C1 cycle runs
        through a j outside H0: H0 holds C1's copies."""
        if j in h0:
            return 1.0
        if not h0:  # every cycle has two or more copies, so none can close
            return self.params.pi
        members = self.tab.copy_ids[self.tab.rows_with(j)]
        closed = self.tab.copy_flags(h0)[members] | (members == j)
        return 0.0 if closed.all(axis=1).any() else self.params.pi

    def probs(self, j: int, q: dict, h0: set[int],
              r_bits: int) -> tuple[float, float]:
        free = self.tab.copy_bits[j] & ~r_bits
        if j in h0 or free == 0:
            pi_j = 1.0
        else:
            pi_j = min(1.0, max(0.0, (1.0 - q["total"])
                                * self.params.p ** free.bit_count()))
        return pi_j, self._pi_prime(j, h0)

    def commit(self, j: int, dec_h: bool, dec_g: Optional[bool]) -> None:
        pass

    def finish(self, outcome: str, decided: list, h0: set[int],
               r_bits: int) -> tuple[FGraph, DGraph]:
        tab, rng, c1 = self.tab, self.rng, self.pre.c1
        # complete H with the surrogate inclusion rule
        c1_copyids = {ci for i in c1 for ci in tab.ids(i)}
        included = {i for i, d in enumerate(decided) if d} | c1_copyids
        for j, d in enumerate(decided):
            if d is not None or j in c1_copyids:
                continue
            if rng.random() < self._pi_prime(j, h0):
                included.add(j)
                h0.add(j)
        h = FGraph.from_fedges((tab.copies[i] for i in sorted(included)),
                               vertices=range(tab.n))

        # approximate G: present edges plus fresh coin flips, dummies by rule
        p = self.params.p
        edges = {e for idx, e in enumerate(tab.pairs)
                 if r_bits >> idx & 1 or rng.random() < p}
        # one draw per sparse cycle outside C1, in cycle order
        c1_rows = np.zeros(tab.n_cycles, dtype=bool)
        c1_rows[list(c1)] = True
        free = np.flatnonzero(tab.sparse & ~c1_rows)
        drawn = free[rng.random(len(free)) < p]
        kept = np.flatnonzero(tab.sparse & c1_rows)
        dummies = tab.dummy_keys(np.concatenate((kept, drawn)))
        g = DGraph(base=Graph.from_edges(edges, vertices=range(tab.n)),
                   dummies=frozenset(dummies))
        return h, g


_LAWS = {"exact": _ExactLaw, "bound": _BoundLaw}


def _law(f: Pattern, n: int, params: ThresholdParams, seed: int, mode: str):
    if mode not in _LAWS:
        raise ValueError(f"unknown mode {mode!r}")
    return _LAWS[mode](f, n, params, seed, rng_for(seed, STREAM_COUPLING))


def precouple_cycles(f: Pattern, n: int, params: ThresholdParams, seed: int,
                     mode: str = "exact") -> tuple[set, set, bool]:
    """Couple the clean-cycle collections of the two models.

    Returns (C1, C2, b3) as sets of cycle placements; b3 flags a mismatch.
    """
    law = _law(f, n, params, seed, mode)
    tab = law.tab
    return ({tab.cycle(i) for i in law.pre.c1},
            {tab.cycle(i) for i in law.pre.c2}, law.pre.b3)


# -- driver ------------------------------------------------------------------

def _overlapping_pair(cycles: list[FGraph]) -> Optional[tuple[int, int]]:
    for a in range(len(cycles)):
        for b in range(a + 1, len(cycles)):
            if cycles[a].vertices & cycles[b].vertices:
                return a, b
    return None


def run_coupling(f: Pattern, n: int, params: ThresholdParams, seed: int,
                 mode: str = "exact") -> CouplingTranscript:
    """One full coupling run; the transcript records every step and the
    final pair of structures. Outcome is success, B1 (degree cutoff),
    B2 (avoidable configuration), B3 (cycle mismatch) or step_failure."""
    law = _law(f, n, params, seed, mode)
    tab, pre, rng = law.tab, law.pre, law.rng
    steps: list[dict] = []
    outcome = "success"
    witness: Optional[dict] = None

    if pre.b3:
        h, g = law.b3_structures()
        outcome = "B3"
        witness = {"c1_only": len(pre.c1 - pre.c2),
                   "c2_only": len(pre.c2 - pre.c1)}
    else:
        c1 = pre.c1
        cyc_objs = [tab.cycle(i) for i in sorted(c1)]
        # present edges, H0 as copy ids, its F-degrees, and N' (copies
        # decided absent from both structures)
        r_bits = 0
        h0: set[int] = set()
        for i in c1:
            h0.update(tab.ids(i))
        deg = {u: 0 for u in range(n)}
        for ci in h0:
            r_bits |= tab.copy_bits[ci]
            for u in tab.copies[ci].vertices:
                deg[u] += 1
        nprime: set[int] = set()
        decided: list[Optional[bool]] = [None] * len(tab.copies)

        pair = _overlapping_pair(cyc_objs)
        if pair is not None:
            union = FGraph.from_fedges(set(cyc_objs[pair[0]].fedges)
                                       | set(cyc_objs[pair[1]].fedges))
            outcome = "B2"
            witness = {"kind": "overlapping_cycles",
                       "fedges": _embeddings(union)}
        for j, fe in enumerate(tab.copies):
            if outcome != "success":
                break
            fresh = j not in h0
            cand_max = max(deg[u] + (1 if fresh else 0) for u in fe.vertices)
            cand_max = max(cand_max, max(deg.values()))
            if cand_max >= params.Delta:
                outcome = "B1"
                top = max(deg, key=lambda u: deg[u]
                          + (1 if fresh and u in fe.vertices else 0))
                witness = {"kind": "degree", "vertex": top,
                           "degree": cand_max, "Delta": params.Delta}
                break

            q = _q_report(tab, j, nprime, r_bits, h0, params.p)
            pi_j, pi_prime_j = law.probs(j, q, h0, r_bits)
            step = {"j": j + 1, "pi_j": pi_j, "pi_prime_j": pi_prime_j,
                    "coin": None, "decision_H": None, "decision_G": None,
                    "q": q}
            av = next((w for w in q["bad"] if w["kind"] == "avoidable"),
                      None)
            if av is not None:
                outcome = "B2"
                witness = {"kind": "avoidable", "fedges": av["fedges"]}
                steps.append(step)
                break

            coin: Optional[bool] = None
            dec_g: Optional[bool] = None
            if pi_prime_j == 0.0 and pi_j == 0.0:
                dec_h = dec_g = False
            elif pi_prime_j <= pi_j:
                coin = bool(rng.random() < pi_prime_j / pi_j)
                if coin:
                    dec_h = dec_g = bool(rng.random() < pi_j)
                else:
                    dec_h = False
            else:
                dec_h = bool(rng.random() < pi_prime_j)
                if dec_h:
                    outcome = "step_failure"
                    witness = {"kind": "step", "j": j + 1,
                               "pi_prime_j": pi_prime_j, "pi_j": pi_j,
                               "q": q}
            law.commit(j, dec_h, dec_g)
            decided[j] = dec_h
            if dec_g is False:
                nprime.add(j)
            if dec_g:
                r_bits |= tab.copy_bits[j]
            if dec_h and fresh:
                h0.add(j)
                for u in fe.vertices:
                    deg[u] += 1
            step.update(coin=coin, decision_H=dec_h, decision_G=dec_g)
            steps.append(step)

        h, g = law.finish(outcome, decided, h0, r_bits)

    containment: Optional[bool] = None
    if outcome == "success":
        containment = all(fe.edge_set <= g.base.edges for fe in h.fedges)
    return CouplingTranscript(f=f, n=n, params=params, seed=seed, mode=mode,
                              steps=steps, h=h, g=g, outcome=outcome,
                              containment=containment, witness=witness,
                              g_law=law.g_law)
