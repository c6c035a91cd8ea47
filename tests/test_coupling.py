"""Coupling runs: transcripts, outcomes, witnesses, marginals."""

import collections
import gc
import hashlib
import json
import math
import weakref

import numpy as np
import pytest
from engine_oracles import CompactingState

from fthresh import coupling
from fthresh.coupling import (OUTCOMES, _cycle_half, _law, _q_report,
                              precouple_cycles, run_coupling)
from fthresh.exactengine import get_engine, placements
from fthresh.exponents import select_constants
from fthresh.fgraphs import FGraph, classify, shadow
from fthresh.graphs import Graph
from fthresh.patterns import analyze_pattern, derive_params, pattern_preset
from fthresh.sampling import dummy_slots

K3 = pattern_preset("k3")


def small_params(n=6, pi=0.02):
    sc = select_constants(K3)
    return derive_params(K3, n, float(sc.delta), float(sc.eps), pi=pi)


class TestTranscripts:
    def test_deterministic(self):
        params = small_params()
        a = run_coupling(K3, 6, params, 3)
        b = run_coupling(K3, 6, params, 3)
        assert a.to_jsonl() == b.to_jsonl()

    def test_jsonl_structure(self):
        params = small_params()
        for seed in range(5):
            t = run_coupling(K3, 6, params, seed)
            lines = t.to_jsonl().splitlines()
            recs = [json.loads(ln) for ln in lines]
            assert recs[0]["kind"] == "header"
            assert recs[-1]["kind"] == "trailer"
            assert all(r["kind"] == "step" for r in recs[1:-1])
            assert recs[-1]["outcome"] in OUTCOMES

    def test_failures_carry_witnesses(self):
        params = small_params()
        seen = set()
        for seed in range(300):
            t = run_coupling(K3, 6, params, seed)
            seen.add(t.outcome)
            assert t.outcome in OUTCOMES
            if t.outcome == "success":
                assert t.containment is True
                assert t.witness is None
            else:
                assert t.witness is not None
        assert "success" in seen
        assert seen - {"success"}

    def test_q_decomposition_consistent(self):
        """Every step's recorded Q splits exactly into its four parts."""
        params = small_params()
        checked = 0
        for seed in range(40):
            t = run_coupling(K3, 6, params, seed)
            for step in t.steps:
                q = step["q"]
                assert q["total"] == pytest.approx(
                    q["cb"] + q["cg"] + q["eb"] + q["eg"])
                assert min(q["cb"], q["cg"], q["eb"], q["eg"]) >= 0.0
                checked += 1
        assert checked > 0


class TestPrecouple:
    def test_shared_uniform_ordering(self):
        """With one shared uniform per placement, the d-cycle set contains
        the copy-process cycle set whenever p^{ks} >= pi^k."""
        params = small_params(n=8)
        assert params.p ** K3.s >= params.pi
        for seed in range(30):
            c1, c2, b3 = precouple_cycles(K3, 8, params, seed, mode="bound")
            assert c2 <= c1
            assert b3 == (c1 != c2)

    def test_exact_match_means_equal(self):
        params = small_params()
        for seed in range(30):
            c1, c2, b3 = precouple_cycles(K3, 6, params, seed, mode="exact")
            if not b3:
                assert c1 == c2

    def test_unknown_mode(self):
        params = small_params()
        with pytest.raises(ValueError):
            precouple_cycles(K3, 6, params, 0, mode="fast")


class TestMarginals:
    def test_h_copy_marginals(self):
        """Per-copy inclusion frequency of the produced copy process must
        match pi within 4 sigma, pooling over outcomes."""
        params = small_params()
        reps = 1200
        counts: dict = {}
        for seed in range(reps):
            t = run_coupling(K3, 6, params, seed)
            for fe in t.h.fedges:
                counts[fe] = counts.get(fe, 0) + 1
        pi = params.pi
        sd = math.sqrt(pi * (1 - pi) / reps)
        worst = max(abs(c / reps - pi) for c in counts.values())
        assert worst < 4 * sd

    def test_g_edge_marginals(self):
        params = small_params()
        reps = 1200
        m = 15
        counts = [0] * m
        from fthresh.sampling import edge_order
        order = edge_order(6)
        for seed in range(reps):
            t = run_coupling(K3, 6, params, seed)
            for i, e in enumerate(order):
                if e in t.g.base.edges:
                    counts[i] += 1
        p = params.p
        sd = math.sqrt(p * (1 - p) / reps)
        worst = max(abs(c / reps - p) for c in counts)
        assert worst < 4 * sd


class TestBoundMode:
    def test_runs_beyond_exact_limit(self):
        params = derive_params(K3, 10, 1 / 12, 1 / 72, pi=0.001)
        seen = set()
        for seed in range(40):
            t = run_coupling(K3, 10, params, seed, mode="bound")
            assert t.outcome in OUTCOMES
            assert t.trailer["g_law"] == "approximate"
            seen.add(t.outcome)
            if t.outcome == "success":
                assert t.containment is True
        assert "success" in seen

    def test_deterministic(self):
        params = derive_params(K3, 10, 1 / 12, 1 / 72, pi=0.01)
        a = run_coupling(K3, 10, params, 7, mode="bound")
        b = run_coupling(K3, 10, params, 7, mode="bound")
        assert a.to_jsonl() == b.to_jsonl()

    def test_step_b2_on_an_avoidable_witness(self):
        """A step whose error term has an avoidable contributor ends the
        run in B2 with that witness; on the way, two copies already in H0
        are certain on both sides. The seed was found by a search."""
        t = run_coupling(K3, 8, small_params(8, 0.01), 34, mode="bound")
        fedges = [[0, 1, 4], [0, 2, 4], [1, 2, 3]]
        assert t.outcome == "B2"
        assert len(t.steps) == 22
        assert t.witness == {"kind": "avoidable", "fedges": fedges}
        bad = t.steps[-1]["q"]["bad"]
        assert [w["kind"] for w in bad].count("avoidable") == 1
        copies = placements(K3, 8).copies
        w = FGraph.from_fedges(fe for fe in copies
                               if list(fe.embedding) in fedges)
        assert w.e() == 3
        assert classify(w).kind == "avoidable"
        certain = [s for s in t.steps if s["pi_j"] == 1.0]
        assert [s["j"] for s in certain] == [3, 8]
        assert all(s["pi_prime_j"] == 1.0 and s["decision_H"] is True
                   for s in certain)

    @pytest.mark.parametrize("name,n", [("k3", 6), ("k3", 10), ("c4", 7)])
    def test_dummies_are_the_slots(self, name, n):
        """The dummies of G, from the bound completion or from sample_gstar
        after B3, are the objects of dummy_slots(f, n)."""
        f = pattern_preset(name)
        sc = select_constants(f)
        params = derive_params(f, n, float(sc.delta), float(sc.eps),
                               pi=0.001)
        slots = dummy_slots(f, n)
        ids = set(map(id, slots))
        completed = 0
        for seed in range(5):
            t = run_coupling(f, n, params, seed, mode="bound")
            assert all(id(key) in ids for key in t.g.dummies)
            if t.outcome != "B3":
                completed += len(t.g.dummies)
        assert completed > 0


def transcript_digest(f, n, params, seeds, mode):
    """sha256 of the concatenated JSONL transcripts, and the outcome mix."""
    h = hashlib.sha256()
    mix = collections.Counter()
    for seed in seeds:
        t = run_coupling(f, n, params, seed, mode=mode)
        h.update(t.to_jsonl().encode())
        mix[t.outcome] += 1
    return h.hexdigest(), dict(mix)


def precouple_digest(f, n, params, seeds, mode):
    """sha256 of the sorted (C1, C2, b3) results, cycles as sorted
    embeddings."""
    def cycles(cs):
        return sorted(sorted(list(fe.embedding) for fe in c.fedges)
                      for c in cs)
    h = hashlib.sha256()
    for seed in seeds:
        c1, c2, b3 = precouple_cycles(f, n, params, seed, mode=mode)
        h.update(json.dumps([cycles(c1), cycles(c2), b3]).encode())
    return h.hexdigest()


# (mode, n, pi, seeds) -> (transcript sha256, outcome mix); pi None is the
# default of derive_params
GOLDEN_TRANSCRIPTS = {
    ("exact", 6, 0.01, 200): (
        "c505557513677094a5545dea547ac71c8949b97535e61cabf84c22e7b44262e2",
        {"success": 165, "B3": 34, "B1": 1}),
    # criterion 7's parameters (pi from select_constants): the rejection
    # path of the exact pre-coupling, nearly every run a B3
    ("exact", 6, None, 300): (
        "7a42c623fc07597e789dfb6075788c9a107c679d75383f91ef1f9777132368d0",
        {"B3": 299, "B2": 1}),
    ("exact", 6, 0.02, 200): (
        "f3732fd5b6a41c426a0b6dc923d2cf6539819162eba8d0173f96d196635b163d",
        {"success": 99, "B3": 90, "B1": 9, "B2": 2}),
    ("bound", 7, 0.005, 100): (
        "50b97dabfafcc0eea63dda93d67b3cee6670b43963cb4930113a3d76b8172761",
        {"success": 61, "B3": 29, "step_failure": 10}),
    ("bound", 6, 0.02, 200): (
        "bb8a6c5d24342cced5037ff83a3da4f924b7b0c617c3f47f94a54b27d6092510",
        {"success": 12, "B3": 181, "step_failure": 6, "B1": 1}),
    # 66 potential edges: every cycle shadow spans two 64-bit words
    ("bound", 12, 0.001, 3): (
        "b1c17e25cdae719ec8b69b4bf382af4f94e31fc13f629e2f8ccf4563b4534d08",
        {"success": 2, "B3": 1}),
}

# (mode, n) -> sha256 of precouple_cycles over seeds 0..29
GOLDEN_PRECOUPLE = {
    ("exact", 6):
        "d7693100c2d9d5b55aef62b231207a5465a140c368052ac7f0a8ba6b28409355",
    ("bound", 8):
        "3c27e1de60968e9a7e9526430f5f54ccea581d8427ffcab9e9afcfd37374f665",
}


class TestGolden:
    """Fixed-seed transcripts are byte-identical to the recorded ones.

    Between them the sets reach every outcome either mode produces: exact
    success, B1, B2 and B3; bound success, B1, B3 and step failure. The
    bound set at n = 12 is the only one whose edge masks need more than one
    64-bit word.
    """

    @pytest.mark.parametrize("key", list(GOLDEN_TRANSCRIPTS))
    def test_transcripts(self, key):
        mode, n, pi, seeds = key
        got = transcript_digest(K3, n, small_params(n, pi), range(seeds),
                                mode)
        assert got == GOLDEN_TRANSCRIPTS[key]

    @pytest.mark.parametrize("key", list(GOLDEN_PRECOUPLE))
    def test_precouple(self, key):
        mode, n = key
        assert precouple_digest(K3, n, small_params(n), range(30),
                                mode) == GOLDEN_PRECOUPLE[key]


def scalar_cycles(tab):
    """Per cycle, (copy ids, shadow edge mask, sparse flag), the shadow
    read off the cycle's F-graph rather than the table's own bits."""
    return [(tab.ids(i), tab.edge_mask(shadow(tab.cycle(i)).edges),
             bool(tab.sparse[i])) for i in range(tab.n_cycles)]


def scalar_q(tab, cycles, j, c1, nprime, r_bits, p):
    """The error term as a loop over Python ints: (q_cb, q_cg, q_eb, q_eg,
    contributor count, bad contributor indices in report order)."""
    mj = tab.copy_bits[j]
    free = mj & ~r_bits
    q_cb = q_cg = q_eb = q_eg = 0.0
    count = 0
    bad_copies, bad_cycles = [], []
    for i in nprime:
        if tab.copy_bits[i] & free:
            count += 1
            expo = (tab.copy_bits[i] & ~(mj | r_bits)).bit_count()
            if expo == 0:
                q_eb += 1.0
                bad_copies.append(i + 1)
            else:
                q_eg += p ** expo
    for i, (_ids, shadow_bits, sparse) in enumerate(cycles):
        if i in c1 or not shadow_bits & free:
            continue
        count += 1
        expo = (shadow_bits & ~(mj | r_bits)).bit_count() + sparse
        if expo == 0:
            q_cb += 1.0
            bad_cycles.append(-(i + 1))
        else:
            q_cg += p ** expo
    return q_cb, q_cg, q_eb, q_eg, count, bad_copies + bad_cycles


def scalar_pi_prime(cycles, c1, j, h0, pi):
    if j in h0:
        return 1.0
    for i, (ids, _shadow_bits, _sparse) in enumerate(cycles):
        if j in ids and i not in c1 and all(
                ci in h0 for ci in ids if ci != j):
            return 0.0
    return pi


def random_state(tab, cycles, rng):
    """A step state the loop can reach: H0 holds the copies of two cycles
    plus two more, the present edges are exactly H0's edges, C1 is some of
    the cycles inside H0, and N' is a third of the copies outside H0."""
    m = len(tab.copies)
    h0 = {c for i in rng.choice(len(cycles), 2) for c in cycles[i][0]}
    h0.update(int(c) for c in rng.choice(m, 2))
    r_bits = 0
    for c in h0:
        r_bits |= tab.copy_bits[c]
    inside = [i for i, (ids, _, _) in enumerate(cycles) if set(ids) <= h0]
    c1 = {i for i in inside if rng.random() < 0.5}
    nprime = {c for c in range(m) if c not in h0 and rng.random() < 0.3}
    return h0, r_bits, c1, nprime


class TestVectorisedSteps:
    """The array passes over the placement table give exactly what a loop
    over each cycle's Python-int bitmasks gives, floats to the last bit."""

    @pytest.mark.parametrize("n", [8, 12])  # one and two shadow words
    def test_q_report_matches_scalar_loop(self, n):
        law = _law(K3, n, small_params(n, 0.001), 0, "bound")
        tab = law.tab
        cycles = scalar_cycles(tab)
        rng = np.random.default_rng(n)
        for _ in range(30):
            h0, r_bits, c1, nprime = random_state(tab, cycles, rng)
            # step j is undecided, so never in N'
            j = int(rng.choice(sorted(set(range(len(tab.copies))) - nprime)))
            q = _q_report(tab, j, nprime, r_bits, h0, 0.3)
            assert (q["cb"], q["cg"], q["eb"], q["eg"], q["n_contributors"],
                    [w["index"] for w in q["bad"]]) == \
                scalar_q(tab, cycles, j, c1, nprime, r_bits, 0.3)
            assert q["total"] == q["cb"] + q["cg"] + q["eb"] + q["eg"]

    def test_pi_prime_matches_scalar_loop(self):
        params = small_params(8, 0.05)
        laws = [_law(K3, 8, params, seed, "bound") for seed in range(40)]
        laws = [law for law in laws if law.pre.c1][:3]
        assert laws, "no run with a non-empty C1"
        cycles = scalar_cycles(laws[0].tab)
        rng = np.random.default_rng(1)
        for law in laws:
            c1_copies = {c for i in law.pre.c1 for c in cycles[i][0]}
            for _ in range(5):
                # a run starts H0 with every C1 copy
                h0 = random_state(law.tab, cycles, rng)[0] | c1_copies
                for j in range(len(law.tab.copies)):
                    assert law._pi_prime(j, h0) == scalar_pi_prime(
                        cycles, law.pre.c1, j, h0, params.pi)

    def test_pi_prime_with_empty_h0(self):
        """With H0 empty no cycle can close, so pi'_j is pi; the shortcut
        must agree with the loop whether or not C1 is empty."""
        laws = [_law(K3, 8, small_params(8, pi), seed, "bound")
                for pi in (0.001, 0.05) for seed in range(2)]
        assert not laws[0].pre.c1 and laws[-1].pre.c1
        cycles = scalar_cycles(laws[0].tab)
        for law in laws:
            for j in range(len(law.tab.copies)):
                assert law._pi_prime(j, set()) == scalar_pi_prime(
                    cycles, law.pre.c1, j, set(), law.params.pi)


# exact K3 runs at n = 6, pi = 0.02 with |C1| = 1 and no B3 that take steps
C1_STEP_SEEDS = (22, 162)


class TestCycleHalfMemo:
    """Trials of one (F, n, p) share the cycle half of the error term
    through an LRU cache; what it returns must not depend on what ran
    before, and what it keeps must not pin a placement table."""

    def test_warm_cache_gives_cold_transcripts(self, monkeypatch):
        c4 = pattern_preset("c4")
        sc = select_constants(c4)
        c4_params = derive_params(c4, 6, float(sc.delta), float(sc.eps),
                                  pi=0.001)
        # seeds 0..19 never reach a step with C1 non-empty: a C1 cycle puts
        # two vertices at F-degree 2, so B1 ends the run at the first copy
        # through them; exact seeds 22 and 162 take steps before that
        params = small_params(6, 0.02)
        for seed in C1_STEP_SEEDS:
            c1, _c2, b3 = precouple_cycles(K3, 6, params, seed)
            assert len(c1) == 1 and not b3
        runs = ([(K3, 8, small_params(8, 0.001), "bound", s)
                 for s in range(20)]
                + [(c4, 6, c4_params, "bound", s) for s in range(20)]
                + [(K3, 6, params, "exact", s)
                   for s in list(range(20)) + list(C1_STEP_SEEDS)])
        keys = []

        def spy(f, n, j, r_bits, p):
            keys.append(r_bits)
            return _cycle_half(f, n, j, r_bits, p)

        monkeypatch.setattr(coupling, "_cycle_half", spy)

        def transcripts(order, cold):
            out = {}
            for f, n, params, mode, seed in order:
                if cold:
                    _cycle_half.cache_clear()
                out[(f.graph.edges, n, mode, seed)] = run_coupling(
                    f, n, params, seed, mode=mode).to_jsonl()
            return out

        cold = transcripts(runs, cold=True)
        assert all('"kind": "step"' in cold[(K3.graph.edges, 6, "exact", s)]
                   for s in C1_STEP_SEEDS)
        assert any(keys)
        before = _cycle_half.cache_info().hits
        assert transcripts(runs, cold=False) == cold
        assert transcripts(runs[::-1], cold=False) == cold
        assert _cycle_half.cache_info().hits > before

    def test_c1_never_meets_free_edges(self, monkeypatch):
        """Why the cycle half needs no C1 exclusion: at every step, no C1
        cycle's shadow meets copy j's free edges, since the present edges
        start as H0's and H0 starts with C1's copies. In seeds 275 and 285
        copy j shares an edge with the C1 cycle, so only that start keeps
        the cycle out."""
        params = small_params(6, 0.02)
        shares = []
        for seed in C1_STEP_SEEDS + (275, 285):
            c1 = sorted(_law(K3, 6, params, seed, "exact").pre.c1)
            met = []

            def spy(f, n, j, r_bits, p):
                tab = placements(f, n)
                shares.append(bool(tab.meets(tab.copy_bits[j])[c1].any()))
                met.append(bool(tab.meets(tab.copy_bits[j] & ~r_bits)[c1]
                                .any()))
                return _cycle_half(f, n, j, r_bits, p)

            monkeypatch.setattr(coupling, "_cycle_half", spy)
            steps = run_coupling(K3, 6, params, seed).steps
            assert c1 and len(met) == len(steps) > 0
            assert not any(met)
        assert any(shares)

    def test_memo_holds_no_table(self):
        assert _cycle_half.cache_info().maxsize is not None
        params = small_params(8, 0.001)
        table = weakref.ref(placements(K3, 8))
        run_coupling(K3, 8, params, 0, mode="bound")
        assert _cycle_half.cache_info().currsize > 0
        placements.cache_clear()
        gc.collect()
        assert table() is None


C4_A = analyze_pattern(Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)]))
C4_B = analyze_pattern(Graph.from_edges([(0, 2), (1, 2), (1, 3), (0, 3)]))

# mode -> transcript sha256 of C4_A and C4_B at n = 5, pi = 0.05, seeds
# 0..29, each as a fresh process gives it
RELABEL_DIGESTS = {
    "exact": (
        "6745aa026a83a1ef5c68809deadfcf82cd8be06a677a00729020e11612ee690f",
        "05229084a317cc02b64f180fcdf1deb39c4e03bf00372e1506dff623dea7719c"),
    "bound": (
        "2642988e963e37ea5f96abe7f19c1a5f89f40acd6eb961177180bab3e98ea716",
        "d9bf66faf8f67430fc2ce5063a7c125cc8f081a096cab9b42696e7e76bcd6fba"),
}


class TestRelabel:
    """Two labellings of one template share a canonical form but not their
    copy embeddings, so per-(F, n) tables must not be shared between them."""

    @pytest.mark.parametrize("mode", list(RELABEL_DIGESTS))
    def test_history_independent(self, mode):
        sc = select_constants(C4_A)
        want_a, want_b = RELABEL_DIGESTS[mode]
        got = []
        for f in (C4_A, C4_B, C4_A, C4_B):
            params = derive_params(f, 5, float(sc.delta), float(sc.eps),
                                   pi=0.05)
            digest, _mix = transcript_digest(f, 5, params, range(30), mode)
            got.append(digest)
            # every serialised embedding spells out its own copy
            pverts = sorted(f.graph.vertices)
            for fe in run_coupling(f, 5, params, 0, mode=mode).h.fedges:
                m = dict(zip(pverts, fe.embedding))
                assert {tuple(sorted((m[u], m[v])))
                        for u, v in f.graph.edges} == set(fe.edge_set)
        assert got == [want_a, want_b, want_a, want_b]


def exact_finals(monkeypatch):
    """Spy on the exact law's finish: each run that reaches it appends its
    C1 and its final live masks, copy side and graph side."""
    finals = []
    finish = coupling._ExactLaw.finish

    def spy(law, *args):
        finals.append((law.pre.c1, law.h.state()[0], law.g.state()[0]))
        return finish(law, *args)

    monkeypatch.setattr(coupling._ExactLaw, "finish", spy)
    return finals


def hexes(*xs):
    return [float(x).hex() for x in xs]


def exact_case(name):
    """(template, n, params, seeds) of the exact runs checked step by step."""
    if name == "c4":
        sc = select_constants(C4_A)
        return (C4_A, 5, derive_params(C4_A, 5, float(sc.delta),
                                       float(sc.eps), pi=0.05), range(30))
    if name == "k3-c1":
        return K3, 6, small_params(6, 0.02), C1_STEP_SEEDS
    return K3, 6, small_params(6, 0.01), range(200)


class TestExactSteps:
    """The exact law's live vectors over memoised arrays give, at every
    step, the floats of a state compacted at every decision
    (engine_oracles.CompactingState), and the same final masks."""

    @pytest.mark.parametrize("case", ["k3", "k3-c1", "c4"])
    def test_steps_match_a_compacting_state(self, monkeypatch, case):
        f, n, params, seeds = exact_case(case)
        finals = exact_finals(monkeypatch)
        eng = get_engine(f, n)
        g_true, g_false = set(), set()
        for seed in seeds:
            t = run_coupling(f, n, params, seed)
            if t.outcome == "B3":
                continue
            c1, masks_h, masks_g = finals.pop()
            ref = CompactingState(eng, c1, params.pi, params.p)
            for s in t.steps:
                assert hexes(*ref.probs(s["j"] - 1)) == \
                    hexes(s["pi_j"], s["pi_prime_j"])
                # a step that ends the run in B2 decides nothing
                if s["decision_H"] is not None:
                    ref.commit(s["decision_H"], s["decision_G"])
                if s["decision_G"] is not None:
                    (g_true if s["decision_G"] else g_false).add(seed)
            assert np.array_equal(masks_h, ref.masks_h)
            assert np.array_equal(masks_g, ref.masks_g)
        assert not finals
        if case == "k3":
            # both ways a G decision moves the carried total: 27 runs take
            # a True one (seeds 1, 8, 23, ...) and 165 a False one
            assert len(g_true) == 27 and {1, 8, 23} <= g_true
            assert len(g_false) == 165

    def test_interleaved_runs_give_solo_floats(self, monkeypatch):
        """Two exact runs on one engine and one C1, stepped in turn, read
        the same memoised arrays; each still gives the floats and final
        masks of its solo run, so no live vector aliases a shared array."""
        f, n, params, _ = exact_case("k3")
        finals = exact_finals(monkeypatch)
        seeds = (1, 8)
        solo = {s: run_coupling(f, n, params, s).steps for s in seeds}
        assert len(finals) == len(seeds)
        solo_finals = dict(zip(seeds, finals))
        laws = {s: _law(f, n, params, s, "exact") for s in seeds}
        assert laws[1].pre.c1 == laws[8].pre.c1
        for i in range(max(map(len, solo.values()))):
            turn = [s for s in seeds if i < len(solo[s])]
            for s in turn:
                step = solo[s][i]
                assert hexes(*laws[s].probs(step["j"] - 1, {}, set(), 0)) \
                    == hexes(step["pi_j"], step["pi_prime_j"])
            for s in turn:
                step = solo[s][i]
                laws[s].commit(step["j"] - 1, step["decision_H"],
                               step["decision_G"])
        for s in seeds:
            _c1, masks_h, masks_g = solo_finals[s]
            assert np.array_equal(laws[s].h.state()[0], masks_h)
            assert np.array_equal(laws[s].g.state()[0], masks_g)
