"""Exact enumeration backend against full product-space brute force."""

import itertools

import numpy as np
import pytest
from engine_oracles import (brute_valid_g_dense, brute_valid_h, cycle_masks,
                            loop_arrays)

from fthresh.dgraphs import DGraph, clean_cycle_types, cycle_placements
from fthresh.errors import ResourceLimitError
from fthresh.exactengine import (ExactEngine, Placements, _supersets,
                                 get_engine, weighted_index)
from fthresh.fgraphs import (FEdge, FGraph, classify, potential_copies_on,
                             shadow)
from fthresh.graphs import Graph, _subset_sums
from fthresh.patterns import pattern_preset
from fthresh.sampling import dummy_slots, rng_for

K3 = pattern_preset("k3")


def cycle_graphs(eng: ExactEngine) -> list[FGraph]:
    tab = eng.table
    return [tab.cycle(i) for i in range(tab.n_cycles)]


def brute_h_law(eng: ExactEngine, pi: float) -> dict[frozenset, float]:
    """Cycle-set law of the copy process by direct summation."""
    copy_sets = [sum(1 << eng.table.copies.index(fe) for fe in cyc.fedges)
                 for cyc in cycle_graphs(eng)]
    law: dict[frozenset, float] = {}
    for mask in range(2 ** eng.M):
        w = 1.0
        for i in range(eng.M):
            w *= pi if mask >> i & 1 else 1.0 - pi
        ids = frozenset(i for i, cm in enumerate(copy_sets)
                        if mask & cm == cm)
        law[ids] = law.get(ids, 0.0) + w
    return law


def brute_g_law(eng: ExactEngine, p: float) -> dict[frozenset, float]:
    """D-cycle-set law of the auxiliary graph: edges and one dummy slot per
    potential sparse cycle, all independent Bernoulli(p)."""
    cycles = [(eng.table.edge_mask(shadow(cyc).edges),
               classify(cyc).sparsity == "sparse")
              for cyc in cycle_graphs(eng)]
    slots = [i for i, (_sm, sparse) in enumerate(cycles) if sparse]
    law: dict[frozenset, float] = {}
    for emask in range(2 ** eng.E):
        we = p ** bin(emask).count("1") * (1 - p) ** (eng.E - bin(emask).count("1"))
        for dbits in range(2 ** len(slots)):
            nd = bin(dbits).count("1")
            w = we * p ** nd * (1 - p) ** (len(slots) - nd)
            ids = set()
            for i, (sm, sparse) in enumerate(cycles):
                if emask & sm != sm:
                    continue
                if sparse:
                    pos = slots.index(i)
                    if not dbits >> pos & 1:
                        continue
                ids.add(i)
            key = frozenset(ids)
            law[key] = law.get(key, 0.0) + w
    return law


@pytest.fixture(scope="module")
def eng():
    return get_engine(K3, 4)


class TestSetup:
    def test_dimensions(self, eng):
        assert eng.M == 4
        assert eng.E == 6
        assert eng.table.n_cycles == 6
        assert all(classify(cyc).sparsity == "sparse"
                   for cyc in cycle_graphs(eng))

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            ExactEngine(K3, 7)

    def test_engine_cache(self, eng):
        assert get_engine(K3, 4) is eng


class TestBuild:
    """The subset-sum build gives the counts a pass per cycle gives. K3 is
    the only preset with cycles inside the outcome cap (K4-e at n = 5
    already has 30 copies); C4 at n = 5 covers a table without any."""

    @pytest.mark.parametrize("name,n", [("k3", 4), ("k3", 5), ("k3", 6),
                                        ("c4", 5)])
    def test_matches_a_pass_per_cycle(self, name, n):
        eng = get_engine(pattern_preset(name), n)
        got = (eng.h_count, eng.g_dense_count, eng.g_s_all)
        for a, b in zip(got, loop_arrays(eng)):
            assert np.array_equal(a, b)
        assert eng._copy_sets.tolist() == cycle_masks(eng)[0]

    def test_subset_sums(self):
        rng = np.random.default_rng(5)
        bits = 7
        masks = rng.integers(0, 2 ** bits, size=40)  # with repeats
        terms = rng.integers(-50, 50, size=40)
        got = _subset_sums(masks, terms, bits)
        for m in range(2 ** bits):
            assert got[m] == sum(t for s, t in zip(masks, terms)
                                 if s & m == s)

    @pytest.mark.parametrize("base", [0, 0b1, 0b10110, 0b1111111])
    def test_supersets(self, base):
        want = [m for m in range(2 ** 7) if m & base == base]
        assert _supersets(base, 7).tolist() == want


def cycle_set_of(masks, sets):
    return frozenset(i for i, cm in enumerate(sets) if masks & cm == cm)


class TestValidSets:
    """The valid sets, read off the supersets of c1's copies or shadows,
    equal a scan of every mask, for cycle sets read off random masks (so
    every one is attainable) and one that is not."""

    @pytest.mark.parametrize("n,draws", [(5, 12), (6, 2)])
    def test_valid_h(self, n, draws):
        eng = get_engine(K3, n)
        copy_sets, _ = cycle_masks(eng)
        rng = np.random.default_rng(n)
        c1s = {cycle_set_of(int(m), copy_sets)
               for m in rng.integers(0, 2 ** eng.M, size=draws)}
        c1s = [c1 for c1 in c1s if c1]
        assert c1s
        if n == 5:
            c1s.append(frozenset(range(eng.table.n_cycles - 1)))
        for c1 in c1s:
            masks, pc = eng.valid_h(c1)
            want = brute_valid_h(eng, c1)
            assert np.array_equal(masks, want)
            assert np.array_equal(pc, np.bitwise_count(want))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_valid_g_dense(self, n):
        eng = get_engine(K3, n)
        _, shadows = cycle_masks(eng)
        rng = np.random.default_rng(n)
        for m in rng.integers(0, 2 ** eng.E, size=12):
            complete = cycle_set_of(int(m), shadows)
            # every complete dense cycle, and some of the sparse ones
            c1 = frozenset(i for i in complete if not eng.table.sparse[i]
                           or rng.random() < 0.5)
            got = eng.valid_g_dense(c1)
            assert int(m) in got
            assert np.array_equal(got, brute_valid_g_dense(eng, c1))


class TestMu:
    def test_matches_brute_force(self, eng):
        pi = 0.23
        law = brute_h_law(eng, pi)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        for c1, want in law.items():
            assert eng.mu(c1, pi) == pytest.approx(want, abs=1e-14)

    def test_impossible_set(self, eng):
        # a single sparse cycle forces its sibling on the shared-copy pair?
        # not for copies: any single cycle is attainable, but try a set that
        # is closed-off: all six cycles need all four copies, which also
        # yields every cycle, so five cycles exactly is impossible
        five = frozenset(range(5))
        assert eng.mu(five, 0.3) == 0.0

    def test_extremes(self, eng):
        full = frozenset(range(eng.table.n_cycles))
        assert eng.mu(full, 1.0) == 1.0
        assert eng.mu(frozenset(), 0.0) == 1.0


class TestNu:
    def test_matches_brute_force(self, eng):
        p = 0.37
        law = brute_g_law(eng, p)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        for c1, want in law.items():
            assert eng.nu(c1, p) == pytest.approx(want, abs=1e-13)

    def test_total_mass_one(self, eng):
        p = 0.52
        law = brute_g_law(eng, p)
        total = sum(eng.nu(c1, p) for c1 in law)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_extremes(self, eng):
        full = frozenset(range(eng.table.n_cycles))
        assert eng.nu(full, 1.0) == 1.0
        assert eng.nu(frozenset(), 0.0) == 1.0
        assert eng.nu(frozenset(), 1.0) == 0.0

    def test_weights_at_the_extremes(self, eng):
        """At p = 0 every edge is absent and at p = 1 every edge present."""
        for p, mask in ((0.0, 0), (1.0, 2 ** eng.E - 1)):
            w = eng.g_weights(p)
            assert w.shape == (2 ** eng.E,)
            assert w[mask] == 1.0
            assert np.count_nonzero(w) == 1


class TestMemo:
    """Each memoised method keeps at most its limit of entries on its
    engine, what it hands out equals what a fresh engine computes, and its
    arrays are read-only."""

    def test_bounded_past_the_limit(self):
        eng = ExactEngine(K3, 4)
        c1 = frozenset({0})
        pis = np.linspace(0.001, 0.999, 600).tolist()
        got = [eng.mu(c1, pi) for pi in pis]
        assert len(eng._memo["mu"]) <= 512
        fresh = ExactEngine(K3, 4)
        assert got == [fresh.mu(c1, pi) for pi in pis]
        # the entries kept and the ones evicted and computed again
        assert [eng.mu(c1, pi) for pi in pis] == got
        assert len(eng._memo["mu"]) <= 512

    def test_arrays_read_only_across_an_eviction(self):
        eng = ExactEngine(K3, 5)
        c1s = [frozenset(c) for c in itertools.islice(
            itertools.combinations(range(eng.table.n_cycles), 3), 520)]
        ps = np.linspace(0.05, 0.95, 10).tolist()
        held = {"valid_h": [eng.valid_h(c1) for c1 in c1s],
                "valid_g_dense": [eng.valid_g_dense(c1) for c1 in c1s],
                "g_weights": [eng.g_weights(p) for p in ps]}
        first = {"valid_h": (c1s[0],), "valid_g_dense": (c1s[0],),
                 "g_weights": (ps[0],)}
        for name, limit in (("valid_h", 512), ("valid_g_dense", 512),
                            ("g_weights", 8)):
            memo = eng._memo[name]
            assert first[name] not in memo
            assert len(memo) <= limit
        arrays = [*(a for pair in held["valid_h"] for a in pair),
                  *held["valid_g_dense"], *held["g_weights"],
                  *eng.valid_h(c1s[0]), eng.valid_g_dense(c1s[0]),
                  eng.g_weights(ps[0])]
        assert not any(a.flags.writeable for a in arrays)
        fresh = ExactEngine(K3, 5)
        for c1, (masks, pc) in zip(c1s, held["valid_h"]):
            want = fresh.valid_h(c1)
            assert np.array_equal(masks, want[0])
            assert np.array_equal(pc, want[1])
        for c1, masks in zip(c1s, held["valid_g_dense"]):
            assert np.array_equal(masks, fresh.valid_g_dense(c1))
        for p, w in zip(ps, held["g_weights"]):
            assert np.array_equal(w, fresh.g_weights(p))


class TestSampleG:
    def test_law_by_enumeration(self, eng):
        """Sampled edge masks hit the conditional law of one cycle set."""
        p = 0.4
        c1 = frozenset({0})
        valid = eng.valid_g_dense(c1)
        rng = rng_for(11, 3)
        counts: dict[frozenset, int] = {}
        reps = 4000
        for _ in range(reps):
            g = eng.sample_g(valid, p, c1, rng)
            ids = eng.gstar_cycle_ids(g)
            counts[ids] = counts.get(ids, 0) + 1
        # every draw must realize exactly the conditioned cycle set
        assert set(counts) == {c1}

    def test_dummy_rules(self, eng):
        p = 0.5
        c1 = frozenset({0, 1})
        valid = eng.valid_g_dense(c1)
        rng = rng_for(12, 3)
        for _ in range(200):
            g = eng.sample_g(valid, p, c1, rng)
            dummy_sets = {frozenset(k) for k in g.dummies}
            for i in c1:
                assert eng.table.cycle(i).fedges in dummy_sets


class TopRng:
    """Every uniform is the largest double below 1."""

    def random(self, size=None):
        return 1.0 - 2.0 ** -53


class TestWeightedDraw:
    def test_top_draw_lands_on_positive_weight(self):
        """Nine weights of 0.1 sum pairwise to 0.9 but run to
        0.8999999999999999, so the top draw lands past the cdf's end; it
        must go to the last positive weight, not a trailing zero."""
        w = np.array([0.1] * 9 + [0.0, 0.0])
        assert TopRng().random() * float(w.sum()) >= np.cumsum(w)[-1]
        assert weighted_index(w, TopRng()) == 8

    def test_top_draw_stays_in_the_valid_set(self):
        """At n = 6 the pairwise total exceeds the running cdf's end, so a
        draw clamped to the last mask gave all 15 edges and complete dense
        cycles for a cycle set that has none."""
        eng = get_engine(K3, 6)
        c1 = frozenset()
        g = eng.sample_g(eng.valid_g_dense(c1), 0.05, c1, TopRng())
        assert eng.gstar_cycle_ids(g) == c1


class TestTranslation:
    def test_h_cycle_ids(self, eng):
        h = FGraph.from_fedges(list(eng.table.copies[:2]), vertices=range(4))
        ids = eng.h_cycle_ids(h)
        want = frozenset(i for i, cyc in enumerate(cycle_graphs(eng))
                         if cyc.fedges <= h.fedges)
        assert ids == want

    def test_gstar_cycle_ids_requires_dummy(self, eng):
        cyc = eng.table.cycle(0)
        base = Graph.from_edges(
            sorted({e for fe in cyc.fedges for e in fe.edge_set}),
            vertices=range(4))
        without = DGraph(base=base, dummies=frozenset())
        with_d = DGraph(base=base, dummies=frozenset({cyc.fedges}))
        assert 0 not in eng.gstar_cycle_ids(without)
        assert 0 in eng.gstar_cycle_ids(with_d)


class TestPlacementRows:
    """Every cycle_placements row is a clean cycle by construction, which is
    what lets the table skip classify and shadow per placement."""

    @pytest.mark.parametrize("name,n", [("k3", 8), ("c4", 7), ("c5", 7),
                                        ("k4me", 7), ("k4", 7)])
    def test_rows_are_clean_cycles(self, name, n):
        f = pattern_preset(name)
        tab = Placements(f, n)
        copies = potential_copies_on(f, range(n))
        assert tuple(copies) == tab.copies
        rows = cycle_placements(f, n, range(2, f.s + 1))
        assert len(rows.lengths) == tab.n_cycles
        for i, (ids, k) in enumerate(zip(rows.copy_ids.tolist(),
                                         rows.lengths.tolist())):
            ids = ids[:k]
            cyc = FGraph.from_fedges(copies[c] for c in ids)
            cls = classify(cyc)
            assert cls.kind == "clean_cycle"
            assert cls.length == len(ids)
            assert (cls.sparsity == "sparse") == tab.sparse[i]
            assert tab.ids(i) == list(ids)
            assert tab.cycle(i) == cyc
            assert tab.shadow_words[i].tolist() == tab.words(
                tab.edge_mask(shadow(cyc).edges))

    @pytest.mark.parametrize("name,n", [("k3", 8), ("c4", 7)])
    def test_rows_with_lists_each_copy(self, name, n):
        tab = Placements(pattern_preset(name), n)
        for j in range(len(tab.copies)):
            want = [i for i in range(tab.n_cycles) if j in tab.ids(i)]
            got = tab.rows_with(j)
            assert got.dtype == np.int32
            assert got.tolist() == want

    def test_build_makes_no_fgraph(self, monkeypatch):
        """The type representatives are F-graphs, one per type; the
        placements are not: 3,780 at n = 8 and 26,460 at n = 10 cost the
        same F-graph builds. The types are built once per template, so the
        memo is cleared for each build to count them both times."""
        made = []
        post_init = FGraph.__post_init__

        def counting(self):
            made.append(self)
            post_init(self)

        monkeypatch.setattr(FGraph, "__post_init__", counting)
        builds = []
        for n, cycles in ((8, 3780), (10, 26460)):
            clean_cycle_types.cache_clear()
            made.clear()
            assert Placements(K3, n).n_cycles == cycles
            builds.append(len(made))
        assert builds[0] == builds[1]


def holds_dummy_key(value) -> bool:
    """Whether value is, or holds in a tuple, list or dict, a frozenset of
    copies."""
    if isinstance(value, frozenset):
        return any(isinstance(x, FEdge) for x in value)
    if isinstance(value, (tuple, list)):
        return any(holds_dummy_key(x) for x in value)
    if isinstance(value, dict):
        return any(holds_dummy_key(k) or holds_dummy_key(v)
                   for k, v in value.items())
    return False


class TestDummyKeys:
    """The table and the engine hand out the keys of dummy_slots(f, n),
    the very objects sample_gstar draws, and build none of their own."""

    @pytest.mark.parametrize("name,n", [("k3", 6), ("k3", 10), ("c4", 7)])
    def test_keys_are_the_slots(self, name, n):
        f = pattern_preset(name)
        tab = Placements(f, n)
        rows = np.flatnonzero(tab.sparse)
        slots = dummy_slots(f, n)
        keys = tab.dummy_keys(rows)
        # both lists stay alive, so equal ids mean the same objects
        assert sorted(map(id, keys)) == sorted(map(id, slots))
        for i, key in zip(rows.tolist(), keys):
            assert key == frozenset(tab.copies[c] for c in tab.ids(i))

    @pytest.mark.parametrize("name,n", [("k3", 6), ("k3", 10), ("c4", 7)])
    def test_keys_hold_the_table_copies(self, name, n):
        """Each key holds the table's own copy objects, not equal copies
        rebuilt for the key."""
        f = pattern_preset(name)
        dummy_slots.cache_clear()
        slots = dummy_slots(f, n)
        held = set(map(id, Placements(f, n).copies))
        assert all(id(fe) in held for key in slots for fe in key)

    def test_table_holds_no_key(self):
        """The keys are read from the dummy_slots cache on each call, so a
        rebuilt cache is what the table hands out next."""
        tab = Placements(K3, 6)
        assert not holds_dummy_key(vars(tab))
        rows = np.flatnonzero(tab.sparse)
        dummy_slots.cache_clear()
        slots = dummy_slots(K3, 6)
        keys = tab.dummy_keys(rows)
        assert sorted(map(id, keys)) == sorted(map(id, slots))
        assert not holds_dummy_key(vars(tab))

    def test_sample_g_draws_the_slots(self):
        eng = get_engine(K3, 6)
        slots = dummy_slots(K3, 6)
        ids = set(map(id, slots))
        rng = rng_for(4, 3)
        drawn = []
        for c1 in (frozenset(), frozenset({0})):
            for _ in range(20):
                g = eng.sample_g(eng.valid_g_dense(c1), 0.3, c1, rng)
                drawn.extend(g.dummies)
        assert drawn and all(id(key) in ids for key in drawn)
