"""Exact enumeration backend against full product-space brute force."""

import itertools

import numpy as np
import pytest

from fthresh.dgraphs import DGraph, clean_cycle_types, cycle_placements
from fthresh.errors import ResourceLimitError
from fthresh.exactengine import ExactEngine, Placements, get_engine
from fthresh.fgraphs import FGraph, classify, potential_copies_on, shadow
from fthresh.graphs import Graph
from fthresh.patterns import pattern_preset
from fthresh.sampling import rng_for

K3 = pattern_preset("k3")


def cycle_graphs(eng: ExactEngine) -> list[FGraph]:
    tab = eng.table
    return [tab.cycle(i) for i in range(tab.n_cycles)]


def brute_h_law(eng: ExactEngine, pi: float) -> dict[frozenset, float]:
    """Cycle-set law of the copy process by direct summation."""
    copy_sets = [sum(1 << eng.copies.index(fe) for fe in cyc.fedges)
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


class TestTranslation:
    def test_h_cycle_ids(self, eng):
        h = FGraph.from_fedges(list(eng.copies[:2]), vertices=range(4))
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
        rows = cycle_placements(f, range(n), f.s)
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
