"""F-graph structure: cycles, nullity, induced copies, witnesses."""

import itertools
import math
import random
import sys

import pytest

from fgraph_oracles import induced_f_edges, search_clean_cycle_order

from fthresh.dgraphs import clean_cycle_types
from fthresh.fgraphs import (FEdge, FGraph, _clean_cycle_order,
                             all_potential_copies, classify, copies_in,
                             copies_on_vertex_set, count_copies,
                             fgraph_automorphisms, inducing_witness, nullity,
                             potential_copies_on, shadow)
from fthresh.graphs import Graph
from fthresh.patterns import analyze_pattern, pattern_preset

K3 = pattern_preset("k3")


def triangle(a, b, c):
    return FEdge.from_embedding(K3, {0: a, 1: b, 2: c})


def random_fgraph(rng, n, max_fedges):
    copies = all_potential_copies(K3, n)
    k = rng.randint(1, min(max_fedges, len(copies)))
    return FGraph.from_fedges(rng.sample(copies, k), vertices=range(n))


class TestBasics:
    def test_copy_identity_ignores_automorphism(self):
        assert triangle(0, 1, 2) == triangle(2, 0, 1)

    def test_shadow(self):
        h = FGraph.from_fedges([triangle(0, 1, 2), triangle(2, 3, 4)])
        assert shadow(h).edges == Graph.from_edges(
            [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]).edges

    def test_nullity_single_copy(self):
        assert nullity(FGraph.from_fedges([triangle(0, 1, 2)])) == 0

    def test_nullity_sparse_pair(self):
        h = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3)])
        # (r-1)e + c - v = 2*2 + 1 - 4
        assert nullity(h) == 1


class TestClassify:
    def test_sparse_two_cycle(self):
        h = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3)])
        cls = classify(h)
        assert (cls.kind, cls.length, cls.sparsity) == ("clean_cycle", 2,
                                                        "sparse")

    def test_three_cycle_dense(self):
        h = FGraph.from_fedges([triangle(0, 1, 2), triangle(2, 3, 4),
                                triangle(4, 5, 0)])
        cls = classify(h)
        assert (cls.kind, cls.length, cls.sparsity) == ("clean_cycle", 3,
                                                        "dense")

    def test_disjoint_pair_is_other(self):
        h = FGraph.from_fedges([triangle(0, 1, 2), triangle(3, 4, 5)])
        assert classify(h).kind == "other"

    def test_avoidable(self):
        h = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3),
                                triangle(0, 2, 3)])
        cls = classify(h)
        assert cls.kind == "avoidable"
        assert cls.nullity >= 2


def relabelled(f, h, mapping):
    """h, an F-graph of the template f, with every vertex u renamed
    mapping[u]."""
    pverts = sorted(f.graph.vertices)
    return FGraph.from_fedges(
        FEdge.from_embedding(f, {x: mapping[u]
                                 for x, u in zip(pverts, fe.embedding)})
        for fe in h.fedges)


class TestCleanCycleOrder:
    """The walked order equals the first order the permutation search
    passes, and the walk rejects what the search rejects."""

    @pytest.mark.parametrize("name", ["k3", "c4", "c5", "k4", "k4me"])
    def test_every_preset_type(self, name):
        f = pattern_preset(name)
        for k in (3, 4):
            for cycle, _sig in clean_cycle_types(f, k):
                want = search_clean_cycle_order(cycle)
                assert want is not None
                assert _clean_cycle_order(cycle) == want

    def test_random_copy_sets(self):
        """Random sets of triangles on 7 labels, and each clean 3- and
        4-cycle type of three templates relabelled at random, so the walk
        starts from every copy in turn, half of them with one copy swapped
        for a random one on the same labels."""
        rng = random.Random(11)
        passed = rejected = 0
        copies = all_potential_copies(K3, 7)
        sets = [FGraph.from_fedges(rng.sample(copies, rng.randint(3, 5)))
                for _ in range(1500)]
        for name in ("k3", "c4", "k4me"):
            f = pattern_preset(name)
            for k in (3, 4):
                for cycle, _sig in clean_cycle_types(f, k)[:6]:
                    n = cycle.v() + 2
                    pool = all_potential_copies(f, n)
                    for _ in range(25):
                        h = relabelled(f, cycle, rng.sample(range(n), n))
                        if rng.random() < 0.5:
                            fes = list(h.fedges)
                            fes[rng.randrange(k)] = rng.choice(pool)
                            h = FGraph.from_fedges(fes)
                        sets.append(h)
        for h in sets:
            want = search_clean_cycle_order(h)
            assert _clean_cycle_order(h) == want
            passed += want is not None
            rejected += want is None and h.e() >= 3
        assert passed > 300 and rejected > 1500

    @pytest.mark.parametrize("copies", [
        # two vertex-disjoint clean 3-cycles: every copy meets two others,
        # but the walk closes after three
        [(0, 1, 2), (2, 3, 4), (4, 5, 0), (6, 7, 8), (8, 9, 10),
         (10, 11, 6)],
        # three triangles through one vertex: one overlap vertex, not three
        [(0, 1, 2), (0, 3, 4), (0, 5, 6)],
        # a 4-cycle whose opposite copies 0-1-2 and 4-5-1 share vertex 1
        [(0, 1, 2), (2, 3, 4), (4, 5, 1), (5, 6, 0)],
    ], ids=["two-3-cycles", "one-vertex", "4-cycle-chord"])
    def test_rejections(self, copies):
        h = FGraph.from_fedges(triangle(*c) for c in copies)
        assert search_clean_cycle_order(h) is None
        assert _clean_cycle_order(h) is None
        assert classify(h).kind != "clean_cycle"


class TestCopies:
    def test_copies_in_k5(self):
        assert len(copies_in(Graph.complete(5), K3)) == 10

    def test_copies_per_vertex_set(self):
        k4me = pattern_preset("k4me")
        assert len(copies_on_vertex_set(k4me, [0, 1, 2, 3])) == 6
        assert len(all_potential_copies(k4me, 6)) == math.comb(6, 4) * 6

    def test_count_copies_matches_enumeration(self):
        sparse = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3)])
        n = 6
        from fthresh.dgraphs import cycle_placements
        copies = potential_copies_on(K3, range(n))
        rows = cycle_placements(K3, n, (2,))
        explicit = sum(
            1 for ids in rows.copy_ids.tolist()
            if classify(FGraph.from_fedges(copies[c] for c in ids)).sparsity
            == "sparse")
        assert count_copies(sparse, n) == explicit == 90

    def test_fgraph_automorphisms(self):
        sparse = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3)])
        # swap the two apexes, swap the shared pair, or both
        assert len(fgraph_automorphisms(sparse)) == 4

    def test_fgraph_automorphisms_searched_once_per_shape(self,
                                                         monkeypatch):
        import fthresh.fgraphs
        searched = []
        original = fthresh.fgraphs.automorphisms

        def counting(g):
            searched.append(g)
            return original(g)

        monkeypatch.setattr(fthresh.fgraphs, "automorphisms", counting)
        chain = FGraph.from_fedges([triangle(0, 1, 2), triangle(2, 3, 4),
                                    triangle(4, 5, 0)])
        fgraph_automorphisms.cache_clear()
        group = fgraph_automorphisms(chain)
        # the clean 3-cycle of triangles has the symmetry of a hexagon
        # that keeps the triangles: the rotations by two and three
        # reflections
        assert len(group) == 6
        assert [count_copies(chain, n) for n in (6, 7, 9)] == [
            math.factorial(6) // 6, math.perm(7, 6) // 6,
            math.perm(9, 6) // 6]
        assert fgraph_automorphisms(chain) is group
        assert len(searched) == 1


PRESETS = ("k2", "k3", "k4", "c4", "c5", "k4me")
# C4 labelled 0-2-1-3: its sorted vertices do not follow the cycle
C4_RELABELLED = analyze_pattern(
    Graph.from_edges([(0, 2), (1, 2), (1, 3), (0, 3)]))


def brute_copies_on(f, vset):
    """Every bijection onto vset, reduced to its minimum over the template's
    automorphisms, each found by testing all r! permutations."""
    pverts = sorted(f.graph.vertices)
    pos = {u: i for i, u in enumerate(pverts)}

    def edges_under(images):
        return tuple(sorted(tuple(sorted((images[pos[u]], images[pos[v]])))
                            for u, v in f.graph.edges))

    auts = [a for a in itertools.permutations(pverts)
            if set(edges_under(a)) == set(f.graph.edges)]
    best = {}
    for images in itertools.permutations(sorted(vset)):
        key = edges_under(images)
        emb = min(tuple(images[pos[x]] for x in a) for a in auts)
        best[key] = min(best.get(key, emb), emb)
    return [(tuple(sorted(vset)), key, best[key]) for key in sorted(best)]


def spelled(copies):
    return [(tuple(sorted(fe.vertices)), tuple(sorted(fe.edge_set)),
             fe.embedding) for fe in copies]


class TestSymmetry:
    @pytest.mark.parametrize(
        "f", [pattern_preset(name) for name in PRESETS] + [C4_RELABELLED],
        ids=list(PRESETS) + ["c4-relabelled"])
    def test_copies_on_vertex_set_brute_force(self, f):
        for vset in (range(f.r), (2, 5, 7, 11, 13, 17)[:f.r],
                     (0, 3, 4, 9, 10, 12)[:f.r]):
            got = spelled(copies_on_vertex_set(f, vset))
            assert got == brute_copies_on(f, vset)
            assert len(got) == f.copies_per_vertex_set

    def test_no_automorphism_search_after_analysis(self, monkeypatch):
        import fthresh.graphs
        pats = [pattern_preset(name) for name in PRESETS] + [C4_RELABELLED]
        original = fthresh.graphs.automorphisms

        def forbidden(_g):
            raise AssertionError("automorphisms recomputed")

        for name, mod in list(sys.modules.items()):
            if name == "fthresh" or name.startswith("fthresh."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        monkeypatch.setattr(mod, attr, forbidden)
        for f in pats:
            assert copies_in(Graph.complete(f.r + 2), f)
            assert len(potential_copies_on(f, range(f.r + 1))) == \
                (f.r + 1) * f.copies_per_vertex_set


class TestInducedWitness:
    def test_sparse_pair_induces_nothing(self):
        h = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3)])
        assert induced_f_edges(h, K3) == set()

    def test_avoidable_induces(self):
        h = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3),
                                triangle(0, 2, 3)])
        induced = induced_f_edges(h, K3)
        assert triangle(1, 2, 3) in induced

    def test_witness_property_randomized(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(200):
            n = rng.randint(4, 10)
            h = random_fgraph(rng, n, 5)
            for target in induced_f_edges(h, K3):
                w = inducing_witness(h, K3, target)
                assert w.e() <= K3.s
                assert classify(w).kind in ("avoidable", "clean_cycle")
                assert target in induced_f_edges(w, K3)
                checked += 1
        assert checked > 0
