"""Dummy-extended graphs, clean d-cycle types, and placement enumeration."""

import itertools
from fractions import Fraction

import pytest

from fthresh.dgraphs import (DGraph, clean_cycle_types, cycle_placements,
                             dcycle_density, dcycle_of,
                             dcycle_report_csv, is_strictly_balanced_dcycle,
                             max_proper_subgraph_density, project,
                             sparse_cycle_placements,
                             verify_clean_dcycles_strictly_balanced)
from fthresh.fgraphs import FEdge, FGraph, all_potential_copies, classify
from fthresh.graphs import Graph
from fthresh.patterns import pattern_preset

K3 = pattern_preset("k3")


def triangle(a, b, c):
    return FEdge.from_embedding(K3, {0: a, 1: b, 2: c})


class TestDCycles:
    def test_sparse_two_cycle_density(self):
        cyc = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3)])
        d = dcycle_of(cyc, K3)
        assert d.sparsity == "sparse"
        assert dcycle_density(d) == Fraction(3, 2)
        assert max_proper_subgraph_density(d) == Fraction(5, 4)
        assert is_strictly_balanced_dcycle(d)

    def test_dense_three_cycle_density(self):
        cyc = FGraph.from_fedges([triangle(0, 1, 2), triangle(2, 3, 4),
                                  triangle(4, 5, 0)])
        d = dcycle_of(cyc, K3)
        assert d.sparsity == "dense"
        assert dcycle_density(d) == Fraction(3, 2)
        assert max_proper_subgraph_density(d) == Fraction(7, 5)
        assert is_strictly_balanced_dcycle(d)

    def test_dcycle_edge_count(self):
        cyc = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3)])
        d = dcycle_of(cyc, K3)
        assert d.dgraph.e() == 2 * K3.s
        assert len(d.dgraph.dummies) == 1

    def test_projection_drops_dummies(self):
        cyc = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3)])
        d = dcycle_of(cyc, K3)
        assert project(d.dgraph).e() == 2 * K3.s - 1


class TestCycleTypes:
    TYPE_COUNTS = {"k3": {2: 1, 3: 1},
                   "k4": {2: 1, 3: 1, 4: 1},
                   "c4": {2: 3, 3: 4, 4: 6},
                   "c5": {2: 3, 3: 4, 4: 6},
                   "k4me": {2: 7, 3: 16, 4: 43}}

    @pytest.mark.parametrize("name", sorted(TYPE_COUNTS))
    def test_counts(self, name):
        f = pattern_preset(name)
        expected = self.TYPE_COUNTS[name]
        for k, want in expected.items():
            types = clean_cycle_types(f, k)
            assert len(types) == want
            for cyc, _sig in types:
                cls = classify(cyc)
                assert cls.kind == "clean_cycle"
                assert cls.length == k
                assert cyc.vertices == frozenset(range(cyc.v()))

    def test_verify_all_presets(self):
        for name in ("k3", "c4", "k4"):
            f = pattern_preset(name)
            rows = verify_clean_dcycles_strictly_balanced(
                f, min(f.s, 4), name)
            assert all(r.strict_ok for r in rows)

    def test_report_csv(self):
        rows = verify_clean_dcycles_strictly_balanced(K3, 3, "k3")
        text = dcycle_report_csv(rows)
        assert text.splitlines()[0].startswith("pattern,k,")
        assert len(text.splitlines()) == len(rows) + 1


class TestPlacements:
    def brute_placements(self, n, max_len):
        copies = all_potential_copies(K3, n)
        out = set()
        for k in range(2, max_len + 1):
            for combo in itertools.combinations(copies, k):
                h = FGraph.from_fedges(combo)
                if classify(h).kind == "clean_cycle":
                    out.add(h.fedges)
        return out

    def test_matches_brute_force(self):
        n = 7
        copies = all_potential_copies(K3, n)
        got = {frozenset(copies[c] for c in ids)
               for ids in cycle_placements(K3, range(n), 3)}
        want = self.brute_placements(n, 3)
        assert got == want

    def test_sparse_placements_count(self):
        # one sparse pair per (edge, apex pair): 15 * C(4, 2) at n = 6
        assert len(sparse_cycle_placements(K3, range(6))) == 90

    def test_sparse_slots_deterministic(self):
        a = sparse_cycle_placements(K3, range(6))
        b = sparse_cycle_placements(K3, range(6))
        assert a == b
