"""Dummy-extended graphs, clean d-cycle types, and placement enumeration."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from placement_oracles import (by_pair_sparse_placements,
                               chain_cycle_placements)

from fthresh.cli import main
from fthresh.dgraphs import (clean_cycle_types, cycle_placements, dcycle_of,
                             sparse_cycle_placements)
from fthresh.errors import CounterexampleError, ResourceLimitError
from fthresh.exactengine import Placements
from fthresh.exponents import (certify, constants_of, dcycle_density,
                               dcycle_report_csv,
                               max_proper_subgraph_density, select_constants,
                               verify_clean_dcycles_strictly_balanced)
from fthresh.fgraphs import (FEdge, FGraph, all_potential_copies, classify,
                             count_copies, potential_copies_on)
from fthresh.graphs import Graph
from fthresh.inventory import build_inventory, chen_stein_bound
from fthresh.patterns import analyze_pattern, pattern_preset

K3 = pattern_preset("k3")


def triangle(a, b, c):
    return FEdge.from_embedding(K3, {0: a, 1: b, 2: c})


class TestDCycles:
    def test_sparse_two_cycle_density(self):
        cyc = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3)])
        d = dcycle_of(cyc, K3)
        assert d.sparsity == "sparse"
        assert dcycle_density(d) == Fraction(3, 2)
        assert max_proper_subgraph_density(d.dgraph) == Fraction(5, 4)
        assert max_proper_subgraph_density(d.dgraph) < dcycle_density(d)

    def test_dense_three_cycle_density(self):
        cyc = FGraph.from_fedges([triangle(0, 1, 2), triangle(2, 3, 4),
                                  triangle(4, 5, 0)])
        d = dcycle_of(cyc, K3)
        assert d.sparsity == "dense"
        assert dcycle_density(d) == Fraction(3, 2)
        assert max_proper_subgraph_density(d.dgraph) == Fraction(7, 5)
        assert max_proper_subgraph_density(d.dgraph) < dcycle_density(d)

    def test_dcycle_edge_count(self):
        cyc = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3)])
        d = dcycle_of(cyc, K3)
        assert d.dgraph.e() == 2 * K3.s
        assert len(d.dgraph.dummies) == 1

    def test_projection_drops_dummies(self):
        cyc = FGraph.from_fedges([triangle(0, 1, 2), triangle(0, 1, 3)])
        d = dcycle_of(cyc, K3)
        assert d.dgraph.base.e() == 2 * K3.s - 1


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

    def test_built_once_per_template_and_length(self, tmp_path):
        """Every reader shares the types: a verify run, the constants, a
        Chen-Stein bound and a placement table build each (pattern, k)
        once; a memo miss is a build."""
        clean_cycle_types.cache_clear()

        def built():
            return clean_cycle_types.cache_info().misses

        assert main(["verify", "--pattern", "k4me", "--out",
                     str(tmp_path / "verify.csv")]) == 0
        assert built() == 3  # k = 2, 3, 4
        select_constants(pattern_preset("k4me"))
        assert built() == 3
        chen_stein_bound(build_inventory(K3, 14), 0.01, 0.2)
        assert built() == 5  # and K3 at k = 2, 3
        Placements(K3, 8)
        assert built() == 5

    def test_types_follow_the_labelling(self):
        """The types are keyed by the labelled template: each copy of a
        representative is the image of F's own edges under its embedding,
        for C4 labelled 0-1-2-3 and 0-2-1-3 alike."""
        relabelled = analyze_pattern(
            Graph.from_edges([(0, 2), (2, 1), (1, 3), (3, 0)]))
        for f in (pattern_preset("c4"), relabelled):
            pverts = sorted(f.graph.vertices)
            for k in (2, 3, 4):
                for cyc, _sig in clean_cycle_types(f, k):
                    for fe in cyc.fedges:
                        image = FEdge.from_embedding(
                            f, dict(zip(pverts, fe.embedding)))
                        assert image.edge_set == fe.edge_set

    def test_verify_all_presets(self):
        for name in ("k3", "c4", "k4"):
            f = pattern_preset(name)
            rows = verify_clean_dcycles_strictly_balanced(
                certify(f, min(f.s, 4)))
            assert all(r.strict_ok for r in rows)

    def test_failed_type_raises_in_verify_only(self):
        """verify stops at the first type that is not strictly balanced;
        the constants read the same rows and do not raise."""
        cert = certify(K3, 3)
        bad = dataclasses.replace(cert.types[0], strict_ok=False)
        cert = dataclasses.replace(cert, types=(bad, *cert.types[1:]))
        with pytest.raises(CounterexampleError) as exc:
            verify_clean_dcycles_strictly_balanced(cert)
        assert exc.value.witness is bad.dcycle
        assert constants_of(cert) == select_constants(K3)

    def test_report_csv(self):
        rows = verify_clean_dcycles_strictly_balanced(certify(K3, 3))
        text = dcycle_report_csv(rows, "k3")
        assert text.splitlines()[0].startswith("pattern,k,")
        assert len(text.splitlines()) == len(rows) + 1


def rows_of(placements):
    """The cycle_placements rows as tuples of copy ids."""
    return [tuple(ids[:k]) for ids, k in zip(placements.copy_ids.tolist(),
                                             placements.lengths.tolist())]


# the templates and label counts the reference enumerators are held to
ORACLE_KEYS = ([("k3", n) for n in range(4, 11)]
               + [("c4", n) for n in (6, 7, 8)]
               + [(name, n) for name in ("c5", "k4me", "k4") for n in (7, 8)]
               + [("k4", 9)])


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
               for ids in rows_of(cycle_placements(K3, n, (2, 3)))}
        want = self.brute_placements(n, 3)
        assert got == want

    @pytest.mark.parametrize("name,n", ORACLE_KEYS)
    def test_rows_match_the_chain_recursion(self, name, n):
        """Relabelled type representatives give the rows the chain search
        over the copies finds, in the same order; the enumerator trusts
        clean_cycle_types to be complete, and this checks it."""
        f = pattern_preset(name)
        rows = cycle_placements(f, n, range(2, f.s + 1))
        assert rows_of(rows) == chain_cycle_placements(f, range(n), f.s)
        assert rows.copy_ids.dtype == np.int32
        assert rows.copy_ids.flags.c_contiguous

    @pytest.mark.parametrize("name,n", [key for key in ORACLE_KEYS
                                        if key[1] <= 8])
    def test_sparse_placements_match_the_pair_loop(self, name, n):
        f = pattern_preset(name)
        assert sparse_cycle_placements(f, n) == \
            by_pair_sparse_placements(f, range(n))

    def test_labels_are_interchangeable(self):
        """Copy ids on n labels index potential_copies_on(f, labels),
        whatever the n labels are."""
        labels = (3, 5, 8, 9, 11, 20, 21)
        copies = potential_copies_on(K3, labels)
        rows = cycle_placements(K3, len(labels), (2, 3))
        got = {frozenset(copies[c] for c in ids) for ids in rows_of(rows)}
        assert len(got) == 1050
        assert all(classify(FGraph.from_fedges(cyc)).kind == "clean_cycle"
                   for cyc in got)
        sparse = rows.copy_ids[rows.sparse, :2].tolist()
        assert {frozenset((copies[a], copies[b])) for a, b in sparse} == \
            set(by_pair_sparse_placements(K3, labels))

    def test_cap_counts_placements(self):
        """K3 has 420 2-cycles and 3,360 3-cycles on 8 labels; the cap is
        checked against that exact count before any row is built."""
        with pytest.raises(ResourceLimitError):
            cycle_placements(K3, 8, (2, 3), cap=3_779)
        assert len(cycle_placements(K3, 8, (2, 3), cap=3_780).lengths) \
            == 3_780

    @pytest.mark.parametrize("name,n,max_len,fresh_from",
                             [("k3", 9, 3, 4), ("k3", 11, 3, 6),
                              ("c4", 10, 2, 5)])
    def test_fresh_prefix_keeps_a_subsequence(self, name, n, max_len,
                                              fresh_from):
        """With fresh_from the rows are exactly the full rows whose labels
        from fresh_from on are the least ones, with the same copy ids and
        in the same order; the cap is checked against their exact count."""
        f = pattern_preset(name)
        copies = potential_copies_on(f, range(n))
        lengths = range(2, max_len + 1)
        full = cycle_placements(f, n, lengths)

        def prefix(ids):
            fresh = sorted({u for c in ids for u in copies[c].vertices
                            if u >= fresh_from})
            return fresh == list(range(fresh_from, fresh_from + len(fresh)))

        keep = [prefix(ids) for ids in rows_of(full)]
        want = len(full.lengths[keep])
        assert 0 < want < len(full.lengths)
        with pytest.raises(ResourceLimitError):
            cycle_placements(f, n, lengths, cap=want - 1,
                             fresh_from=fresh_from)
        got = cycle_placements(f, n, lengths, cap=want,
                               fresh_from=fresh_from)
        for column in ("copy_ids", "lengths", "sparse"):
            assert np.array_equal(getattr(got, column),
                                  getattr(full, column)[keep])

    def test_nine_vertex_types(self):
        """The four length-3 types of C4 have nine vertices and nontrivial
        automorphism groups; each relabelling is built once, as a coset
        representative. (K4 on 9 labels is held to the chain recursion
        above; for C4 there it takes 7 s.)"""
        c4 = pattern_preset("c4")
        rows = cycle_placements(c4, 9, (2, 3))
        ids = rows.copy_ids[rows.lengths == 3]
        want = sum(count_copies(cyc, 9)
                   for cyc, _sig in clean_cycle_types(c4, 3))
        assert len({tuple(r) for r in ids.tolist()}) == len(ids) == want
        copies = potential_copies_on(c4, range(9))
        for r in ids[::len(ids) // 50].tolist():
            cls = classify(FGraph.from_fedges(copies[c] for c in r))
            assert cls.kind == "clean_cycle" and cls.length == 3

    def test_sparse_placements_count(self):
        # one sparse pair per (edge, apex pair): 15 * C(4, 2) at n = 6
        assert len(sparse_cycle_placements(K3, 6)) == 90

    def test_sparse_slots_deterministic(self):
        a = sparse_cycle_placements(K3, 6)
        b = sparse_cycle_placements(K3, 6)
        assert a == b
