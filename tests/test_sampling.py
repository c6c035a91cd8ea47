"""Counter-based samplers: determinism, monotone reuse, marginals."""

import collections
import math

import numpy as np
import pytest
from graph_helpers import merge_to_hr
from placement_oracles import by_pair_sparse_placements

from fthresh import exactengine, sampling
from fthresh.dgraphs import sparse_cycle_placements
from fthresh.fgraphs import FGraph, classify
from fthresh.graphs import _adjacency_matrix
from fthresh.patterns import pattern_preset, pi_prime
from fthresh.sampling import (STREAM_COPIES, STREAM_DUMMIES, STREAM_EDGES,
                              GraphAt, dummy_slots, edge_order,
                              edge_uniforms, graph_from_uniforms,
                              neighbour_masks_at, rng_for, sample_gnp,
                              sample_gstar, sample_hf, slots_of, uniforms)

K3 = pattern_preset("k3")


class TestStreams:
    def test_deterministic(self):
        assert np.array_equal(uniforms(7, 0, 100), uniforms(7, 0, 100))

    def test_streams_differ(self):
        assert not np.array_equal(uniforms(7, STREAM_EDGES, 100),
                                  uniforms(7, STREAM_COPIES, 100))

    def test_seeds_differ(self):
        assert not np.array_equal(uniforms(7, 0, 100), uniforms(8, 0, 100))


class TestGnp:
    def test_monotone_in_p(self):
        us = edge_uniforms(10, 3)
        g1 = graph_from_uniforms(10, us, 0.2)
        g2 = graph_from_uniforms(10, us, 0.5)
        assert g1.edges <= g2.edges

    def test_extremes(self):
        us = edge_uniforms(8, 0)
        assert graph_from_uniforms(8, us, 1.0).e() == 28
        assert graph_from_uniforms(8, us, 0.0).e() == 0

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 1.0])
    def test_graph_at_reads_as_the_built_graph(self, p):
        us = edge_uniforms(9, 4)
        g, view = graph_from_uniforms(9, us, p), GraphAt(9, us, p)
        assert view.vertices == g.vertices and view.v() == g.v()
        for u in range(9):
            for v in range(9):
                if u != v:
                    assert view.has_edge(u, v) == g.has_edge(u, v)

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 70])
    def test_neighbour_masks_at_read_as_the_built_graph(self, n):
        us = edge_uniforms(n, 5)
        hverts, adj = _adjacency_matrix(graph_from_uniforms(n, us, 0.4))
        assert hverts == list(range(n))
        assert np.array_equal(neighbour_masks_at(n, us, 0.4), adj)

    def test_edge_count_statistics(self):
        n, p, reps = 12, 0.3, 300
        m = n * (n - 1) // 2
        counts = [sample_gnp(n, p, s).e() for s in range(reps)]
        mean = sum(counts) / reps
        sd = math.sqrt(m * p * (1 - p) / reps)
        assert abs(mean - m * p) < 4 * sd


class TestCopyProcess:
    def test_deterministic(self):
        h1 = sample_hf(K3, 8, 0.1, 5)
        h2 = sample_hf(K3, 8, 0.1, 5)
        assert h1.fedges == h2.fedges

    def test_copy_count_statistics(self):
        n, pi, reps = 7, 0.15, 300
        m = math.comb(n, 3)
        counts = [sample_hf(K3, n, pi, s).e() for s in range(reps)]
        mean = sum(counts) / reps
        sd = math.sqrt(m * pi * (1 - pi) / reps)
        assert abs(mean - m * pi) < 4 * sd

    def test_merge_law(self):
        """Merged hyperedge frequency matches 1 - (1 - pi)^(r!/aut)."""
        f = pattern_preset("k4me")
        n, pi, reps = 6, 0.05, 4000
        target = frozenset({0, 1, 2, 3})
        hits = sum(target in merge_to_hr(sample_hf(f, n, pi, s))
                   for s in range(reps))
        expect = pi_prime(f, pi)
        assert expect == pytest.approx(1 - (1 - pi) ** 6, rel=1e-12)
        sd = math.sqrt(expect * (1 - expect) / reps)
        assert abs(hits / reps - expect) < 4 * sd


class TestAuxiliaryGraph:
    def test_deterministic(self):
        g1 = sample_gstar(K3, 7, 0.4, 9)
        g2 = sample_gstar(K3, 7, 0.4, 9)
        assert g1.base.edges == g2.base.edges
        assert g1.dummies == g2.dummies

    def test_dummy_keys_are_sparse_cycles(self):
        g = sample_gstar(K3, 7, 0.6, 1)
        for key in g.dummies:
            cls = classify(FGraph.from_fedges(key))
            assert cls.kind == "clean_cycle"
            assert cls.sparsity == "sparse"

    def test_dummy_count_statistics(self):
        n, p, reps = 6, 0.25, 300
        slots = 90
        counts = [len(sample_gstar(K3, n, p, s).dummies)
                  for s in range(reps)]
        mean = sum(counts) / reps
        sd = math.sqrt(slots * p * (1 - p) / reps)
        assert abs(mean - slots * p) < 4 * sd

    def test_base_matches_gnp_stream(self):
        assert sample_gstar(K3, 7, 0.4, 9).base.edges == \
            sample_gnp(7, 0.4, 9).edges


class TestDummySlots:
    KEYS = ((K3, 6), (K3, 7), (pattern_preset("c4"), 6))

    def test_draws_match_a_direct_build(self):
        for f, n in self.KEYS:
            slots = by_pair_sparse_placements(f, range(n))
            for seed in range(5):
                us = uniforms(seed, STREAM_DUMMIES, len(slots))
                want = frozenset(slots[i] for i in np.flatnonzero(us < 0.3))
                assert sample_gstar(f, n, 0.3, seed).dummies == want

    def test_built_once_per_key(self, monkeypatch):
        calls = collections.Counter()

        def counting(f, n):
            calls[(f, n)] += 1
            return sparse_cycle_placements(f, n)

        monkeypatch.setattr(sampling, "sparse_cycle_placements", counting)
        dummy_slots.cache_clear()
        try:
            for seed in range(3):
                for f, n in self.KEYS:
                    sample_gstar(f, n, 0.3, seed)
        finally:
            dummy_slots.cache_clear()
        assert calls == {key: 1 for key in self.KEYS}


def test_sample_gstar_builds_no_placement_table(monkeypatch):
    """sample_gstar takes its slots from the sparse 2-cycles alone, not
    from the table of every cycle length (366,366 rows for K3 at n = 14)."""
    def refuse(*args):
        raise AssertionError("placement table built")

    monkeypatch.setattr(exactengine.Placements, "__init__", refuse)
    dummy_slots.cache_clear()
    try:
        g = sample_gstar(K3, 16, 0.2, 3)
    finally:
        dummy_slots.cache_clear()
    assert len(g.dummies) > 0


def test_edge_order_is_lexicographic():
    assert edge_order(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_edge_slots_index_edge_order():
    """slots_of on ints, as GraphAt.has_edge calls it, gives each edge's
    position in edge_order."""
    assert edge_order(7) is edge_order(7)
    assert [slots_of(u, v, 7) for u, v in edge_order(7)] == list(range(21))


@pytest.mark.parametrize("n", [2, 3, 7, 60])
def test_slots_of_is_edge_slots_in_closed_form(n):
    lo, hi = np.array(edge_order(n)).T
    assert slots_of(lo, hi, n).tolist() == list(range(n * (n - 1) // 2))


def test_rng_for_reproducible():
    assert rng_for(1, 2).random() == rng_for(1, 2).random()
