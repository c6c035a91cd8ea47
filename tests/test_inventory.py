"""Cycle inventories and Poisson-approximation bounds."""

import math

import pytest

from fthresh.errors import DomainError
from fthresh.fgraphs import FGraph, classify, potential_copies_on, shadow
from fthresh.graphs import Graph
from fthresh.inventory import (DEFAULT_PAIRWISE_LIMIT, build_inventory,
                               chen_stein_bound, inventory_size)
from fthresh.patterns import analyze_pattern, pattern_preset

K3 = pattern_preset("k3")


class TestInventory:
    def test_counts_match_size(self):
        for n in (5, 6):
            inv = build_inventory(K3, n)
            assert inv.items is not None
            assert len(inv.items) == inv.total_count
            assert inv.total_count == inventory_size(K3, n)
        # past the pairwise limit only the count is kept
        inv = build_inventory(K3, 7)
        assert inv.items is None
        assert inv.total_count == inventory_size(K3, 7) == 1050

    def test_lengths_filter(self):
        inv = build_inventory(K3, 6, lengths={2})
        assert all(it.k == 2 for it in inv.items)
        assert inv.total_count == 90

    def test_lengths_beyond_the_template_are_empty(self):
        inv = build_inventory(K3, 6, lengths={5})
        assert (inv.items, inv.total_count) == ((), 0)
        assert chen_stein_bound(inv, 0.1, 0.5) == (0.0, 0.0)

    def test_lengths_filter_avoids_full_enumeration(self):
        # restricting to length 2 must not enumerate longer cycles: the
        # cap counts placements, 420 2-cycles against 3,780 of all lengths
        inv = build_inventory(K3, 8, lengths={2}, cap=2_000)
        assert len(inv.items) == inv.total_count == inventory_size(
            K3, 8, frozenset({2}))

    def test_aggregate_fallback(self):
        inv = build_inventory(K3, 8)
        assert inv.total_count > DEFAULT_PAIRWISE_LIMIT
        assert inv.items is None
        assert inv.total_count == inventory_size(K3, 8)

    def test_item_shape(self):
        inv = build_inventory(K3, 5)
        copies = potential_copies_on(K3, range(5))
        for it in inv.items:
            cycle = FGraph.from_fedges(copies[c] for c in it.copy_ids)
            cls = classify(cycle)
            assert cls.kind == "clean_cycle"
            assert it.k == cls.length == len(it.copy_ids)
            assert it.sparse == (cls.sparsity == "sparse")
            assert it.exponent_h() == it.k
            assert it.exponent_g(K3.s) == it.k * K3.s
            assert it.verts == cycle.vertices
            assert it.shadow_mask == sum(1 << (u * 5 + v)
                                         for u, v in shadow(cycle).edges)


class TestChenStein:
    def test_exact_small_case(self):
        """At n = 4 only the six sparse 2-cycles exist and the bound has a
        closed form: 4 * (42 pi^4 + 24 pi^3)."""
        inv = build_inventory(K3, 4)
        assert inv.total_count == 6
        for pi in (0.05, 0.2, 0.6):
            bh, _bg = chen_stein_bound(inv, pi, 0.0)
            assert bh == pytest.approx(4 * (42 * pi ** 4 + 24 * pi ** 3),
                                       rel=1e-12)

    def test_pairwise_vs_aggregate(self):
        for n in (5, 6):
            inv = build_inventory(K3, n)
            pi, p = 0.07, 0.3
            pw = chen_stein_bound(inv, pi, p, pairwise_limit=10 ** 6)
            ag = chen_stein_bound(inv, pi, p, pairwise_limit=0)
            assert pw[0] == pytest.approx(ag[0], rel=1e-9)
            assert pw[1] == pytest.approx(ag[1], rel=1e-9)

    def test_pairwise_vs_aggregate_restricted(self):
        inv = build_inventory(K3, 6, lengths={2})
        pw = chen_stein_bound(inv, 0.1, 0.4, pairwise_limit=10 ** 6)
        ag = chen_stein_bound(inv, 0.1, 0.4, pairwise_limit=0)
        assert pw[0] == pytest.approx(ag[0], rel=1e-9)
        assert pw[1] == pytest.approx(ag[1], rel=1e-9)

    def test_aggregate_enumerates_requested_lengths_only(self):
        """The C4 buckets of length 2 come from 2-cycles alone; chaining
        3- and 4-cycles on the 11-label pool would exceed the cap."""
        c4 = pattern_preset("c4")
        inv = build_inventory(c4, 6, lengths={2})
        pw = chen_stein_bound(inv, 0.01, 0.2)
        ag = chen_stein_bound(inv, 0.01, 0.2, pairwise_limit=0)
        assert pw == pytest.approx((0.067635, 0.0083960), rel=1e-4)
        assert ag[0] == pytest.approx(pw[0], rel=1e-9)
        assert ag[1] == pytest.approx(pw[1], rel=1e-9)

    def test_aggregate_buckets_follow_the_labelling(self):
        """Which cycle type sits at which index depends on F's labelling,
        so two labellings of C4 in one process must not share buckets."""
        for edges in ([(0, 1), (1, 2), (2, 3), (0, 3)],
                      [(0, 2), (1, 2), (1, 3), (0, 3)]):
            f = analyze_pattern(Graph.from_edges(edges))
            inv = build_inventory(f, 6, lengths={2})
            ag = chen_stein_bound(inv, 0.01, 0.2, pairwise_limit=0)
            assert ag == pytest.approx((0.067635, 0.0083960), rel=1e-4)

    def test_domain(self):
        inv = build_inventory(K3, 4)
        with pytest.raises(DomainError):
            chen_stein_bound(inv, -0.1, 0.5)
        with pytest.raises(DomainError):
            chen_stein_bound(inv, 0.5, 1.5)

    def test_empty_inventory(self):
        inv = build_inventory(K3, 3)
        assert inv.total_count == 0
        assert chen_stein_bound(inv, 0.5, 0.5) == (0.0, 0.0)
