"""Cycle inventories and Poisson-approximation bounds."""

import math

import pytest

from fthresh.errors import DomainError
from fthresh.inventory import (build_inventory, chen_stein_bound,
                               inventory_size)
from fthresh.patterns import pattern_preset

K3 = pattern_preset("k3")


class TestInventory:
    def test_counts_match_size(self):
        for n in (5, 6, 7):
            inv = build_inventory(K3, n)
            assert inv.items is not None
            assert len(inv.items) == inv.total_count
            assert inv.total_count == inventory_size(K3, n, K3.s)

    def test_lengths_filter(self):
        inv = build_inventory(K3, 6, lengths={2})
        assert all(it.k == 2 for it in inv.items)
        assert inv.total_count == 90

    def test_lengths_filter_avoids_full_enumeration(self):
        # restricting to length 2 must not enumerate longer cycles
        inv = build_inventory(K3, 16, lengths={2}, cap=10 ** 6)
        assert inv.total_count == inventory_size(K3, 16, K3.s,
                                                 frozenset({2}))

    def test_aggregate_fallback(self):
        inv = build_inventory(K3, 8, explicit_limit=10)
        assert inv.items is None
        assert inv.total_count == inventory_size(K3, 8, K3.s)

    def test_item_shape(self):
        inv = build_inventory(K3, 5)
        for it in inv.items:
            assert it.exponent_h() == it.k
            assert it.exponent_g(K3.s) == it.k * K3.s
            assert it.verts == it.cycle.vertices


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
