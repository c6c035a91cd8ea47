"""Cycle inventories and Poisson-approximation bounds."""

import hashlib
import tracemalloc

import pytest
from inventory_oracles import (inventory_items, pair_buckets_full,
                               pairwise_terms_loop)

from fthresh.cli import main
from fthresh.errors import DomainError, ResourceLimitError
from fthresh.fgraphs import FGraph, classify, potential_copies_on, shadow
from fthresh.graphs import Graph
from fthresh.inventory import (_pair_buckets, _type_reps, build_inventory,
                               chen_stein_bound, inventory_size)
from fthresh.patterns import analyze_pattern, pattern_preset

K3 = pattern_preset("k3")

# (pi, p) pairs for the checks against the loop, both ends of [0, 1] too
PI_P = [(0.07, 0.3), (0.01, 0.2), (0.5, 0.5), (0, 1), (1, 0)]

# chen-stein arguments -> sha256 of stdout; moves with any bound's last bit
CHEN_STEIN_GOLDEN = {
    ("--pattern", "k3", "--n", "6", "7", "8"):
        "027184b1992fd6ea51285743b815d292fba5fe85eaed1eef31946ef9c028cf1b",
    ("--pattern", "c4", "--n", "6"):
        "3013f52ca80b9296136f4724a0c1d60663d0fe610596e1565f586ee00871d5a1",
    ("--pattern", "k3", "--n", "5", "--pi", "0.01"):
        "945f1fc405586a8b873b13ab282b03d3d9b5cdc89a4afbec0894c793b3ae21e1",
}


class TestInventory:
    def test_counts_match_size(self):
        # the orbit counts against the listed placements
        for n in (5, 6):
            inv = build_inventory(K3, n)
            assert len(inventory_items(K3, n)) == inv.total_count
            assert inv.total_count == inventory_size(K3, n)
        assert build_inventory(K3, 7).total_count == 1050

    def test_lengths_filter(self):
        inv = build_inventory(K3, 6, lengths={2})
        assert inv.total_count == 90
        assert [it.k for it in inventory_items(K3, 6, {2})] == [2] * 90

    def test_lengths_beyond_the_template_are_empty(self):
        inv = build_inventory(K3, 6, lengths={5})
        assert inv.total_count == 0
        assert chen_stein_bound(inv, 0.1, 0.5) == (0.0, 0.0)

    def test_lengths_filter_avoids_full_enumeration(self):
        # the length-2 count comes from the 2-cycle orbits alone: 420 of
        # the 3,780 placements of all lengths
        assert build_inventory(K3, 8, lengths={2}).total_count == \
            inventory_size(K3, 8, frozenset({2})) == 420

    def test_aggregate_fallback(self):
        inv = build_inventory(K3, 8)
        assert inv.total_count == inventory_size(K3, 8) == 3780

    def test_item_shape(self):
        copies = potential_copies_on(K3, range(5))
        for it in inventory_items(K3, 5):
            cycle = FGraph.from_fedges(copies[c] for c in it.copy_ids)
            cls = classify(cycle)
            assert cls.kind == "clean_cycle"
            assert it.k == cls.length == len(it.copy_ids)
            assert it.sparse == (cls.sparsity == "sparse")
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
            pw = pairwise_terms_loop(inv, pi, p)
            ag = chen_stein_bound(inv, pi, p)
            assert pw[0] == pytest.approx(ag[0], rel=1e-9)
            assert pw[1] == pytest.approx(ag[1], rel=1e-9)

    def test_pairwise_vs_aggregate_restricted(self):
        inv = build_inventory(K3, 6, lengths={2})
        pw = pairwise_terms_loop(inv, 0.1, 0.4)
        ag = chen_stein_bound(inv, 0.1, 0.4)
        assert pw[0] == pytest.approx(ag[0], rel=1e-9)
        assert pw[1] == pytest.approx(ag[1], rel=1e-9)

    def test_aggregate_enumerates_requested_lengths_only(self):
        """The C4 buckets of length 2 come from 2-cycles alone; chaining
        3- and 4-cycles on the 11-label pool would exceed the cap."""
        inv = build_inventory(pattern_preset("c4"), 6, lengths={2})
        assert chen_stein_bound(inv, 0.01, 0.2) == pytest.approx(
            (0.067635, 0.0083960), rel=1e-4)

    @pytest.mark.parametrize("name,ns", [("c4", (6, 7, 8)), ("k4", (6, 7, 8)),
                                         ("k4me", (8,))])
    def test_lengths_that_do_not_fit_add_nothing(self, name, ns):
        """A clean k-cycle has k * (r - 1) vertices, so on at most 8
        vertices these templates have 2-cycles alone: the combined class
        is bounded, and as its length-2 class, float for float."""
        f = pattern_preset(name)
        for n in ns:
            for pi, p in PI_P:
                got = chen_stein_bound(build_inventory(f, n), pi, p)
                want = chen_stein_bound(build_inventory(f, n, {2}), pi, p)
                assert [b.hex() for b in got] == [b.hex() for b in want]

    def test_aggregate_buckets_follow_the_labelling(self):
        """Which cycle type sits at which index depends on F's labelling,
        so two labellings of C4 in one process must not share buckets."""
        for edges in ([(0, 1), (1, 2), (2, 3), (0, 3)],
                      [(0, 2), (1, 2), (1, 3), (0, 3)]):
            f = analyze_pattern(Graph.from_edges(edges))
            inv = build_inventory(f, 6, lengths={2})
            assert chen_stein_bound(inv, 0.01, 0.2) == pytest.approx(
                (0.067635, 0.0083960), rel=1e-4)

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


class TestPairBuckets:
    """The buckets from the least fresh labels of each size against the
    buckets from the whole fresh pool: the same keys, counts and order."""

    @pytest.mark.parametrize("name,lengths,anchors", [
        ("k3", frozenset({2}), None), ("k3", frozenset({3}), None),
        ("k3", None, None), ("c4", frozenset({2}), None),
        ("k4me", frozenset({2}), 1)])
    def test_equal_to_the_full_pool(self, name, lengths, anchors):
        f = pattern_preset(name)
        for anchor in _type_reps(f, lengths)[:anchors]:
            got = _pair_buckets(f, anchor, lengths)
            assert list(got.items()) == \
                list(pair_buckets_full(f, anchor, lengths).items())

    def test_k3_aggregated_bounds(self):
        """The type-aggregated K3 bounds as float hex, pinned before the
        buckets were built from the least fresh labels."""
        digest = hashlib.sha256()
        for lengths in ({2}, {3}, None):
            for n in range(4, 21):
                inv = build_inventory(K3, n, lengths=lengths)
                for pi, p in [(0.07, 0.3), (0.01, 0.2), (0.5, 0.5),
                              (0.003, 0.11)]:
                    for b in chen_stein_bound(inv, pi, p, pairwise_limit=0):
                        digest.update(b.hex().encode() + b"\n")
        assert digest.hexdigest() == \
            "f06d219d8b86f9c45ab2557e452f8e8ecef99f48ec221a922a05a35afe907c12"

    def test_cap_is_checked_before_any_row(self):
        """C4's length-3 buckets need 104,305,320 least-fresh 3-cycles
        around each anchor; the cap refuses them from the type orbits
        before an array is allocated."""
        c4 = pattern_preset("c4")
        lengths = frozenset({3})
        anchor = _type_reps(c4, frozenset({2, 3}))[-1]  # builds both types
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError,
                               match="exceed cap") as refused:
                _pair_buckets(c4, anchor, lengths)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert int(str(refused.value).split()[0]) >= 104_305_320
        assert peak < 2 ** 24


class TestPairwiseKernel:
    """The type-aggregated sums against the scalar loop over every ordered
    pair of placements, and the CLI table as a whole."""

    CASES = ([("k3", n, lengths) for n in range(3, 9)
              for lengths in (None, {2}, {3})]
             + [("c4", n, {2}) for n in (5, 6, 7)]
             + [("c4", 6, None), ("k4", 6, None), ("k4", 7, None)])
    # the loop is quadratic in the placements
    LOOP_LIMIT = 600

    def listable(self):
        """The cases of CASES with 1 to LOOP_LIMIT placements."""
        for name, n, lengths in self.CASES:
            inv = build_inventory(pattern_preset(name), n, lengths=lengths)
            if 0 < inv.total_count <= self.LOOP_LIMIT:
                yield (name, n, lengths), inv

    def test_equals_the_loop(self):
        looped = 0
        for case, inv in self.listable():
            looped += 1
            for pi, p in PI_P:
                got = chen_stein_bound(inv, pi, p)
                assert all(type(b) is float for b in got)
                assert got == pytest.approx(
                    pairwise_terms_loop(inv, pi, p), rel=1e-9), \
                    (case, pi, p)
        # K3: 4 and 5 all and {2}, 6 all, {2} and {3}, 7 and 8 {2};
        # C4: 6 {2} and all; K4: 6 and 7 all
        assert looped == 13

    def test_equals_the_loop_bit_for_bit(self):
        """With pi and p in {0, 1} every term is 0 or 1, so both sums are
        exact integer counts of overlapping pairs: the aggregated bound
        must equal the loop's float for float."""
        for case, inv in self.listable():
            for pi, p in [(0, 1), (1, 0), (1, 1), (0, 0)]:
                got = chen_stein_bound(inv, pi, p)
                want = pairwise_terms_loop(inv, pi, p)
                assert [b.hex() for b in got] == [b.hex() for b in want], \
                    (case, pi, p)

    @pytest.mark.parametrize("args", sorted(CHEN_STEIN_GOLDEN))
    def test_cli_golden(self, args, capsys):
        assert main(["chen-stein", *args]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == CHEN_STEIN_GOLDEN[args]
