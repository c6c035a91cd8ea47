"""Exponent certification and constant selection."""

import inspect
import sys
from fractions import Fraction

import pytest

from exponent_oracles import brute_max_g1

from fthresh.dgraphs import clean_cycle_types, dcycle_of
from fthresh.exponents import (admissible_f_subgraphs, certify,
                               constants_of, exponent_audit_csv, f_exponents,
                               max_g1_of_dcycle, select_constants)
from fthresh.graphs import Graph
from fthresh.patterns import pattern_preset

# delta = -max(max f1, max g1) / 4, eps from the uniform slack rule
CONSTANTS = {"k3": (Fraction(-1, 3), Fraction(1, 12), Fraction(1, 72)),
             "c4": (Fraction(-1, 4), Fraction(1, 16), Fraction(1, 160)),
             "c5": (Fraction(-1, 5), Fraction(1, 20), Fraction(3, 760)),
             "k4": (Fraction(-1, 2), Fraction(1, 8), Fraction(1, 96)),
             "k4me": (Fraction(-1, 5), Fraction(1, 20), Fraction(1, 200))}


class TestFExponents:
    def test_k3_single_edge(self):
        f = pattern_preset("k3")
        s = Graph.from_edges([(0, 1)])
        rep = f_exponents(f, s)
        assert rep.f1 == Fraction(-1, 3)
        assert rep.f2 == Fraction(5, 3)

    def test_k3_max_is_exact(self):
        f = pattern_preset("k3")
        assert select_constants(f).certified_max_f1 == Fraction(-1, 3)

    def test_admissible_subgraphs_proper_nonempty(self):
        f = pattern_preset("c4")
        subs = admissible_f_subgraphs(f)
        assert all(1 <= s.e() < f.s for s in subs)

    @pytest.mark.parametrize("name", sorted(CONSTANTS))
    def test_negative_for_presets(self, name):
        f = pattern_preset(name)
        assert select_constants(f).certified_max_f1 < 0


class TestGExponents:
    @pytest.mark.parametrize("name", sorted(CONSTANTS))
    def test_brute_force_agreement(self, name):
        """Every preset at length 2, and K3 and C4 at length 3."""
        f = pattern_preset(name)
        for k in (2, 3) if name in ("k3", "c4") else (2,):
            for cyc, _sig in clean_cycle_types(f, k):
                d = dcycle_of(cyc, f)
                got, _ = max_g1_of_dcycle(f, d)
                assert got == brute_max_g1(f, d)

    def test_certified_max_negative(self):
        for name in sorted(CONSTANTS):
            f = pattern_preset(name)
            cert = certify(f, min(f.s, 4))
            assert constants_of(cert).certified_max_g1 < 0
            assert cert.types

    def test_search_takes_no_frame_per_piece(self):
        """The first length-4 type of K4-e has 162 usable pieces, and a
        recursion one frame per piece deep fails 60 frames above the
        caller; the search must give the same maximum there."""
        f = pattern_preset("k4me")
        cycle, _sig = clean_cycle_types(f, 4)[0]
        d = dcycle_of(cycle, f)
        want = max_g1_of_dcycle(f, d)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            got = max_g1_of_dcycle(f, d)
        finally:
            sys.setrecursionlimit(limit)
        assert got == want

    def test_g1_equals_f1_minus_one_relation(self):
        f = pattern_preset("k3")
        sc = select_constants(f)
        assert sc.certified_max_g1 == sc.certified_max_f1


class TestSelectConstants:
    @pytest.mark.parametrize("name", sorted(CONSTANTS))
    def test_frozen_table(self, name):
        f = pattern_preset(name)
        maxval, delta, eps = CONSTANTS[name]
        sc = select_constants(f)
        assert sc.certified_max_f1 == maxval
        assert sc.certified_max_g1 == maxval
        assert sc.delta == delta
        assert sc.eps == eps

    def test_audit_csv(self):
        f = pattern_preset("k3")
        text = exponent_audit_csv(certify(f, min(f.s, 4)))
        lines = text.splitlines()
        assert lines[0].startswith("kind,")
        assert len(lines) > 2
