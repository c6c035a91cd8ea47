"""Template analysis and threshold parameter formulas."""

import math
from fractions import Fraction

import pytest
from graph_helpers import path

from fthresh.errors import (DisconnectedInputError, DomainError,
                            NotStrictlyOneBalancedError)
from fthresh.graphs import Graph
from fthresh.patterns import (analyze_pattern, derive_params,
                              max_degree_cutoff, p_star, pattern_preset,
                              pi_prime, pi_star, pi_upper_bound)


class TestAnalyze:
    def test_triangle(self):
        f = pattern_preset("k3")
        assert (f.r, f.s, f.aut) == (3, 3, 6)
        assert f.d1 == Fraction(3, 2)
        assert f.strictly_1_balanced
        assert f.copies_per_vertex_set == 1

    def test_k4_minus_edge(self):
        f = pattern_preset("k4me")
        assert (f.r, f.s, f.aut) == (4, 5, 4)
        assert f.d1 == Fraction(5, 3)
        assert f.copies_per_vertex_set == 6

    def test_path_rejected(self):
        with pytest.raises(NotStrictlyOneBalancedError) as exc:
            analyze_pattern(path(4))
        assert exc.value.witness is not None
        # the witness has the fewest vertices, then the least labels
        assert str(exc.value) == "subgraph on [0, 1] has 1-density 1 >= 1"

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedInputError):
            analyze_pattern(Graph.from_edges([(0, 1), (2, 3)]))


class TestFormulas:
    def test_p_star_values(self):
        f = pattern_preset("k3")
        assert p_star(f, 60) == pytest.approx(
            (math.log(60) / math.comb(59, 2)) ** (1 / 3), rel=1e-12)
        assert p_star(f, 60) == pytest.approx(0.13371, abs=5e-5)
        assert p_star(f, 300) == pytest.approx(0.05043, abs=5e-5)

    def test_p_star_fixed_point(self):
        # ln(n)/C(n-1,1) = 1 at n = e^2 has no integer solution for K2,
        # so force the ratio to 1 through a degenerate instance instead
        f = pattern_preset("k3")
        n = 4
        ratio = math.log(n) / math.comb(n - 1, 2)
        assert p_star(f, n) == pytest.approx(ratio ** (1 / 3), rel=1e-12)

    def test_p_star_domain(self):
        f = pattern_preset("k3")
        with pytest.raises(DomainError):
            p_star(f, 3)

    def test_pi_star(self):
        f = pattern_preset("k3")
        assert pi_star(f, 60) == pytest.approx(
            math.log(60) / math.comb(59, 2), rel=1e-12)

    def test_pi_prime_merge_law(self):
        f = pattern_preset("k4me")
        pi = 0.01
        assert pi_prime(f, pi) == pytest.approx(1 - 0.99 ** 6, rel=1e-12)

    def test_degree_cutoff(self):
        n, eps = 60, 0.01
        assert max_degree_cutoff(n, eps) == pytest.approx(
            n ** eps + math.log(n) * n ** (eps / 2), rel=1e-12)


class TestDeriveParams:
    def test_fields(self):
        f = pattern_preset("k3")
        params = derive_params(f, 60, 1 / 12, 1 / 72)
        assert params.divisible
        assert params.pi == pytest.approx(pi_upper_bound(f, 60, 1 / 72))
        assert params.p == pytest.approx(
            (params.pi / (1 - 60 ** (-1 / 12))) ** (1 / 3), rel=1e-12)
        assert 0 < params.pi < params.p < 1

    def test_pi_override(self):
        f = pattern_preset("k3")
        params = derive_params(f, 60, 1 / 12, 1 / 72, pi=0.001)
        assert params.pi == 0.001

    def test_p_above_one_rejected(self):
        f = pattern_preset("k3")
        with pytest.raises(DomainError):
            derive_params(f, 60, 1 / 12, 1 / 72, pi=0.9999)

    def test_small_n_rejected(self):
        f = pattern_preset("k3")
        with pytest.raises(DomainError):
            derive_params(f, 3, 1 / 12, 1 / 72)
