"""Factor search against a brute-force oracle."""

import itertools
import random
import sys

import pytest
from factor_oracles import (copies_by_embedding, enumerate_copies,
                            recount_factor_search)

from fthresh.errors import DomainError, ResourceLimitError
from fthresh.factors import f_isolated, find_f_factor, verify_factor
from fthresh.fgraphs import copies_in
from fthresh.graphs import Graph
from fthresh.patterns import analyze_pattern, pattern_preset
from fthresh.sampling import sample_gnp

K3 = pattern_preset("k3")


def brute_triangle_factor(g: Graph) -> bool:
    verts = sorted(g.vertices)
    tris = [frozenset(c) for c in itertools.combinations(verts, 3)
            if all(g.has_edge(a, b)
                   for a, b in itertools.combinations(c, 2))]
    by_v: dict[int, list[frozenset]] = {}
    for t in tris:
        for u in t:
            by_v.setdefault(u, []).append(t)
    def rec(uncov: frozenset) -> bool:
        if not uncov:
            return True
        v = min(uncov)
        return any(t <= uncov and rec(uncov - t) for t in by_v.get(v, ()))
    return rec(frozenset(verts))


class TestSolver:
    def test_oracle_equivalence(self):
        for trial in range(200):
            rng = random.Random(trial)
            n = rng.choice([6, 9, 12])
            p = rng.uniform(0.2, 0.7)
            g = sample_gnp(n, p, trial)
            res = find_f_factor(g, K3, budget=10 ** 6)
            assert res.status in ("found", "none")
            assert (res.status == "found") == brute_triangle_factor(g)
            if res.certificate is not None:
                assert verify_factor(g, K3, res.certificate)

    def test_complete_graph(self):
        res = find_f_factor(Graph.complete(9), K3)
        assert res.status == "found"
        assert len(res.certificate) == 3

    def test_divisibility(self):
        res = find_f_factor(Graph.complete(7), K3)
        assert res.status == "divisibility"
        assert res.certificate is None

    def test_budget_exhaustion(self):
        g = sample_gnp(15, 0.5, 0)
        res = find_f_factor(g, K3, budget=1)
        assert res.status in ("budget", "found")
        if res.status == "budget":
            assert res.certificate is None

    def test_budget_must_be_positive(self):
        with pytest.raises(DomainError):
            find_f_factor(Graph.complete(6), K3, budget=0)

    def test_large_factor_needs_no_deep_stack(self):
        g = Graph.from_edges((3 * i + a, 3 * i + b) for i in range(100)
                             for a, b in ((0, 1), (0, 2), (1, 2)))
        # 100 disjoint triangles under a limit 40 frames above this one
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            res = find_f_factor(g, K3)
        finally:
            sys.setrecursionlimit(limit)
        assert res.status == "found"
        assert res.nodes_expanded == 100
        assert len(res.certificate) == 100


class TestEarlyExit:
    """A vertex in no copy ends the search at the root, with the status,
    expansions and certificate of the full search."""

    def test_uncovered_vertex_matches_the_recount_oracle(self):
        exits = 0
        for seed in range(60):
            name = ("k3", "c4", "k4me")[seed % 3]
            f = pattern_preset(name)
            n = f.r * (4 + seed % 3)
            g = sample_gnp(n, 0.15 + 0.3 * (seed % 7) / 6, seed)
            copies = enumerate_copies(g, f)
            res = find_f_factor(g, f)
            status, expanded, cert = recount_factor_search(g, f, copies,
                                                           10 ** 6)
            assert (res.status, res.nodes_expanded) == (status, expanded)
            assert (res.certificate is None) == (cert is None)
            if cert is not None:
                assert _with_embeddings(res.certificate) == \
                    _with_embeddings(cert)
            if not g.vertices <= set().union(*(fe.vertices
                                                for fe in copies)):
                assert (res.status, res.nodes_expanded) == ("none", 1)
                exits += 1
        assert 0 < exits < 60

    def test_indivisible_n_still_reports_divisibility(self):
        hosts = [Graph.from_edges([(0, 1), (1, 2), (0, 2)],
                                  vertices=range(4))]
        hosts += [sample_gnp(n, 0.1, n) for n in (13, 14, 16)]
        for g in hosts:
            copies = enumerate_copies(g, K3)
            assert not g.vertices <= set().union(*(fe.vertices
                                                    for fe in copies))
            res = find_f_factor(g, K3)
            assert (res.status, res.nodes_expanded) == ("divisibility", 0)
            assert res.certificate is None


class TestHelpers:
    def test_enumerate_copies_sorted(self):
        copies = enumerate_copies(Graph.complete(5), K3)
        assert len(copies) == 10
        assert copies == sorted(copies, key=lambda fe: fe.sort_key())

    def test_f_isolated(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4)])
        deg, isolated = f_isolated(g, K3)
        assert deg[0] == 1
        assert isolated == frozenset({3, 4})

    def test_verify_factor_rejects_overlap(self):
        g = Graph.complete(6)
        copies = enumerate_copies(g, K3)
        overlapping = (copies[0], copies[1])
        if not set(copies[0].vertices) & set(copies[1].vertices):
            overlapping = (copies[0], copies[0])
        assert not verify_factor(g, K3, overlapping)

    def test_verify_factor_requires_cover(self):
        g = Graph.complete(6)
        one = enumerate_copies(g, K3)[:1]
        assert not verify_factor(g, K3, tuple(one))


def _with_embeddings(copies) -> list:
    """Copies with their embeddings, which F-edge equality ignores."""
    return [(fe.sort_key(), fe.embedding) for fe in copies]


class TestOracles:
    @pytest.mark.parametrize("f", [
        pattern_preset(name) for name in ("k3", "k4", "c4", "c5", "k4me")
    ] + [
        # C4 labelled 0-2-1-3: its sorted vertices do not follow the cycle
        analyze_pattern(Graph.from_edges([(0, 2), (1, 2), (1, 3), (0, 3)]))
    ], ids=["k3", "k4", "c4", "c5", "k4me", "c4-relabelled"])
    def test_copies_match_embedding_oracle(self, f):
        total = 0
        for seed, (n, p) in enumerate([(7, 0.9), (10, 0.6), (14, 0.4),
                                       (18, 0.25), (24, 0.15)]):
            g = sample_gnp(n, p, seed)
            got = copies_in(g, f)
            assert sorted(_with_embeddings(got)) == sorted(
                _with_embeddings(copies_by_embedding(g, f)))
            total += len(got)
        assert total > 0

    def test_search_matches_recount_oracle(self):
        statuses = set()
        for seed in range(60):
            rng = random.Random(seed)
            name, n = rng.choice([("k3", 12), ("k3", 15), ("c4", 12),
                                  ("k4me", 12)])
            f = pattern_preset(name)
            g = sample_gnp(n, rng.uniform(0.2, 0.6), seed)
            copies = enumerate_copies(g, f)
            budget = rng.choice([3, 10 ** 5])
            res = find_f_factor(g, f, budget=budget)
            status, expanded, cert = recount_factor_search(g, f, copies,
                                                           budget)
            assert (res.status, res.nodes_expanded) == (status, expanded)
            assert res.n_copies == len(copies)
            if cert is None:
                assert res.certificate is None
            else:
                assert _with_embeddings(res.certificate) == \
                    _with_embeddings(cert)
            statuses.add(status)
        assert statuses == {"found", "none", "budget"}


class TestCap:
    """The cap counts copies: K5 holds 10 triangles in 60 embeddings."""

    def test_cap_equal_to_the_copy_count_passes(self):
        assert len(copies_in(Graph.complete(5), K3, cap=10)) == 10
        assert len(enumerate_copies(Graph.complete(5), K3, cap=10)) == 10

    def test_cap_below_the_copy_count_raises(self):
        with pytest.raises(ResourceLimitError):
            copies_in(Graph.complete(5), K3, cap=9)
        with pytest.raises(ResourceLimitError):
            enumerate_copies(Graph.complete(5), K3, cap=9)
