"""Threshold scan: golden row hashes and a per-p reference loop."""

import hashlib
import itertools
import json
import random

import pytest

from embedding_oracles import set_embeddings
from factor_oracles import (copies_by_embedding, enumerate_copies,
                            recount_factor_search)
from graph_helpers import relabel

from fthresh.cli import auto_grid, run_scan, trial_searches
from fthresh.factors import _host_copies, f_isolated, find_f_factor
from fthresh.patterns import pattern_preset
from fthresh.sampling import (STREAM_EDGES, graph_from_uniforms,
                              neighbour_masks_at, rng_for, slots_of)

BUDGET = 100_000


def reference_scan(f, n, ps, trials, seed, budget=BUDGET):
    """The scan as one independent search per grid point: rebuild the graph
    at each p, search it for a factor and look for isolated vertices."""
    batch = rng_for(seed, STREAM_EDGES).random((trials, n * (n - 1) // 2))
    results = []
    for t in range(trials):
        per_p = []
        for p in ps:
            g = graph_from_uniforms(n, batch[t], p)
            res = find_f_factor(g, f, budget=budget)
            _deg, isolated = f_isolated(g, f)
            per_p.append((res.status, not isolated, res.n_copies))
        results.append(per_p)
    rows = []
    for i, p in enumerate(ps):
        tally = {"found": 0, "none": 0, "budget": 0, "divisibility": 0}
        for res in results:
            tally[res[i][0]] += 1
        no_iso = sum(res[i][1] for res in results)
        copies = sum(res[i][2] for res in results)
        rows.append({"p": p, "trials": trials, **tally,
                     "frac_factor": tally["found"] / trials,
                     "frac_no_isolated": no_iso / trials,
                     "frac_budget_exhausted": tally["budget"] / trials,
                     "mean_copies": copies / trials})
    return rows


def rows_digest(rows) -> str:
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()


# (preset, n, trials, seed) -> sha256 of the run_scan rows on the auto grid
GOLDEN_SCANS = {
    ("k3", 30, 20, 5):
        "c76d71796b0d431560dcdeb0ec3fa381ce4cdc7122b96e2292ca1387c728e1db",
    ("c4", 20, 10, 6):
        "6fa35fca2c8401d71477fbfb925fc790159dd1461897945bc010b5984939b3ae",
    ("k4me", 16, 10, 7):
        "1ec0f0dab6a99a29b7a9e82c2eb87fe834f2f1835ec044c164c9c06507b89fe6",
}


# (preset, n, trials, seed) -> sha256 of search_records, budgets 100,000
# and 20
GOLDEN_SEARCHES = {
    ("k3", 30, 6, 3):
        "333e83cb0a2531ed913586a6bcdc77c3b400a8e68e78810cfa9510a43053cae8",
    ("k3", 60, 2, 3):
        "48f5ffb1e9c3c7534f5d24fb1f32dae03ae42ce3be067efc43f8d331bf051cbc",
    ("c4", 20, 6, 3):
        "0bce89c26443623416078889d197855629fc44311d0332e9ad65ecd66c9b33cf",
    ("k4me", 16, 6, 7):
        "76bd18baeeadbf416aa527eccb76447d36537f3fe48663e63b180d632fbf93e5",
}


def search_records(f, n, trials, seed) -> list:
    """(status, nodes_expanded, certificate embeddings) of trial_searches
    on the auto grid, then of find_f_factor on the graph at each grid
    point with every label u renamed 3 * (n - u) + 65, per trial and
    budget."""
    ps = auto_grid(f, n)
    batch = rng_for(seed, STREAM_EDGES).random((trials, n * (n - 1) // 2))
    labels = [3 * (n - u) + 65 for u in range(n)]
    results = []
    for us in batch:
        for budget in (BUDGET, 20):
            results += [res for res, _ in trial_searches(f, n, us, ps,
                                                         budget)]
            results += [find_f_factor(relabel(graph_from_uniforms(n, us, p),
                                              labels), f, budget=budget)
                        for p in ps]
    return [(res.status, res.nodes_expanded,
             res.certificate and [fe.embedding for fe in res.certificate])
            for res in results]


class TestGolden:
    """Scan rows and the searches behind them are byte-identical to the
    recorded ones."""

    @pytest.mark.parametrize("key", list(GOLDEN_SCANS))
    def test_rows(self, key):
        name, n, trials, seed = key
        f = pattern_preset(name)
        rows = run_scan(f, n, auto_grid(f, n), trials, seed, BUDGET)
        assert rows_digest(rows) == GOLDEN_SCANS[key]

    @pytest.mark.parametrize("key", list(GOLDEN_SEARCHES))
    def test_searches(self, key):
        name, n, trials, seed = key
        records = search_records(pattern_preset(name), n, trials, seed)
        assert {status for status, _, _ in records} == {"found", "none",
                                                         "budget"}
        assert rows_digest(records) == GOLDEN_SEARCHES[key]


def _shuffled_grid(f, n):
    ps = auto_grid(f, n)
    random.Random(1).shuffle(ps)
    return ps


class TestReference:
    """run_scan agrees row for row with the per-p reference loop."""

    @pytest.mark.parametrize("key", list(GOLDEN_SCANS))
    def test_golden_cases(self, key):
        name, n, trials, seed = key
        f = pattern_preset(name)
        ps = auto_grid(f, n)
        assert run_scan(f, n, ps, trials, seed, BUDGET) == \
            reference_scan(f, n, ps, trials, seed)

    def test_unsorted_grid(self):
        f = pattern_preset("k3")
        ps = _shuffled_grid(f, 24)
        assert ps != sorted(ps)
        assert run_scan(f, 24, ps, 8, 2, BUDGET) == \
            reference_scan(f, 24, ps, 8, 2)

    def test_single_p(self):
        f = pattern_preset("k3")
        ps = [auto_grid(f, 24)[6]]
        rows = run_scan(f, 24, ps, 8, 3, BUDGET)
        assert rows == reference_scan(f, 24, ps, 8, 3)
        assert len(rows) == 1

    def test_empty_grid(self):
        f = pattern_preset("k3")
        assert run_scan(f, 24, [], 4, 0, BUDGET) == []
        assert reference_scan(f, 24, [], 4, 0) == []

    def test_indivisible_n(self):
        f = pattern_preset("k3")
        ps = auto_grid(f, 25)
        rows = run_scan(f, 25, ps, 6, 4, BUDGET)
        assert rows == reference_scan(f, 25, ps, 6, 4)
        assert all(r["divisibility"] == 6 for r in rows)
        assert rows[-1]["mean_copies"] > 0


    def test_tight_budget(self):
        """Budget 20 leaves a mix of found and budget rows at the top of
        the grid, so one expansion more or less would change a row."""
        f = pattern_preset("k3")
        ps = auto_grid(f, 30)
        rows = run_scan(f, 30, ps, 20, 5, 20)
        assert rows == reference_scan(f, 30, ps, 20, 5, budget=20)
        assert rows[-1]["budget"] and rows[-1]["found"]


def _staggered_sets(f, n, us, ps) -> int:
    """Vertex sets of the graph at the top of the grid holding copies
    present at different grid points."""
    first = {}
    for fe in enumerate_copies(graph_from_uniforms(n, us, max(ps)), f):
        born = max(us[slots_of(u, v, n)] for u, v in fe.edge_set)
        first.setdefault(fe.vertices, set()).add(
            min(p for p in ps if born < p))
    return sum(len(points) > 1 for points in first.values())


class TestTrialSearches:
    """The one index per trial, searched under a live mask at each grid
    point, gives the result of a fresh search of the graph at that point."""

    def test_each_grid_point_matches_a_fresh_search(self):
        statuses = set()
        staggered = 0
        for name, n, trials in [("k3", 30, 10), ("k3", 60, 4), ("c4", 20, 8),
                                ("k4me", 16, 8), ("c5", 20, 8)]:
            f = pattern_preset(name)
            ps = auto_grid(f, n)
            batch = rng_for(9, STREAM_EDGES).random((trials,
                                                     n * (n - 1) // 2))
            for us in batch:
                staggered += _staggered_sets(f, n, us, ps)
                for budget in (BUDGET, 20):
                    got = trial_searches(f, n, us, ps, budget)
                    for p, (res, covered) in zip(ps, got, strict=True):
                        g = graph_from_uniforms(n, us, p)
                        want = find_f_factor(g, f, budget=budget)
                        assert res == want
                        if want.certificate is not None:
                            assert [fe.embedding for fe in res.certificate] \
                                == [fe.embedding for fe in want.certificate]
                        assert covered == (not f_isolated(g, f)[1])
                        statuses.add(res.status)
        assert statuses == {"found", "none", "budget"}
        assert staggered > 0

    def test_pivot_ties_go_to_the_least_label(self):
        """Along the certificate, each chosen set holds the least
        uncovered vertex with fewest sets inside the uncovered vertices,
        the pivot at that depth, and several vertices tie for it. The
        K4-e case at p = 0.35, where a live set's first copy present is
        not its first copy at the top of the grid, expands 28 nodes; the
        relabelled host, labels above 64 in another order, follows its
        own least labels."""
        f = pattern_preset("k4me")
        us = rng_for(1, STREAM_EDGES).random(16 * 15 // 2)
        ps = [0.35, 0.6]
        labels = [(7 * u) % 16 * 10 + 70 for u in range(16)]
        ties = 0
        got = trial_searches(f, 16, us, ps, BUDGET)
        for p, (res, _) in zip(ps, got):
            g = graph_from_uniforms(16, us, p)
            assert res.status == "found"
            h = relabel(g, labels)
            for host, want in ((g, res),
                               (h, find_f_factor(h, f, budget=BUDGET))):
                status, expanded, cert = recount_factor_search(
                    host, f, enumerate_copies(host, f), BUDGET)
                assert (want.status, want.nodes_expanded) == \
                    (status, expanded)
                assert [fe.embedding for fe in want.certificate] == \
                    [fe.embedding for fe in cert]
                ties += _tied_pivots(host, f, want.certificate)
        assert got[0][0].nodes_expanded == 28
        assert ties > 0


class TestIndependentSearch:
    """trial_searches against a search that shares no code with its copy
    index or its exact cover: recount_factor_search over the copies of
    copies_by_embedding, sorted into copy order, so a fault in either
    cannot show on both sides alike."""

    def test_grid_points_match_the_recount(self):
        """The top two auto-grid points and 1.5 times the top, five trials
        per template, budgets 100,000 and 20."""
        statuses = set()
        for name, n in [("k3", 30), ("c4", 20), ("k4me", 16)]:
            f = pattern_preset(name)
            grid = auto_grid(f, n)
            ps = grid[-2:] + [1.5 * grid[-1]]
            batch = rng_for(3, STREAM_EDGES).random((5, n * (n - 1) // 2))
            for us in batch:
                for budget in (BUDGET, 20):
                    got = trial_searches(f, n, us, ps, budget)
                    for p, (res, _) in zip(ps, got, strict=True):
                        g = graph_from_uniforms(n, us, p)
                        copies = sorted(copies_by_embedding(g, f),
                                        key=lambda fe: fe.sort_key())
                        status, expanded, cert = recount_factor_search(
                            g, f, copies, budget)
                        assert (res.status, res.nodes_expanded) == \
                            (status, expanded)
                        assert (res.certificate and [
                            fe.embedding for fe in res.certificate]) == \
                            (cert and [fe.embedding for fe in cert])
                        statuses.add(status)
        assert statuses == {"found", "none", "budget"}


class TestHostCopies:
    """_host_copies at scan scale against the set-based reference
    enumerator, which shares no code with the array join: on the scan's
    top-of-grid hosts, five trials per template, the least embedding of
    each copy under Aut(F), in copy order, with its sorted vertices and
    its sorted edge slots."""

    @pytest.mark.parametrize("name,n", [("k3", 60), ("c4", 20),
                                        ("k4me", 16)])
    def test_rows_follow_the_reference(self, name, n):
        f = pattern_preset(name)
        p = max(auto_grid(f, n))
        pverts = sorted(f.graph.vertices)
        slot = {e: i for i, e in
                enumerate(itertools.combinations(range(n), 2))}
        batch = rng_for(1, STREAM_EDGES).random((5, n * (n - 1) // 2))
        for us in batch:
            host = graph_from_uniforms(n, us, p)
            want = []
            # copy order: sorted vertices, then sorted edges, whose order
            # slot order follows
            for m in set_embeddings(f.graph, host,
                                    automorphisms=f.automorphisms):
                edges = sorted(slot[tuple(sorted((m[u], m[v])))]
                               for u, v in f.graph.edges)
                want.append((tuple(sorted(m.values())), tuple(edges),
                             tuple(m[u] for u in pverts)))
            want.sort()
            embs, slots, verts = _host_copies(
                f, neighbour_masks_at(n, us, p))
            assert len(want) > 0
            assert [tuple(r) for r in embs.tolist()] == [w[2] for w in want]
            assert [tuple(r) for r in slots.tolist()] == [w[1] for w in want]
            assert [tuple(r) for r in verts.tolist()] == [w[0] for w in want]


def _tied_pivots(g, f, cert) -> int:
    """Asserts that each set of the certificate holds the pivot of its
    depth, the least uncovered label with fewest copy vertex sets inside
    the uncovered labels; returns the depths where labels tie for it."""
    sets = {fe.vertices for fe in enumerate_copies(g, f)}
    uncovered = set(g.vertices)
    ties = 0
    for fe in cert:
        live = [vs for vs in sets if vs <= uncovered]
        count = {u: sum(u in vs for vs in live) for u in uncovered}
        fewest = min(count.values())
        tied = sorted(u for u in uncovered if count[u] == fewest)
        assert tied[0] in fe.vertices
        ties += len(tied) > 1
        uncovered -= fe.vertices
    return ties


class TestWorkers:
    def test_pool_gives_the_serial_rows(self):
        """Two worker processes split the six trials into two chunks of the
        pool's map and return the rows of the in-process loop."""
        f = pattern_preset("k3")
        ps = auto_grid(f, 30)
        assert run_scan(f, 30, ps, 6, 5, BUDGET, workers=2) == \
            run_scan(f, 30, ps, 6, 5, BUDGET, workers=1)
