"""Graph primitives against brute-force and third-party oracles."""

import hashlib
import itertools
import math
import random
from fractions import Fraction
from typing import Iterator

import networkx as nx
import numpy as np
import pytest
from embedding_oracles import set_embeddings
from hypothesis import given, settings
from graph_helpers import empty, path, relabel
from hypothesis import strategies as st

from fthresh import graphs
from fthresh.dgraphs import clean_cycle_types
from fthresh.errors import ResourceLimitError, UndefinedDensityError
from fthresh.graphs import (Graph, _adjacency_matrix, _embedding_images,
                            _induced_edge_counts, automorphisms,
                            canonical_form, components,
                            format_edge_list, one_density, parse_edge_list,
                            relabellings, strictly_1_balanced_violation)
from fthresh.fgraphs import fgraph_automorphisms, shadow
from fthresh.patterns import analyze_pattern, pattern_preset


def brute_strictly_1_balanced(g: Graph) -> bool:
    """Oracle: check d1 of every induced proper vertex subset directly."""
    d1 = one_density(g)
    verts = sorted(g.vertices)
    for size in range(2, len(verts)):
        for keep in itertools.combinations(verts, size):
            sub = g.induced(frozenset(keep))
            if sub.e() >= 1 and one_density(sub) >= d1:
                return False
    return True


def labelled_graphs(max_n: int):
    """Every graph on the vertices 0..n-1, for n = 2..max_n, edgeless
    included."""
    for n in range(2, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(2 ** len(pairs)):
            yield Graph.from_edges(
                (pairs[i] for i in range(len(pairs)) if bits >> i & 1),
                vertices=range(n))


def automorphism_count(g: Graph) -> int:
    return len(automorphisms(g))


def rows(pattern: Graph, host: Graph, **kw) -> Iterator[tuple[int, ...]]:
    """The rows of the blocks _embedding_images yields for pattern and
    host, as tuples, one at a time, so a cap stops the listing mid-block."""
    for block in _embedding_images(pattern, *_adjacency_matrix(host), **kw):
        yield from map(tuple, block.tolist())


def images(pattern: Graph, host: Graph, **kw) -> list[tuple[int, ...]]:
    """The embeddings of pattern into host, in _embedding_images order."""
    return list(rows(pattern, host, **kw))


def as_images(pattern: Graph, maps) -> list[tuple[int, ...]]:
    """set_embeddings' dicts as image tuples over the sorted pattern
    vertices."""
    pverts = sorted(pattern.vertices)
    return [tuple(m[u] for u in pverts) for m in maps]


def all_graphs(max_n: int):
    for n in range(2, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1, 2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            yield Graph.from_edges(edges)


PRESETS = ("k2", "k3", "k4", "c4", "c5", "k4me")
# C4 labelled 0-2-1-3: its sorted vertices do not follow the cycle
C4_RELABELLED = analyze_pattern(
    Graph.from_edges([(0, 2), (1, 2), (1, 3), (0, 3)]))

# template -> sha256 of repr(Pattern.automorphisms)
PATTERN_AUTOMORPHISMS = {
    "k2": "a0e10c7a00c7e25d546e124a2f6fbc687ecbbb1b2cb4a95dd2ec09a0d05e7461",
    "k3": "0e1345e946a8e40b96626aa4c129ddcf07551697a4fd31581a6f6da386fe02ff",
    "k4": "82698645cc51c6bff1a2376eabfbbe736daf84a1bff9502bac3e86d821bca63b",
    "c4": "9bf1553d045a752edced8c15e8f722106e5309268407b8296c423a637b82b8ce",
    "c5": "82c6c5145bb46838535e165860103359314becfac1acbe12be492fdcdb2f2f9d",
    "k4me":
        "b5a172434d296d117b4c47f44a3af43aa659c114d9f2c67d8758cdc9754a3b67",
    "c4-relabelled":
        "83a00348394ed63ec6ce7b545e5b2d486fb28ec92cc258b9c8ebc9dd857bf5d7",
}

# sha256 of strictly_1_balanced_violation's witnesses over labelled_graphs(5)
WITNESS_DIGEST = \
    "e7f0da71a61345ade9f8e07611387328c94c6fb878c8309473a41874ec16ea1f"


class TestDensity:
    def test_known_values(self):
        assert one_density(Graph.complete(3)) == Fraction(3, 2)
        assert one_density(Graph.cycle(4)) == Fraction(4, 3)
        assert one_density(Graph.complete(4)) == Fraction(2)
        assert one_density(Graph.from_edges([(0, 1)])) == Fraction(1)

    def test_single_vertex_undefined(self):
        with pytest.raises(UndefinedDensityError):
            one_density(empty(1))

    def test_balance_oracle_small(self):
        checked = 0
        for g in all_graphs(5):
            if not g.is_connected():
                continue
            got = strictly_1_balanced_violation(g) is None
            assert got == brute_strictly_1_balanced(g), format_edge_list(g)
            checked += 1
        assert checked > 100

    def test_violation_is_witness(self):
        p4 = path(4)
        w = strictly_1_balanced_violation(p4)
        assert w is not None
        assert one_density(w) >= one_density(p4)
        assert w.v() < p4.v()
        # labels other than 0..n-1: the path 5-9-2-7, least pair first
        w = strictly_1_balanced_violation(relabel(p4, {0: 5, 1: 9, 2: 2,
                                                       3: 7}))
        assert (w.vertices, w.edges) == ({2, 7}, {(2, 7)})

    def test_induced_edge_counts(self):
        """Per vertex-subset mask, the induced subgraph's edge count and
        size, on random graphs with labels other than 0..n-1."""
        rng = random.Random(3)
        for _ in range(20):
            labels = sorted(rng.sample(range(40), rng.randint(0, 8)))
            g = Graph.from_edges(
                [e for e in itertools.combinations(labels, 2)
                 if rng.random() < 0.5], vertices=labels)
            counts, sizes = _induced_edge_counts(g)
            assert len(counts) == len(sizes) == 1 << len(labels)
            for m in range(1 << len(labels)):
                sub = g.induced(u for i, u in enumerate(labels) if m >> i & 1)
                assert (counts[m], sizes[m]) == (sub.e(), sub.v())

    def test_subset_scan_is_capped(self):
        # 2^24 subsets: refused before any array is allocated
        with pytest.raises(ResourceLimitError):
            strictly_1_balanced_violation(Graph.cycle(24))

    def test_witnesses_are_pinned(self):
        """The witness (fewest vertices, then the least labels) of every
        graph on 2..5 vertices, hashed."""
        digest = hashlib.sha256()
        checked = 0
        for g in labelled_graphs(5):
            w = strictly_1_balanced_violation(g)
            key = None if w is None else (sorted(w.vertices), sorted(w.edges))
            digest.update(repr(key).encode() + b"\n")
            checked += 1
        assert checked == 1098
        assert digest.hexdigest() == WITNESS_DIGEST


class TestIsomorphism:
    def test_against_networkx(self):
        import random
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(3, 7)
            g1 = Graph.from_edges(
                [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5], vertices=range(n))
            perm = list(range(n))
            rng.shuffle(perm)
            if rng.random() < 0.5:
                g2 = relabel(g1, dict(enumerate(perm)))
            else:
                g2 = Graph.from_edges(
                    [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.5], vertices=range(n))
            nx1 = nx.Graph(list(g1.edges))
            nx1.add_nodes_from(g1.vertices)
            nx2 = nx.Graph(list(g2.edges))
            nx2.add_nodes_from(g2.vertices)
            assert (canonical_form(g1) == canonical_form(g2)) == \
                nx.is_isomorphic(nx1, nx2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_canonical_form_relabel_invariant(self, data):
        n = data.draw(st.integers(3, 7))
        pairs = list(itertools.combinations(range(n), 2))
        bits = data.draw(st.integers(0, 2 ** len(pairs) - 1))
        g = Graph.from_edges((pairs[i] for i in range(len(pairs))
                              if bits >> i & 1), vertices=range(n))
        perm = data.draw(st.permutations(range(n)))
        h = relabel(g, dict(enumerate(perm)))
        assert canonical_form(g) == canonical_form(h)


class TestAutomorphisms:
    def test_counts(self):
        assert automorphism_count(Graph.complete(4)) == 24
        assert automorphism_count(Graph.cycle(5)) == 10
        assert automorphism_count(path(3)) == 2
        assert automorphism_count(Graph.from_edges(
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])) == 4

    def test_counts_with_isolated_vertices(self):
        """Vertices that do not attach to the part already mapped."""
        assert automorphism_count(Graph.from_edges([(0, 1)],
                                                   vertices=range(4))) == 4
        assert automorphism_count(empty(3)) == 6
        assert automorphism_count(empty(0)) == 1

    def test_image_tuples_in_the_reference_order(self):
        """Each automorphism as the images of the sorted vertices, in the
        order the set-based reference finds them, for every graph on 2..5
        labelled vertices and every preset."""
        graphs = list(labelled_graphs(5)) + [
            pattern_preset(name).graph for name in PRESETS]
        for g in graphs:
            got = automorphisms(g)
            assert isinstance(got, tuple)
            assert list(got) == as_images(g, set_embeddings(g, g))

    @pytest.mark.parametrize("name", list(PATTERN_AUTOMORPHISMS))
    def test_pattern_automorphisms_are_pinned(self, name):
        """Pattern.automorphisms, hashed as it was when automorphisms built
        a dict per embedding."""
        f = (C4_RELABELLED if name == "c4-relabelled"
             else pattern_preset(name))
        assert hashlib.sha256(repr(f.automorphisms).encode()).hexdigest() \
            == PATTERN_AUTOMORPHISMS[name]

    def test_against_networkx(self):
        import random
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(3, 6)
            g = Graph.from_edges(
                [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5], vertices=range(n))
            nxg = nx.Graph(list(g.edges))
            nxg.add_nodes_from(g.vertices)
            gm = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
            assert automorphism_count(g) == sum(
                1 for _ in gm.isomorphisms_iter())


class TestEmbeddings:
    def test_triangle_in_k5(self):
        assert len(images(Graph.complete(3), Graph.complete(5))) == 5 * 4 * 3

    @pytest.mark.parametrize("pattern", [
        Graph.complete(3), Graph.cycle(4),
        # the path 1-4-0-3-2: its reflection moves 1 onto 2, which the
        # search places before 1
        Graph.from_edges([(1, 4), (4, 0), (0, 3), (3, 2)])])
    def test_automorphisms_leave_the_least_embedding_per_copy(self,
                                                             pattern):
        pverts = sorted(pattern.vertices)
        auts = automorphisms(pattern)
        host = Graph.from_edges(
            [e for i, e in enumerate(itertools.combinations(range(8), 2))
             if i % 3 != 1], vertices=range(8))
        least = set()
        for emb in images(pattern, host):
            m = dict(zip(pverts, emb))
            least.add(min(tuple(m[x] for x in a) for a in auts))
        found = images(pattern, host, automorphisms=auts)
        assert len(found) == len(set(found))
        assert set(found) == least

    def test_no_triangle_in_tree(self):
        assert not images(Graph.complete(3), path(5))


def _oracle_templates():
    """Every preset, the relabelled C4 and one disconnected pattern, each
    as its graph and its automorphisms."""
    out = [(f.graph, f.automorphisms) for f in
           [pattern_preset(name) for name in PRESETS] + [C4_RELABELLED]]
    # a triangle and a disjoint edge, placed out of label order
    g = Graph.from_edges([(4, 0), (0, 2), (2, 4), (1, 3)])
    out.append((g, automorphisms(g)))
    return out


ORACLE_IDS = ["k2", "k3", "k4", "c4", "c5", "k4me", "c4-relabelled",
              "disconnected"]


def _random_hosts() -> list[Graph]:
    """25 hosts on up to 13 non-contiguous labels, many above 64, some
    left isolated."""
    rng = random.Random(17)
    hosts = []
    for _ in range(25):
        n = rng.randint(0, 13)
        labels = rng.sample(range(300), n)
        p = rng.uniform(0.15, 0.9)
        hosts.append(Graph.from_edges(
            [e for e in itertools.combinations(labels, 2)
             if rng.random() < p], vertices=labels))
    return hosts


def _drain(it) -> tuple[list, bool]:
    """Everything an enumeration yields, and whether it then hit its cap."""
    out = []
    try:
        for m in it:
            out.append(m)
    except ResourceLimitError:
        return out, True
    return out, False


class TestEmbeddingOracle:
    """The bit-mask enumerator yields the set-based reference's maps as
    image tuples over the sorted pattern vertices, in its order, and stops
    at the same cap, on patterns with and without isolated parts."""

    @pytest.mark.parametrize("pattern,auts", _oracle_templates(),
                             ids=ORACLE_IDS)
    def test_same_embeddings_in_the_same_order(self, pattern, auts):
        total = isolated = 0
        for host in _random_hosts():
            isolated += sum(not a for a in host.adjacency().values())
            for a in ((), auts):
                got = images(pattern, host, automorphisms=a)
                assert got == as_images(pattern, set_embeddings(
                    pattern, host, automorphisms=a))
                total += len(got)
        assert total > 0 and isolated > 0

    @pytest.mark.parametrize("with_auts", [False, True])
    def test_cap_raises_at_the_same_count(self, with_auts):
        host = Graph.from_edges(
            [e for i, e in enumerate(itertools.combinations(range(9), 2))
             if i % 4 != 1], vertices=range(9))
        for pattern, auts in _oracle_templates():
            auts = auts if with_auts else ()
            full = len(list(set_embeddings(pattern, host,
                                           automorphisms=auts)))
            assert full > 0
            for cap in (0, 1, full // 2, full - 1, full):
                got = _drain(rows(pattern, host, cap=cap,
                                  automorphisms=auts))
                maps, hit = _drain(set_embeddings(pattern, host, cap=cap,
                                                  automorphisms=auts))
                assert got == (as_images(pattern, maps), hit)
                assert got[1] == (cap < full)


class TestImageCore:
    """The search core on hosts small enough to check in full: every
    labelled host on two to five vertices against the set-based reference,
    and the complete host K7 against the closed-form embedding count."""

    @pytest.mark.parametrize("pattern,auts", _oracle_templates(),
                             ids=ORACLE_IDS)
    def test_tuples_follow_the_dicts(self, pattern, auts):
        total = 0
        for host in labelled_graphs(5):
            for a in ((), auts):
                got = images(pattern, host, automorphisms=a)
                assert got == as_images(pattern, set_embeddings(
                    pattern, host, automorphisms=a))
                total += len(got)
        assert total > 0

    @pytest.mark.parametrize("pattern,auts", _oracle_templates(),
                             ids=ORACLE_IDS)
    def test_cap_raises_at_the_same_count(self, pattern, auts):
        """K7 holds 7!/(7-v)! embeddings of a v-vertex pattern, one in
        |Aut| of them the least of its copy; the core refuses every cap
        below that count and yields the uncapped listing's prefix."""
        host = Graph.complete(7)
        for a in ((), auts):
            listing = images(pattern, host, automorphisms=a)
            full = math.perm(7, len(pattern.vertices)) // max(len(a), 1)
            assert len(listing) == full
            for cap in (0, 1, full // 2, full - 1, full):
                got, hit = _drain(rows(pattern, host, cap=cap,
                                       automorphisms=a))
                assert hit == (cap < full)
                assert got == listing[:cap]


class TestJoinBlocks:
    """Block boundaries keep the join's order: with blocks of 1, 2, 3 and
    7 partial embeddings, the rows and their order are the default's on
    the random hosts and on K7, and a cap one below, at and one above the
    block size yields the uncapped listing's prefix, then raises."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize("pattern,auts", _oracle_templates(),
                             ids=ORACLE_IDS)
    def test_rows_and_cap_follow_the_default(self, monkeypatch, block,
                                             pattern, auts):
        hosts = _random_hosts() + [Graph.complete(7)]
        cases = [(host, a) for host in hosts for a in ((), auts)]
        want = [images(pattern, host, automorphisms=a) for host, a in cases]
        monkeypatch.setattr(graphs, "_JOIN_BLOCK", block)
        assert [images(pattern, host, automorphisms=a)
                for host, a in cases] == want
        for (host, a), listing in zip(cases, want):
            for cap in (block - 1, block, block + 1):
                got, hit = _drain(rows(pattern, host, cap=cap,
                                       automorphisms=a))
                assert hit == (cap < len(listing))
                assert got == listing[:cap]


def _least_of_cosets(v: int, group) -> np.ndarray:
    """Oracle: the least element of each coset sigma o group, sigma over all
    v! permutations of 0..v-1, sorted; sigma o a maps b to sigma[a[b]]."""
    perms = np.array(list(itertools.permutations(range(v))))
    composed = np.stack([perms[:, list(a)] for a in group])
    keys = composed @ v ** np.arange(v - 1, -1, -1)  # lexicographic order
    least = composed[keys.argmin(axis=0), np.arange(len(perms))]
    return np.unique(least, axis=0)


def _coset_cases():
    """Every preset template under Aut(F), and every clean-cycle type on at
    most 8 vertices of a preset under its F-graph automorphisms."""
    for name in ("k2", "k3", "k4", "c4", "c5", "k4me"):
        f = pattern_preset(name)
        yield pytest.param(f.graph, f.automorphisms, id=name)
    for name, k in (("k3", 2), ("k3", 3), ("c4", 2), ("k4", 2), ("k4me", 2),
                    ("c5", 2)):
        for i, (cycle, _sig) in enumerate(
                clean_cycle_types(pattern_preset(name), k)):
            yield pytest.param(shadow(cycle), fgraph_automorphisms(cycle),
                               id=f"{name}-{k}-{i}")


class TestRelabellings:
    @pytest.mark.parametrize("g, group", list(_coset_cases()))
    def test_least_of_each_coset(self, g, group):
        """One row per coset of the group, the least relabelling in it."""
        v = g.v()
        assert g.vertices == frozenset(range(v))
        got = relabellings(g, group)
        assert got.shape == (math.factorial(v) // len(group), v)
        assert np.array_equal(np.unique(got, axis=0),
                              _least_of_cosets(v, group))


class TestStructure:
    def test_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert components(g) == 2
        assert components(Graph.from_edges([(0, 1)], vertices=range(4))) == 3
        assert components(Graph(frozenset(), frozenset())) == 0

    def test_edge_list_roundtrip(self):
        g = Graph.from_edges([(0, 2), (1, 2), (0, 1), (2, 3)])
        assert parse_edge_list(format_edge_list(g)).edges == g.edges
