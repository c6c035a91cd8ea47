"""Acceptance gate: ten end-to-end checks, one reported line each.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output of a failing test) and then asserts the same condition, so
the suite and the printed report always agree.
"""

import itertools
import math
import random
from fractions import Fraction

from fgraph_oracles import induced_f_edges
from graph_helpers import merge_to_hr

from fthresh.cli import auto_grid, run_scan, crossing_estimate
from fthresh.coupling import OUTCOMES, run_coupling
from fthresh.dgraphs import DGraph
from fthresh.exponents import (certify, max_proper_subgraph_density,
                               select_constants,
                               verify_clean_dcycles_strictly_balanced)
from fthresh.factors import find_f_factor, verify_factor
from fthresh.fgraphs import (FGraph, all_potential_copies, classify,
                             inducing_witness)
from fthresh.graphs import Graph, components, strictly_1_balanced_violation
from fthresh.inventory import build_inventory, chen_stein_bound
from fthresh.patterns import (analyze_pattern, derive_params, p_star,
                              pattern_preset, pi_prime)
from fthresh.sampling import edge_order, sample_gnp, sample_gstar, sample_hf

K3 = pattern_preset("k3")
PRESETS = ("k3", "c4", "c5", "k4", "k4me")


def report(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num}: {desc}"


# -- 1: balance oracle equivalence -------------------------------------------

def oracle_balance(g: Graph) -> tuple[bool, bool]:
    """Independent classification by full induced-subgraph enumeration."""
    n, m = g.v(), g.e()
    verts = sorted(g.vertices)
    sb = True
    s1b = n >= 2 and m >= 1
    for k in range(1, n):
        for sub in itertools.combinations(verts, k):
            keep = set(sub)
            e_sub = sum(1 for u, v in g.edges if u in keep and v in keep)
            if Fraction(e_sub, k) >= Fraction(m, n):
                sb = False
            if k >= 2 and e_sub >= 1 and \
                    Fraction(e_sub, k - 1) >= Fraction(m, n - 1):
                s1b = False
    return sb, s1b


def connected_graphs_up_to(max_v):
    for n in range(2, max_v + 1):
        all_pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1, 2 ** len(all_pairs)):
            edges = [all_pairs[i] for i in range(len(all_pairs))
                     if bits >> i & 1]
            g = Graph.from_edges(edges, vertices=range(n))
            if g.v() == n and components(g) == 1:
                yield g


def test_criterion_1_balance_oracle():
    mismatches = 0
    checked = 0
    for g in connected_graphs_up_to(6):
        # the checks certify (clean d-cycles) and analyze_pattern run
        got = (max_proper_subgraph_density(DGraph(g, frozenset()))
               < Fraction(g.e(), g.v()),
               strictly_1_balanced_violation(g) is None)
        if got != oracle_balance(g):
            mismatches += 1
        checked += 1
    report(1, f"balance classification vs brute force on {checked} "
              f"connected graphs (<= 6 vertices): {mismatches} mismatches",
           mismatches == 0 and checked > 10 ** 4)


# -- 2: pattern constants ----------------------------------------------------

def test_criterion_2_pattern_constants():
    k3 = analyze_pattern(Graph.complete(3))
    k4me = analyze_pattern(Graph.from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
    ok = (k3.r, k3.s, k3.aut, k3.d1) == (3, 3, 6, Fraction(3, 2))
    ok &= (k4me.r, k4me.s, k4me.aut, k4me.d1) == (4, 5, 4, Fraction(5, 3))
    for f in (k3, k4me):
        perms = sum(
            all(((p[u], p[v]) in f.graph.edges or (p[v], p[u]) in f.graph.edges)
                for u, v in f.graph.edges)
            for p in map(lambda t: dict(zip(sorted(f.graph.vertices), t)),
                         itertools.permutations(sorted(f.graph.vertices))))
        ok &= perms == f.aut
        ok &= oracle_balance(f.graph)[1] == f.strictly_1_balanced is True
    report(2, "template constants (r, s, aut, d1) for the triangle and the "
              "diamond, with brute-force confirmation", ok)


# -- 3: clean d-cycle balance sweep ------------------------------------------

def test_criterion_3_dcycle_balance():
    total = 0
    bad = 0
    for name in PRESETS:
        f = pattern_preset(name)
        rows = verify_clean_dcycles_strictly_balanced(
            certify(f, min(f.s, 4)))
        total += len(rows)
        bad += sum(not r.strict_ok for r in rows)
    report(3, f"all {total} clean d-cycle types of five templates are "
              f"strictly balanced ({bad} failures)", bad == 0 and total > 0)


# -- 4: exponent negativity --------------------------------------------------

def test_criterion_4_exponent_negativity():
    ok = True
    for name in PRESETS:
        f = pattern_preset(name)
        # the values verify prints
        sc = select_constants(f)
        ok &= sc.certified_max_f1 < 0
        ok &= sc.certified_max_g1 < 0
    ok &= select_constants(K3).certified_max_f1 == Fraction(-1, 3)
    report(4, "certified max f1 and max g1 negative for five templates; "
              "triangle max f1 = -1/3 exactly", ok)


# -- 5: induced-copy witness property ----------------------------------------

def test_criterion_5_witness_property():
    rng = random.Random(2024)
    failures = 0
    witnessed = 0
    for _ in range(1000):
        n = rng.randint(4, 10)
        copies = all_potential_copies(K3, n)
        k = rng.randint(1, min(5, len(copies)))
        h = FGraph.from_fedges(rng.sample(copies, k), vertices=range(n))
        for target in induced_f_edges(h, K3):
            w = inducing_witness(h, K3, target)
            good = (w.e() <= K3.s
                    and classify(w).kind in ("avoidable", "clean_cycle")
                    and target in induced_f_edges(w, K3))
            witnessed += 1
            failures += not good
    report(5, f"{witnessed} induced copies across 1000 random F-graphs all "
              f"received small structured witnesses ({failures} failures)",
           failures == 0 and witnessed > 0)


# -- 6: merge law ------------------------------------------------------------

def test_criterion_6_merge_law():
    f = pattern_preset("k4me")
    n, pi, reps = 6, 0.01, 10 ** 5
    vsets = [frozenset(c) for c in itertools.combinations(range(n), 4)]
    hits = 0
    for seed in range(reps):
        merged = merge_to_hr(sample_hf(f, n, pi, seed))
        hits += sum(vs in merged for vs in vsets)
    trials = reps * len(vsets)
    expect = pi_prime(f, pi)
    sd = math.sqrt(expect * (1 - expect) / trials)
    dev = abs(hits / trials - expect)
    report(6, f"merged hyperedge frequency {hits / trials:.6f} vs "
              f"{expect:.6f} (|dev| = {dev:.2e}, 3 sigma = {3 * sd:.2e})",
           dev < 3 * sd)


# -- 7: coupling fidelity ----------------------------------------------------

def coupling_fidelity(params, n: int, reps: int) -> tuple[bool, str]:
    """Exact couplings at seeds 0..reps-1 against independent reference
    draws: containment on success, a witness on every failure, and the
    copy and edge marginals of both within 3 sigma of each other."""
    order = edge_order(n)
    copy_counts: dict = {}
    edge_counts = {e: 0 for e in order}
    ref_copy: dict = {}
    ref_edge = {e: 0 for e in order}
    mix = {o: 0 for o in OUTCOMES}
    violations = 0
    missing_witness = 0
    bad_outcome = 0
    for seed in range(reps):
        t = run_coupling(K3, n, params, seed)
        if t.outcome not in OUTCOMES:
            bad_outcome += 1
        else:
            mix[t.outcome] += 1
        if t.outcome == "success":
            if t.containment is not True:
                violations += 1
        elif t.witness is None:
            missing_witness += 1
        for fe in t.h.fedges:
            copy_counts[fe] = copy_counts.get(fe, 0) + 1
        for e in t.g.base.edges:
            edge_counts[e] += 1
        for fe in sample_hf(K3, n, params.pi, seed).fedges:
            ref_copy[fe] = ref_copy.get(fe, 0) + 1
        for e in sample_gstar(K3, n, params.p, seed).base.edges:
            ref_edge[e] += 1
    sd_h = math.sqrt(2 * params.pi * (1 - params.pi) / reps)
    sd_g = math.sqrt(2 * params.p * (1 - params.p) / reps)
    copies = all_potential_copies(K3, n)
    dev_h = max(abs(copy_counts.get(fe, 0) - ref_copy.get(fe, 0)) / reps
                for fe in copies)
    dev_g = max(abs(edge_counts[e] - ref_edge[e]) / reps for e in order)
    ok = (violations == 0 and missing_witness == 0 and bad_outcome == 0
          and dev_h < 3 * sd_h and dev_g < 3 * sd_g)
    outcomes = ", ".join(f"{o} {c}" for o, c in mix.items() if c)
    return ok, (f"{reps} exact couplings at pi = {params.pi:.4g} "
                f"({outcomes}): {violations} containment violations, "
                f"{missing_witness} missing witnesses, marginal deviations "
                f"{dev_h:.2e}/{3 * sd_h:.2e} (copies) and "
                f"{dev_g:.2e}/{3 * sd_g:.2e} (edges)")


def test_criterion_7_coupling_fidelity():
    """At the selected constants nearly every run ends in B3 before any
    step, so a second check at pi = 0.01, where most runs succeed, puts
    the step loop itself under the same tests."""
    n = 6
    sc = select_constants(K3)
    params = derive_params(K3, n, float(sc.delta), float(sc.eps))
    ok_a, desc_a = coupling_fidelity(params, n, 10 ** 4)
    params_b = derive_params(K3, n, float(sc.delta), float(sc.eps), pi=0.01)
    ok_b, desc_b = coupling_fidelity(params_b, n, 2000)
    report(7, f"{desc_a}; {desc_b}", ok_a and ok_b)


# -- 8: Poisson approximation bounds -----------------------------------------

def test_criterion_8_chen_stein():
    eps = 0.01
    sc = select_constants(K3)
    ns = (8, 12, 16, 20)
    full = []
    short = []
    for n in ns:
        params = derive_params(K3, n, float(sc.delta), eps)
        inv_all = build_inventory(K3, n)
        inv2 = build_inventory(K3, n, lengths={2})
        b_all = chen_stein_bound(inv_all, params.pi, params.p)
        again = chen_stein_bound(build_inventory(K3, n), params.pi, params.p)
        assert b_all == again  # exact reproducibility
        full.append(b_all)
        short.append(chen_stein_bound(inv2, params.pi, params.p))
    finite = all(math.isfinite(x) for pair in full + short for x in pair)
    decreasing = all(a[0] > b[0] and a[1] > b[1]
                     for a, b in zip(short, short[1:]))
    vals = ", ".join(f"n={n}: H={bh:.4f}/G={bg:.4f}"
                     for n, (bh, bg) in zip(ns, short))
    report(8, f"bounds finite and reproducible; length-2 class decreasing "
              f"in n ({vals})", finite and decreasing)


# -- 9: threshold coincidence ------------------------------------------------

def test_criterion_9_threshold_coincidence():
    n, trials = 60, 200
    ps = auto_grid(K3, n)
    rows = run_scan(K3, n, ps, trials, seed=0, budget=100_000)
    base = p_star(K3, n)
    cf = crossing_estimate(rows, "frac_factor")
    ci = crossing_estimate(rows, "frac_no_isolated")
    budget_frac = max(r["frac_budget_exhausted"] for r in rows)
    ok = cf is not None and ci is not None
    if ok:
        ok &= abs(cf - ci) <= 0.15 * min(cf, ci)
        ok &= 0.7 * base <= cf <= 1.4 * base
        ok &= 0.7 * base <= ci <= 1.4 * base
    ok &= budget_frac < 0.05
    detail = ("crossings not found" if cf is None or ci is None else
              f"factor at {cf / base:.3f} p*, isolated-free at "
              f"{ci / base:.3f} p*, budget exhausted {budget_frac:.3f}")
    report(9, f"50% crossings at n=60 ({detail}; window [0.7, 1.4] p*, "
              f"p* = {base:.5f})", ok)


# -- 10: solver oracle equivalence -------------------------------------------

def brute_triangle_factor(g: Graph) -> bool:
    tris = [frozenset(c)
            for c in itertools.combinations(sorted(g.vertices), 3)
            if all(g.has_edge(a, b) for a, b in itertools.combinations(c, 2))]
    by_v: dict[int, list[frozenset]] = {}
    for t in tris:
        for u in t:
            by_v.setdefault(u, []).append(t)

    def rec(uncov: frozenset) -> bool:
        if not uncov:
            return True
        v = min(uncov)
        return any(t <= uncov and rec(uncov - t) for t in by_v.get(v, ()))

    return rec(frozenset(g.vertices))


def test_criterion_10_solver_oracle():
    rng = random.Random(7)
    mismatches = 0
    for trial in range(1000):
        n = rng.choice([6, 9, 12])
        p = rng.uniform(0.2, 0.6)
        g = sample_gnp(n, p, trial)
        res = find_f_factor(g, K3, budget=10 ** 7)
        found = res.status == "found"
        if found != brute_triangle_factor(g):
            mismatches += 1
        if found and not verify_factor(g, K3, res.certificate):
            mismatches += 1
    report(10, f"factor solver vs exhaustive search on 1000 instances "
               f"(n <= 12): {mismatches} mismatches", mismatches == 0)
