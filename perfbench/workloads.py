"""The four benchmark workloads.

Each workload draws all of its inputs from ``random.Random`` seeded by the
workload name and the ``--seed`` value, runs whole rounds of one kind of
op, and checks every output against ``oracles`` or against properties the
method must have. ``setup`` holds everything before the first timed op:
the pattern, the constants and one untimed warm-up op, which is where the
program's per-(F, n) engines, contexts and buckets get built. The warm-up
input is fixed, so set-up does the same work whatever the seed.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import oracles

OUTCOMES = ("success", "B1", "B2", "B3", "step_failure")
MARGINAL_SIGMAS = 5.0  # pooled copy and edge totals vs their means
WARMUP_SEED = 0


class Workload:
    name = ""

    def __init__(self, fth, seed: int):
        self.fth = fth
        self.rng = random.Random(f"{self.name}/{seed}")

    def _seed(self) -> int:
        return self.rng.getrandbits(32)

    def setup(self) -> None:
        raise NotImplementedError

    def next_round(self) -> list:
        """The ops of one round, each a plain tuple of inputs."""
        return [self._seed()]

    def op(self, x):
        raise NotImplementedError

    def check_op(self, x, out, repeat: bool = False) -> list[str]:
        """Problems with one op's output; repeat=True marks a second run of
        the same inputs, which must not enter run-level tallies."""
        raise NotImplementedError

    def check_run(self) -> list[str]:
        return []

    def _constants(self):
        pkg = self.fth.pkg
        self.f = pkg.pattern_preset("k3")
        sc = pkg.select_constants(self.f)
        self.delta, self.eps = float(sc.delta), float(sc.eps)


class Scan(Workload):
    """One trial of the K3 factor and isolated-vertex scan at n = 60 over
    the 9-point auto grid: copy enumeration and the exact-cover solver."""
    name = "scan-k3-n60"
    N = 60
    BUDGET = 100_000

    def setup(self):
        self._constants()
        self.ps = self.fth.cli.auto_grid(self.f, self.N)
        self.op(WARMUP_SEED)

    def op(self, seed):
        return self.fth.cli.run_scan(self.f, self.N, self.ps, 1, seed,
                                     self.BUDGET)

    def check_op(self, seed, rows, repeat=False):
        bad = []
        if [r["p"] for r in rows] != self.ps:
            return ["scan rows do not follow the grid"]
        if any(r["trials"] != 1 or r["budget"] for r in rows):
            return ["factor search ended with status budget"]
        stream = self.fth.sampling.STREAM_EDGES
        us = oracles.edge_uniforms(self.N, seed, stream)
        prev_factor = prev_iso = 0.0
        for r in rows:
            a = oracles.adjacency(self.N, us, r["p"])
            iso_free = not oracles.triangle_free_vertices(a).any()
            if r["frac_no_isolated"] != float(iso_free):
                bad.append(f"p={r['p']}: isolation indicator differs")
            try:
                cert = oracles.triangle_factor(self.N, oracles.triangles(a))
            except oracles.SearchCapExceeded as exc:
                bad.append(f"p={r['p']}: reference search gave up: {exc}")
                continue
            if r["frac_factor"] != float(cert is not None):
                bad.append(f"p={r['p']}: factor verdict differs")
            if r["frac_factor"] and not r["frac_no_isolated"]:
                bad.append(f"p={r['p']}: factor with an isolated vertex")
            if r["frac_factor"] < prev_factor or \
                    r["frac_no_isolated"] < prev_iso:
                bad.append(f"p={r['p']}: indicator not monotone in p")
            prev_factor, prev_iso = r["frac_factor"], r["frac_no_isolated"]
            if cert is not None:
                bad += self._check_certificates(a, cert, r["p"])
        return bad

    def _check_certificates(self, a, cert, p) -> list[str]:
        """The reference cover and the program's own certificate for the
        same graph must both be triangle factors of it."""
        if not oracles.is_triangle_factor(a, cert):
            return [f"p={p}: reference cover is not a triangle factor"]
        pkg = self.fth.pkg
        rows, cols = a.nonzero()
        g = pkg.Graph.from_edges(
            ((int(u), int(v)) for u, v in zip(rows, cols) if u < v),
            vertices=range(self.N))
        res = pkg.find_f_factor(g, self.f, budget=self.BUDGET)
        if res.status != "found":
            return [f"p={p}: program search says {res.status}"]
        parts = [tuple(sorted(fe.vertices)) for fe in res.certificate]
        spans_edges = all(
            fe.edge_set == {(u, v) for u in fe.vertices for v in fe.vertices
                            if u < v} for fe in res.certificate)
        if not (spans_edges and oracles.is_triangle_factor(a, parts)):
            return [f"p={p}: program certificate is not a triangle factor"]
        return []


class _Couple(Workload):
    N = 0
    PI = 0.0
    MODE = ""

    def setup(self):
        self._constants()
        self.params = self.fth.pkg.derive_params(self.f, self.N, self.delta,
                                                 self.eps, pi=self.PI)
        self.op(WARMUP_SEED)
        self.first = None  # (seed, transcript bytes) of the first timed op

    def _couple(self, seed):
        return self.fth.pkg.run_coupling(self.f, self.N, self.params, seed,
                                         mode=self.MODE)

    def _check_transcript(self, seed, t) -> list[str]:
        bad = []
        if t.outcome not in OUTCOMES:
            bad.append(f"seed {seed}: unknown outcome {t.outcome}")
        if t.outcome == "success":
            edges = t.g.base.edges
            inside = all(fe.edge_set <= edges for fe in t.h.fedges)
            if t.containment is not True or not inside:
                bad.append(f"seed {seed}: success without containment")
        elif t.witness is None:
            bad.append(f"seed {seed}: {t.outcome} without a witness")
        if self.first is None:
            self.first = (seed, t.to_jsonl())
        return bad

    def check_run(self):
        if self.first is None:
            return ["no transcript to rerun"]
        seed, text = self.first
        if self._couple(seed).to_jsonl() != text:
            return [f"seed {seed}: rerun transcript differs"]
        return []


class CoupleExact(_Couple):
    """Exact coupling for K3 at n = 6 plus the independent reference draws
    at the same seed; pi = 0.01 is low enough for the step loop to run, and
    the one (F, n) key stays hot."""
    name = "couple-exact-k3-n6"
    N = 6
    PI = 0.01
    MODE = "exact"

    def setup(self):
        super().setup()
        self.ops = 0
        self.totals = Counter()  # copies and edges over the run

    def op(self, seed):
        pkg = self.fth.pkg
        t = self._couple(seed)
        h = pkg.sample_hf(self.f, self.N, self.params.pi, seed)
        g = pkg.sample_gstar(self.f, self.N, self.params.p, seed)
        return t, h, g

    def check_op(self, seed, out, repeat=False):
        t, h, g = out
        bad = self._check_transcript(seed, t)
        if not repeat:
            self.ops += 1
            self.totals.update(copies=len(t.h.fedges),
                               ref_copies=len(h.fedges),
                               edges=len(t.g.base.edges),
                               ref_edges=len(g.base.edges))
        return bad

    def check_run(self):
        """The coupled H and G must have the laws of the independent
        models: per op, the copy count is Binomial(C(n,3), pi) and the edge
        count Binomial(C(n,2), p), in the coupled output and in the
        reference draws alike. Pooled over the run, each total must lie
        within MARGINAL_SIGMAS of its exact mean."""
        bad = super().check_run()
        for kind, slots, prob in (
                ("copies", math.comb(self.N, 3), self.params.pi),
                ("edges", math.comb(self.N, 2), self.params.p)):
            trials = slots * self.ops
            mean = trials * prob
            sd = math.sqrt(trials * prob * (1 - prob))
            for key in (kind, "ref_" + kind):
                if abs(self.totals[key] - mean) > MARGINAL_SIGMAS * sd:
                    bad.append(f"{key}: {self.totals[key]} over {self.ops} "
                               f"ops, expected {mean:.1f} +- "
                               f"{MARGINAL_SIGMAS} sd = "
                               f"{MARGINAL_SIGMAS * sd:.1f}")
        return bad


class CoupleBound(_Couple):
    """Bound-mode coupling for K3 at n = 10: the per-step error term over
    every cycle placement."""
    name = "couple-bound-k3-n10"
    N = 10
    PI = 0.001
    MODE = "bound"

    def op(self, seed):
        return self._couple(seed)

    def check_op(self, seed, t, repeat=False):
        bad = self._check_transcript(seed, t)
        for st in t.steps:
            q = st["q"]
            parts = (q["cb"], q["cg"], q["eb"], q["eg"])
            if min(parts) < 0 or not math.isclose(
                    math.fsum(parts), q["total"], rel_tol=1e-9, abs_tol=1e-12):
                bad.append(f"seed {seed} step {st['j']}: q parts {parts} "
                           f"vs total {q['total']}")
            if not (0.0 <= st["pi_j"] <= 1.0 and
                    0.0 <= st["pi_prime_j"] <= 1.0):
                bad.append(f"seed {seed} step {st['j']}: probability "
                           f"outside [0, 1]")
        return bad


class ChenStein(Workload):
    """K3 Chen-Stein bounds per length class at n = 8, 14, 20, each op a
    new (n, class) key: explicit placement lists below the 200,000 limit
    (every class at n = 8, length 2 at n = 14 and 20), counts only above
    it.

    A sweep has 9 ops: 4 fast count-only ones (a few ms) and 5 that
    enumerate placements (0.3 to 2 s), so the median op always falls on
    the fastest enumerating key instead of between two keys' extremes,
    as it would with an even split. The warm-up at n = 32, above the
    limit for every class, builds the per-class buckets without an
    enumeration."""
    name = "chen-stein-k3"
    SIZES = (8, 14, 20)
    CLASSES = ((2,), (3,), None)
    WARMUP_N = 32

    def setup(self):
        self._constants()
        for lengths in self.CLASSES:  # builds the per-class buckets
            self.op((self.WARMUP_N, lengths, 0.01, 0.2))

    def next_round(self):
        ops = [(n, lengths, self.rng.uniform(0.002, 0.05),
                self.rng.uniform(0.05, 0.5))
               for n in self.SIZES for lengths in self.CLASSES]
        self.rng.shuffle(ops)
        return ops

    def op(self, x):
        n, lengths, pi, p = x
        pkg = self.fth.pkg
        inv = pkg.build_inventory(
            self.f, n, lengths=None if lengths is None else frozenset(lengths))
        bounds = pkg.chen_stein_bound(inv, pi, p)
        listed = None if inv.items is None else len(inv.items)
        return inv.total_count, listed, bounds

    def check_op(self, x, out, repeat=False):
        n, lengths, pi, p = x
        total, items, bounds = out
        label = f"n={n} lengths={lengths}"
        bad = []
        if total != oracles.cycle_count(n, lengths):
            bad.append(f"{label}: total_count {total} differs from the "
                       f"closed form")
        if items is not None and items != total:
            bad.append(f"{label}: {items} listed placements of {total}")
        if not all(math.isfinite(b) and b >= 0 for b in bounds):
            bad.append(f"{label}: bounds {bounds} not finite and >= 0")
        if n == min(self.SIZES) and lengths == (2,):
            # the timed op evaluates pair by pair; pairwise_limit=0 sends
            # the same inventory down the type-aggregated path
            pkg = self.fth.pkg
            inv = pkg.build_inventory(self.f, n, lengths=frozenset(lengths))
            aggregated = pkg.chen_stein_bound(inv, pi, p, pairwise_limit=0)
            ref = oracles.length2_chen_stein(n, pi, p)
            for path, got in (("pairwise", bounds),
                              ("aggregated", aggregated)):
                if not all(math.isclose(a, b, rel_tol=1e-9)
                           for a, b in zip(got, ref)):
                    bad.append(f"{label}: {path} bounds {got} vs the "
                               f"reference {ref}")
        return bad


WORKLOADS = {w.name: w for w in (Scan, CoupleExact, CoupleBound, ChenStein)}
