"""Command line front end.

Subcommands: analyze, verify, scan, couple, chen-stein, params. Output
tables are CSV with a commented header recording the configuration, so a
result file is self-describing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

import numpy as np

from . import __version__
from .coupling import params_as_jsonable, run_coupling
from .errors import DomainError, FThreshError, ResourceLimitError
from .exponents import (certify, constants_of, dcycle_report_csv,
                        exponent_audit_csv, select_constants,
                        verify_clean_dcycles_strictly_balanced)
from .factors import FactorResult, nested_searches
from .graphs import format_edge_list
from .inventory import build_inventory, chen_stein_bound
from .patterns import (Pattern, derive_params, p_star, pattern_from_file,
                       pattern_preset)
from .sampling import STREAM_EDGES, GraphAt, neighbour_masks_at, rng_for

GRID_POINTS = 9
GRID_LO = 0.6
GRID_HI = 1.5


def _worker_count() -> int:
    """FTHRESH_WORKERS, a positive integer; unset means 1."""
    raw = os.environ.get("FTHRESH_WORKERS", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise DomainError("FTHRESH_WORKERS must be a positive integer, "
                          f"got {raw!r}")
    return int(raw)


def _resolve_pattern(args) -> Pattern:
    """The template of --pattern or --pattern-file; argparse admits one."""
    if args.pattern_file is not None:
        return pattern_from_file(args.pattern_file)
    return pattern_preset(args.pattern)


def _constants(f: Pattern, args):
    if args.delta is not None and args.eps is not None:
        return args.delta, args.eps
    sc = select_constants(f)
    return (args.delta if args.delta is not None else sc.delta,
            args.eps if args.eps is not None else sc.eps)


def _csv_header(config: dict) -> str:
    lines = [f"# fthresh {__version__}"]
    for k in sorted(config):
        lines.append(f"# {k}={config[k]}")
    return "\n".join(lines)


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------

def cmd_analyze(args) -> int:
    f = _resolve_pattern(args)
    print(f"edges: {format_edge_list(f.graph)}")
    print(f"vertices r = {f.r}")
    print(f"copies s = e(F) = {f.s}")
    print(f"automorphisms = {f.aut}")
    print(f"density d1 = {f.d1}")
    print(f"strictly 1-balanced: {f.strictly_1_balanced}")
    if args.n is not None:
        delta, eps = _constants(f, args)
        params = derive_params(f, args.n, delta, eps, pi=args.pi)
        for k, v in dataclasses.asdict(params).items():
            print(f"{k} = {v}")
    return 0


def cmd_params(args) -> int:
    f = _resolve_pattern(args)
    delta, eps = _constants(f, args)
    params = derive_params(f, args.n, delta, eps, pi=args.pi)
    print(json.dumps(params_as_jsonable(params), indent=2))
    return 0


def cmd_verify(args) -> int:
    f = _resolve_pattern(args)
    max_len = args.max_len if args.max_len is not None else min(f.s, 4)
    name = args.pattern or "pattern"
    cert = certify(f, max_len)
    rows = verify_clean_dcycles_strictly_balanced(cert)
    sc = constants_of(cert)
    print(f"clean d-cycle types up to length {max_len}: {len(rows)}, "
          f"all strictly balanced")
    print(f"f1max = {sc.certified_max_f1}")
    print(f"g1max = {sc.certified_max_g1}")
    print(f"delta = {sc.delta}")
    print(f"eps = {sc.eps}")
    if args.out:
        config = {"command": "verify", "pattern": name, "max_len": max_len}
        text = (_csv_header(config) + "\n" + dcycle_report_csv(rows, name)
                + exponent_audit_csv(cert))
        _write_out(text, args.out)
    return 0


def auto_grid(f: Pattern, n: int) -> list[float]:
    """Geometric grid of edge probabilities around the threshold constant."""
    base = p_star(f, n)
    lo, hi = GRID_LO * base, GRID_HI * base
    ratio = (hi / lo) ** (1.0 / (GRID_POINTS - 1))
    return [lo * ratio ** i for i in range(GRID_POINTS)]


def trial_searches(f: Pattern, n: int, us: np.ndarray, ps: list[float],
                   budget: int) -> list[tuple[FactorResult, bool]]:
    """Per grid point of one trial, the factor search of the graph at p,
    equal to find_f_factor(graph_from_uniforms(n, us, p), f, budget) with
    the same certificate, and whether every vertex lies in a copy: the
    nested searches over the copies of the graph at the top of the grid,
    each born at the largest uniform among its edges."""
    if not ps:
        return []
    return nested_searches(f, neighbour_masks_at(n, us, max(ps)), us, ps,
                           budget, lambda p: GraphAt(n, us, p))


def _scan_trial(payload) -> list[tuple]:
    """(status, isolated-free, copies) per grid point of one trial, from
    trial_searches; the pool's unit of work."""
    return [(res.status, covered, res.n_copies)
            for res, covered in trial_searches(*payload)]


def run_scan(f: Pattern, n: int, ps: list[float], trials: int, seed: int,
             budget: int, workers: int = 1) -> list[dict]:
    """Factor and isolated-vertex scan reusing one uniform batch per trial
    across the whole grid, so both indicators are monotone in p per trial."""
    if trials < 1:
        raise DomainError("trials must be positive")
    m = n * (n - 1) // 2
    batch = rng_for(seed, STREAM_EDGES).random((trials, m))
    payloads = [(f, n, batch[t], ps, budget) for t in range(trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_trial, payloads, chunksize=4))
    else:
        results = [_scan_trial(pl) for pl in payloads]
    rows = []
    for i, p in enumerate(ps):
        tally = {"found": 0, "none": 0, "budget": 0, "divisibility": 0}
        no_iso = 0
        copies = 0
        for res in results:
            status, covered, n_copies = res[i]
            tally[status] += 1
            no_iso += covered
            copies += n_copies
        rows.append({"p": p, "trials": trials, **tally,
                     "frac_factor": tally["found"] / trials,
                     "frac_no_isolated": no_iso / trials,
                     "frac_budget_exhausted": tally["budget"] / trials,
                     "mean_copies": copies / trials})
    return rows


def crossing_estimate(rows: list[dict],
                      key: str = "frac_factor") -> Optional[float]:
    """p at which the given fraction crosses one half, by interpolation."""
    for a, b in zip(rows, rows[1:]):
        fa, fb = a[key], b[key]
        if fa < 0.5 <= fb:
            t = (0.5 - fa) / (fb - fa)
            return a["p"] + t * (b["p"] - a["p"])
    return None


def cmd_scan(args) -> int:
    f = _resolve_pattern(args)
    if args.p is not None and not 0.0 <= args.p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    # p_star refuses n <= r before any trial runs
    config = {"command": "scan", "pattern": args.pattern or "file",
              "n": args.n, "trials": args.trials, "seed": args.seed,
              "budget": args.budget, "p_star": p_star(f, args.n)}
    ps = [args.p] if args.p is not None else auto_grid(f, args.n)
    rows = run_scan(f, args.n, ps, args.trials, args.seed, args.budget,
                    workers=_worker_count())
    lines = [_csv_header(config),
             "p,trials,frac_factor,frac_no_isolated,frac_budget_exhausted,"
             "mean_copies"]
    for r in rows:
        lines.append(f"{r['p']},{r['trials']},{r['frac_factor']},"
                     f"{r['frac_no_isolated']},{r['frac_budget_exhausted']},"
                     f"{r['mean_copies']}")
    for key in ("frac_factor", "frac_no_isolated"):
        cross = crossing_estimate(rows, key)
        if cross is not None:
            lines.append(f"# crossing_half_{key}={cross}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_couple(args) -> int:
    f = _resolve_pattern(args)
    if args.trials < 1:
        raise DomainError("trials must be positive")
    delta, eps = _constants(f, args)
    params = derive_params(f, args.n, delta, eps, pi=args.pi)
    tally: dict[str, int] = {}
    violations = 0
    sink = open(args.out, "w", encoding="utf-8") if args.out else None
    try:
        for s in range(args.seed, args.seed + args.trials):
            t = run_coupling(f, args.n, params, s, mode=args.mode)
            tally[t.outcome] = tally.get(t.outcome, 0) + 1
            if t.outcome == "success" and t.containment is False:
                violations += 1
            if sink:
                sink.write(t.to_jsonl())
    finally:
        if sink:
            sink.close()
    for k in sorted(tally):
        print(f"{k}: {tally[k]}")
    print(f"containment violations: {violations}")
    return 0


def cmd_chen_stein(args) -> int:
    f = _resolve_pattern(args)
    delta, eps = _constants(f, args)
    config = {"command": "chen-stein", "pattern": args.pattern or "file",
              "delta": delta, "eps": eps}
    lines = [_csv_header(config),
             "n,lengths,count,pi,p,bound_H,bound_G"]
    bounded = 0
    for n in args.n:
        params = derive_params(f, n, delta, eps, pi=args.pi)
        pi = params.pi
        p = args.p if args.p is not None else params.p
        classes = [frozenset({k}) for k in range(2, f.s + 1)] + [None]
        for lengths in classes:
            inv = build_inventory(f, n, lengths=lengths)
            label = ("all" if lengths is None
                     else ";".join(map(str, sorted(lengths))))
            try:
                bh, bg = chen_stein_bound(inv, pi, p)
            except ResourceLimitError as exc:
                refused = exc
                lines.append(f"# refused n={n} lengths={label} "
                             f"count={inv.total_count}: {exc}")
                continue
            bounded += 1
            lines.append(f"{n},{label},{inv.total_count},{pi},{p},{bh},{bg}")
    if not bounded:
        raise refused
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


# -- entry point -------------------------------------------------------------

# the flags a subcommand may take, each with its argparse settings
_FLAGS = {
    "n": {"type": int, "required": True, "help": "instance size"},
    "p": {"type": float, "help": "edge probability"},
    "pi": {"type": float, "help": "copy probability"},
    "delta": {"type": float, "help": "coupling slack exponent"},
    "eps": {"type": float, "help": "growth-rate exponent"},
    "trials": {"type": int, "default": 100},
    "seed": {"type": int, "default": 0},
    "mode": {"choices": ("exact", "bound"), "default": "exact"},
    "budget": {"type": int, "default": 100_000,
               "help": "search expansion budget"},
    "max-len": {"type": int, "help": "largest cycle length"},
    "out": {"help": "output file (default stdout)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fthresh",
        description="Verification workbench for sharp thresholds of "
                    "template factors in random graphs.")
    parser.add_argument("--version", action="version",
                        version=f"fthresh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, flags):
        """A subcommand taking the template flags and the listed ones:
        those its command reads, so any other flag is a usage error."""
        sp = sub.add_parser(name, help=summary)
        template = sp.add_mutually_exclusive_group(required=True)
        template.add_argument("--pattern", help="preset template name")
        template.add_argument("--pattern-file", help="template edge list")
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.set_defaults(func=func)
        return sp

    sp = add("analyze", cmd_analyze, "template invariants and parameters",
             ("pi", "delta", "eps"))
    sp.add_argument("--n", type=int,
                    help="instance size of the derived parameters")
    add("verify", cmd_verify, "certify d-cycle balance and exponent signs",
        ("max-len", "out"))
    add("scan", cmd_scan, "factor probability across a p-grid",
        ("n", "p", "trials", "seed", "budget", "out"))
    add("couple", cmd_couple, "run the stepwise coupling",
        ("n", "pi", "delta", "eps", "trials", "seed", "mode", "out"))
    sp = add("chen-stein", cmd_chen_stein, "Poisson approximation error "
             "bounds", ("pi", "p", "delta", "eps", "out"))
    sp.add_argument("--n", type=int, nargs="+", required=True,
                    help="instance sizes")
    add("params", cmd_params, "derived instance parameters",
        ("n", "pi", "delta", "eps"))

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # OSError: a --pattern-file that cannot be read or an --out that
    # cannot be written, such as a directory
    except (FThreshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
