"""Runs one workload: set-up, timed rounds, checks, and the metric line.

Each set-up runs on a fresh import of the fthresh package, so its
module-level caches start empty. Set-up is repeated up to SETUP_REPS times,
stopping early once SETUP_BUDGET_S seconds of set-up have accrued, and
``setup_s`` is the median. The timed loop then runs whole rounds until
``seconds`` have passed; only the op calls are timed, and the checks run
between them.

The host this runs on changes speed by up to a third within minutes, far
more than any bound a regression check could use, so every reported time
is scaled to a reference host speed: after each set-up, and after every
CALIB_EVERY_S of op time, a fixed pure-Python loop is timed, and the times
since the last calibration are multiplied by CALIB_REF_S over its time.
The reported times read as on a host where that loop takes CALIB_REF_S.

With ``trace=True`` the run measures the per-layer metrics instead: one
set-up runs traced, then every op runs twice in a row, untraced and then
traced, and the median ratio of the two times is the tracing overhead.
The tracer is installed only around the op call itself, so the checks,
which call fthresh too, add nothing to the layer metrics.
Layer times and counts are per traced op; ``setup.*`` metrics are totals
over the traced set-up.
"""

from __future__ import annotations

import gc
import importlib
import resource
import statistics
import sys
import time
import types
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 3
SETUP_BUDGET_S = 5.0
CALIB_REF_S = 0.016  # the calibration loop on the reference host
CALIB_EVERY_S = 0.1

# Per-layer metrics, per op of the traced pass. A name ending in .calls, .ms
# or .self_ms reads that field of the traced layer it starts with; any other
# name is a counter the tracer reads off return values.
PER_OP = (
    "graphs.automorphisms.calls",
    "fgraphs.FEdge.from_embedding.calls",
    "fgraphs.FEdge.from_embedding.ms",
    "fgraphs.copies_in.ms",
    "factors.find_f_factor.self_ms",
    "factors.find_f_factor.nodes_expanded",
    "factors.f_isolated.self_ms",
    "sampling.graph_from_uniforms.ms",
    "cli.run_scan.self_ms",
    "sampling.sample_gstar.ms",
    "sampling.sample_hf.ms",
    "dgraphs.sparse_cycle_placements.calls",
    "dgraphs.sparse_cycle_placements.ms",
    *(f"exactengine.ExactEngine.{m}.ms"
      for m in ("valid_h", "mu", "nu", "valid_g_dense", "g_weights",
                "sample_g")),
    "coupling.run_coupling.self_ms",
    "coupling.steps",
    "coupling.q_contributors",
    *(f"coupling.outcome.{o}"
      for o in ("success", "B1", "B2", "B3", "step_failure")),
    "fgraphs.inducing_witness.ms",
    "fgraphs.find_avoidable.ms",
    "inventory.build_inventory.ms",
    "inventory.build_inventory.items",
    "inventory.chen_stein_bound.ms",
    "dgraphs.cycle_placements.ms",
)
LAYER_FIELDS = ("calls", "ms", "self_ms")
# layers whose cost lands in set-up: total ms over one traced set-up
SETUP_LAYERS = ("patterns.pattern_preset", "exponents.select_constants",
                "exactengine.get_engine", "coupling.run_coupling",
                "inventory.chen_stein_bound")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in PER_OP:
        field = name.rpartition(".")[2]
        units[name] = "ms/op" if field in ("ms", "self_ms") else "1/op"
    for layer in SETUP_LAYERS:
        units[f"setup.{layer}.ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


def fresh_import():
    """Import fthresh from the checkout's src with every fthresh module
    loaded anew, so module-level caches start empty."""
    for name in [m for m in sys.modules
                 if m == "fthresh" or m.startswith("fthresh.")]:
        del sys.modules[name]
    gc.collect()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"fthresh.{name}")
            for name in ("cli", "sampling")}
    pkg = importlib.import_module("fthresh")
    if Path(pkg.__file__).resolve().parent != SRC / "fthresh":
        raise ImportError(f"fthresh imported from {pkg.__file__}, "
                          f"not from {SRC}")
    return types.SimpleNamespace(pkg=pkg, **mods)


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current
    speed for interpreted code, where fthresh spends most of its time."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostScale:
    """Collects op times and scales each batch of them to the reference
    host speed by the calibration loop run right after the batch."""

    def __init__(self):
        self.scaled: list[float] = []
        self.raw_s = 0.0
        self.calibrations: list[float] = []
        self._batch: list[float] = []

    def add(self, dt: float) -> None:
        self._batch.append(dt)
        if sum(self._batch) >= CALIB_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._batch:
            return
        c = calibration_s()
        self.calibrations.append(c)
        self.raw_s += sum(self._batch)
        self.scaled += [dt * CALIB_REF_S / c for dt in self._batch]
        self._batch = []


class Runner:
    def __init__(self, workload: str, seed: int):
        self.cls = WORKLOADS[workload]
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def log(self, msg: str) -> None:
        print(f"[{self.cls.name}] {msg}", file=sys.stderr, flush=True)

    def setup(self, reps: int = SETUP_REPS, tracer=None):
        """The workload after its last set-up, and the median set-up time
        scaled to the reference host speed."""
        times, scaled = [], []
        wl = fth = None
        while len(times) < reps and sum(times) < SETUP_BUDGET_S:
            wl = fth = None  # let fresh_import free the previous set-up
            fth = fresh_import()
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            wl = self.cls(fth, self.seed)
            wl.setup()
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
            calib = statistics.median(calibration_s() for _ in range(3))
            scaled.append(times[-1] * CALIB_REF_S / calib)
        return wl, statistics.median(scaled)

    def run_op(self, wl, x, tracer=None):
        """Time one op, traced when a tracer is given, then check its output
        outside the timing and the tracing; the op's seconds, or None when
        it raised or failed its checks. A traced op is a rerun of inputs
        that already ran untraced."""
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = wl.op(x)
            dt = time.perf_counter() - t0
        except Exception as exc:  # an op that raises is a failed op
            self.failed += 1
            self.log(f"op {x!r} raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        bad = wl.check_op(x, out, repeat=tracer is not None)
        if bad:
            self.failed += 1
            self.log(f"op {x!r} failed its checks: {bad[:3]}")
            return None
        return dt

    def timed_rounds(self, wl, seconds: float) -> HostScale:
        """Whole rounds until ``seconds`` have passed; the times of the ops
        that did not fail."""
        host = HostScale()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for x in wl.next_round():
                dt = self.run_op(wl, x)
                if dt is not None:
                    host.add(dt)
        host.flush()
        return host

    def traced_rounds(self, wl, seconds: float, tracer):
        """Whole rounds until ``seconds`` have passed, each op run untraced
        and then traced: the raw times of both runs of the ops that did not
        fail in either."""
        plain, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for x in wl.next_round():
                dt = self.run_op(wl, x)
                dt2 = self.run_op(wl, x, tracer)
                tracer.op += 1
                if dt is not None and dt2 is not None:
                    plain.append(dt)
                    traced.append(dt2)
        return plain, traced

    def finish_checks(self, wl) -> bool:
        """True when the run-level checks pass and no op failed."""
        bad = wl.check_run()
        for msg in bad:
            self.log(f"run check failed: {msg}")
        return not bad and self.failed == 0

    def result(self, correct: bool, metrics: dict, units: dict) -> dict:
        return {"correct": correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]}
                            for k in units}}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload, seed)
    if trace:
        return _run_traced(runner, seconds)
    wl, setup_s = runner.setup()
    host = runner.timed_rounds(wl, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = runner.finish_checks(wl)
    times = host.scaled
    if not times:
        raise RuntimeError("every op failed")
    metrics = {"setup_s": setup_s,
               "ops_per_s": len(times) / sum(times),
               "op_p50_ms": statistics.median(times) * 1000.0,
               "peak_rss_mb": peak_rss_mb}
    runner.log(f"{len(times)} ops timed, {len(times) / host.raw_s:.4g} "
               f"ops/s unscaled; calibration loop median "
               f"{statistics.median(host.calibrations) * 1000:.2f} ms, "
               f"reference {CALIB_REF_S * 1000:g} ms")
    return runner.result(correct, metrics, END_TO_END_UNITS)


def _run_traced(runner: Runner, seconds: float) -> dict:
    tracer = Tracer()
    wl, _setup_s = runner.setup(1, tracer)
    tracer.phase, tracer.op = "ops", 0
    plain, traced = runner.traced_rounds(wl, seconds, tracer)
    correct = runner.finish_checks(wl)
    if not traced:
        raise RuntimeError("every op failed")
    n_ops = tracer.op
    layers = tracer.layer_table("ops")
    counters = tracer.counters["ops"]
    metrics = {}
    for name in PER_OP:
        layer, _, field = name.rpartition(".")
        if field in LAYER_FIELDS:
            total = layers.get(layer, {}).get(field, 0.0)
        else:
            total = counters.get(name, 0)
        metrics[name] = total / n_ops
    setup_layers = tracer.layer_table("setup")
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}.ms"] = setup_layers.get(layer, {}).get("ms",
                                                                       0.0)
    ratio = statistics.median(t / p for t, p in zip(traced, plain))
    metrics["trace.overhead_pct"] = (ratio - 1.0) * 100.0
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{runner.cls.name}-seed{runner.seed}.json"
    tracer.write(str(path), {"workload": runner.cls.name,
                             "seed": runner.seed, "ops": n_ops,
                             "metrics": metrics})
    runner.log(f"{n_ops} ops traced, spans in {path.relative_to(ROOT)}")
    return runner.result(correct, metrics, per_layer_units())
