"""tritsim benchmark: sweep, verify and ripple workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ripple --seed 1 --seconds 30 --trace 0

With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json, measured with tracing
off and scaled to a reference host speed (calibrate.py).  With --trace 1 the run measures the first half of --seconds untraced
and replays the same ops traced in the second half; the metrics are the
per-layer ones plus the tracing overhead.  --workload all runs the three
workloads in turn and names every metric after its workload.

Stdlib only, single process, single thread.  tritsim is imported from the
checkout's src/ directory; the script exits with code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

from calibrate import Calibration, scaled_setup
from spans import Tracer
from workloads import WORKLOADS, Mismatch

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
FAIL_CAUSES = ("nonconvergent", "nopath", "recursion", "mismatch", "other")
ACCURACY_NOTE = ("accuracy: unvalidated; the switch-level model has no hardware or "
                 "SPICE reference, so no error figure is given")

# Span names reported per op; setup-phase spans are reported per setup.
OP_LAYERS = ("netlist.flatten", "netlist.validate", "builders.build_design",
             "sim.steady_state", "sim.delay_estimate", "sim.transient", "sim.measure",
             "bench.run_sweep", "bench.benchmark_stimulus", "bench.sweep_csv")
OP_CALLS = ("netlist.flatten", "netlist.validate", "builders.build_design",
            "sim.steady_state", "sim.delay_estimate", "sim.transient")
SETUP_LAYERS = ("netlist.parse", "netlist.serialize", "netlist.validate",
                "builders.build_design")
SETUP_CALLS = ("netlist.parse", "builders.build_design")


class MissingProgram(Exception):
    """The checkout holds no tritsim sources to benchmark."""


def fresh_import(src: Path) -> types.SimpleNamespace:
    """Import tritsim from scratch and collect what the workloads call."""
    if not (src / "tritsim" / "__init__.py").is_file():
        raise MissingProgram(f"no tritsim package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "tritsim" or m.startswith("tritsim.")]:
        del sys.modules[name]
    tritsim = importlib.import_module("tritsim")
    lib = types.SimpleNamespace(**{name: getattr(tritsim, name) for name in tritsim.__all__})
    lib.modules = tritsim
    return lib


def quantile(samples: list[float], p: float) -> float:
    """Smoothed p-quantile: the normal approximation of the Harrell-Davis
    estimator, a Gaussian-weighted mean of the order statistics around rank
    p*(n-1).  A plain order statistic jumps between modes when a workload
    mixes ops of very different cost (ripple adders of 1 to 16 trits, which
    fail or not), as one op more or less lands on either side of a gap."""
    xs = sorted(samples)
    n = len(xs)
    centre = p * (n - 1)
    width = max(math.sqrt(n * p * (1 - p)), 0.5)
    lo = max(0, int(centre - 6 * width))
    hi = min(n, int(centre + 6 * width) + 2)
    weights = [math.exp(-0.5 * ((i - centre) / width) ** 2) for i in range(lo, hi)]
    return sum(w * x for w, x in zip(weights, xs[lo:hi])) / sum(weights)


class OpStats:
    """Latency and outcome of every op in one measured window.  An op whose
    cause is the workload's `known_defect` did not settle: it is reported
    (`settled_share`, `fail.*`), but it is not a failed op."""

    def __init__(self, known_defect: str | None = None):
        self.known_defect = known_defect
        self.latencies: list[float] = []
        self.ends: list[float] = []
        self.groups: dict[str, list[int]] = {}   # group -> [attempted, failed or unsettled]
        self.fails = dict.fromkeys(FAIL_CAUSES, 0)
        self.first_error: dict[str, str] = {}
        self.calibration = Calibration()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def unsettled(self) -> int:
        return self.fails[self.known_defect] if self.known_defect else 0

    @property
    def failed(self) -> int:
        return sum(self.fails.values()) - self.unsettled

    def add(self, group: str, latency: float, end: float, cause: str | None,
            message: str) -> None:
        self.latencies.append(latency)
        self.ends.append(end)
        counts = self.groups.setdefault(group, [0, 0])
        counts[0] += 1
        if cause is not None:
            counts[1] += 1
            self.fails[cause] += 1
            self.first_error.setdefault(cause, message)

    def scaled_ms(self) -> list[float]:
        """Op latencies in ms at the reference host speed."""
        scale = self.calibration.scale
        return [t * 1e3 * scale(end) for t, end in zip(self.latencies, self.ends)]

    def _times(self, ms: list[float], tail: float) -> dict[str, float]:
        correct = self.attempted - sum(self.fails.values())
        return {
            "ops_per_s": correct / (sum(ms) / 1e3),
            "op_ms.p50": quantile(ms, 0.5),
            "op_ms.tail": quantile(ms, tail),
        }

    def end_to_end(self, tail: float) -> dict[str, float]:
        return {**self._times(self.scaled_ms(), tail),
                "settled_share": 1 - self.unsettled / self.attempted}

    def raw_end_to_end(self, tail: float) -> dict[str, float]:
        """Unscaled figures, printed beside the scaled ones."""
        raw = self._times([t * 1e3 for t in self.latencies], tail)
        return {**{f"raw_{k}": v for k, v in raw.items()}, "host_speed": self.calibration.speed()}


def classify(exc: BaseException, lib) -> str:
    if isinstance(exc, Mismatch):
        return "mismatch"
    if isinstance(exc, lib.NonConvergent):
        return "nonconvergent"
    if isinstance(exc, lib.NoPath):
        return "nopath"
    if isinstance(exc, RecursionError):
        return "recursion"
    return "other"


def run_ops(workload, seed: int, seconds: float, tracer: Tracer, lib) -> OpStats:
    """Closed loop for `seconds`: each op starts when the previous returned.
    At least one op runs.  Latency is time to a result or an error, less the
    time spent checking it.  Calibration kernel passes run between ops."""
    stats = OpStats(workload.known_defect)
    calibration = stats.calibration
    deadline = perf_counter() + seconds
    calibration.tick(perf_counter())
    for group, op in workload.ops(seed):
        tracer.excluded = 0.0
        cause, message = None, ""
        t0 = perf_counter()
        try:
            with tracer.span("op"):
                op()
        except Exception as exc:  # every failure is classified, none aborts the run
            cause, message = classify(exc, lib), f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        stats.add(group, t1 - t0 - tracer.excluded, t1, cause, message)
        calibration.tick(perf_counter())
        if t1 >= deadline:
            break
    calibration.finish()
    return stats


def set_up(name: str):
    """Fresh import plus the workload's set-up.  Returns (lib, workload,
    tracer, seconds taken)."""
    t0 = perf_counter()
    lib = fresh_import(ROOT / "src")
    tracer = Tracer(lib.modules, enabled=False)
    workload = WORKLOADS[name]()
    workload.setup(lib, tracer)
    return lib, workload, tracer, perf_counter() - t0


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced run: set-up SETUP_REPEATS times (median of their times at
    the reference host speed reported), then ops."""
    times, raw_times = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()    # so that no collection of an earlier set-up's garbage lands in this one
        (lib, workload, tracer, took), scaled = scaled_setup(lambda: set_up(name))
        times.append(scaled)
        raw_times.append(took)
    gc.collect()
    stats = run_ops(workload, seed, seconds, tracer, lib)
    metrics = {"setup_s": statistics.median(times),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               **stats.end_to_end(workload.tail)}
    raw = {"raw_setup_s": statistics.median(raw_times), **stats.raw_end_to_end(workload.tail)}
    return {"stats": [stats], "metrics": metrics, "raw": raw}


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    """Half the time untraced, then the same op sequence traced."""
    lib, workload, tracer, _ = set_up(name)
    gc.collect()
    plain = run_ops(workload, seed, seconds / 2, tracer, lib)

    tracer = Tracer(lib.modules, True)
    tracer.install()
    try:
        with tracer.span("setup"):
            workload = WORKLOADS[name]()
            workload.setup(tracer.library(lib), tracer)
        gc.collect()
        traced = run_ops(workload, seed, seconds / 2, tracer, lib)
    finally:
        tracer.uninstall()
    return {"stats": [plain, traced], "metrics": layer_metrics(tracer, plain, traced)}


def layer_metrics(tracer: Tracer, plain: OpStats, traced: OpStats) -> dict[str, float]:
    times = tracer.self_times()
    ops = traced.attempted
    setups = times[("setup", "setup")][1]
    out: dict[str, float] = {}
    for layer in ("op", "oracle") + OP_LAYERS:
        out[f"{layer}.self_ms"] = times[("op", layer)][0] * 1e3 / ops
    for layer in OP_CALLS:
        out[f"{layer}.calls"] = times[("op", layer)][1] / ops
    counts = tracer.counts
    out["sim.transient.events"] = counts["sim.transient.events"] / ops
    out["sim.solves"] = counts["sim.solves"] / ops
    vth = counts["cnfet.threshold_voltage.calls"]
    out["cnfet.threshold_voltage.calls"] = vth / ops
    out["cnfet.threshold_voltage.calls_per_solve"] = vth / max(counts["sim.solves"], 1)
    out["cnfet.threshold_voltage.calls_per_fet_solve"] = vth / max(counts["sim.fet_solves"], 1)
    out["setup.self_ms"] = times[("setup", "setup")][0] * 1e3 / setups
    for layer in SETUP_LAYERS:
        out[f"setup.{layer}.self_ms"] = times[("setup", layer)][0] * 1e3 / setups
    for layer in SETUP_CALLS:
        out[f"setup.{layer}.calls"] = times[("setup", layer)][1] / setups
    for cause in FAIL_CAUSES:
        out[f"fail.{cause}"] = traced.fails[cause] / ops
    plain_e2e, traced_e2e = plain.end_to_end(0.5), traced.end_to_end(0.5)
    out["trace.overhead_ms.p50"] = traced_e2e["op_ms.p50"] - plain_e2e["op_ms.p50"]
    out["trace.overhead_pct"] = (plain_e2e["ops_per_s"] / traced_e2e["ops_per_s"] - 1) * 100 \
        if traced_e2e["ops_per_s"] else 0.0
    return out


# ---------------------------------------------------------------------------
# reporting

# Names the combined (--workload all) run gives the end-to-end metrics.
ALL_NAMES = {
    "sweep": {"ops_per_s": "values_per_s", "op_ms.p50": "value_ms.p50",
              "op_ms.tail": "value_ms.p90"},
    "verify": {"ops_per_s": "rows_per_s", "op_ms.p50": "row_ms.p50",
               "op_ms.tail": "row_ms.p95"},
    "ripple": {"ops_per_s": "adds_per_s", "op_ms.p50": "add_ms.p50",
               "op_ms.tail": "add_ms.p99"},
}


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def combined(results: dict[str, dict], trace: bool, units: dict[str, str]) -> dict:
    """Metrics of a --workload all run, named after their workload."""
    if trace:
        return {f"{name}.{k}": (v, units[k])
                for name, res in results.items() for k, v in res["metrics"].items()}
    out = {
        "setup_s": (sum(r["metrics"]["setup_s"] for r in results.values()), units["setup_s"]),
        "peak_rss_mb": (max(r["metrics"]["peak_rss_mb"] for r in results.values()),
                        units["peak_rss_mb"]),
    }
    for name, res in results.items():
        stats = res["stats"][0]
        for generic, specific in ALL_NAMES[name].items():
            out[f"{name}.{specific}"] = (res["metrics"][generic], units[generic])
        out[f"{name}.failed_share"] = ((stats.failed + stats.unsettled) / stats.attempted,
                                       "share")
    return out


def report(results: dict[str, dict], metrics: dict[str, tuple[float, str]], seed: int) -> dict:
    stats = [s for res in results.values() for s in res["stats"]]
    print(f"seed {seed}")
    print(ACCURACY_NOTE)
    for name, res in results.items():
        for window, s in zip(("", " traced"), res["stats"]):
            for group, (attempted, failed) in sorted(s.groups.items(),
                                                     key=lambda g: (len(g[0]), g[0])):
                print(f"{name}{window} {group}: {failed} of {attempted} ops failed "
                      "or did not settle")
            for cause, message in sorted(s.first_error.items()):
                print(f"{name}{window} first {cause} failure: {message}")
        for key, value in res.get("raw", {}).items():
            print(f"{name} {key} {value!r}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    return {
        "correct": not any(s.fails["mismatch"] for s in stats),
        "attempted": sum(s.attempted for s in stats),
        "failed": sum(s.failed for s in stats),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.trace:
            results = {n: measure_traced(n, args.seed, args.seconds) for n in names}
        else:
            results = {n: measure(n, args.seed, args.seconds) for n in names}
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = load_units()
    if args.workload == "all":
        metrics = combined(results, bool(args.trace), units)
    else:
        metrics = {k: (v, units[k]) for k, v in results[names[0]]["metrics"].items()}
    print(json.dumps(report(results, metrics, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
