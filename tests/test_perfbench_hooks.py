"""The benchmark in perfbench/ imports every name in tritsim.__all__ and, in
its traced run, rebinds names that one tritsim module calls another by.  Both
are checked here against the live package in milliseconds, so a refactor
that drops or stops calling one of those names fails tier-1 instead of only
the slower perfbench smoke test (python3 -m pytest -q perfbench/test_smoke.py).
"""

import importlib
from pathlib import Path

import tritsim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Functions that must call each rebound name through their module's globals
# (or, for validate, as a method), or the traced run would not see the call.
CALLERS = {
    tritsim.sim.steady_state: ("_compile",),
    tritsim.sim.delay_estimate: ("_compile",),
    tritsim.sim.transient: ("_compile",),
    tritsim.sim._compile: ("flatten", "threshold_voltage"),
    tritsim.netlist.flatten: ("validate",),
    tritsim.bench.run_sweep: ("build_design", "delay_estimate", "transient", "measure",
                              "benchmark_stimulus"),
}


def test_traced_run_hooks_install_on_the_live_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for name in tritsim.__all__:
        getattr(tritsim, name)
    assert isinstance(tritsim.netlist.Fet, type)

    def bound():
        return (tritsim.sim.flatten, tritsim.sim.threshold_voltage, tritsim.bench.build_design,
                tritsim.bench.delay_estimate, tritsim.bench.transient, tritsim.bench.measure,
                tritsim.bench.benchmark_stimulus, tritsim.netlist.Netlist.validate)

    originals = bound()
    tracer = spans.Tracer(tritsim, True)
    tracer.install()
    try:
        assert all(now is not was for now, was in zip(bound(), originals))
    finally:
        tracer.uninstall()
    assert bound() == originals

    for fn, names in CALLERS.items():
        missing = set(names) - set(fn.__code__.co_names)
        assert not missing, f"{fn.__qualname__} no longer calls {sorted(missing)}"
