"""Spans and counters around tritsim's public functions, for the traced run.

A span records name, start, end and parent.  A layer's self time is its
spans' durations minus the time their child spans cover.  Spans are kept in
memory and reduced once the run ends.

The untraced run calls the library directly; `Tracer.install` rebinds the
names below only while the traced run lasts, and `uninstall` restores them.
Private `_solve`, `_arrivals` and `_conducting` are not spanned: their time
shows as the self time of the public function that called them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Public functions the workloads call directly, by span name.
ENTRY_POINTS = {
    "parse": "netlist.parse",
    "serialize": "netlist.serialize",
    "build_design": "builders.build_design",
    "steady_state": "sim.steady_state",
    "delay_estimate": "sim.delay_estimate",
    "run_sweep": "bench.run_sweep",
    "sweep_csv": "bench.sweep_csv",
}


def fet_count(net, fet_type) -> int:
    """FETs in the flattened netlist, counted without flattening it."""
    per_sub = {name: sum(isinstance(d, fet_type) for d in sub.devices)
               for name, sub in net.subckts.items()}
    return sum(1 if isinstance(d, fet_type) else per_sub.get(getattr(d, "subckt", None), 0)
               for d in net.devices)


class Tracer:
    """Collects spans while enabled; otherwise only times the oracle."""

    def __init__(self, tritsim, enabled: bool):
        self.tritsim = tritsim
        self.enabled = enabled
        self.spans: list[list] = []   # [name, start, end, parent index, root name]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.waveforms: list = []      # transient results of the current op
        self.excluded = 0.0           # oracle seconds inside the current op
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        root = self.spans[parent][4] if parent >= 0 else name
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, root])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def oracle(self):
        """Checking code: a span of its own, and excluded from op latency."""
        t0 = perf_counter()
        try:
            with self.span("oracle"):
                yield
        finally:
            self.excluded += perf_counter() - t0

    def wrap(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result)
            return result
        return traced

    # -- counters ----------------------------------------------------------

    def _solves(self, net, solves: int) -> None:
        self.counts["sim.solves"] += solves
        self.counts["sim.fet_solves"] += solves * fet_count(net, self.tritsim.netlist.Fet)

    def _count_steady(self, net, *args, **kwargs):
        self._solves(net, 1)

    def _count_delay(self, net, output_node, cfg=None, inputs=None):
        self._solves(net, 1 if inputs is not None else 3 ** len(net.inputs))

    def _count_transient(self, net, stimulus, *args, **kwargs):
        self._solves(net, len(stimulus))

    def _after_transient(self, wave):
        self.counts["sim.transient.events"] += len(wave.events)
        self.waveforms.append(wave)

    # -- installation ------------------------------------------------------

    def library(self, lib):
        """The namespace the workloads call: `lib` itself when disabled,
        else a copy whose entry points open spans."""
        if not self.enabled:
            return lib
        hooks = {
            "steady_state": (self._count_steady, None),
            "delay_estimate": (self._count_delay, None),
        }
        traced = type(lib)(**vars(lib))
        for attr, name in ENTRY_POINTS.items():
            before, after = hooks.get(attr, (None, None))
            setattr(traced, attr, self.wrap(name, getattr(lib, attr), before, after))
        return traced

    def install(self) -> None:
        """Rebind the names one tritsim module calls another by."""
        t = self.tritsim
        counts = self.counts
        vth = t.sim.threshold_voltage

        def counted_vth(c):
            counts["cnfet.threshold_voltage.calls"] += 1
            return vth(c)

        targets = [
            (t.sim, "flatten", self.wrap("netlist.flatten", t.sim.flatten)),
            (t.sim, "threshold_voltage", counted_vth),
            (t.bench, "build_design", self.wrap("builders.build_design", t.bench.build_design)),
            (t.bench, "delay_estimate", self.wrap("sim.delay_estimate", t.bench.delay_estimate,
                                                  self._count_delay)),
            (t.bench, "transient", self.wrap("sim.transient", t.bench.transient,
                                             self._count_transient, self._after_transient)),
            (t.bench, "measure", self.wrap("sim.measure", t.bench.measure)),
            (t.bench, "benchmark_stimulus", self.wrap("bench.benchmark_stimulus",
                                                      t.bench.benchmark_stimulus)),
            (t.netlist.Netlist, "validate", self.wrap("netlist.validate",
                                                      t.netlist.Netlist.validate)),
        ]
        for owner, attr, replacement in targets:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], list]:
        """(root, name) -> [self seconds, calls], root being 'setup' or 'op';
        [0.0, 0] for a span never opened."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, root in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, parent, root) in enumerate(self.spans):
            entry = out[(root, name)]
            entry[0] += end - start - child[i]
            entry[1] += 1
        return out
