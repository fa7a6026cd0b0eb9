"""Switch-level steady-state and event simulation.

Model summary.  Transistors are voltage-controlled switches: an NFET conducts
when its gate sits more than Vth above the lower of its two channel
terminals, a PFET when the upper channel terminal sits more than Vth above
the gate.  Rails, fixed sources and externally pinned inputs have supply
strength; anything reached from them through conducting channels is driven;
nodes left undriven take the capacitance-weighted average of their capacitor
neighbors (charged), or float as 'z' with no capacitors.  Two different
supply-strength levels shorted into one channel group resolve to 'x' on the
non-pinned members; 'x' is reported per node, never raised.  A gate reading
'x' or 'z' is treated as non-conducting; the bundled cell library never
exposes an unresolved gate net within its validated supply range.

Each sweep re-evaluates conduction from the previous state snapshot, so the
result cannot depend on device declaration order.  A state that fails to
repeat within max_iterations raises NonConvergent.

Timing is first-order RC: each driven node's stage delay is the Elmore sum
over its drive path of accumulated on-resistance (r_on_per_tube / tubes per
device) times node capacitance, and a stage starts when the latest of its
gate signals and its path source settles.  Charge-shared nodes track their
neighbors with no delay of their own.  Event energy is 0.5 * C * dV**2.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .cnfet import Polarity, threshold_voltage
from .errors import ConfigError, NoPath, NonConvergent, Unresolvable
from .netlist import Capacitor, Fet, FixedSource, GND, Netlist, VDD, flatten
from .trits import VoltageMap, voltage_to_trit


class Strength(IntEnum):
    CHARGED = 1
    DRIVEN = 2
    SUPPLY = 3


X = "x"
Z = "z"


@dataclass(frozen=True)
class Signal:
    """Resolved state of one node: a voltage or 'x'/'z', plus drive strength
    (None for floating)."""

    level: float | str
    strength: Strength | None

    def is_numeric(self) -> bool:
        return not isinstance(self.level, str)


@dataclass(frozen=True)
class SimConfig:
    vdd: float = 0.9
    max_iterations: int = 64
    r_on_per_tube: float = 30e3
    c_out_load: float = 1e-15
    level_tolerance: float | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.vdd, self.r_on_per_tube, self.c_out_load))):
            raise ConfigError("vdd, r_on_per_tube and c_out_load must be finite")
        if self.vdd <= 0:
            raise ConfigError("vdd must be strictly positive")
        if self.max_iterations < 8:
            raise ConfigError("max_iterations must be >= 8")
        if self.r_on_per_tube <= 0 or self.c_out_load < 0:
            raise ConfigError("r_on_per_tube must be positive and c_out_load non-negative")
        tol = self.tol()
        if not 0 < tol < self.vdd / 4:
            raise ConfigError("level_tolerance must be in (0, vdd/4)")

    def tol(self) -> float:
        return self.level_tolerance if self.level_tolerance is not None else self.vdd / 10

    def vmap(self) -> VoltageMap:
        return VoltageMap(self.vdd)


class _Solve(NamedTuple):
    signals: dict[str, Signal]
    pins: dict[str, float]
    conducting: list[Fet]
    netlist: Netlist  # flattened


def _exhaustive_inputs(nodes: Sequence[str], vdd: float) -> list[dict[str, float]]:
    """Every assignment of the three logic levels to nodes, in
    itertools.product order (the first node changes slowest).  No nodes give
    one empty assignment."""
    if len(nodes) > 6:
        raise ConfigError(f"{len(nodes)} inputs are too many to enumerate exhaustively "
                          "(at most 6); pass explicit inputs")
    levels = VoltageMap(vdd).levels()
    return [{n: levels[t] for n, t in zip(nodes, combo)}
            for combo in itertools.product(range(3), repeat=len(nodes))]


def _pin_map(flat: Netlist, inputs: Mapping[str, float], cfg: SimConfig) -> dict[str, float]:
    pins: dict[str, float] = {}
    node_ids = flat.node_ids()
    if VDD in node_ids:
        pins[VDD] = cfg.vdd
    if GND in node_ids:
        pins[GND] = 0.0
    for d in flat.devices:
        if isinstance(d, FixedSource):
            pins[d.node] = d.volts
    for node, volts in inputs.items():
        if node not in node_ids:
            raise ConfigError(f"input assignment to unknown node {node!r}")
        if node in (VDD, GND):
            raise ConfigError(f"cannot reassign rail {node}")
        volts = float(volts)
        if not math.isfinite(volts):
            raise ConfigError(f"input {node} must be a finite voltage, got {volts!r}")
        pins[node] = volts
    missing = sorted(n for n in flat.inputs if n not in pins)
    if missing:
        raise ConfigError(f"unassigned input nodes: {', '.join(missing)}")
    return pins


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {i: i for i in items}

    def find(self, x: str) -> str:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _conducting(fets: list[Fet], state: dict[str, Signal]) -> list[Fet]:
    on = []
    for dev in fets:
        f = dev.fet
        g = state[f.gate].level
        if isinstance(g, str):
            continue
        refs = [state[t].level for t in (f.drain, f.source)
                if not isinstance(state[t].level, str)]
        if not refs:
            continue
        vth = threshold_voltage(f.chirality)
        if f.polarity is Polarity.NFET:
            if g - min(refs) > vth:
                on.append(dev)
        else:
            if max(refs) - g > vth:
                on.append(dev)
    return on


def _solve(flat: Netlist, pins: dict[str, float], cfg: SimConfig) -> _Solve:
    node_ids = sorted(flat.node_ids())
    fets = [d for d in flat.devices if isinstance(d, Fet)]
    caps = [d for d in flat.devices if isinstance(d, Capacitor)]
    cap_neighbors: dict[str, list[tuple[str, float]]] = {n: [] for n in node_ids}
    for c in caps:
        cap_neighbors[c.a].append((c.b, c.farads))
        cap_neighbors[c.b].append((c.a, c.farads))

    state: dict[str, Signal] = {}
    for n in node_ids:
        if n in pins:
            state[n] = Signal(pins[n], Strength.SUPPLY)
        else:
            state[n] = Signal(Z, None)

    for _ in range(cfg.max_iterations):
        on = _conducting(fets, state)
        uf = _UnionFind(node_ids)
        for dev in on:
            uf.union(dev.fet.drain, dev.fet.source)
        groups: dict[str, list[str]] = {}
        for n in node_ids:
            groups.setdefault(uf.find(n), []).append(n)

        new_state: dict[str, Signal] = {}
        floating: list[list[str]] = []
        for members in groups.values():
            drive_levels = sorted({pins[m] for m in members if m in pins})
            if drive_levels:
                if len(drive_levels) == 1:
                    sig = Signal(drive_levels[0], Strength.DRIVEN)
                else:
                    sig = Signal(X, Strength.DRIVEN)  # equal-strength contention
                for m in members:
                    new_state[m] = Signal(pins[m], Strength.SUPPLY) if m in pins else sig
            else:
                floating.append(members)

        # capacitive clusters: floating groups additionally merged through caps
        cluster_uf = _UnionFind([m for members in floating for m in members])
        float_set = set(cluster_uf.parent)
        for members in floating:
            for m in members[1:]:
                cluster_uf.union(members[0], m)
        for c in caps:
            if c.a in float_set and c.b in float_set:
                cluster_uf.union(c.a, c.b)
        clusters: dict[str, list[str]] = {}
        for m in sorted(float_set):
            clusters.setdefault(cluster_uf.find(m), []).append(m)
        for members in clusters.values():
            weight = 0.0
            charge = 0.0
            saw_x = False
            connected = False
            for m in members:
                for other, farads in cap_neighbors[m]:
                    if other in float_set:
                        continue
                    lvl = new_state[other].level
                    connected = True
                    if isinstance(lvl, str):
                        saw_x = True
                    else:
                        weight += farads
                        charge += farads * lvl
            if saw_x:
                sig = Signal(X, Strength.CHARGED)
            elif connected and weight > 0:
                sig = Signal(charge / weight, Strength.CHARGED)
            else:
                sig = Signal(Z, None)
            for m in members:
                new_state[m] = sig

        if new_state == state:
            return _Solve(state, pins, on, flat)
        state = new_state

    raise NonConvergent(f"no fixpoint within {cfg.max_iterations} sweeps")


def steady_state(n: Netlist, inputs: Mapping[str, float] | None = None,
                 cfg: SimConfig = SimConfig()) -> dict[str, Signal]:
    """Resolve every node of the netlist under the given input voltages."""
    flat = flatten(n)
    flat.validate()
    pins = _pin_map(flat, inputs or {}, cfg)
    return _solve(flat, pins, cfg).signals


# ---------------------------------------------------------------------------
# first-order timing

def _node_capacitance(flat: Netlist, cfg: SimConfig) -> dict[str, float]:
    cap: dict[str, float] = {n: 0.0 for n in flat.node_ids()}
    for d in flat.devices:
        if isinstance(d, Capacitor):
            cap[d.a] += d.farads
            cap[d.b] += d.farads
    for node in flat.probed():
        cap[node] += cfg.c_out_load
    return cap


def _arrivals(solve: _Solve, cfg: SimConfig) -> dict[str, float]:
    """Settling time per node for the given steady state."""
    flat = solve.netlist
    caps = _node_capacitance(flat, cfg)
    cap_neighbors: dict[str, list[str]] = {n: [] for n in flat.node_ids()}
    for d in flat.devices:
        if isinstance(d, Capacitor):
            cap_neighbors[d.a].append(d.b)
            cap_neighbors[d.b].append(d.a)

    adj: dict[str, list[tuple[str, Fet]]] = {n: [] for n in flat.node_ids()}
    for dev in solve.conducting:
        adj[dev.fet.drain].append((dev.fet.source, dev))
        adj[dev.fet.source].append((dev.fet.drain, dev))

    memo: dict[str, float] = {}
    visiting: set[str] = set()

    def arrival(node: str) -> float:
        if node in solve.pins:
            return 0.0
        if node in memo:
            return memo[node]
        if node in visiting:
            raise NoPath(f"timing cycle through node {node}")
        visiting.add(node)
        sig = solve.signals[node]
        if sig.strength is Strength.DRIVEN:
            t = _driven_arrival(node)
        elif sig.strength is Strength.CHARGED:
            t = max((arrival(o) for o in cap_neighbors[node]
                     if solve.signals[o].strength is not None
                     and solve.signals[o].strength >= Strength.DRIVEN), default=0.0)
        else:
            raise NoPath(f"node {node} is not driven")
        visiting.discard(node)
        memo[node] = t
        return t

    def _driven_arrival(node: str) -> float:
        # Dijkstra by accumulated on-resistance from the nearest pinned driver,
        # then Elmore over that path with gates adding their own arrivals.
        dist: dict[str, float] = {node: 0.0}
        prev: dict[str, tuple[str, Fet]] = {}
        heap: list[tuple[float, str]] = [(0.0, node)]
        driver = None
        while heap:
            d, cur = heapq.heappop(heap)
            if d > dist.get(cur, math.inf):
                continue
            if cur in solve.pins:
                driver = cur
                break
            for other, dev in adj[cur]:
                r = cfg.r_on_per_tube / dev.fet.tubes
                nd = d + r
                if nd < dist.get(other, math.inf):
                    dist[other] = nd
                    prev[other] = (cur, dev)
                    heapq.heappush(heap, (nd, other))
        if driver is None:
            raise NoPath(f"node {node} has no path to a driver")
        # walk driver -> node
        path_nodes: list[str] = []
        path_devs: list[Fet] = []
        cur = driver
        while cur != node:
            nxt, dev = prev[cur]
            path_nodes.append(nxt)
            path_devs.append(dev)
            cur = nxt
        elmore = 0.0
        cum_r = 0.0
        base = 0.0
        for hop_node, dev in zip(path_nodes, path_devs):
            cum_r += cfg.r_on_per_tube / dev.fet.tubes
            elmore += cum_r * caps[hop_node]
            base = max(base, arrival(dev.fet.gate))
        return base + elmore

    return {n: arrival(n) for n in sorted(flat.node_ids())
            if solve.signals[n].strength is not None or n in solve.pins}


def delay_estimate(n: Netlist, output_node: str, cfg: SimConfig = SimConfig(),
                   inputs: Mapping[str, float] | None = None) -> float:
    """Worst-case settling time of output_node.

    With explicit inputs, the single steady state is analyzed.  Without,
    every combination of trit levels on the declared input nodes is tried
    and the slowest one wins; combinations that leave the output undriven
    are skipped, and NoPath is raised only if none drive it.
    """
    flat = flatten(n)
    flat.validate()
    if output_node not in flat.node_ids():
        raise NoPath(f"unknown output node {output_node!r}")
    if inputs is not None:
        solve = _solve(flat, _pin_map(flat, inputs, cfg), cfg)
        arr = _arrivals(solve, cfg)
        if output_node not in arr or solve.signals[output_node].strength is None:
            raise NoPath(f"output {output_node} is not driven")
        return arr[output_node]
    worst = None
    for assign in _exhaustive_inputs(sorted(flat.inputs), cfg.vdd):
        solve = _solve(flat, _pin_map(flat, assign, cfg), cfg)
        if solve.signals[output_node].strength is None:
            continue
        if not solve.signals[output_node].is_numeric():
            continue
        arr = _arrivals(solve, cfg)
        t = arr.get(output_node)
        if t is not None and (worst is None or t > worst):
            worst = t
    if worst is None:
        raise NoPath(f"output {output_node} is never driven")
    return worst


# ---------------------------------------------------------------------------
# event simulation

class WaveEvent(NamedTuple):
    time: float
    node: str
    old: float | str
    new: float | str
    energy: float


@dataclass
class Waveform:
    events: list[WaveEvent] = field(default_factory=list)
    edge_times: list[float] = field(default_factory=list)
    initial_levels: dict[str, float | str] = field(default_factory=dict)


def transient(n: Netlist, stimulus: Sequence[tuple[float, Mapping[str, float]]],
              cfg: SimConfig = SimConfig()) -> Waveform:
    """Quasi-static event simulation.

    The first stimulus entry establishes the baseline and emits nothing.
    Every later edge re-solves the network; each node whose level changed
    emits one event at edge time plus its settling delay, carrying the
    switching energy of its capacitance.
    """
    if not stimulus:
        raise ConfigError("stimulus must contain at least one entry")
    times = [t for t, _ in stimulus]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("stimulus times must be strictly increasing")

    flat = flatten(n)
    flat.validate()
    caps = _node_capacitance(flat, cfg)
    w = Waveform(edge_times=list(times))

    current: dict[str, float] = dict(stimulus[0][1])
    solve = _solve(flat, _pin_map(flat, current, cfg), cfg)
    w.initial_levels = {node: sig.level for node, sig in sorted(solve.signals.items())}
    prev_levels = dict(w.initial_levels)
    last_emit: dict[str, float] = {}

    for t_edge, assigns in stimulus[1:]:
        current.update(assigns)
        solve = _solve(flat, _pin_map(flat, current, cfg), cfg)
        arr = _arrivals(solve, cfg)
        batch = []
        for node in sorted(solve.signals):
            new = solve.signals[node].level
            old = prev_levels.get(node, Z)
            changed = (new != old) if (isinstance(new, str) or isinstance(old, str)) \
                else abs(new - old) > 1e-12
            if not changed:
                continue
            if isinstance(new, str) or isinstance(old, str):
                energy = 0.0
            else:
                energy = 0.5 * caps[node] * (new - old) ** 2
            t = t_edge + arr.get(node, 0.0)
            if node in last_emit and t <= last_emit[node]:
                t = math.nextafter(last_emit[node], math.inf)
            last_emit[node] = t
            batch.append(WaveEvent(t, node, old, new, energy))
            prev_levels[node] = new
        batch.sort(key=lambda e: (e.time, e.node))
        w.events.extend(batch)
    return w


class Measurement(NamedTuple):
    avg_power: float
    worst_delay: float
    pdp: float


def measure(w: Waveform, duration: float) -> Measurement:
    """Average switching power over the duration, worst event settling delay
    relative to its stimulus edge, and their product."""
    if duration <= 0:
        raise ConfigError("duration must be strictly positive")
    if not w.events:
        return Measurement(0.0, 0.0, 0.0)
    total = sum(e.energy for e in w.events)
    worst = 0.0
    for e in w.events:
        edge = max((t for t in w.edge_times if t <= e.time), default=0.0)
        worst = max(worst, e.time - edge)
    power = total / duration
    return Measurement(power, worst, power * worst)


# ---------------------------------------------------------------------------
# waveform export

def waveform_csv(w: Waveform) -> str:
    lines = ["time_s,node,level_v,energy_j"]
    for e in w.events:
        level = e.new if isinstance(e.new, str) else repr(e.new)
        lines.append(f"{e.time:.6e},{e.node},{level},{e.energy:.6e}")
    return "\n".join(lines) + "\n"


def _trit_symbol(level: float | str, cfg: SimConfig) -> str:
    """A level as its logic symbol: 0/1/2, or x/z; a voltage off every level
    is x."""
    if isinstance(level, str):
        return level  # 'x' or 'z'
    try:
        return str(int(voltage_to_trit(level, cfg.vmap(), cfg.tol())))
    except Unresolvable:
        return X


def waveform_vcd(w: Waveform, cfg: SimConfig = SimConfig(), name: str = "tritsim") -> str:
    """VCD-style dump with the three logic levels written as 0/1/2 and
    unresolved values as x/z.  Times are rounded to picoseconds."""
    nodes = sorted(set(w.initial_levels) | {e.node for e in w.events})
    codes = {}
    for i, node in enumerate(nodes):
        code = ""
        k = i
        while True:
            code = chr(33 + k % 94) + code
            k = k // 94 - 1
            if k < 0:
                break
        codes[node] = code
    lines = ["$timescale 1ps $end", f"$scope module {name} $end"]
    for node in nodes:
        lines.append(f"$var wire 1 {codes[node]} {node} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")
    lines.append("$dumpvars")
    for node in nodes:
        lines.append(f"{_trit_symbol(w.initial_levels.get(node, Z), cfg)}{codes[node]}")
    lines.append("$end")
    by_time: dict[int, dict[str, str]] = {}
    for e in w.events:
        ps = round(e.time * 1e12)
        by_time.setdefault(ps, {})[e.node] = _trit_symbol(e.new, cfg)
    for ps in sorted(by_time):
        lines.append(f"#{ps}")
        for node in sorted(by_time[ps]):
            lines.append(f"{by_time[ps][node]}{codes[node]}")
    return "\n".join(lines) + "\n"
