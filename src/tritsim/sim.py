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

The public calls (steady_state, delay_estimate, transient) run on the
netlist flattened, validated and compiled to integer node indices, sorted by
node name, with per-FET threshold voltage and on-resistance, capacitor
adjacency and per-node capacitance.  A Netlist keeps one compiled form, for
the contents and SimConfig of its last call; an in-place change recompiles.
The compiled form memoizes its solves by pin assignment, each timed at most
once, and keeps a solve through the next call on the netlist: delay_estimate
then transient, or steady_state then delay_estimate, solve each assignment
once, and at most two calls' solves are held.
Each sweep re-evaluates conduction from the previous state snapshot, so the
result cannot depend on device declaration order.  A sweep's new state
depends only on its conducting set and the pins, so a conducting set that
comes back before the state repeats is a limit cycle: the solve raises
NonConvergent, naming the period and the nodes that keep changing.  There
are finitely many conducting sets, so every solve ends.

Timing is first-order RC: each driven node's stage delay is the Elmore sum
over its drive path of accumulated on-resistance (R_ON_PER_TUBE / tubes per
device) times node capacitance, and a stage starts when the latest of its
gate signals and its path source settles.  Charge-shared nodes track their
neighbors with no delay of their own.  Event energy is 0.5 * C * dV**2.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Mapping, NamedTuple, Sequence

from .cnfet import Polarity, switch_on, threshold_voltage
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


# On-resistance of one conducting tube; a device of N parallel tubes has
# R_ON_PER_TUBE / N.  A model constant, not a published value.
R_ON_PER_TUBE = 30e3


@dataclass(frozen=True)
class SimConfig:
    """The operating point: supply voltage and the load on each probed node."""

    vdd: float = 0.9
    c_out_load: float = 1e-15

    def __post_init__(self):
        if not all(map(math.isfinite, (self.vdd, self.c_out_load))):
            raise ConfigError("vdd and c_out_load must be finite")
        if self.vdd <= 0:
            raise ConfigError("vdd must be strictly positive")
        if self.c_out_load < 0:
            raise ConfigError("c_out_load must be non-negative")

    def tol(self) -> float:
        return self.vdd / 10

    def vmap(self) -> VoltageMap:
        return VoltageMap(self.vdd)


@dataclass
class _Compiled:
    """A flattened, validated netlist on integer node indices, with the
    solves run on it; see _compile.  It holds no reference to the Netlist, so
    a dropped netlist is freed at once.  Nodes are numbered in sorted name
    order, so the smallest index is also the smallest name."""

    cfg: SimConfig
    contents: tuple                                 # see _compile
    inputs: list[str]                               # declared inputs, sorted
    names: list[str]
    index: dict[str, int]
    fets: list[tuple[int, int, int, bool, float]]   # drain, gate, source, is_nfet, vth
    fet_r: list[float]                              # on-resistance per FET
    caps: list[tuple[int, int]]                     # capacitor terminals, device order
    cap_adj: list[list[tuple[int, float]]]          # per node (neighbor, farads), device order
    node_cap: list[float]                           # per node, probes carry c_out_load
    fixed: list[tuple[int, float]]                  # rails, then fixed sources
    solves: dict[str, _Solve] = field(default_factory=dict)  # this call's, see _solved
    kept: dict[str, _Solve] = field(default_factory=dict)    # the previous call's


@dataclass
class _Solve:
    levels: list[float | str]          # per node index
    strengths: list[Strength | None]   # per node index
    pins: list[float | None]           # per node index
    conducting: list[int]              # FET indices
    arrivals: dict[int, float] | None = None   # per node index, see _timed


def _compile(n: Netlist, cfg: SimConfig) -> _Compiled:
    """n's compiled form under cfg, compiled again only when cfg or n's
    contents differ from the last call on n.  Each call opens a new
    generation of the solve memo (see _solved)."""
    # Compared by identity: devices and Subckt are frozen, so the same objects
    # hold the same contents, and equality would take a -0.0 V source for 0.0 V.
    contents = (n.inputs, *n.subckts, *n.subckts.values(), *n.devices)
    comp = n._compiled
    if (isinstance(comp, _Compiled) and comp.cfg == cfg and len(comp.contents) == len(contents)
            and all(map(operator.is_, comp.contents, contents))):
        comp.kept, comp.solves = comp.solves, {}
        return comp
    flat = flatten(n)
    flat.validate()
    names = sorted(flat.node_ids())
    index = {name: i for i, name in enumerate(names)}
    fets: list[tuple[int, int, int, bool, float]] = []
    fet_r: list[float] = []
    caps: list[tuple[int, int]] = []
    cap_adj: list[list[tuple[int, float]]] = [[] for _ in names]
    fixed: list[tuple[int, float]] = []
    if VDD in index:
        fixed.append((index[VDD], cfg.vdd))
    if GND in index:
        fixed.append((index[GND], 0.0))
    for d in flat.devices:
        if isinstance(d, Fet):
            f = d.fet
            fets.append((index[f.drain], index[f.gate], index[f.source],
                         f.polarity is Polarity.NFET, threshold_voltage(f.chirality)))
            fet_r.append(R_ON_PER_TUBE / f.tubes)
        elif isinstance(d, Capacitor):
            a, b = index[d.a], index[d.b]
            caps.append((a, b))
            cap_adj[a].append((b, d.farads))
            cap_adj[b].append((a, d.farads))
        elif isinstance(d, FixedSource):
            fixed.append((index[d.node], d.volts))
    terms = [[farads for _, farads in adj] for adj in cap_adj]
    for node in flat.probed():
        terms[index[node]].append(cfg.c_out_load)
    node_cap = list(map(math.fsum, terms))      # exact, so device order cannot matter
    comp = n._compiled = _Compiled(cfg, contents, sorted(flat.inputs), names, index, fets,
                                   fet_r, caps, cap_adj, node_cap, fixed)
    return comp


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


def _pin_map(comp: _Compiled, inputs: Mapping[str, float]) -> list[float | None]:
    """Pinned voltage per node index, None where the node is not pinned."""
    pins: list[float | None] = [None] * len(comp.names)
    for i, volts in comp.fixed:
        pins[i] = volts
    for node, volts in inputs.items():
        i = comp.index.get(node)
        if i is None:
            raise ConfigError(f"input assignment to unknown node {node!r}")
        if pins[i] is not None:
            what = "rail" if node in (VDD, GND) else "fixed-source node"
            raise ConfigError(f"cannot reassign {what} {node}")
        volts = float(volts)
        if not math.isfinite(volts):
            raise ConfigError(f"input {node} must be a finite voltage, got {volts!r}")
        pins[i] = volts
    missing = [n for n in comp.inputs if pins[comp.index[n]] is None]
    if missing:
        raise ConfigError(f"unassigned input nodes: {', '.join(missing)}")
    return pins


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], a: int, b: int) -> None:
    """Merge two sets; the smaller root index stays the root."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra


def _conducting(fets: list[tuple[int, int, int, bool, float]],
                levels: list[float | str]) -> list[int]:
    on = []
    for k, (d, g, s, is_nfet, vth) in enumerate(fets):
        vg = levels[g]
        if isinstance(vg, str):
            continue
        vd, vs = levels[d], levels[s]
        if isinstance(vd, str):
            if isinstance(vs, str):
                continue
            ref = vs
        elif isinstance(vs, str):
            ref = vd
        else:
            ref = min(vd, vs) if is_nfet else max(vd, vs)
        if switch_on(is_nfet, vg, ref, vth):
            on.append(k)
    return on


def _solve(comp: _Compiled, pins: list[float | None]) -> _Solve:
    count = len(comp.names)
    fets, caps, cap_adj = comp.fets, comp.caps, comp.cap_adj
    levels: list[float | str] = [Z if p is None else p for p in pins]
    strengths: list[Strength | None] = [None if p is None else Strength.SUPPLY for p in pins]

    # conducting set -> sweep it was seen at; packed, since a deep netlist
    # keeps one set per sweep and tuples of ints would take several times more
    seen: dict[bytes, int] = {}
    for sweep in itertools.count():
        on = _conducting(fets, levels)
        parent = list(range(count))
        for k in on:
            _union(parent, fets[k][0], fets[k][2])
        groups: dict[int, list[int]] = {}
        for i in range(count):
            groups.setdefault(_find(parent, i), []).append(i)

        new_levels: list[float | str] = [Z] * count
        new_strengths: list[Strength | None] = [None] * count
        floating = [False] * count
        for members in groups.values():
            drive_levels = sorted({pins[m] for m in members if pins[m] is not None})
            if drive_levels:
                # two supply levels in one group: equal-strength contention
                level = drive_levels[0] if len(drive_levels) == 1 else X
                for m in members:
                    if pins[m] is None:
                        new_levels[m], new_strengths[m] = level, Strength.DRIVEN
                    else:
                        new_levels[m], new_strengths[m] = pins[m], Strength.SUPPLY
            else:
                for m in members:
                    floating[m] = True

        # capacitive clusters: floating groups additionally merged through caps
        for a, b in caps:
            if floating[a] and floating[b]:
                _union(parent, a, b)
        clusters: dict[int, list[int]] = {}
        for m in range(count):
            if floating[m]:
                clusters.setdefault(_find(parent, m), []).append(m)
        for members in clusters.values():
            weight = 0.0
            charge = 0.0
            saw_x = False
            connected = False
            for m in members:
                for other, farads in cap_adj[m]:
                    if floating[other]:
                        continue
                    lvl = new_levels[other]
                    connected = True
                    if isinstance(lvl, str):
                        saw_x = True
                    else:
                        weight += farads
                        charge += farads * lvl
            if saw_x:
                level, strength = X, Strength.CHARGED
            elif connected and weight > 0:
                level, strength = charge / weight, Strength.CHARGED
            else:
                level, strength = Z, None
            for m in members:
                new_levels[m], new_strengths[m] = level, strength

        if new_levels == levels and new_strengths == strengths:
            return _Solve(levels, strengths, pins, on)
        first = seen.setdefault(array("q", on).tobytes(), sweep)
        if first != sweep:
            raise NonConvergent(sweep - first, tuple(
                comp.names[i] for i in range(count)
                if (new_levels[i], new_strengths[i]) != (levels[i], strengths[i])))
        levels, strengths = new_levels, new_strengths


def _solved(comp: _Compiled, pins: list[float | None]) -> _Solve:
    """_solve, run once per pin assignment for as long as the compiled form
    keeps the solve: through this call and the next one on the netlist."""
    key = str(pins)     # not tuple(pins): -0.0 == 0.0, but the levels keep the sign
    solve = comp.solves.get(key)
    if solve is None:
        solve = comp.solves[key] = comp.kept.get(key) or _solve(comp, pins)
    return solve


def steady_state(n: Netlist, inputs: Mapping[str, float] | None = None,
                 cfg: SimConfig = SimConfig()) -> dict[str, Signal]:
    """Resolve every node of the netlist under the given input voltages."""
    comp = _compile(n, cfg)
    solve = _solved(comp, _pin_map(comp, inputs or {}))
    return {name: Signal(lvl, st)
            for name, lvl, st in zip(comp.names, solve.levels, solve.strengths)}


# ---------------------------------------------------------------------------
# first-order timing

def _arrivals(comp: _Compiled, solve: _Solve) -> dict[int, float]:
    """Settling time per node index for the given steady state.

    A node's arrival needs the arrivals of other nodes: the gates along its
    drive path, or a charged node's drivers.  An explicit stack visits them
    depth first, in the order a recursive walk would, so a deep netlist
    cannot exhaust the interpreter's stack.
    """
    pins, strengths, node_cap = solve.pins, solve.strengths, comp.node_cap
    adj: list[list[tuple[int, float, int]]] = [[] for _ in comp.names]
    for k in solve.conducting:
        d, g, s, _, _ = comp.fets[k]
        r = comp.fet_r[k]
        adj[d].append((s, r, g))
        adj[s].append((d, r, g))

    memo: dict[int, float] = {}
    visiting: set[int] = set()

    def frame(node: int) -> tuple[int, list[int], float, list[float]]:
        # (node, the nodes it waits on, its own delay, their arrivals so far)
        visiting.add(node)
        strength = strengths[node]
        if strength is Strength.DRIVEN:
            # Elmore over the drive path, from the driver to node
            path = drive_path(node)
            elmore = 0.0
            cum_r = 0.0
            for nxt, r, _ in path:
                cum_r += r
                elmore += cum_r * node_cap[nxt]
            return node, [gate for _, _, gate in path], elmore, []
        if strength is Strength.CHARGED:
            return node, [o for o, _ in comp.cap_adj[node]
                          if strengths[o] is not None and strengths[o] >= Strength.DRIVEN], \
                0.0, []
        raise NoPath(f"node {comp.names[node]} is not driven")

    def arrival(node: int) -> float:
        if pins[node] is not None:
            return 0.0
        if node in memo:
            return memo[node]
        stack = [frame(node)]
        while True:
            node, waits, delay, times = stack[-1]
            while len(times) < len(waits):
                other = waits[len(times)]
                if pins[other] is not None:
                    times.append(0.0)
                elif other in memo:
                    times.append(memo[other])
                elif other in visiting:
                    raise NoPath(f"timing cycle through node {comp.names[other]}")
                else:
                    stack.append(frame(other))
                    break
            else:
                # a node settles its own delay after the last node it waits on
                t = memo[node] = max(times, default=0.0) + delay
                visiting.discard(node)
                stack.pop()
                if not stack:
                    return t
                stack[-1][3].append(t)

    def drive_path(node: int) -> list[tuple[int, float, int]]:
        # Dijkstra by accumulated on-resistance from the nearest pinned
        # driver; the path's steps run from the driver to node, each as
        # (node reached, on-resistance, gate of the conducting FET).
        dist: dict[int, float] = {node: 0.0}
        prev: dict[int, tuple[int, float, int]] = {}
        heap: list[tuple[float, int]] = [(0.0, node)]
        driver = None
        while heap:
            d, cur = heapq.heappop(heap)
            if d > dist.get(cur, math.inf):
                continue
            if pins[cur] is not None:
                driver = cur
                break
            for other, r, gate in adj[cur]:
                nd = d + r
                if nd < dist.get(other, math.inf):
                    dist[other] = nd
                    prev[other] = (cur, r, gate)
                    heapq.heappush(heap, (nd, other))
        if driver is None:
            raise NoPath(f"node {comp.names[node]} has no path to a driver")
        path = []
        cur = driver
        while cur != node:
            path.append(prev[cur])
            cur = path[-1][0]
        return path

    return {i: arrival(i) for i in range(len(comp.names))
            if strengths[i] is not None or pins[i] is not None}


def _timed(comp: _Compiled, solve: _Solve) -> dict[int, float]:
    """_arrivals, run once per solve."""
    if solve.arrivals is None:
        solve.arrivals = _arrivals(comp, solve)
    return solve.arrivals


def delay_estimate(n: Netlist, output_node: str, cfg: SimConfig = SimConfig(),
                   inputs: Mapping[str, float] | None = None) -> float:
    """Worst-case settling time of output_node.

    With explicit inputs, the single steady state is analyzed.  Without,
    every combination of trit levels on the declared input nodes is tried
    and the slowest one wins; combinations that leave the output undriven
    are skipped, and NoPath is raised only if none drive it.
    """
    comp = _compile(n, cfg)
    out = comp.index.get(output_node)
    if out is None:
        raise NoPath(f"unknown output node {output_node!r}")
    if inputs is not None:
        arr = _timed(comp, _solved(comp, _pin_map(comp, inputs)))
        if out not in arr:
            raise NoPath(f"output {output_node} is not driven")
        return arr[out]
    worst = None
    for assign in _exhaustive_inputs(comp.inputs, cfg.vdd):
        solve = _solved(comp, _pin_map(comp, assign))
        if isinstance(solve.levels[out], str):
            continue    # 'z' (undriven) or 'x'
        t = _timed(comp, solve)[out]
        if worst is None or t > worst:
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
    if not all(map(math.isfinite, times)):
        raise ConfigError("stimulus times must be finite")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("stimulus times must be strictly increasing")

    comp = _compile(n, cfg)
    w = Waveform(edge_times=list(times))

    current: dict[str, float] = dict(stimulus[0][1])
    solve = _solved(comp, _pin_map(comp, current))
    w.initial_levels = dict(zip(comp.names, solve.levels))
    prev_levels = list(solve.levels)
    last_emit: dict[int, float] = {}

    for t_edge, assigns in stimulus[1:]:
        current.update(assigns)
        solve = _solved(comp, _pin_map(comp, current))
        arr = _timed(comp, solve)
        batch = []
        for i, node in enumerate(comp.names):
            new = solve.levels[i]
            old = prev_levels[i]
            changed = (new != old) if (isinstance(new, str) or isinstance(old, str)) \
                else abs(new - old) > 1e-12
            if not changed:
                continue
            if isinstance(new, str) or isinstance(old, str):
                energy = 0.0
            else:
                energy = 0.5 * comp.node_cap[i] * (new - old) ** 2
            t = t_edge + arr.get(i, 0.0)
            if i in last_emit and t <= last_emit[i]:
                t = math.nextafter(last_emit[i], math.inf)
            last_emit[i] = t
            batch.append(WaveEvent(t, node, old, new, energy))
            prev_levels[i] = new
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
    if not math.isfinite(duration) or duration <= 0:
        raise ConfigError("duration must be finite and strictly positive")
    if not all(map(math.isfinite, w.edge_times)):
        raise ConfigError("edge times must be finite")
    if not w.events:
        return Measurement(0.0, 0.0, 0.0)
    total = sum(e.energy for e in w.events)
    edges = sorted(w.edge_times)
    worst = 0.0
    for e in w.events:
        # the latest edge at or before the event, else 0.0
        k = bisect_right(edges, e.time)
        worst = max(worst, e.time - (edges[k - 1] if k else 0.0))
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
