"""Switch-level steady-state and event simulation.

Model summary.  Transistors are voltage-controlled switches (cnfet.switch_on):
an NFET conducts when its gate sits more than Vth above the lower of its two
channel terminals, a PFET when the upper channel terminal sits more than Vth
above the gate.  Rails, fixed sources and externally pinned inputs have supply
strength; a conducting channel joins two unpinned nodes into one group, and
one from a pinned node drives the group of its other terminal to the pin's
level.  A group driven to two levels is 'x' (equal-strength contention); no
group holds a pinned node, so a short stays in its own group.  Nodes left
undriven take the capacitance-weighted average of their capacitor neighbors
(charged), or float as 'z' with no capacitors.  'x' is reported per node,
never raised.  A gate reading 'x' or 'z' is treated as non-conducting; the
bundled cell library never exposes an unresolved gate net within its
validated supply range.

The public calls (steady_state, delay_estimate, transient) run on the
netlist flattened (flatten validates it and what it builds) and compiled to
integer node indices, sorted by node name, with per-FET threshold voltage
and on-resistance, and per node its channels, capacitor adjacency and
capacitance.  A Netlist keeps one compiled form, for the contents and
SimConfig of its last call; an in-place change recompiles.
The compiled form memoizes its solves by the tuple of pinned voltages, each
with the timing read from it so far, and keeps a solve through the next call:
delay_estimate then transient, or steady_state then delay_estimate, solve each
assignment once, and at most two calls' solves are held.  A solve holds
each node's level and Signal, the one record of its state: a pin's Signal is
made when the pin is set, and every other node's is its region's row's (see
below), built with the row and shared by every solve that reads it, so a
solve carried from its base builds a Signal only for a pin that changed.  A
zero-volt input or fixed source is one value: -0.0 V becomes 0.0 V where
voltages enter.
Each sweep re-evaluates conduction from the previous state snapshot, and
capacitance and charge sums are exact, so the result cannot depend on device
declaration order.  No channel or capacitor between unpinned nodes leaves a
region (see _regions), and every FET has one: a FET with both channel
terminals pinned is a region with no nodes (timing never relaxes its channel,
as every pin starts at resistance 0).  A region's slots are its nodes, then
its reads: the outside gates, pinned channel terminals and pinned capacitor
neighbors its FETs and capacitors touch.  Its key is the levels at its slots,
and its row, _resolve of its shape and key, is its whole step: its next
levels and Signals, its FETs' flags on the key, and whether those flags
still hold on them, one tuple that no solve changes once it is entered.  _resolve reads nothing else, so regions of equal shape
share one result table exactly, by construction, within a partition and
across every compiled netlist of the process, and only a miss evaluates a
FET: a netlist built again, as each sweep point builds its adder, meets the
entries the first one filled.  Every pin is a float and -0.0 V is 0.0 V, so
equal keys are equal inputs.  A table is cleared at TABLE_ROWS entries,
which bounds it under an analog input sweep, and the process's tables are
bounded in count and in slots, as an entry and a shape grow with their
region (see _Tables).
Regions settle in rank order, as in COSMOS (Bryant et al., DAC 1987): region
A feeds region B when B reads a node of A, and B settles from all-'z' after
every region that feeds it, until a row's flags hold.  Its reads are then
final and stay fixed while it steps, so where its steps end is a function
of its shape and its reads, as COSMOS compiles a subnetwork into one
function of its inputs: its table maps its reads to that row, its settled
entry (see _settled), and a warm region is one lookup of its reads.  No
solve reads its steps before that row again, so none is entered.  A
solve starts from its base, the last one settled in rank order on its
pinned set: it steps only the regions that read a changed pin or a node
whose level moved from the base's, as keys read levels alone, like MOSSIM
II's selective trace (Bryant, IEEE Trans. Computers C-33(2), 1984).  When
the regions feed each other in a cycle, one component holds them all: its
first sweep reads every region's row, later ones the rows of the regions
whose flags did not hold and of the readers of the nodes that changed, each
sweep all its rows before writing any (the global loop).  A region with two
fixpoints under its final gates could settle elsewhere from all-'z' than
there, so tests/test_rank_order.py compares the two on a seeded family.  A
sweep's state depends only on its conducting set and the pins, so a set that
comes back before the state repeats is a limit cycle; in rank order the
region's settled entry is the row it came back on, whose flags do not hold,
and the solve runs again as one component, so NonConvergent always comes
from the global loop, naming the period and the nodes that keep changing
there.
There are finitely many conducting sets, so every solve ends.

Timing is first-order RC, and on demand: delay_estimate times its output and
transient the nodes whose level changed.  Timing reads grow a shortest-path
forest by accumulated on-resistance (R_ON_PER_TUBE / tubes per device) from
the pinned nodes over the conducting FETs, a region at a time, when the walk
first meets a driven node of it, and the solve keeps what it grew with the
times settled so far.  A conducting channel leaves a region only to a pin,
and no path passes a pin, so a region's part is one Dijkstra from the pins
of its conducting feeds.  On equal resistance a node keeps the parent popped
first, the lower (resistance, node index), and of parallel FETs from that
parent the gate of the one listed first: a region relaxes its feeds in (pin,
FET) order and the compiled channels in device order, as one Dijkstra from
every pin would (ROADMAP item 2).  A driven node's stage
delay is the Elmore sum along its branch of accumulated on-resistance times
node capacitance; the stage starts when the last gate on the branch settles.
A branch waits on its parent's and one gate more, so timing is linear in path
depth.  A timing cycle raises NoPath only for a node that waits on it, naming
the first node the walk from that node meets twice.  A charged node has no
delay of its own: with its cluster, the charged nodes joined to it by
capacitors and conducting channels, it settles when the last driven or
pinned node capacitively attached to the cluster does.  delay_estimate's
worst settling time is the one delay figure.  Event energy is
0.5 * C * dV**2, and measure turns a waveform's energy into average power.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from enum import IntEnum
from operator import is_not, itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .cnfet import Polarity, switch_on, threshold_voltage
from .errors import ConfigError, NoPath, NonConvergent, Unresolvable, _finite
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

# Entries a region result table holds before it is cleared, and tables the
# process holds, one per region shape (see _Tables).
TABLE_ROWS = 1024


@dataclass(frozen=True)
class SimConfig:
    """The operating point: supply voltage and the load on each probed node."""

    vdd: float = 0.9
    c_out_load: float = 1e-15

    def __post_init__(self):
        if not _finite(self.vdd, self.c_out_load):
            raise ConfigError("vdd and c_out_load must be finite numbers")
        if self.vdd <= 0:
            raise ConfigError("vdd must be strictly positive")
        if self.c_out_load < 0:
            raise ConfigError("c_out_load must be non-negative")
        # built once, and not a field: ==, hash and repr read vdd and c_out_load only
        object.__setattr__(self, "_vmap", VoltageMap(self.vdd))

    def tol(self) -> float:
        return self.vdd / 10

    def vmap(self) -> VoltageMap:
        return self._vmap


@dataclass
class _Compiled:
    """A flattened, validated netlist on integer node indices, with the
    solves run on it; see _compile.  It holds no reference to the Netlist, so
    a dropped netlist is freed at once.  Nodes are numbered in sorted name
    order, so the smallest index is also the smallest name.  Its partitions
    are built once per pinned set, on the first solve that pins it (see
    _solve), and keep their result tables while the compiled form lives."""

    cfg: SimConfig
    contents: tuple                                 # Netlist._contents()
    inputs: list[str]                               # declared inputs, sorted
    names: list[str]
    index: dict[str, int]
    # drain, gate, source, is_nfet, vth, on-resistance
    fets: list[tuple[int, int, int, bool, float, float]]
    # per node, (other terminal, on-resistance, gate, FET) per channel, in device
    # order: timing keeps the gate of the first of tied parallel FETs (ROADMAP item 2)
    channels: list[list[tuple[int, float, int, int]]]
    cap_adj: list[list[tuple[int, float]]]          # per node (neighbor, farads), device order
    node_cap: list[float]                           # per node, probes carry c_out_load
    fixed: list[float | None]                       # per node, a rail's or fixed source's volts
    regions: dict[tuple, _Partition] = field(default_factory=dict)  # pinned flags -> partition
    solves: dict[tuple, _Solve] = field(default_factory=dict)  # this call's, see _solved
    kept: dict[tuple, _Solve] = field(default_factory=dict)    # the previous call's
    bases: dict[int, _Solve] = field(default_factory=dict)   # id(partition in regions) -> base


class _Region(NamedTuple):
    """Unpinned nodes joined by channels and capacitors, and the FETs with a
    channel terminal among them; or one FET between two pins and no nodes.
    key_of reads the levels at its slots, its nodes and then its reads, and
    reads_of those at its reads alone.  Its table maps its reads to its
    settled entry, the row its steps from all-'z' end on (see _settled),
    and a key to its row in the global loop (see _resolve); regions of one
    shape hold the same table (see _regions), and a row is a tuple that no
    solve changes."""

    nodes: list[int]                        # unpinned, ascending
    fets: list[int]                         # in shape order: links, then feeds
    key_of: Callable[[Sequence], tuple]     # a per-node list's items at its slots
    reads_of: Callable[[Sequence], tuple]   # ... at its reads
    shape: tuple                            # (node count, FETs, capacitors) in slots
    table: dict[tuple, tuple]               # reads or key -> row, see _settled


class _Partition(NamedTuple):
    """The regions of one pinned set, their readers and rank; see _regions."""

    regions: list[_Region]
    readers: list[list[int]]    # per node or pin, the regions that read it from outside
    ranks: list[int] | None     # the regions in rank order; None on a cycle
    node_region: list[int]      # per node, its region; -1 where it is pinned
    pins: list[int]             # the pinned nodes, ascending
    pin_times: dict[int, float]  # each pin and its branch (~i) settle at 0, see _arrival


@dataclass
class _Solve:
    levels: list[float | str]          # per node index; keys read levels, see _Region
    signals: list[Signal]              # per node index: a pin's, or its region row's
    flags: bytearray                   # per FET index, 1 where it conducts
    part: _Partition                   # the partition it settled on
    ranked: bool                       # settled in rank order: a base (see _settle_from)
    # from the first timing read: the forest grown so far and the settled
    # times, see _arrival
    drive: dict[int, tuple] | None = None
    memo: dict[int, float] | None = None


def _compile(n: Netlist, cfg: SimConfig) -> _Compiled:
    """n's compiled form under cfg, compiled again only when cfg or n's
    contents differ from the last call on n.  Each call opens a new
    generation of the solve memo (see _solved)."""
    contents = n._contents()
    comp = n._compiled
    if isinstance(comp, _Compiled) and comp.cfg == cfg and comp.contents == contents:
        comp.kept, comp.solves = comp.solves, {}
        return comp
    flat = flatten(n)
    names = sorted(flat.node_ids())
    index = {name: i for i, name in enumerate(names)}
    fets: list[tuple[int, int, int, bool, float, float]] = []
    channels: list[list[tuple[int, float, int, int]]] = [[] for _ in names]
    cap_adj: list[list[tuple[int, float]]] = [[] for _ in names]
    fixed = [float(cfg.vdd) if m == VDD else 0.0 if m == GND else None for m in names]
    for d in flat.devices:
        if isinstance(d, Fet):
            k, r = len(fets), R_ON_PER_TUBE / d.tubes
            dr, g, s = index[d.drain], index[d.gate], index[d.source]
            fets.append((dr, g, s, d.polarity is Polarity.NFET, threshold_voltage(d.chirality), r))
            channels[dr].append((s, r, g, k))
            channels[s].append((dr, r, g, k))
        elif isinstance(d, Capacitor):
            a, b = index[d.a], index[d.b]
            cap_adj[a].append((b, d.farads))
            cap_adj[b].append((a, d.farads))
        elif isinstance(d, FixedSource):
            fixed[index[d.node]] = d.volts + 0.0    # -0.0 V is 0.0 V
    terms = [[farads for _, farads in adj] for adj in cap_adj]
    for node in flat.probes:
        terms[index[node]].append(cfg.c_out_load)
    node_cap = list(map(math.fsum, terms))      # exact, so device order cannot matter
    comp = n._compiled = _Compiled(cfg, contents, sorted(flat.inputs), names, index, fets,
                                   channels, cap_adj, node_cap, fixed)
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


def _exhaustive_stimulus(nodes: Sequence[str], vdd: float,
                         period: float) -> list[tuple[float, dict[str, float]]]:
    """Every assignment of nodes (see _exhaustive_inputs), one per period
    from time 0."""
    if period <= 0:
        raise ConfigError("period must be strictly positive")
    return [(k * period, assign) for k, assign in enumerate(_exhaustive_inputs(nodes, vdd))]


def _pin_map(comp: _Compiled, inputs: Mapping[str, float]) -> list[float | None]:
    """Pinned voltage per node index, None where the node is not pinned."""
    pins = list(comp.fixed)
    for node, volts in inputs.items():
        i = comp.index.get(node)
        if i is None:
            raise ConfigError(f"input assignment to unknown node {node!r}")
        if pins[i] is not None:
            what = "rail" if node in (VDD, GND) else "fixed-source node"
            raise ConfigError(f"cannot reassign {what} {node}")
        if not _finite(volts):
            raise ConfigError(f"input {node} must be a finite voltage, got {volts!r}")
        pins[i] = float(volts) + 0.0        # -0.0 V is 0.0 V
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
    parent[_find(parent, b)] = _find(parent, a)


def _items(idx: list[int]) -> Callable[[Sequence], tuple]:
    """A getter of a sequence's items at idx, as a tuple even for one index."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda seq: tuple(seq[i] for i in idx)


def _regions(fets: list[tuple[int, int, int, bool, float, float]],
             cap_adj: list[list[tuple[int, float]]],
             pinned: Sequence[bool]) -> _Partition:
    """The partition of a pinned set: the unpinned nodes joined by the
    channels and capacitors between unpinned nodes, each with the FETs that
    have a channel terminal among them, then a region with no nodes per FET
    whose channel terminals are both pinned.  A region's slots are its nodes,
    then its reads in the order its FETs (links, then feeds, each in FET
    order; channel terminal, gate, other channel terminal) and capacitors
    meet them.  Its shape is its node count, FETs as (channel, gate, other
    channel, is_nfet, vth) in slots and sorted (slot, slot, farads)
    capacitors; regions of one shape share a table (see _Tables).  Region A
    feeds B when B reads a node of A (readers), and each region is ranked
    after all that feed it (Kahn); ranks is None when the regions feed each
    other in a cycle."""
    parent = list(range(len(pinned)))
    for a, b in itertools.chain(((d, s) for d, _, s, _, _, _ in fets),
                                ((a, b) for a, adj in enumerate(cap_adj) for b, _ in adj)):
        if not (pinned[a] or pinned[b]):
            _union(parent, a, b)
    roots: dict[int, int] = {}
    node_region = [-1 if p else roots.setdefault(_find(parent, i), len(roots))
                   for i, p in enumerate(pinned)]
    fet_rows: list[list[tuple]] = [[] for _ in roots]       # per region, its FETs
    for k, (d, g, s, is_nfet, vth, _) in enumerate(fets):
        a, b = (s, d) if pinned[d] else (d, s)      # a is unpinned unless both are
        if (r := node_region[a]) < 0:               # both pinned: a region with no nodes
            r = len(fet_rows)
            fet_rows.append([])
        fet_rows[r].append((pinned[b], k, a, g, b, is_nfet, vth))
    members: list[list[int]] = [[] for _ in fet_rows]
    for i, r in enumerate(node_region):
        if r >= 0:
            members[r].append(i)
    regions = []
    readers: list[list[int]] = [[] for _ in pinned]
    waits = [0] * len(fet_rows)             # per region, its reads in regions not yet ranked
    for r, (nodes, own) in enumerate(zip(members, fet_rows)):
        own.sort()                          # links, then feeds, each in FET order
        caps = [(m, o, farads) for m in nodes for o, farads in cap_adj[m]]
        touched = itertools.chain((m for row in own for m in row[2:5]), (o for _, o, _ in caps))
        slots = nodes + [m for m in dict.fromkeys(touched) if node_region[m] != r]
        slot = {m: j for j, m in enumerate(slots)}
        shape = (len(nodes), tuple((slot[a], slot[g], slot[b], is_nfet, vth)
                                   for _, _, a, g, b, is_nfet, vth in own),
                 tuple(sorted((slot[m], slot[o], farads) for m, o, farads in caps)))
        regions.append(_Region(nodes, [k for _, k, *_ in own], _items(slots),
                               _items(slots[len(nodes):]), shape, _TABLES.table(shape)))
        for m in slots[len(nodes):]:
            readers[m].append(r)
            if node_region[m] >= 0:         # an outside gate: its region feeds r
                waits[r] += 1
    order = [r for r, wait in enumerate(waits) if not wait]
    for q in order:
        for m in members[q]:
            for r in readers[m]:
                waits[r] -= 1
                if not waits[r]:
                    order.append(r)
    pins = [i for i, r in enumerate(node_region) if r < 0]
    return _Partition(regions, readers, order if len(order) == len(regions) else None,
                      node_region, pins, {k: 0.0 for i in pins for k in (i, ~i)})


class _Tables:
    """The process's region result tables, one per shape, oldest first.

    _resolve reads only a region's shape and key, and _settled only its
    shape and reads, so one table serves every partition of every compiled
    netlist.  It holds settled entries and the global loop's rows, cleared
    at TABLE_ROWS entries.  An entry counts a slot per level of its key, per
    node (its level and Signal) and per FET its row holds, and a shape one
    per FET and capacitor:
    past TABLE_ROWS tables or TABLE_ROWS**2 slots, the oldest tables are
    dropped.  A partition keeps the tables it holds, dropped or not."""

    def __init__(self) -> None:
        self.tables: dict[tuple, dict[tuple, tuple]] = {}   # shape -> key -> row
        self.slots = 0                  # of the shapes and entries in tables

    def table(self, shape: tuple) -> dict[tuple, tuple]:
        table = self.tables.get(shape)
        if table is None:
            table = self.tables[shape] = {}
            self.slots += _slots(shape, table)
            self._trim()
        return table

    def enter(self, shape: tuple, table: dict[tuple, tuple], key: tuple, row: tuple) -> tuple:
        """row, entered under key in table, a table of that shape."""
        held = self.tables.get(shape) is table
        if len(table) >= TABLE_ROWS:    # bounds a table under an analog sweep
            if held:
                self.slots -= _slots(shape, table) - _slots(shape, {})
            table.clear()
        table[key] = row
        if held:
            self.slots += len(key) + shape[0] + len(shape[1])
            self._trim()
        return row

    def _trim(self) -> None:
        while len(self.tables) > TABLE_ROWS or self.slots > TABLE_ROWS * TABLE_ROWS:
            shape = next(iter(self.tables))
            self.slots -= _slots(shape, self.tables.pop(shape))


def _slots(shape: tuple, table: dict[tuple, tuple]) -> int:
    # a slot per FET and capacitor of the shape, and per entry (see _Tables)
    count, fets, caps = shape
    return len(fets) + len(caps) + sum(map(len, table)) + len(table) * (count + len(fets))


_TABLES = _Tables()


def _resolve(shape: tuple, key: tuple) -> tuple:
    """A region's row, its whole step, from its shape (see _regions) and the
    levels at its slots: (its nodes' next levels, their Signals, its FETs'
    flags on the key, whether those hold on the next levels).  It reads
    nothing else, so a row is a function of its shape and key, and it is
    immutable, as every solve that meets its key shares it."""
    count, fets, caps = shape

    def conducting(lv: Sequence) -> tuple[bool, ...]:
        # each FET's flag on lv: its reference is its lower (nfet) or upper (pfet)
        # channel level that is not 'x' or 'z'; without one, or at such a gate, off
        on = []
        for a, g, b, is_nfet, vth in fets:
            vg, va, vb = lv[g], lv[a], lv[b]
            ref = vb if type(va) is str else va if type(vb) is str \
                else (va if va <= vb else vb) if is_nfet else (va if va >= vb else vb)
            on.append(type(vg) is not str and type(ref) is not str
                      and switch_on(is_nfet, vg, ref, vth))
        return tuple(on)

    flags = conducting(key)
    parent = list(range(count))
    drive: dict[int, set[float]] = {}       # group root -> pinned levels driving it
    for (a, _, b, _, _), on in zip(fets, flags):    # every link comes before every feed
        if on and b < count:
            _union(parent, a, b)
        elif on and a < count:              # a FET between two pins drives no node
            drive.setdefault(_find(parent, a), set()).add(key[b])
    levels: list[float | str] = [Z] * count + list(key[count:])     # per slot
    strengths: list[Strength | None] = [None] * count
    for m in range(count):
        driven = drive.get(_find(parent, m))
        if driven is not None:
            # two supply levels in one group: equal-strength contention
            levels[m] = next(iter(driven)) if len(driven) == 1 else X
            strengths[m] = Strength.DRIVEN

    # capacitive clusters: floating groups additionally merged through caps,
    # each charged by its capacitors to pins and driven nodes
    floating = [m for m in range(count) if strengths[m] is None]
    for m, o, _ in caps:
        if o < count and strengths[m] is None and strengths[o] is None:
            _union(parent, m, o)
    terms: dict[int, list[tuple[float, float | str]]] = {}
    for m, o, farads in caps:
        if strengths[m] is None and (o >= count or strengths[o] is not None):
            terms.setdefault(_find(parent, m), []).append((farads, levels[o]))
    charged: dict[int, float | str] = {}    # cluster root -> level
    for root, cluster in terms.items():
        # summed exactly, so the level cannot depend on device order
        if any(isinstance(lvl, str) for _, lvl in cluster):
            charged[root] = X
        else:
            charged[root] = (math.fsum(farads * lvl for farads, lvl in cluster)
                             / math.fsum(farads for farads, _ in cluster))
    for m in floating:
        level = charged.get(_find(parent, m))
        if level is not None:
            levels[m], strengths[m] = level, Strength.CHARGED
    return (tuple(levels[:count]), tuple(map(Signal, levels, strengths)), flags,
            conducting(levels) == flags)


def _solve(comp: _Compiled, pins: list[float | None]) -> _Solve:
    """The steady state under pins: settled in rank order from its pinned
    set's base, or as one component of every region when the regions feed a
    cycle or a region in rank order repeats a conducting set."""
    pinned = tuple(map(is_not, pins, itertools.repeat(None)))
    if pinned not in comp.regions:
        comp.regions[pinned] = _regions(comp.fets, comp.cap_adj, pinned)
    part = comp.regions[pinned]
    solve = None if part.ranks is None else _settle_from(comp, pins, part,
                                                         comp.bases.get(id(part)))
    return solve or _settle(comp, pins, part)


def _start(comp: _Compiled, pins: list[float | None]) -> tuple[list, list, bytearray]:
    """All-'z' under pins: every node's level and Signal, and no FET on."""
    floating = Signal(Z, None)
    return ([Z if p is None else p for p in pins],
            [floating if p is None else Signal(p, Strength.SUPPLY) for p in pins],
            bytearray(len(comp.fets)))


def _settle_from(comp: _Compiled, pins: list[float | None], part: _Partition,
                 base: _Solve | None) -> _Solve | None:
    """The steady state in rank order from a copy of base, a solve settled in
    rank order on part, or from all-'z' without one; a region stepped takes
    its levels and Signals from its settled entry (see _settled), and a
    changed pin's Signal is made again.  A node whose level moved marks its
    readers, as keys read levels alone.  None when a region repeats a
    conducting set."""
    regions, readers, ranks, *_ = part
    marked = bytearray([base is None]) * len(regions)      # the regions to step
    base = base or _Solve(*_start(comp, pins), part, True)
    levels, signals, flags = list(base.levels), list(base.signals), bytearray(base.flags)
    for m in part.pins:
        if pins[m] != levels[m]:
            levels[m] = pins[m]
            signals[m] = Signal(pins[m], Strength.SUPPLY)
            for r in readers[m]:
                marked[r] = 1
    for r in ranks:
        if not marked[r]:
            continue
        nodes, fets, _, reads_of, shape, table = regions[r]
        reads = reads_of(levels)
        next_levels, sigs, on, holds = table.get(reads) or _settled(shape, table, reads)
        if not holds:
            return None
        for k, f in zip(fets, on):
            flags[k] = f
        for m, lvl, sig in zip(nodes, next_levels, sigs):
            if lvl != levels[m]:
                levels[m] = lvl
                for q in readers[m]:
                    marked[q] = 1
            signals[m] = sig
    return _Solve(levels, signals, flags, part, True)


def _settled(shape: tuple, table: dict[tuple, tuple], reads: tuple) -> tuple:
    """The settled entry of a region of shape under the levels at its reads,
    entered in table under reads: the row its steps from all-'z' end on, where
    its flags hold, or where its conducting set comes back (the row's flags
    then do not hold).  Its reads stay fixed while it steps, so the entry is
    a function of its reads; no solve reads a step before it again, so none
    is entered."""
    levels: tuple = (Z,) * shape[0]
    seen: set[tuple] = set()                # the conducting sets of rows that did not hold
    while True:
        row = _resolve(shape, levels + reads)
        levels, _, on, holds = row
        if holds or on in seen:
            return _TABLES.enter(shape, table, reads, row)
        seen.add(on)


def _settle(comp: _Compiled, pins: list[float | None], part: _Partition) -> _Solve:
    """The steady state from all-'z' by the global loop, one component of
    every region.  Raises NonConvergent when every FET's flags repeat."""
    regions, readers, *_ = part
    levels, signals, flags = _start(comp, pins)
    todo: Iterable[int] = range(len(regions))
    seen: dict[bytes, int] = {}             # every FET's flags -> sweep seen at
    for sweep in itertools.count():
        rows = []
        for r in todo:
            _, _, key_of, _, shape, table = regions[r]
            key = key_of(levels)
            row = table.get(key) or _TABLES.enter(shape, table, key, _resolve(shape, key))
            rows.append((r, row))
        changed: list[int] = []             # nodes whose level or strength changed
        for r, (next_levels, sigs, on, _) in rows:
            nodes, fets, *_ = regions[r]
            for k, f in zip(fets, on):
                flags[k] = f
            for m, lvl, sig in zip(nodes, next_levels, sigs):
                if levels[m] != lvl or signals[m].strength is not sig.strength:
                    changed.append(m)
                    levels[m] = lvl
                signals[m] = sig
        # a region whose flags hold steps to itself until a read changes
        todo = {r for r, row in rows if not row[3]}
        todo.update(q for m in changed for q in readers[m])
        if not todo:
            break
        first = seen.setdefault(bytes(flags), sweep)
        if first != sweep:
            raise NonConvergent(sweep - first, tuple(comp.names[m] for m in sorted(changed)))
    return _Solve(levels, signals, flags, part, False)


def _solved(comp: _Compiled, pins: list[float | None]) -> _Solve:
    """_solve, run once per pin assignment for as long as the compiled form
    keeps the solve: through this call and the next one on the netlist.  A
    solve settled in rank order is its pinned set's base."""
    key = tuple(pins)
    solve = comp.solves.get(key)
    if solve is None:
        solve = comp.solves[key] = comp.kept.get(key) or _solve(comp, pins)
    if solve.ranked:
        comp.bases[id(solve.part)] = solve
    return solve


def steady_state(n: Netlist, inputs: Mapping[str, float] | None = None,
                 cfg: SimConfig = SimConfig()) -> dict[str, Signal]:
    """Resolve every node of the netlist under the given input voltages:
    a fresh dict, the caller's, of Signals shared with the solve, which are
    immutable."""
    comp = _compile(n, cfg)
    return dict(zip(comp.names, _solved(comp, _pin_map(comp, inputs or {})).signals))


# ---------------------------------------------------------------------------
# first-order timing

def _grow(comp: _Compiled, solve: _Solve, r: int) -> None:
    """Adds region r's branches to the solve's drive forest: node ->
    (resistance from its driver, Elmore sum, parent, gate of the FET from the
    parent), by one Dijkstra over r's conducting FETs.  A conducting channel
    from r leads to a node of r or to a pin, and no pin has a parent, so this
    is r's part of one multi-source Dijkstra from every pin.  It relaxes the
    pins' channels into r in (pin, FET) order, as that one pops the pins
    (all at resistance 0) and then relaxes each in device order, so every
    entry and every tie is the same as that one's."""
    node_region, drive, flags = solve.part.node_region, solve.drive, solve.flags
    seeds = []
    for k in solve.part.regions[r].fets:
        d, gate, s, _, _, res = comp.fets[k]
        if flags[k] and (node_region[d] < 0) != (node_region[s] < 0):    # a conducting feed
            pin, node = (d, s) if node_region[d] < 0 else (s, d)
            seeds.append((pin, k, node, gate, res))
    heap = []
    for pin, _, node, gate, res in sorted(seeds):
        if node not in drive or res < drive[node][0]:
            drive[node] = (res, res * comp.node_cap[node], pin, gate)
            heapq.heappush(heap, (res, node))
    while heap:
        dist, cur = heapq.heappop(heap)
        res, elmore, _, _ = drive[cur]
        if dist > res:
            continue
        for other, r_on, gate, k in comp.channels[cur]:
            nd = dist + r_on
            if flags[k] and node_region[other] >= 0 and \
                    (other not in drive or nd < drive[other][0]):
                drive[other] = (nd, elmore + nd * comp.node_cap[other], cur, gate)
                heapq.heappush(heap, (nd, other))


def _arrival(comp: _Compiled, solve: _Solve, node: int) -> float:
    """Settling time of a node of some strength in the given steady state.

    A driven node waits on its parent's branch in the drive-path forest and
    on its own gate, and a branch's time (key ~i) is its parent's plus one
    gate.  The forest grows a region at a time (see _grow), when the walk
    first meets a driven node of it.  A charged node's cluster (the charged
    nodes joined to it by capacitors and conducting channels, as _resolve
    charges a floating group as one) waits on every driven or pinned node
    capacitively attached to it, and settles all its members at once, so a
    charged ladder is timed in linear time.  An explicit stack, not the
    interpreter's, visits them depth first from node, in the frame order of
    a recursive walk over every gate on the path, and stops at keys the
    solve's memo holds.  The solve keeps the forest and the memo of settled
    keys, but not comp, and visiting is this read's, so a read names the
    same cycle node whatever was read before.
    """
    signals, flags = solve.signals, solve.flags
    if solve.memo is None:
        solve.drive, solve.memo = {}, dict(solve.part.pin_times)
    memo, drive = solve.memo, solve.drive
    if node in memo:
        return memo[node]
    visiting: set[int] = set()

    def frame(key: int) -> tuple[list[int], list[int], float, list[float]]:
        # (the keys it settles, the keys they wait on, their own delay, the
        # times so far); only nodes of some strength get one, and a DRIVEN
        # node's region grows it into the forest, as its group has a
        # conducting feed from a pin.  Only nodes enter visiting.
        if key < 0:
            _, _, parent, gate = drive[~key]
            return [key], [~parent, gate], 0.0, []
        visiting.add(key)
        if signals[key].strength is Strength.DRIVEN:
            if key not in drive:            # its region is not grown yet
                _grow(comp, solve, solve.part.node_region[key])
            _, elmore, parent, gate = drive[key]
            return [key], [~parent, gate], elmore, []
        cluster, waits = [key], {}          # the charged nodes joined to key
        for m in cluster:
            for o, _ in comp.cap_adj[m]:
                if signals[o].strength is not Strength.CHARGED:
                    waits[o] = None         # DRIVEN or SUPPLY: a cluster has no 'z' neighbor
                elif o not in visiting:
                    visiting.add(o)
                    cluster.append(o)
            for o, _, _, k in comp.channels[m]:
                # a conducting channel joins m's group, charged as one (see _resolve)
                if flags[k] and signals[o].strength is Strength.CHARGED and o not in visiting:
                    visiting.add(o)
                    cluster.append(o)
        return cluster, list(waits), 0.0, []

    stack = [frame(node)]
    while True:
        keys, waits, delay, times = stack[-1]
        while len(times) < len(waits):
            other = waits[len(times)]
            if other in memo:
                times.append(memo[other])
            elif other in visiting:
                raise NoPath(f"timing cycle through node {comp.names[other]}")
            else:
                stack.append(frame(other))
                break
        else:
            # keys settle their own delay after the last key they wait on
            t = max(times, default=0.0) + delay
            for k in keys:
                memo[k] = t
                visiting.discard(k)
            stack.pop()
            if not stack:
                return t
            stack[-1][3].append(t)


def delay_estimate(n: Netlist, output_node: str, cfg: SimConfig = SimConfig(),
                   inputs: Mapping[str, float] | None = None) -> float:
    """Worst-case settling time of output_node.

    With explicit inputs, that one steady state is analyzed.  Without,
    every combination of trit levels on the declared input nodes is tried
    and the slowest one wins.  An assignment that leaves the output 'x' or
    'z' is skipped, and NoPath is raised when none drives it to a level.
    """
    comp = _compile(n, cfg)
    out = comp.index.get(output_node)
    if out is None:
        raise NoPath(f"unknown output node {output_node!r}")
    assigns = _exhaustive_inputs(comp.inputs, cfg.vdd) if inputs is None else [inputs]
    worst = None
    for assign in assigns:
        solve = _solved(comp, _pin_map(comp, assign))
        if isinstance(solve.levels[out], str):
            continue    # 'z' (undriven) or 'x'
        t = _arrival(comp, solve, out)
        if worst is None or t > worst:
            worst = t
    if worst is None:
        raise NoPath(f"output {output_node} is {'never' if inputs is None else 'not'} driven")
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
    if not _finite(*times):
        raise ConfigError("stimulus times must be finite numbers")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("stimulus times must be strictly increasing")

    comp = _compile(n, cfg)
    w = Waveform()

    current: dict[str, float] = dict(stimulus[0][1])
    solve = _solved(comp, _pin_map(comp, current))
    w.initial_levels = dict(zip(comp.names, solve.levels))
    prev_levels = list(solve.levels)
    last_emit: dict[int, float] = {}

    for t_edge, assigns in stimulus[1:]:
        current.update(assigns)
        solve = _solved(comp, _pin_map(comp, current))
        batch = []
        # a level equal to the last emitted one is unchanged whether it is a
        # string or a voltage, so only unequal levels meet the 1e-12 V test
        levels = solve.levels
        changed = [i for i, (new, old) in enumerate(zip(levels, prev_levels)) if new != old]
        for i in changed:
            new, old = levels[i], prev_levels[i]
            if isinstance(new, str) or isinstance(old, str):
                energy = 0.0
            elif abs(new - old) > 1e-12:
                energy = 0.5 * comp.node_cap[i] * (new - old) ** 2
            else:
                continue
            t = t_edge + (0.0 if solve.signals[i].strength is None else _arrival(comp, solve, i))
            if i in last_emit and t <= last_emit[i]:
                t = math.nextafter(last_emit[i], math.inf)
            last_emit[i] = t
            batch.append(WaveEvent(t, comp.names[i], old, new, energy))
            prev_levels[i] = new
        batch.sort(key=lambda e: (e.time, e.node))
        w.events.extend(batch)
    return w


def measure(w: Waveform, duration: float) -> float:
    """Average switching power in watts: the waveform's event energy over
    the duration.  Delay is delay_estimate's figure, not the waveform's."""
    if not _finite(duration) or duration <= 0:
        raise ConfigError("duration must be a finite number above 0")
    return sum(e.energy for e in w.events) / duration


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
