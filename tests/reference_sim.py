"""A reference steady state: the model of the sim module docstring, stated
plainly, for tests to compare tritsim.steady_state against.

Every sweep re-evaluates every FET with cnfet.switch_on from the last
sweep's levels, joins all unpinned nodes over the conducting channels
between them in one union-find, drives a group to the levels of the pinned
terminals of its conducting channels, and merges the undriven groups through
capacitors into clusters that share charge, summed with math.fsum.  A
conducting set that comes back before the state stops changing raises
NonConvergent.  It has no regions, tables or incremental sweeps.  check()
compares tritsim's steady_state, and any other steady state given, with it.
"""

import itertools
import math

import tritsim
from tritsim import NonConvergent, Polarity, SimConfig
from tritsim.cnfet import switch_on, threshold_voltage
from tritsim.netlist import GND, VDD, Capacitor, Fet, FixedSource, flatten
from tritsim.sim import X, Z, Signal, Strength


def _find(parent: dict, x: str) -> str:
    while parent[x] != x:
        x = parent[x]
    return x


def _conducts(fet: Fet, vth: float, levels: dict) -> bool:
    """An 'x' or 'z' gate is off; an 'x' or 'z' channel terminal is ignored."""
    gate = levels[fet.gate]
    channel = [v for v in (levels[fet.drain], levels[fet.source]) if not isinstance(v, str)]
    if isinstance(gate, str) or not channel:
        return False
    is_nfet = fet.polarity is Polarity.NFET
    return switch_on(is_nfet, gate, min(channel) if is_nfet else max(channel), vth)


def steady_state(n, inputs, cfg: SimConfig = SimConfig()) -> dict[str, Signal]:
    flat = flatten(n)
    pins = {VDD: float(cfg.vdd), GND: 0.0}
    pins.update((d.node, d.volts + 0.0) for d in flat.devices if isinstance(d, FixedSource))
    pins.update((node, float(volts) + 0.0) for node, volts in inputs.items())
    fets = [(d, threshold_voltage(d.chirality)) for d in flat.devices if isinstance(d, Fet)]
    caps = [(a, b, d.farads) for d in flat.devices if isinstance(d, Capacitor)
            for a, b in ((d.a, d.b), (d.b, d.a))]
    names = sorted(flat.node_ids())
    levels = {m: pins.get(m, Z) for m in names}
    strengths = {m: Strength.SUPPLY if m in pins else None for m in names}
    seen: dict[tuple, int] = {}
    for sweep in itertools.count():
        on = tuple(_conducts(fet, vth, levels) for fet, vth in fets)
        parent = {m: m for m in names if m not in pins}
        drive: dict[str, set] = {}
        for (fet, _), conducting in zip(fets, on):
            d, s = fet.drain, fet.source
            if conducting and d in parent and s in parent:
                parent[_find(parent, d)] = _find(parent, s)
        for (fet, _), conducting in zip(fets, on):
            for a, b in ((fet.drain, fet.source), (fet.source, fet.drain)):
                if conducting and a in parent and b in pins:
                    drive.setdefault(_find(parent, a), set()).add(pins[b])
        new = {m: (pins[m], Strength.SUPPLY) for m in pins if m in levels}
        for m in parent:
            driven = drive.get(_find(parent, m))
            if driven is not None:
                new[m] = (next(iter(driven)) if len(driven) == 1 else X), Strength.DRIVEN
        floating = {m for m in parent if m not in new}
        for a, b, _ in caps:
            if a in floating and b in floating:
                parent[_find(parent, a)] = _find(parent, b)
        terms: dict[str, list] = {}
        for a, b, farads in caps:
            if a in floating and b not in floating:
                terms.setdefault(_find(parent, a), []).append((farads, new[b][0]))
        for m in floating:
            cluster = terms.get(_find(parent, m))
            if not cluster:
                new[m] = Z, None
            elif any(isinstance(lvl, str) for _, lvl in cluster):
                new[m] = X, Strength.CHARGED
            else:
                new[m] = (math.fsum(f * lvl for f, lvl in cluster)
                          / math.fsum(f for f, _ in cluster)), Strength.CHARGED
        changed = tuple(m for m in names
                        if new[m][0] != levels[m] or new[m][1] is not strengths[m])
        for m in names:
            levels[m], strengths[m] = new[m]
        if not changed:
            return {m: Signal(levels[m], strengths[m]) for m in names}
        first = seen.setdefault(on, sweep)
        if first != sweep:
            raise NonConvergent(sweep - first, changed)


def _outcome(steady, n, inputs, cfg) -> list | str:
    try:
        return [(node, repr(sig.level), sig.strength)
                for node, sig in sorted(steady(n, inputs, cfg).items())]
    except NonConvergent as e:
        return str(e)


def check(n, inputs, cfg: SimConfig = SimConfig(), *also) -> None:
    """Assert that tritsim.steady_state, then each steady state in also (called
    as steady_state is), gives this one's result on n under inputs: levels by
    repr, strengths by identity, NonConvergent by message."""
    want = _outcome(steady_state, n, inputs, cfg)
    for steady in (tritsim.steady_state, *also):
        got = _outcome(steady, n, inputs, cfg)
        assert got == want
        assert isinstance(got, str) or all(g[2] is w[2] for g, w in zip(got, want))
