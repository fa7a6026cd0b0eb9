"""Timing is read on demand, one node at a time, from frames the partition
keeps per region and row: a delay or its error does not depend on which
nodes were read before it, the forest in the frames, grown a region at a
time, is the one a single Dijkstra from every pin grows, a region timed
again on a row it met builds nothing, and a region's frames stay under
their bound and go with their netlist."""

import gc
import heapq
import itertools
import random
import tracemalloc

from capture_signals import CORPUS_SEED, CORPUS_SIZE, VDDS
from conftest import fet_flags, ripple_text
from gen_netlists import random_netlist
from tritsim import (BOTH_VARIANTS, BuildConfig, NonConvergent, NoPath, SimConfig, Strength,
                     TritsimError, build_design, delay_estimate, flatten, parse, sim)

CFG = SimConfig()


def _reads(n, nodes, cfg, inputs) -> list[str]:
    """repr of each node's delay_estimate on n, or its error's type and
    message, read in the order given."""
    got = []
    for node in nodes:
        try:
            got.append(repr(delay_estimate(n, node, cfg, inputs)))
        except TritsimError as e:
            got.append(f"{type(e).__name__}: {e}")
    return got


def _pairs():
    """(a netlist, an equal one, cfg, inputs or None for every assignment):
    the golden corpus, both adders at every golden vdd, and seeded ripple adds."""
    first, second = random.Random(CORPUS_SEED), random.Random(CORPUS_SEED)
    for i in range(CORPUS_SIZE):
        yield random_netlist(first, i), random_netlist(second, i), CFG, None
    for variant, vdd in itertools.product(BOTH_VARIANTS, VDDS):
        build = BuildConfig(vdd=vdd)
        yield build_design(variant, build), build_design(variant, build), SimConfig(vdd=vdd), None
    rng = random.Random(5)
    levels = CFG.vmap().levels()
    for width in (2, 3, 4):
        for _ in range(3):
            inputs = {f"{p}{i}": levels[rng.randrange(3)] for p in "ab" for i in range(width)}
            inputs["c0"] = levels[rng.randrange(3)]
            yield parse(ripple_text(width)), parse(ripple_text(width)), CFG, inputs


def test_a_delay_does_not_depend_on_the_reads_before_it():
    # every node, in index order on one netlist and shuffled on a fresh one
    order = random.Random(11)
    for n, fresh, cfg, inputs in _pairs():
        nodes = sorted(flatten(n).node_ids())
        want = dict(zip(nodes, _reads(n, nodes, cfg, inputs)))
        shuffled = order.sample(nodes, len(nodes))
        assert dict(zip(shuffled, _reads(fresh, shuffled, cfg, inputs))) == want, n.name


def _whole_forest(comp, solve) -> dict[int, tuple]:
    """The drive forest of a solve by one multi-source Dijkstra from every
    pin over the conducting FETs, as the solver grew it before it grew one
    region at a time: node -> (resistance from its driver, Elmore sum,
    parent, gate of the FET from the parent), pins with parent -1."""
    flags = fet_flags(comp, solve)
    drive = {i: (0.0, 0.0, -1, -1)
             for i, sig in enumerate(solve.signals) if sig.strength is Strength.SUPPLY}
    heap = [(0.0, i) for i in drive]
    while heap:
        dist, cur = heapq.heappop(heap)
        res, elmore, _, _ = drive[cur]
        if dist > res:
            continue
        for other, r, gate, k in comp.channels[cur]:
            nd = dist + r
            if flags[k] and (other not in drive or nd < drive[other][0]):
                drive[other] = (nd, elmore + nd * comp.node_cap[other], cur, gate)
                heapq.heappush(heap, (nd, other))
    return drive


def _solves():
    """(compiled form, solve) of the first 200 golden corpus netlists and
    both adders at every golden vdd under every assignment, and of seeded
    ripple adds up to 16 trits; a solve that does not converge is left out."""
    rng = random.Random(CORPUS_SEED)
    cases = [(random_netlist(rng, i), CFG, None) for i in range(200)]
    cases += [(build_design(variant, BuildConfig(vdd=vdd)), SimConfig(vdd=vdd), None)
              for variant, vdd in itertools.product(BOTH_VARIANTS, VDDS)]
    rng = random.Random(6)
    levels = CFG.vmap().levels()
    for width in (2, 4, 16):
        for _ in range(3):
            inputs = {f"{p}{i}": levels[rng.randrange(3)] for p in "ab" for i in range(width)}
            inputs["c0"] = levels[rng.randrange(3)]
            cases.append((parse(ripple_text(width)), CFG, inputs))
    for n, cfg, inputs in cases:
        comp = sim._compile(n, cfg)
        assigns = sim._exhaustive_inputs(comp.inputs, cfg.vdd) if inputs is None else [inputs]
        for assign in assigns:
            try:
                yield comp, sim._solved(comp, sim._pin_map(comp, assign))
            except NonConvergent:
                pass


def test_the_forest_grown_by_region_is_the_whole_one():
    # reading every node builds the frames of every region that holds a
    # driven node; a driven node's frame waits on its parent's branch and
    # its gate, and carries its Elmore sum
    for comp, solve in _solves():
        for node, sig in enumerate(solve.signals):
            if sig.strength is not None:
                try:
                    sim._arrival(comp, solve, node)
                except NoPath:
                    pass
        kept = {}
        for held, row in zip(solve.part.frames, solve.rows):
            kept.update(held.get(id(row), (row, {}))[1])
        whole = _whole_forest(comp, solve)
        assert {node: (waits, elmore) for node, (_, waits, elmore) in kept.items()
                if node >= 0 and solve.signals[node].strength is not Strength.CHARGED} == \
            {node: ((~parent, gate), elmore) for node, (_, elmore, parent, gate) in whole.items()
             if solve.signals[node].strength is not Strength.SUPPLY}


def test_a_carry_read_grows_less_than_half_the_forest():
    # the walk times only what c16 waits on: fewer than half the nodes
    n = parse(ripple_text(16))
    rng = random.Random(16)
    levels = CFG.vmap().levels()
    for _ in range(20):
        inputs = {f"{p}{i}": levels[rng.randrange(3)] for p in "ab" for i in range(16)}
        inputs["c0"] = levels[rng.randrange(3)]
        delay_estimate(n, "c16", CFG, inputs)
        (solve,) = n._compiled.solves.values()
        timed = sum(key >= 0 for key in solve.memo) - len(solve.part.pins)
        assert timed < len(n._compiled.names) / 2


def test_a_second_exhaustive_delay_builds_no_frames(monkeypatch):
    # a region's frames are a function of its row, and the partition keeps
    # them: the first exhaustive read builds one set per (region, row) it
    # times, and a second read with fresh solves, which settle on the same
    # rows, builds none
    built = []

    def frames(comp, solve, r, _real=sim._frames):
        built.append((id(solve.part), r, id(solve.rows[r])))
        return _real(comp, solve, r)

    monkeypatch.setattr(sim, "_frames", frames)
    n = build_design(1)
    first = delay_estimate(n, "sum", CFG)
    assert built and len(set(built)) == len(built)
    built.clear()
    comp = n._compiled
    comp.solves.clear()
    comp.kept.clear()
    assert delay_estimate(n, "sum", CFG) == first
    assert not built and all(solve.memo for solve in comp.solves.values())


def test_a_region_keeps_frames_up_to_the_bound_and_drops_them_with_its_netlist(monkeypatch):
    # one region: a pass chain gated by g, each analog level of g a new row;
    # a region's frames are cleared once they reach TABLE_ROWS, so a row of
    # 2 * (depth + 1) frames keeps about one
    depth, bound = 100, 4
    text = ("* pass\n.input g\nMa n0 g GND nfet 19 0 1\n"
            + "".join(f"M{k} n{k + 1} g n{k} nfet 19 0 1\nC{k} n{k + 1} GND 1f\n"
                      for k in range(depth)) + ".end\n")
    monkeypatch.setattr(sim, "TABLE_ROWS", bound)
    monkeypatch.setattr(sim, "_TABLES", sim._Tables())
    delay_estimate(parse(text), f"n{depth}", CFG, {"g": 0.9})  # warms what a read needs outside
    gc.collect()
    tracemalloc.start()
    try:
        n = parse(text)
        for k in range(3 * bound):
            delay_estimate(n, f"n{depth}", CFG, {"g": 0.6 + 0.02 * k})
            (part,) = n._compiled.regions.values()
            (kept,) = part.frames
            assert sum(len(frames) for _, frames in kept.values()) <= bound + 2 * (depth + 1)
        monkeypatch.setattr(sim, "_TABLES", sim._Tables())     # drops the rows it holds
        del n, part, kept
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 16 * 1024
