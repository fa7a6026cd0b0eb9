"""Region result tables: steady states read from the tables match the
reference simulator (tests/reference_sim.py), regions of one shape share a
table, in one netlist and across every netlist of the process, the
process's tables stay within their count and slot bounds, and the table
bound changes no result."""

import gc
import itertools
import random
import tracemalloc

import pytest

import reference_sim
from capture_signals import CORPUS_SEED, CORPUS_SIZE, VDDS
from conftest import ripple_text
from gen_netlists import random_netlist
from tritsim import (BOTH_VARIANTS, BuildConfig, ConfigError, SimConfig, SweepSpec,
                     build_design, delay_estimate, parse, run_sweep, sim, steady_state,
                     sweep_csv)

CFG = SimConfig()


def _tables(n) -> list[dict]:
    return [region.table for part in n._compiled.regions.values() for region in part.regions]


@pytest.fixture
def check(monkeypatch):
    """A checker of steady_state against the reference on one assignment:
    levels by repr, strengths by identity, NonConvergent by message.  It
    checks the assignment twice: as steady_state solves it, from the base
    the netlist's previous solve left, then settled again from all-'z',
    with no base.  Its hits() counts the table hits of the settles from
    all-'z', the lookups that found an entry, at the tables themselves: a
    region carried from a base reads none.  settled() counts those of them
    on a settled entry, keyed by a region's reads alone, each read in a
    settle the reference then checks.  Its tables, one per shape, serve
    every netlist of the test, as the process's do, and shared() and
    settled_shared() count the hits on an entry another netlist filled: each
    entry is filed under the compiled netlist whose solve entered it."""
    counts = {"hits": 0, "shared": 0, "settled": 0, "settled_shared": 0}
    checking = [None, False]                # the compiled netlist solving; counting

    class Counted(dict):
        def __init__(self, reads: int):
            super().__init__()
            self.reads = reads              # a settled entry's key length
            self.filled_by = {}

        def __setitem__(self, key, row):
            super().__setitem__(key, row)
            self.filled_by[key] = checking[0]

        def get(self, key, default=None):
            row = super().get(key, default)
            if row is not None and checking[1]:
                shared = self.filled_by[key] is not checking[0]
                counts["hits"] += 1
                counts["shared"] += shared
                if len(key) == self.reads:
                    counts["settled"] += 1
                    counts["settled_shared"] += shared
            return row

    counted: dict[tuple, Counted] = {}      # shape -> its table

    def regions(fets, cap_adj, pinned, _real=sim._regions):
        part = _real(fets, cap_adj, pinned)
        nodes = range(len(pinned))          # reads_of of it: the nodes a region reads
        return part._replace(regions=[
            region._replace(table=counted.setdefault(
                region.shape, Counted(len(region.reads_of(nodes)))))
            for region in part.regions])

    def solve(comp, pins, _real=sim._solve):
        checking[0] = comp
        return _real(comp, pins)

    def from_z(n, inputs, cfg):
        comp = n._compiled                  # as steady_state just compiled it
        bases, comp.bases = comp.bases, {}
        checking[1] = True
        try:
            solve = sim._solve(comp, sim._pin_map(comp, inputs))
        finally:
            comp.bases, checking[1] = bases, False
        return dict(zip(comp.names, solve.signals))

    def checker(n, inputs, cfg=CFG):
        reference_sim.check(n, inputs, cfg, from_z)

    checker.hits = lambda: counts["hits"]
    checker.shared = lambda: counts["shared"]
    checker.settled = lambda: counts["settled"]
    checker.settled_shared = lambda: counts["settled_shared"]
    monkeypatch.setattr(sim, "_regions", regions)
    monkeypatch.setattr(sim, "_solve", solve)
    return checker


def test_a_hit_on_a_pinned_capacitor_neighbor_is_exact(check):
    n = parse("* shared\n.input a\nC1 a m 1f\nC2 m GND 3f\n.end\n")
    for volts in (0.9, 0.45, 0.9, 0.0, 0.45):
        assert steady_state(n, {"a": volts}, CFG)["m"].level == pytest.approx(volts / 4)
        check(n, {"a": volts})
    assert check.hits() and check.settled()
    assert check.shared() == 0          # one netlist fills every entry it meets


def test_corpus_hits_are_exact(check):
    rng = random.Random(CORPUS_SEED)
    for i in range(CORPUS_SIZE):
        n = random_netlist(rng, i)
        try:
            assigns = sim._exhaustive_inputs(sorted(n.inputs), CFG.vdd)
        except ConfigError:
            continue        # too many inputs to enumerate
        for assign in assigns:
            check(n, assign)
    assert check.hits() > 1000
    assert check.shared() > 500      # rows another netlist filled
    assert check.settled() > 5000
    assert check.settled_shared() > 500     # settled entries another netlist filled


def test_adder_hits_are_exact(check):
    for variant, vdd in itertools.product(BOTH_VARIANTS, VDDS):
        cfg = SimConfig(vdd=vdd)
        n = build_design(variant, BuildConfig(vdd=vdd))
        levels = cfg.vmap().levels()
        for a, b, c in itertools.product(levels, repeat=3):
            check(n, {"a": a, "b": b, "cin": c}, cfg)
    assert check.hits() > 1000
    assert check.shared() > 500      # rows another netlist filled
    assert check.settled() > 5000
    assert check.settled_shared() > 1500     # settled entries another netlist filled


def test_ripple_hits_are_exact(check):
    rng = random.Random(7)
    levels = CFG.vmap().levels()
    for width in (2, 3, 4):
        n = parse(ripple_text(width))
        for _ in range(8):
            inputs = {f"{p}{i}": levels[rng.randrange(3)] for p in "ab" for i in range(width)}
            inputs["c0"] = levels[rng.randrange(3)]
            check(n, inputs)
    assert check.hits() > 1000
    assert check.shared() > 500      # rows another netlist filled
    assert check.settled() > 1000
    assert check.settled_shared() > 500     # settled entries another netlist filled


def _counted(monkeypatch, *names: str) -> dict[str, int]:
    """Counts the calls of the named sim functions from now on."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        def call(*args, _real=getattr(sim, name)):
            calls[name] += 1
            return _real(*args)
        return call
    for name in names:
        monkeypatch.setattr(sim, name, counted(name))
    return calls


def test_a_warm_ripple_solve_evaluates_no_fet(monkeypatch):
    # a region's row is its whole step, so once the tables hold every key a
    # 16-trit add meets, its solve is lookups alone
    n = parse(ripple_text(16))
    rng = random.Random(16)
    levels = CFG.vmap().levels()

    def add():
        inputs = {f"{p}{i}": levels[rng.randrange(3)] for p in "ab" for i in range(16)}
        steady_state(n, {**inputs, "c0": levels[rng.randrange(3)]}, CFG)

    for _ in range(300):
        add()
    calls = _counted(monkeypatch, "switch_on", "_solve")
    add()
    assert calls == {"switch_on": 0, "_solve": 1}


def test_regions_of_one_cell_shape_share_a_table():
    n = parse(ripple_text(4))
    levels = CFG.vmap().levels()
    steady_state(n, {**{f"{p}{i}": levels[1] for p in "ab" for i in range(4)}, "c0": 0.0}, CFG)
    (regions, *_), = n._compiled.regions.values()
    names = n._compiled.names
    by_nodes = {frozenset(names[m] for m in region.nodes): region for region in regions}
    # X0's carry-in is an input, so only its vsum region has no match in X3
    renamed = ((frozenset(m.replace("X0.", "X3.", 1) for m in nodes), region)
               for nodes, region in by_nodes.items() if all(m.startswith("X0.") for m in nodes))
    pairs = [(region, by_nodes[nodes]) for nodes, region in renamed if nodes in by_nodes]
    assert len(pairs) == 16
    assert all(first.table is last.table for first, last in pairs)
    assert len({id(table) for table in _tables(n)}) < len(regions) / 4


def test_a_second_build_of_a_design_evaluates_no_fet(monkeypatch):
    # the second netlist is compiled afresh, but its regions have the shapes
    # of the first one's, whose tables already hold every row it meets
    calls = _counted(monkeypatch, "switch_on", "_solve")
    for variant in BOTH_VARIANTS:
        monkeypatch.setattr(sim, "_TABLES", sim._Tables())
        delay_estimate(build_design(variant, BuildConfig(vdd=0.9)), "sum", CFG)
        calls.update(switch_on=0, _solve=0)
        delay_estimate(build_design(variant, BuildConfig(vdd=0.9)), "sum", CFG)
        assert calls == {"switch_on": 0, "_solve": 27}


def test_a_sweep_reads_the_same_from_cold_and_warm_tables(monkeypatch):
    monkeypatch.setattr(sim, "_TABLES", sim._Tables())
    calls = _counted(monkeypatch, "_resolve")
    cold = sweep_csv(run_sweep(SweepSpec()))
    # the five load points of a variant have the same shapes and keys
    assert calls["_resolve"] <= 200
    monkeypatch.setattr(sim, "_TABLES", sim._Tables())
    run_sweep(SweepSpec(axis="vdd"))
    calls["_resolve"] = 0
    assert sweep_csv(run_sweep(SweepSpec())) == cold
    assert calls["_resolve"] == 0      # the vdd sweep met every shape and key at 0.9 V


def _held_slots() -> int:
    return sum(sim._slots(shape, table) for shape, table in sim._TABLES.tables.items())


def test_the_process_holds_at_most_table_rows_tables(monkeypatch):
    # every node m{k} is a region of its own shape, as its capacitor to the
    # input differs; the oldest tables are dropped from the process, but
    # not from the partition that holds them
    monkeypatch.setattr(sim, "_TABLES", sim._Tables())
    count = sim.TABLE_ROWS + 50
    n = parse("* shapes\n.input a\n"
              + "".join(f"C{k}a a m{k} {k + 1}f\nC{k}g m{k} GND 1f\n" for k in range(count))
              + ".end\n")
    sigs = steady_state(n, {"a": 0.9}, CFG)
    assert [sigs[f"m{k}"].level for k in range(count)] == \
        pytest.approx([0.9 * (k + 1) / (k + 2) for k in range(count)])
    (regions, *_), = n._compiled.regions.values()
    assert len(regions) == count
    assert len(sim._TABLES.tables) == sim.TABLE_ROWS
    assert [region.table is sim._TABLES.tables.get(region.shape) for region in regions] == \
        [False] * 50 + [True] * sim.TABLE_ROWS
    # a region's settled entry alone, keyed by its reads
    assert all(len(region.table) == 1 for region in regions)
    assert sim._TABLES.slots == _held_slots()


def test_a_cleared_held_table_keeps_the_slot_count(monkeypatch):
    # an inverter is one region, and ten analog input levels are ten settled
    # entries, so its table, which the process holds, is cleared at the ninth
    monkeypatch.setattr(sim, "_TABLES", sim._Tables())
    monkeypatch.setattr(sim, "TABLE_ROWS", 8)
    n = parse("* inv\n.input a\nMp y a VDD pfet 19 0 3\nMn y a GND nfet 19 0 3\n.end\n")
    for k in range(10):
        steady_state(n, {"a": 0.09 * k}, CFG)
    (region,), = (part.regions for part in n._compiled.regions.values())
    assert region.table is sim._TABLES.tables[region.shape] and len(region.table) == 2
    assert sim._TABLES.slots == _held_slots()


def test_a_dropped_pass_chain_leaves_no_more_than_the_slot_bound(monkeypatch):
    # one region: nfets gated by VDD pass GND down the chain, a stage a step;
    # its settled entry is keyed by its two reads but holds a Signal per node
    # and a flag per FET, which the bound counts, so the one entry of a
    # 400-stage chain outgrows 32 * 32 slots
    depth = 400
    text = ("* pass\nMa n0 VDD GND nfet 19 0 1\n"
            + "".join(f"M{k} n{k + 1} VDD n{k} nfet 19 0 1\n" for k in range(depth)) + ".end\n")
    monkeypatch.setattr(sim, "_TABLES", sim._Tables())
    monkeypatch.setattr(sim, "TABLE_ROWS", 32)
    steady_state(parse(text), {}, CFG)      # warms what a chain needs outside the tables
    monkeypatch.setattr(sim, "_TABLES", sim._Tables())
    gc.collect()
    tracemalloc.start()
    try:
        n = parse(text)
        assert steady_state(n, {}, CFG)[f"n{depth}"].level == 0.0
        (region,), = (part.regions for part in n._compiled.regions.values())
        assert region.table and region.table is not sim._TABLES.tables.get(region.shape)
        del n, region
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim._TABLES.slots == _held_slots() <= 32 * 32
    assert held < 64 * 1024


def test_a_rank_order_solve_enters_only_settled_entries(monkeypatch):
    # a region stepped in rank order is read again by its reads alone, so its
    # steps enter no row; only the global loop (test_sim.py's ring
    # oscillator) fills rows keyed by a region's nodes and reads
    monkeypatch.setattr(sim, "_TABLES", sim._Tables())
    netlists = [build_design(variant, BuildConfig(vdd=0.9)) for variant in BOTH_VARIANTS]
    for n in netlists:
        steady_state(n, {"a": 0.9, "b": 0.0, "cin": 0.45}, CFG)
        delay_estimate(n, "sum", CFG)
    ripple = parse(ripple_text(4))
    levels = CFG.vmap().levels()
    for k in range(3):
        inputs = {f"{p}{i}": levels[(i + k) % 3] for p in "ab" for i in range(4)}
        steady_state(ripple, {**inputs, "c0": levels[k]}, CFG)
        delay_estimate(ripple, "s3", CFG, {**inputs, "c0": levels[2 - k]})
    netlists.append(ripple)
    for n in netlists:
        nodes = range(len(n._compiled.names))
        for part in n._compiled.regions.values():
            assert part.ranks is not None
            for region in part.regions:
                assert {len(key) for key in region.table} == {len(region.reads_of(nodes))}


def test_the_table_bound_changes_no_result(monkeypatch):
    def results():
        monkeypatch.setattr(sim, "_TABLES", sim._Tables())     # cold, so the bound applies to every row
        got = []
        for variant, vdd in itertools.product(BOTH_VARIANTS, VDDS):
            cfg = SimConfig(vdd=vdd)
            n = build_design(variant, BuildConfig(vdd=vdd))
            levels = cfg.vmap().levels()
            got += [steady_state(n, {"a": a, "b": b, "cin": c}, cfg)
                    for a, b, c in itertools.product(levels, repeat=3)]
            assert max(map(len, _tables(n))) <= sim.TABLE_ROWS
        return got

    want = results()
    monkeypatch.setattr(sim, "TABLE_ROWS", 1)
    assert repr(results()) == repr(want)


def test_every_level_is_a_float_under_an_integer_vdd():
    # u is driven from VDD and w from the input h, in regions of one shape
    # resolved in that order, so a rail held as the int 1 would reach w as 1
    n = parse("* rails\n.input h\nMp u GND VDD pfet 19 0 1\nMn u GND GND nfet 19 0 1\n"
              "Mq w GND h pfet 19 0 1\nMm w GND GND nfet 19 0 1\n.end\n")
    sigs = steady_state(n, {"h": 1.0}, SimConfig(vdd=1))
    assert {node: repr(sig.level) for node, sig in sigs.items()} == {
        "GND": "0.0", "VDD": "1.0", "h": "1.0", "u": "1.0", "w": "1.0"}
