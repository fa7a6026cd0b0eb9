"""Region result tables: steady states read from the tables match the
reference simulator (tests/reference_sim.py), regions of one shape share a
table, and the table bound changes no result."""

import itertools
import random

import pytest

import reference_sim
from capture_signals import CORPUS_SEED, CORPUS_SIZE, VDDS
from conftest import ripple_text
from gen_netlists import random_netlist
from tritsim import (BOTH_VARIANTS, BuildConfig, ConfigError, SimConfig,
                     build_design, parse, sim, steady_state)

CFG = SimConfig()


def _tables(n) -> list[dict]:
    return [region.table for part in n._compiled.regions.values() for region in part.regions]


@pytest.fixture
def check(monkeypatch):
    """A checker of steady_state against the reference on one assignment:
    levels by repr, strengths by identity, NonConvergent by message.  Its
    hits() counts the table hits so far, the lookups that found a row, at
    the tables themselves: a read of a region's flags for its conducting
    set's record is no lookup."""
    counts = {"hits": 0}

    class Counted(dict):
        def get(self, key, default=None):
            row = super().get(key, default)
            counts["hits"] += row is not None
            return row

    def regions(fets, cap_adj, pinned, _real=sim._regions):
        part = _real(fets, cap_adj, pinned)
        counted: dict[int, Counted] = {}    # one per table, so regions of a shape still share
        return part._replace(regions=[
            region._replace(table=counted.setdefault(id(region.table), Counted()))
            for region in part.regions])

    def checker(n, inputs, cfg=CFG):
        reference_sim.check(n, inputs, cfg)

    checker.hits = lambda: counts["hits"]
    monkeypatch.setattr(sim, "_regions", regions)
    return checker


def test_a_hit_on_a_pinned_capacitor_neighbor_is_exact(check):
    n = parse("* shared\n.input a\nC1 a m 1f\nC2 m GND 3f\n.end\n")
    for volts in (0.9, 0.45, 0.9, 0.0, 0.45):
        assert steady_state(n, {"a": volts}, CFG)["m"].level == pytest.approx(volts / 4)
        check(n, {"a": volts})
    assert check.hits()


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


def test_adder_hits_are_exact(check):
    for variant, vdd in itertools.product(BOTH_VARIANTS, VDDS):
        cfg = SimConfig(vdd=vdd)
        n = build_design(variant, BuildConfig(vdd=vdd))
        levels = cfg.vmap().levels()
        for a, b, c in itertools.product(levels, repeat=3):
            check(n, {"a": a, "b": b, "cin": c}, cfg)
    assert check.hits() > 1000


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
    calls = {"switch_on": 0, "_solve": 0}

    def counted(name):
        def call(*args, _real=getattr(sim, name)):
            calls[name] += 1
            return _real(*args)
        return call
    for name in calls:
        monkeypatch.setattr(sim, name, counted(name))
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


def test_the_table_bound_changes_no_result(monkeypatch):
    def results():
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
