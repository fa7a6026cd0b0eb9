"""Switch-level engine: resolution, contention, charge sharing, timing, events.

Timing expectations are frozen by hand from the RC model: a driven node
settles at max(gate arrivals along its drive path) plus the Elmore sum of
accumulated resistance (30 kOhm / tubes per device) times node capacitance.
"""

import dataclasses
import gc
import inspect
import itertools
import re
import sys
import tracemalloc
import weakref

import pytest

from conftest import inverter_chain, ripple_text, sim_symbol
from tritsim import (Capacitor, Chirality, ConfigError, Fet, FixedSource, Instance,
                     NetlistSemanticError, Netlist, NoPath, NonConvergent, Polarity,
                     Signal, SimConfig, Strength, Subckt, WaveEvent, Waveform, build_design,
                     build_sti, delay_estimate, flatten, measure, parse, sim,
                     steady_state, transient, trits, waveform_csv, waveform_vcd)
from tritsim.sim import _trit_symbol

CFG = SimConfig()


def net(body: str):
    return parse("* t\n" + body + ".end\n")


# --- steady state -----------------------------------------------------------

def test_rails_and_sources_are_pinned():
    n = net("V1 h 0.45\nC1 h GND 1f\n")
    sigs = steady_state(n, {}, CFG)
    assert sigs["GND"].level == 0.0
    assert sigs["GND"].strength is Strength.SUPPLY
    assert sigs["h"].level == 0.45
    assert sigs["h"].strength is Strength.SUPPLY


def test_a_signal_is_a_named_tuple_of_level_and_strength():
    sig = Signal(0.9, Strength.DRIVEN)
    assert sig == (0.9, Strength.DRIVEN) and hash(sig) == hash((0.9, Strength.DRIVEN))
    assert repr(sig) == "Signal(level=0.9, strength=<Strength.DRIVEN: 2>)"
    with pytest.raises(AttributeError):
        sig.level = 0.0


def test_nfet_pulldown():
    n = net(".input a\nMn y a GND nfet 19 0 3\n")
    on = steady_state(n, {"a": 0.9}, CFG)
    assert on["y"].level == 0.0
    assert on["y"].strength is Strength.DRIVEN
    off = steady_state(n, {"a": 0.0}, CFG)
    assert off["y"].level == "z"
    assert off["y"].strength is None


def test_binary_inverter():
    n = net(".input a\nMp y a VDD pfet 19 0 3\nMn y a GND nfet 19 0 3\n")
    assert steady_state(n, {"a": 0.0}, CFG)["y"].level == pytest.approx(0.9)
    assert steady_state(n, {"a": 0.9}, CFG)["y"].level == 0.0


def test_contention_reports_x():
    n = net(".input a\n.input b\nMn y a GND nfet 19 0 1\nMp y b VDD pfet 19 0 1\n")
    sigs = steady_state(n, {"a": 0.9, "b": 0.0}, CFG)
    assert sigs["y"].level == "x"
    assert sigs["y"].strength is Strength.DRIVEN
    # the rails themselves stay clean
    assert sigs["VDD"].level == pytest.approx(0.9)
    assert sigs["GND"].level == 0.0


def test_a_short_stays_in_its_own_channel_group():
    # B shorts VDD to GND; A and C, pulled up by their own FETs, share only the rail
    n = net("Mpa A GND VDD pfet 19 0 1\nMpb B GND VDD pfet 19 0 1\n"
            "Mnb B VDD GND nfet 19 0 1\nMpc C GND VDD pfet 19 0 1\n")
    sigs = steady_state(n, {}, CFG)
    assert sigs["B"] == Signal("x", Strength.DRIVEN)
    assert sigs["A"] == sigs["C"] == Signal(0.9, Strength.DRIVEN)


# y reaches the pinned m through M2; M3 ties m to GND, but m is pinned
SPLIT = ".input a\nM1 y a VDD pfet 19 0 1\nM2 y a m nfet 19 0 1\nM3 m a GND nfet 19 0 1\n"


def test_a_pinned_node_splits_channel_groups():
    sigs = steady_state(net(".input m\n" + SPLIT), {"a": 0.9, "m": 0.45}, CFG)
    assert sigs["y"] == Signal(0.45, Strength.DRIVEN)
    assert sigs["m"] == Signal(0.45, Strength.SUPPLY)


def test_pinning_an_undeclared_node_partitions_that_solve_only():
    n = net(SPLIT)
    extra = {"a": 0.9, "m": 0.45}
    assert steady_state(n, extra, CFG) == steady_state(net(SPLIT), extra, CFG)
    assert steady_state(n, extra, CFG)["y"] == Signal(0.45, Strength.DRIVEN)
    # later solves with the declared pins only, where m joins GND's group
    for volts in (0.9, 0.0):
        assert steady_state(n, {"a": volts}, CFG) == steady_state(net(SPLIT), {"a": volts}, CFG)
    assert steady_state(n, {"a": 0.9}, CFG)["m"] == Signal(0.0, Strength.DRIVEN)


def test_regions_are_built_once_per_pinned_set(monkeypatch):
    calls = []

    def counted(*args, _real=sim._regions):
        calls.append(args[2])
        return _real(*args)
    monkeypatch.setattr(sim, "_regions", counted)
    n = net(SPLIT)
    for assign in ({"a": 0.9}, {"a": 0.0}, {"a": 0.9, "m": 0.45}, {"a": 0.0, "m": 0.45}):
        steady_state(n, assign, CFG)
    m = n._compiled.index["m"]
    assert [pinned[m] for pinned in calls] == [False, True]    # declared pins, then m too


def test_charge_sharing_weighted_average():
    n = net(".input a\n.input b\nC1 a m 1f\nC2 b m 3f\n")
    sigs = steady_state(n, {"a": 0.9, "b": 0.0}, CFG)
    assert sigs["m"].level == pytest.approx(0.9 * 1 / 4)
    assert sigs["m"].strength is Strength.CHARGED


def test_x_propagates_through_capacitors():
    n = net(".input a\n.input b\nMn y a GND nfet 19 0 1\nMp y b VDD pfet 19 0 1\n"
            "C1 y m 1f\n")
    sigs = steady_state(n, {"a": 0.9, "b": 0.0}, CFG)
    assert sigs["m"].level == "x"
    assert sigs["m"].strength is Strength.CHARGED


def test_pass_gate_carries_a_source_level():
    n = net("V1 h 0.45\n.input c\n.input cb\n"
            "Mtn y c h nfet 19 0 1\nMtp y cb h pfet 19 0 1\n")
    on = steady_state(n, {"c": 0.9, "cb": 0.0}, CFG)
    assert on["y"].level == 0.45
    assert on["y"].strength is Strength.DRIVEN
    off = steady_state(n, {"c": 0.0, "cb": 0.9}, CFG)
    assert off["y"].level == "z"


def test_x_gate_is_non_conducting():
    # y resolves to x; the inverter it feeds must not conduct either way
    n = net(".input a\n.input b\nMn y a GND nfet 19 0 1\nMp y b VDD pfet 19 0 1\n"
            "Mq2 w y GND nfet 19 0 1\nMq1 w y VDD pfet 19 0 1\n")
    sigs = steady_state(n, {"a": 0.9, "b": 0.0}, CFG)
    assert sigs["w"].level == "z"


def test_input_validation():
    n = net(".input a\nMn y a GND nfet 19 0 1\n")
    with pytest.raises(ConfigError):
        steady_state(n, {"ghost": 0.9}, CFG)
    with pytest.raises(ConfigError, match="rail"):
        steady_state(n, {"a": 0.9, "GND": 0.3}, CFG)
    with pytest.raises(ConfigError, match="fixed-source node h"):
        steady_state(net(".input a\nV1 h 0.45\nMn h a GND nfet 19 0 1\n"),
                     {"a": 0.9, "h": 0.1}, CFG)
    with pytest.raises(ConfigError):
        steady_state(n, {}, CFG)          # declared input left unassigned
    for volts in (float("nan"), float("inf"), -float("inf"), None, "abc", "0.9", 10 ** 400):
        with pytest.raises(ConfigError, match=f"input a must be a finite voltage, got {volts!r}"):
            steady_state(n, {"a": volts}, CFG)


def test_sim_config_validation():
    assert [f.name for f in dataclasses.fields(SimConfig)] == ["vdd", "c_out_load"]
    with pytest.raises(ConfigError):
        SimConfig(vdd=0.0)
    with pytest.raises(ConfigError):
        SimConfig(c_out_load=-1e-15)
    for field in ("vdd", "c_out_load"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError, match="finite"):
                SimConfig(**{field: bad})
    assert SimConfig().tol() == pytest.approx(0.09)
    # the voltage map is built once, and is no field: the compile key is unchanged
    cfg = SimConfig(vdd=0.8)
    assert cfg.vmap() is cfg.vmap() and cfg.vmap() == trits.VoltageMap(0.8)
    assert cfg == SimConfig(vdd=0.8) and hash(cfg) == hash(SimConfig(vdd=0.8))
    assert repr(cfg) == "SimConfig(vdd=0.8, c_out_load=1e-15)"


def test_deep_chain_needs_iterations():
    n = net(inverter_chain(10))
    sigs = steady_state(n, {"a": 0.0}, SimConfig())
    assert sigs["n9"].level == 0.0          # ten inversions of a low input


def test_chain_deeper_than_any_sweep_budget_settles():
    # one stage settles per sweep, so this needs over 200 sweeps
    sigs = steady_state(net(inverter_chain(200)), {"a": 0.0}, CFG)
    assert sigs["n199"].level == 0.0
    assert sigs["n198"].level == pytest.approx(0.9)


# three inverters in a ring, kicked through a capacitor from the input
RING = (".input a\nC0 a n0 1f\n"
        "M0p n1 n0 VDD pfet 19 0 1\nM0n n1 n0 GND nfet 19 0 1\n"
        "M1p n2 n1 VDD pfet 19 0 1\nM1n n2 n1 GND nfet 19 0 1\n"
        "M2p n0 n2 VDD pfet 19 0 1\nM2n n0 n2 GND nfet 19 0 1\n")


def test_ring_oscillator_reports_its_limit_cycle():
    n = net(RING)
    for _ in range(2):      # cold, then from the region tables the first call filled
        with pytest.raises(NonConvergent) as e:
            steady_state(n, {"a": 0.0}, CFG)
        assert str(e.value) == "no fixpoint: limit cycle of period 6 sweeps, changing n0"
        assert (e.value.period, e.value.changing) == (6, ("n0",))
        assert all(region.table for part in n._compiled.regions.values()
                   for region in part.regions)


def test_a_limit_cycle_names_eight_nodes_and_counts_the_rest():
    rings = "".join(f"X{k} a ring\n" for k in range(10))
    n = net(".input a\n.subckt ring a\n" + RING.removeprefix(".input a\n") + ".ends\n" + rings)
    with pytest.raises(NonConvergent) as e:
        steady_state(n, {"a": 0.0}, CFG)
    assert str(e.value) == ("no fixpoint: limit cycle of period 6 sweeps, changing "
                            + ", ".join(f"X{k}.n0" for k in range(8)) + " and 2 more")
    assert len(e.value.changing) == 10


def test_two_trit_ripple_adds_match_ripple_add():
    # 0 + 4 + carry 2 (a0 a1 = 0 0, b0 b1 = 1 1) cycled with period 7 while
    # the rails joined both stages into one channel group
    n = parse(ripple_text(2))
    levels = CFG.vmap().levels()
    for a, b, cin in itertools.product(range(9), range(9), range(3)):
        av, bv = trits.from_integer(a, 2), trits.from_integer(b, 2)
        inputs = {f"{p}{i}": levels[v[i]] for p, v in (("a", av), ("b", bv)) for i in range(2)}
        sigs = steady_state(n, {**inputs, "c0": levels[cin]}, CFG)
        total, carry = trits.ripple_add(av, bv, cin)
        assert [sim_symbol(sigs[node], CFG) for node in ("s0", "s1", "c2")] == \
            [str(int(t)) for t in (*total, carry)], (a, b, cin)


def test_deep_chain_settles_and_is_timed():
    # each stage is a region, settled once its input has; each probe adds
    # c_out_load, 1 fF, to its node's capacitance
    n = net(inverter_chain(1200) + "".join(f".probe n{k}\n" for k in range(1200)))
    sigs = steady_state(n, {"a": 0.0}, CFG)
    assert sigs["n1199"] == Signal(0.0, Strength.DRIVEN)
    assert sigs["n1198"] == Signal(0.9, Strength.DRIVEN)
    assert delay_estimate(n, "n1199", CFG, {"a": 0.0}) == pytest.approx(1200 * 30e3 * 1e-15)


def test_a_chain_with_a_capacitor_per_stage_settles_and_is_timed():
    # swept all at once from all-'z', every stage behind the settled front
    # flipped on each sweep, which took seconds at this depth
    n = net(inverter_chain(1200, cap="1f"))
    sigs = steady_state(n, {"a": 0.0}, CFG)
    assert sigs["n1199"] == Signal(0.0, Strength.DRIVEN)
    assert sigs["n1198"] == Signal(0.9, Strength.DRIVEN)
    assert delay_estimate(n, "n1199", CFG, {"a": 0.0}) == pytest.approx(1200 * 30e3 * 1e-15)


def test_a_chain_evaluates_fets_in_proportion_to_its_depth(monkeypatch):
    evaluations = 0

    def counted(*args, _real=sim.switch_on):
        nonlocal evaluations
        evaluations += 1
        return _real(*args)
    monkeypatch.setattr(sim, "switch_on", counted)
    counts = []
    for depth in (300, 600):
        monkeypatch.setattr(sim, "_TABLES", sim._Tables())     # cold: the chains share their shapes
        evaluations = 0
        steady_state(net(inverter_chain(depth, cap="1f")), {"a": 0.0}, CFG)
        counts.append(evaluations)
    assert counts[1] <= 2.1 * counts[0]


def test_a_chain_solve_peaks_in_proportion_to_its_depth():
    # a record of the whole conducting set per sweep grew with depth squared
    peaks = []
    for depth in (2000, 4000):
        n = net(inverter_chain(depth))
        tracemalloc.start()
        try:
            steady_state(n, {"a": 0.0}, CFG)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0]


def test_deep_chain_timing_does_not_recurse():
    # The last stage drives the smallest node name, so it is timed first,
    # before any stage it waits on; a recursive walk would need about two
    # frames a stage.
    depth = 50
    names = [f"m{depth - k:03d}" for k in range(depth)]
    n = net(inverter_chain(depth, cap="1f", names=names))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + depth)
    try:
        t = delay_estimate(n, names[-1], CFG, {"a": 0.0})
    finally:
        sys.setrecursionlimit(limit)
    assert t == pytest.approx(depth * 30e3 * 1e-15)    # 30 kOhm into 1 fF a stage


def test_sweep_order_independence():
    # the same chain written in reverse device order resolves identically
    fwd = net(inverter_chain(6))
    body = inverter_chain(6).splitlines()
    rev = net("\n".join([body[0]] + body[:0:-1]) + "\n")
    a = steady_state(fwd, {"a": 0.9}, CFG)
    b = steady_state(rev, {"a": 0.9}, CFG)
    assert a == b


def test_charged_level_does_not_depend_on_capacitor_order():
    # floating x shares charge with four pinned neighbours; summed in card
    # order the level read three different last digits over the 24 orders
    cards = ("C1 x VDD 0.1f\n", "C2 x GND 0.2f\n", "C3 x p3 0.3f\n", "C4 x p7 0.7f\n")
    levels = {steady_state(net("V3 p3 0.3\nV7 p7 0.7\n" + "".join(order)), {}, CFG)["x"].level
              for order in itertools.permutations(cards)}
    assert len(levels) == 1
    assert levels.pop() == pytest.approx((0.1 * 0.9 + 0.3 * 0.3 + 0.7 * 0.7) / 1.3)


# --- timing -----------------------------------------------------------------

def test_single_stage_rc_delay():
    # R = 30k / 3 tubes = 10 kOhm, C = 1 fF -> 1e-11 s
    n = net(".input a\nMn y a GND nfet 19 0 3\nC1 y GND 1f\n")
    assert delay_estimate(n, "y", CFG, {"a": 0.9}) == pytest.approx(1e-11)


def test_probe_load_adds_to_node_capacitance():
    n = net(".input a\nMn y a GND nfet 19 0 3\nC1 y GND 1f\n.probe y\n")
    cfg = SimConfig(c_out_load=1e-15)
    assert delay_estimate(n, "y", cfg, {"a": 0.9}) == pytest.approx(2e-11)
    cfg5 = SimConfig(c_out_load=5e-15)
    assert delay_estimate(n, "y", cfg5, {"a": 0.9}) == pytest.approx(6e-11)


def test_two_stage_delays_accumulate():
    n = net(".input a\n"
            "M1p x a VDD pfet 19 0 3\nM1n x a GND nfet 19 0 3\nC1 x GND 1f\n"
            "M2n y x GND nfet 19 0 3\nC2 y GND 1f\n")
    # stage one settles at 1e-11; stage two starts there and adds its own RC
    assert delay_estimate(n, "y", CFG, {"a": 0.0}) == pytest.approx(2e-11)


def test_exhaustive_delay_skips_undriven_combinations():
    n = net(".input a\n"
            "M1p x a VDD pfet 19 0 3\nM1n x a GND nfet 19 0 3\nC1 x GND 1f\n"
            "M2n y x GND nfet 19 0 3\nC2 y GND 1f\n")
    # only a=0 drives y; a=mid shorts stage one to x, a=high floats y
    assert delay_estimate(n, "y", CFG) == pytest.approx(2e-11)


def test_series_devices_sum_resistance():
    n = net(".input a\nMn1 m a GND nfet 19 0 3\nMn2 y a m nfet 19 0 3\nC1 y GND 1f\n")
    # two 10k devices in series into 1 fF, no capacitance on the middle node
    assert delay_estimate(n, "y", CFG, {"a": 0.9}) == pytest.approx(2e-11)


def test_drive_path_takes_the_least_resistance_not_the_fewest_hops():
    # out is driven at 0.9 V from VDD through 30 kOhm and from a through two
    # 10 kOhm devices: 10k * 1 fF on m plus 20k * 2 fF on out, not 30k * 2 fF
    n = net(".input a\nMv out GND VDD pfet 19 0 1\n"
            "Ma m GND a pfet 19 0 3\nMb out GND m pfet 19 0 3\n"
            "C1 m GND 1f\nC2 out GND 2f\n")
    assert steady_state(n, {"a": 0.9}, CFG)["out"] == Signal(0.9, Strength.DRIVEN)
    assert delay_estimate(n, "out", CFG, {"a": 0.9}) == pytest.approx(5e-11)


@pytest.mark.parametrize("length", [50, 2000])
def test_long_pass_chain_sums_elmore_along_the_whole_path(length):
    # 10 kOhm pass devices from GND, 1 fF on every node: 10k * 1f * N * (N + 1) / 2
    n = net("".join(f"M{k} n{k} VDD {'GND' if k == 1 else f'n{k - 1}'} nfet 19 0 3\n"
                    f"C{k} n{k} GND 1f\n" for k in range(1, length + 1)))
    want = 10e3 * 1e-15 * length * (length + 1) / 2
    assert delay_estimate(n, f"n{length}", CFG, {}) == pytest.approx(want)


def test_charged_node_tracks_its_driver():
    n = net(".input a\nC1 a m 1f\n")
    assert delay_estimate(n, "m", CFG, {"a": 0.9}) == 0.0


# an inverter pair drives y; m and k share y's charge through a capacitor
# ladder to GND, k with no driven neighbor of its own
CHARGED_LADDER = (".input a\nMp0 n0 a VDD pfet 19 0 1\nMn0 n0 a GND nfet 19 0 1\n"
                  "C0 n0 GND 5f\nMp1 y n0 VDD pfet 19 0 1\nMn1 y n0 GND nfet 19 0 1\n"
                  "C1 y m 1f\nC2 m k 1f\nC3 k GND 1f\n")


def test_a_charged_node_waits_on_every_driver_of_its_cluster():
    # k settled at 0 s, before n0 and y that set its level, when it waited on
    # its own capacitor neighbors only
    n = net(CHARGED_LADDER)
    sigs = steady_state(n, {"a": 0.9}, CFG)
    assert sigs["m"] == sigs["k"] == Signal(0.44999999999999996, Strength.CHARGED)
    assert [delay_estimate(n, node, CFG, {"a": 0.9}) for node in "ymk"] == \
        [1.8000000000000002e-10] * 3
    w = transient(n, [(0.0, {"a": 0.0}), (1e-9, {"a": 0.9})], CFG)
    assert [(e.time, e.node) for e in w.events] == [
        (1e-9, "a"), (1.1500000000000002e-09, "n0"), (1.18e-9, "k"), (1.18e-9, "m"),
        (1.18e-9, "y")]


def test_a_charged_node_joined_by_a_channel_waits_on_its_cluster():
    # k is charged with m through a conducting pass FET and has no capacitor;
    # it read 0 s, and its event landed before those of y and m, when the
    # cluster followed capacitors only
    n = net(".input a\nMp y a VDD pfet 19 0 1\nMn y a GND nfet 19 0 1\n"
            "C1 y m 1f\nC2 m GND 1f\nMx k VDD m nfet 19 0 1\n")
    sigs = steady_state(n, {"a": 0.9}, CFG)
    assert sigs["m"] == sigs["k"] == Signal(0.0, Strength.CHARGED)
    assert [delay_estimate(n, node, CFG, {"a": 0.9}) for node in "ymk"] == [3e-11] * 3
    w = transient(n, [(0.0, {"a": 0.9}), (1e-9, {"a": 0.0})], CFG)
    assert [(e.time, e.node) for e in w.events] == [
        (1e-9, "a"), (1.03e-09, "k"), (1.03e-09, "m"), (1.03e-09, "y")]


def test_one_read_times_every_node_of_a_charged_ladder():
    # the cluster settles all its members at once, so timing each node of a
    # ladder stays linear in its length
    depth = 2000
    n = net(".input a\nMp y a VDD pfet 19 0 1\nMn y a GND nfet 19 0 1\nC0 y m0 1f\n"
            + "".join(f"C{k} m{k - 1} m{k} 1f\n" for k in range(1, depth))
            + f"C{depth} m{depth - 1} GND 1f\n")
    t = delay_estimate(n, f"m{depth - 1}", CFG, {"a": 0.0})
    assert t == delay_estimate(n, "y", CFG, {"a": 0.0}) == pytest.approx(30e3 * 1e-15)
    comp = n._compiled
    (solve,) = comp.solves.values()
    assert all(solve.memo[comp.index[f"m{k}"]] == t for k in range(depth))


# Three timing ties that read device order or node names.  ROADMAP item 2 is
# to replace them on purpose with a rule that reads neither; until then these
# pin them, so that a change to the forest cannot move them silently.
def test_parallel_fets_tie_on_the_one_listed_first():
    base = ".input a\nMp g GND VDD pfet 19 0 3\nC1 g GND 1f\nC2 y GND 1f\n"
    first, second = "Mn1 y a GND nfet 19 0 3\n", "Mn2 y g GND nfet 19 0 3\n"
    assert delay_estimate(net(base + first + second), "y", CFG, {"a": 0.9}) == \
        1.0000000000000001e-11
    assert delay_estimate(net(base + second + first), "y", CFG, {"a": 0.9}) == \
        2.0000000000000002e-11


def test_parallel_paths_tie_on_the_middle_node_named_first():
    paths = (".input a\n.probe y\nMu1 p a VDD pfet 19 0 3\nMv1 y a p pfet 19 0 3\n"
             "Mu2 q a VDD pfet 19 0 3\nMv2 y a q pfet 19 0 3\n")
    p_light, q_light = "C1 p GND 1f\nC2 q GND 5f\n", "C1 q GND 1f\nC2 p GND 5f\n"
    assert delay_estimate(net(paths + p_light), "y", CFG, {"a": 0.0}) == 3e-11
    assert delay_estimate(net(paths + q_light), "y", CFG, {"a": 0.0}) == 7.000000000000002e-11


def test_feeds_from_two_pins_tie_on_the_pin_named_first():
    # y is fed through equal FETs from the inputs p and q; the one from the
    # pin named first wins, whichever FET is listed first
    base = ".input p\n.input q\nMp g GND VDD pfet 19 0 3\nC1 g GND 1f\nC2 y GND 1f\n"
    slow, fast = "Mn1 y g {} nfet 19 0 3\n", "Mn2 y VDD {} nfet 19 0 3\n"
    for first, second, want in (("q", "p", 1.0000000000000001e-11),
                                ("p", "q", 2.0000000000000002e-11)):
        n = net(base + slow.format(first) + fast.format(second))
        assert delay_estimate(n, "y", CFG, {"p": 0.0, "q": 0.0}) == want


def test_delay_errors():
    n = net(".input a\nMn y a GND nfet 19 0 3\n")
    with pytest.raises(NoPath):
        delay_estimate(n, "ghost", CFG, {"a": 0.9})
    # with the switch off and no capacitor anywhere, y floats outright
    with pytest.raises(NoPath):
        delay_estimate(n, "y", CFG, {"a": 0.0})
    many = net("".join(f".input i{k}\n" for k in range(7)) +
               "".join(f"C{k} i{k} m 1f\n" for k in range(7)))
    with pytest.raises(ConfigError):
        delay_estimate(many, "m", CFG)              # exhaustive over 7 inputs


def test_never_driven_output_raises():
    # a (1, 0) tube has a threshold far above the supply, so the switch
    # cannot turn on at any logic level and the output is never driven
    n = net(".input a\nMn y a GND nfet 1 0 1\n")
    with pytest.raises(NoPath):
        delay_estimate(n, "y", CFG)


def test_explicit_inputs_that_leave_the_output_x_raise():
    # a pulls y to GND against a pull-up that is always on
    n = net(".input a\nMn y a GND nfet 19 0 3\nMo y GND VDD pfet 19 0 3\n.probe y\n")
    assert steady_state(n, {"a": 0.9}, CFG)["y"] == Signal("x", Strength.DRIVEN)
    with pytest.raises(NoPath, match=r"^output y is not driven$"):
        delay_estimate(n, "y", CFG, {"a": 0.9})


def test_keeper_timing_cycle_raises_nopath():
    # m's fastest pull-down waits on gate n, and n's pull-up waits on gate m;
    # the walk from n meets n again first
    keeper = net(".input s\nMP n m VDD pfet 19 0 3\nMN m n GND nfet 19 0 3\n"
                 "Ms m s GND nfet 19 0 1\n.probe n\n")
    with pytest.raises(NoPath, match=r"^timing cycle through node n$"):
        delay_estimate(keeper, "n", CFG, {"s": 0.9})


# the keeper above beside an inverter y that waits on nothing in it
KEEPER_AND_INVERTER = (".input s\n.input a\nMP n m VDD pfet 19 0 3\nMN m n GND nfet 19 0 3\n"
                       "Ms m s GND nfet 19 0 1\nMp2 y a VDD pfet 19 0 3\n"
                       "Mn2 y a GND nfet 19 0 3\n.probe n\n.probe y\n")


def test_a_timing_cycle_blocks_only_the_nodes_that_wait_on_it():
    n = net(KEEPER_AND_INVERTER)
    assert delay_estimate(n, "y", CFG, {"s": 0.9, "a": 0.0}) == 1.0000000000000001e-11
    w = transient(net(KEEPER_AND_INVERTER),
                  [(0.0, {"s": 0.9, "a": 0.0}), (1e-9, {"a": 0.9})], CFG)
    assert [(e.time, e.node) for e in w.events] == [(1e-9, "a"), (1.01e-9, "y")]


def test_a_timing_read_does_not_depend_on_the_reads_before_it():
    def read(n, node):
        try:
            return delay_estimate(n, node, CFG, {"s": 0.9, "a": 0.0})
        except NoPath as e:
            return str(e)

    n = net(KEEPER_AND_INVERTER)
    got = [read(n, node) for node in "nynm"]
    assert got == [read(net(KEEPER_AND_INVERTER), node) for node in "nynm"]
    assert got == ["timing cycle through node n", 1.0000000000000001e-11,
                   "timing cycle through node n", "timing cycle through node m"]


def test_a_timing_cycle_names_the_gate_reached_along_the_branch():
    # a's branch runs GND -> m -> a through gates z and VDD.  Gate z is charged
    # from m, and m's branch waits on z again, so the cycle names z; a walk that
    # waited on m's arrival before a's gates would name m instead.
    n = net("M1 m z GND nfet 19 0 3\nM2 a VDD m nfet 19 0 3\nC1 z m 1f\nC2 z VDD 9f\n"
            ".probe a\n")
    with pytest.raises(NoPath, match=r"^timing cycle through node z$"):
        delay_estimate(n, "a", CFG, {})


# --- events -----------------------------------------------------------------

def test_transient_single_inverter():
    n = net(".input a\nMp x a VDD pfet 19 0 3\nMn x a GND nfet 19 0 3\nC1 x GND 1f\n")
    w = transient(n, [(0.0, {"a": 0.0}), (1e-9, {"a": 0.9})], CFG)
    assert w.initial_levels["x"] == pytest.approx(0.9)
    assert [e.node for e in w.events] == ["a", "x"]
    ea, ex = w.events
    assert ea.time == pytest.approx(1e-9)
    assert ea.energy == 0.0                          # no capacitance on the pin
    assert ex.time == pytest.approx(1e-9 + 1e-11)
    assert (ex.old, ex.new) == (pytest.approx(0.9), 0.0)
    assert ex.energy == pytest.approx(0.5 * 1e-15 * 0.81)


def test_transient_measures_a_move_from_the_last_emitted_level():
    # a move of 1e-12 V or less emits nothing, at the pin or at the node it
    # charges, and the next move is measured from the level last emitted
    n = net(".input a\nC1 a y 1f\nC2 y GND 1f\n")
    stimulus = [(0.0, {"a": 0.0}), (1e-9, {"a": 1e-12})]
    assert transient(n, stimulus, CFG).events == []
    w = transient(n, stimulus + [(2e-9, {"a": 1.5e-12})], CFG)
    assert [(e.time, e.node, e.old, e.new) for e in w.events] == [(2e-9, "a", 0.0, 1.5e-12)]
    assert w.events[0].energy == pytest.approx(0.5 * 1e-15 * 1.5e-12 ** 2)


def test_transient_validates_stimulus():
    n = net(".input a\nMn y a GND nfet 19 0 3\n")
    with pytest.raises(ConfigError):
        transient(n, [], CFG)
    with pytest.raises(ConfigError):
        transient(n, [(0.0, {"a": 0.0}), (0.0, {"a": 0.9})], CFG)


@pytest.mark.parametrize("call", [
    lambda: SimConfig(vdd="0.9"),
    lambda: SimConfig(c_out_load=None),
    lambda: measure(Waveform(), "1"),
    lambda: transient(net(".input a\nMn y a GND nfet 19 0 3\n"), [("0", {"a": 0.9})], CFG),
], ids=["vdd", "c_out_load", "duration", "stimulus-time"])
def test_a_value_that_is_not_a_number_is_a_config_error(call):
    with pytest.raises(ConfigError, match="finite"):
        call()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_transient_rejects_non_finite_times(bad):
    n = net(".input a\nMn y a GND nfet 19 0 3\n")
    for times in ((0.0, bad), (bad, 1e-9), (bad,)):
        with pytest.raises(ConfigError, match="finite"):
            transient(n, [(t, {"a": 0.9}) for t in times], CFG)


def _count_solves(monkeypatch) -> list:
    calls = []

    def counted(*args, _real=sim._solve):
        calls.append(args)
        return _real(*args)
    monkeypatch.setattr(sim, "_solve", counted)
    return calls


# an sti cell driven 0, 2, 0, 2; frozen from the solver that re-solved every edge
STI_0202_EVENTS = [
    (1e-09, "in", 0.0, 0.9, 0.0),
    (1.0010000000000002e-09, "snti", 0.9, 0.0, 4.0500000000000005e-17),
    (1.0010000000000002e-09, "sonx", "z", 0.9, 0.0),
    (1.0010000000000002e-09, "spti", 0.9, 0.0, 4.0500000000000005e-17),
    (1.002e-09, "sptib", 0.0, 0.9, 4.0500000000000005e-17),
    (1.01e-09, "out", 0.9, 0.0, 4.0500000000000007e-16),
    (2e-09, "in", 0.9, 0.0, 0.0),
    (2e-09, "sonx", 0.9, "z", 0.0),
    (2.001e-09, "snti", 0.0, 0.9, 4.0500000000000005e-17),
    (2.001e-09, "spti", 0.0, 0.9, 4.0500000000000005e-17),
    (2.0020000000000003e-09, "sptib", 0.9, 0.0, 4.0500000000000005e-17),
    (2.0100000000000003e-09, "out", 0.0, 0.9, 4.0500000000000007e-16),
    (3e-09, "in", 0.0, 0.9, 0.0),
    (3.001e-09, "snti", 0.9, 0.0, 4.0500000000000005e-17),
    (3.001e-09, "sonx", "z", 0.9, 0.0),
    (3.001e-09, "spti", 0.9, 0.0, 4.0500000000000005e-17),
    (3.002e-09, "sptib", 0.0, 0.9, 4.0500000000000005e-17),
    (3.01e-09, "out", 0.9, 0.0, 4.0500000000000007e-16),
]


def test_transient_solves_a_revisited_assignment_once(monkeypatch):
    calls = _count_solves(monkeypatch)
    stimulus = [(0.0, {"in": 0.0}), (1e-9, {"in": 0.9}), (2e-9, {"in": 0.0}),
                (3e-9, {"in": 0.9})]
    w = transient(build_sti(), stimulus, CFG)
    assert len(calls) == 2
    assert [tuple(e) for e in w.events] == STI_0202_EVENTS


def test_a_zero_volt_pin_is_unsigned(monkeypatch):
    # y is pulled to GND and to a -0.0 V source; its level must not depend on
    # the source node's name
    for src in ("p", "A"):
        n = net(f"V1 {src} -0.0\nM1 y VDD {src} nfet 19 0 3\nM2 y VDD GND nfet 19 0 3\n")
        assert repr(steady_state(n, {}, CFG)["y"].level) == "0.0"
    # a -0.0 V input is the same assignment as 0.0 V, so it is solved once
    calls = _count_solves(monkeypatch)
    n = net(".input a\nMp x a VDD pfet 19 0 3\nMn x a GND nfet 19 0 3\nC1 x GND 1f\n")
    stimulus = [(0.0, {"a": 0.9}), (1e-9, {"a": -0.0}), (2e-9, {"a": 0.9}), (3e-9, {"a": 0.0})]
    w = transient(n, stimulus, CFG)
    assert len(calls) == 2
    assert [(e.node, repr(e.new)) for e in w.events if e.node == "a"] == [
        ("a", "0.0"), ("a", "0.9"), ("a", "0.0")]


def test_steady_state_result_is_the_callers_own(monkeypatch):
    n = build_sti()
    calls = _count_solves(monkeypatch)
    first = steady_state(n, {"in": 0.9}, CFG)
    want = dict(first)
    first["out"] = "mutated"
    del first["in"]
    assert steady_state(n, {"in": 0.9}, CFG) == want
    assert len(calls) == 1
    # a later solve starts from that one and carries its Signals
    later = steady_state(n, {"in": 0.0}, CFG)
    assert len(calls) == 2
    assert later == steady_state(build_sti(), {"in": 0.0}, CFG)


def test_a_solve_is_kept_through_the_next_call_only(monkeypatch):
    calls = _count_solves(monkeypatch)
    n = build_sti()
    for volts in (0.0, 0.45, 0.9, 0.0):
        steady_state(n, {"in": volts}, CFG)
    assert [pins[comp.index["in"]] for comp, pins in calls] == [0.0, 0.45, 0.9, 0.0]
    calls.clear()
    n = build_sti()
    steady_state(n, {"in": 0.0}, CFG)
    delay_estimate(n, "out", CFG, {"in": 0.0})
    assert len(calls) == 1


_INV = (Fet("Mp", Polarity.PFET, Chirality(19, 0), 3, "y", "a", "VDD"),
        Fet("Mn", Polarity.NFET, Chirality(19, 0), 3, "y", "a", "GND"))


def test_a_netlist_changed_in_place_is_compiled_again(monkeypatch):
    compiles = []

    def counted(n, _real=sim.flatten):
        compiles.append(n.name)
        return _real(n)
    monkeypatch.setattr(sim, "flatten", counted)
    n = Netlist("hand", [Instance("X1", ("a", "x"), "cell"),
                         Fet("Mb", Polarity.NFET, Chirality(19, 0), 3, "x", "b", "GND")],
                frozenset({"a"}), {"cell": Subckt("cell", ("a", "y"), _INV)})
    low = {"a": 0.0}
    assert delay_estimate(n, "x", CFG, low) == 0.0
    assert steady_state(n, low, CFG)["x"].level == 0.9
    assert len(compiles) == 1

    n.devices.append(Capacitor("C1", "x", "GND", 1e-15))
    assert delay_estimate(n, "x", CFG, low) == pytest.approx(1e-11)
    n.probes = ("x",)       # adds c_out_load, 1 fF, to x
    assert delay_estimate(n, "x", CFG, low) == pytest.approx(2e-11)
    n.inputs = frozenset({"a", "b"})
    with pytest.raises(ConfigError, match="unassigned input nodes: b"):
        steady_state(n, low, CFG)
    n.subckts["cell"] = Subckt("cell", ("a", "y"), _INV[1:])   # pull-down only
    assert steady_state(n, {"a": 0.0, "b": 0.0}, CFG)["x"] == Signal(0.0, Strength.CHARGED)
    assert len(compiles) == 5
    # the compile key holds every compared field but the name, and each of
    # them is changed in place above; a new field fails here until it joins
    compared = {f.name for f in dataclasses.fields(Netlist) if f.compare}
    assert compared - {"name"} == {"devices", "probes", "inputs", "subckts"}


_SRC = (FixedSource("V1", "p", 0.45), Capacitor("C1", "p", "GND", 1e-15))
_DOTTED = (Capacitor("C1", "p", "b", 1e-15), Capacitor("C2", "p", "a.b", 1e-15))


# a bindings tuple in instances is instance X<k> of the subckt; a device stands as it is
@pytest.mark.parametrize("instances,ports,body,message", [
    ([("a", "x")], None, _INV, "instance X1: unknown subckt nope"),
    ([("a",)], ("a", "y"), _INV, "instance X1: 1 bindings for 2 ports of cell"),
    ([("a", "x", "b")], ("a", "y"), _INV, "instance X1: 3 bindings for 2 ports of cell"),
    ([("a", "x", "b")], ("a", "y", "VDD"), _INV,
     "instance X1: rail port VDD of cell bound to b"),
    # every body is valid here; only the flat copy breaks a rule
    ([("a",), ("a",)], ("p",), _SRC, "device X2.V1: node a has two sources"),
    ([("a",)], ("p",), _SRC, "input a is already driven internally"),
    # X1's internal b would merge with the top-level node X1.b
    ([("a",), Capacitor("C9", "X1.b", "GND", 1e-15)], ("p",), _DOTTED,
     "instance X1: internal node X1.b already names another node"),
    # X1's internal a.b and X1.a's internal b would both be X1.a.b
    ([("a",), Instance("X1.a", ("a",), "cell")], ("p",), _DOTTED,
     "instance X1.a: internal node X1.a.b already names another node"),
], ids=["unknown-subckt", "too-few-bindings", "extra-bindings", "rail-port-rebound",
        "two-instances-source-one-node", "input-driven-inside", "internal-names-top-node",
        "two-internals-one-id"])
def test_a_hand_built_hierarchy_is_checked_before_it_is_flattened(instances, ports, body,
                                                                  message):
    subckts = {} if ports is None else {"cell": Subckt("cell", ports, body)}
    n = Netlist("hand", [Instance(f"X{k}", d, "nope" if ports is None else "cell")
                         if isinstance(d, tuple) else d for k, d in enumerate(instances, 1)],
                frozenset({"a"}), subckts)
    calls = [lambda: flatten(n), n.stats, lambda: steady_state(n, {"a": 0.0}, CFG)]
    if body is _SRC or body is _DOTTED:
        n.validate()        # validate checks bodies; flatten also checks what it built
    else:
        calls.append(n.validate)
    for call in calls:
        with pytest.raises(NetlistSemanticError, match=f"^{re.escape(message)}$"):
            call()


def test_a_call_that_raises_leaves_later_results_identical():
    # the ring's first stage is a NAND of en and n2: it settles with en low
    # and cycles with en high
    text = "* gated ring\n.input en\n" + RING.replace(
        "M2p n0 n2 VDD pfet 19 0 1\nM2n n0 n2 GND nfet 19 0 1\n",
        "M2p n0 n2 VDD pfet 19 0 1\nM2q n0 en VDD pfet 19 0 1\n"
        "M2n n0 n2 m nfet 19 0 1\nM2m m en GND nfet 19 0 1\nC2 n2 GND 1f\n") + ".end\n"
    good = {"a": 0.0, "en": 0.0}
    cycling = {"a": 0.0, "en": 0.9}

    def results(n):
        return steady_state(n, good, CFG), delay_estimate(n, "n2", CFG, good)

    want = results(parse(text))
    n = parse(text)
    results(n)
    failing = [(NonConvergent, lambda: steady_state(n, cycling, CFG)),
               (NonConvergent, lambda: delay_estimate(n, "n2", CFG, cycling)),
               (ConfigError, lambda: steady_state(n, {"ghost": 0.0}, CFG)),
               (NoPath, lambda: delay_estimate(n, "ghost", CFG)),
               (ConfigError, lambda: transient(n, [(0.0, good), (0.0, good)], CFG))]
    for error, call in failing:
        with pytest.raises(error):
            call()
        assert results(n) == want


def test_a_simulated_netlist_is_freed_without_the_cycle_collector():
    # a netlist without subckts is its own flattened form, which the
    # compiled form it keeps must not hold; nor may the timing its solves keep
    # hold the compiled form
    for build, out in ((lambda: build_design(2), "sum"), (lambda: parse(ripple_text(1)), "c1")):
        n = build()
        delay_estimate(n, out, CFG)
        transient(n, sim._exhaustive_stimulus(sorted(n.inputs), CFG.vdd, 1e-9), CFG)
        refs = weakref.ref(n), weakref.ref(n._compiled)
        gc.disable()
        try:
            del n
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


def test_event_times_are_monotone_per_node():
    n = net(".input a\nMp x a VDD pfet 19 0 3\nMn x a GND nfet 19 0 3\nC1 x GND 1f\n")
    stim = [(k * 1e-12, {"a": 0.9 if k % 2 else 0.0}) for k in range(6)]
    w = transient(n, stim, CFG)
    per_node: dict = {}
    for e in w.events:
        assert per_node.get(e.node, -1.0) < e.time
        per_node[e.node] = e.time


def test_measure():
    n = net(".input a\nMp x a VDD pfet 19 0 3\nMn x a GND nfet 19 0 3\nC1 x GND 1f\n")
    w = transient(n, [(0.0, {"a": 0.0}), (1e-9, {"a": 0.9})], CFG)
    power = measure(w, 2e-9)
    assert power == pytest.approx(0.5 * 1e-15 * 0.81 / 2e-9)
    assert measure(w, 4e-9) == pytest.approx(power / 2)


def test_measure_empty_and_invalid():
    assert measure(transient(net(".input a\nMn y a GND nfet 19 0 3\n"),
                             [(0.0, {"a": 0.9})], CFG), 1e-9) == 0.0
    with pytest.raises(ConfigError):
        measure(transient(net(".input a\nMn y a GND nfet 19 0 3\n"),
                          [(0.0, {"a": 0.9})], CFG), 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_measure_rejects_non_finite_numbers(bad):
    w = Waveform([WaveEvent(1e-9, "y", 0.0, 0.9, 1e-16)])
    with pytest.raises(ConfigError, match="finite"):
        measure(w, bad)


def test_waveform_csv_golden():
    n = net(".input a\nMp x a VDD pfet 19 0 3\nMn x a GND nfet 19 0 3\nC1 x GND 1f\n")
    w = transient(n, [(0.0, {"a": 0.0}), (1e-9, {"a": 0.9})], CFG)
    assert waveform_csv(w) == (
        "time_s,node,level_v,energy_j\n"
        "1.000000e-09,a,0.9,0.000000e+00\n"
        "1.010000e-09,x,0.0,4.050000e-16\n"
    )


def test_waveform_vcd_golden():
    n = net(".input a\nMp x a VDD pfet 19 0 3\nMn x a GND nfet 19 0 3\nC1 x GND 1f\n")
    w = transient(n, [(0.0, {"a": 0.0}), (1e-9, {"a": 0.9})], CFG)
    assert waveform_vcd(w, CFG, name="pair") == (
        "$timescale 1ps $end\n"
        "$scope module pair $end\n"
        "$var wire 1 ! GND $end\n"
        '$var wire 1 " VDD $end\n'
        "$var wire 1 # a $end\n"
        "$var wire 1 $ x $end\n"
        "$upscope $end\n"
        "$enddefinitions $end\n"
        "$dumpvars\n"
        "0!\n"
        '2"\n'
        "0#\n"
        "2$\n"
        "$end\n"
        "#1000\n"
        "2#\n"
        "#1010\n"
        "0$\n"
    )


def test_steady_state_symbols_helper():
    n = net(".input a\nMp y a VDD pfet 19 0 3\nMn y a GND nfet 19 0 3\n")
    sigs = steady_state(n, {"a": 0.0}, CFG)
    assert sim_symbol(sigs["y"], CFG) == "2"
    assert sim_symbol(sigs["a"], CFG) == "0"


def test_non_finite_level_prints_as_x():
    assert _trit_symbol(float("nan"), CFG) == "x"
