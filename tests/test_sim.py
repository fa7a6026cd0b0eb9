"""Switch-level engine: resolution, contention, charge sharing, timing, events.

Timing expectations are frozen by hand from the RC model: a driven node
settles at max(gate arrivals along its drive path) plus the Elmore sum of
accumulated resistance (30 kOhm / tubes per device) times node capacitance.
"""

import dataclasses
import gc
import inspect
import random
import sys
import weakref

import pytest

from conftest import sim_symbol
from tritsim import (Capacitor, Chirality, CnfetInstance, ConfigError, Fet, Instance,
                     Measurement, Netlist, NoPath, NonConvergent, Polarity, Signal, SimConfig,
                     Strength, Subckt, WaveEvent, Waveform, build_design, build_sti,
                     delay_estimate, measure, parse, serialize, sim, steady_state, transient,
                     waveform_csv, waveform_vcd)
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
    for volts in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="finite"):
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


def _inverter_chain(depth: int, cap: str | None = None,
                    names: list[str] | None = None) -> str:
    """depth inverters from input a; stage k drives names[k], n{k} by default."""
    lines = [".input a"]
    prev = "a"
    for k in range(depth):
        out = names[k] if names else f"n{k}"
        lines.append(f"M{k}p {out} {prev} VDD pfet 19 0 1")
        lines.append(f"M{k}n {out} {prev} GND nfet 19 0 1")
        if cap:
            lines.append(f"C{k} {out} GND {cap}")
        prev = out
    return "\n".join(lines) + "\n"


def test_deep_chain_needs_iterations():
    n = net(_inverter_chain(10))
    sigs = steady_state(n, {"a": 0.0}, SimConfig())
    assert sigs["n9"].level == 0.0          # ten inversions of a low input


def test_chain_deeper_than_any_sweep_budget_settles():
    # one stage settles per sweep, so this needs over 200 sweeps
    sigs = steady_state(net(_inverter_chain(200)), {"a": 0.0}, CFG)
    assert sigs["n199"].level == 0.0
    assert sigs["n198"].level == pytest.approx(0.9)


# three inverters in a ring, kicked through a capacitor from the input
RING = (".input a\nC0 a n0 1f\n"
        "M0p n1 n0 VDD pfet 19 0 1\nM0n n1 n0 GND nfet 19 0 1\n"
        "M1p n2 n1 VDD pfet 19 0 1\nM1n n2 n1 GND nfet 19 0 1\n"
        "M2p n0 n2 VDD pfet 19 0 1\nM2n n0 n2 GND nfet 19 0 1\n")


def test_ring_oscillator_reports_its_limit_cycle():
    with pytest.raises(NonConvergent) as e:
        steady_state(net(RING), {"a": 0.0}, CFG)
    assert str(e.value) == "no fixpoint: limit cycle of period 6 sweeps, changing n0"
    assert (e.value.period, e.value.changing) == (6, ("n0",))


def _ripple(width: int) -> str:
    """A width-trit ripple adder of design2 cells, one subcircuit per trit."""
    cell = [line for line in serialize(build_design(2)).splitlines()[1:]
            if not line.startswith((".input", ".probe", ".end"))]
    return "\n".join([f"* ripple{width}",
                      *(f".input {p}{i}" for p in "ab" for i in range(width)), ".input c0",
                      ".subckt add a b cin sum cout", *cell, ".ends",
                      *(f"X{i} a{i} b{i} c{i} s{i} c{i + 1} add" for i in range(width)),
                      ".end"]) + "\n"


def test_unsettled_ripple_add_reports_its_period():
    # 0 + 4 + carry 2 on two trits: a0 a1 = 0 0, b0 b1 = 1 1
    inputs = {"a0": 0.0, "a1": 0.0, "b0": 0.45, "b1": 0.45, "c0": 0.9}
    with pytest.raises(NonConvergent, match="limit cycle of period 7 sweeps, changing X0.e1, ") \
            as e:
        steady_state(parse(_ripple(2)), inputs, CFG)
    assert e.value.period == 7
    assert len(e.value.changing) == 18
    assert str(e.value).endswith(", ".join(e.value.changing[:8]) + " and 10 more")


def test_deep_chain_timing_does_not_recurse():
    # The last stage drives the smallest node name, so it is timed first,
    # before any stage it waits on; a recursive walk would need about two
    # frames a stage.
    depth = 50
    names = [f"m{depth - k:03d}" for k in range(depth)]
    n = net(_inverter_chain(depth, cap="1f", names=names))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + depth)
    try:
        t = delay_estimate(n, names[-1], CFG, {"a": 0.0})
    finally:
        sys.setrecursionlimit(limit)
    assert t == pytest.approx(depth * 30e3 * 1e-15)    # 30 kOhm into 1 fF a stage


def test_sweep_order_independence():
    # the same chain written in reverse device order resolves identically
    fwd = net(_inverter_chain(6))
    body = _inverter_chain(6).splitlines()
    rev = net("\n".join([body[0]] + body[:0:-1]) + "\n")
    a = steady_state(fwd, {"a": 0.9}, CFG)
    b = steady_state(rev, {"a": 0.9}, CFG)
    assert a == b


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


def test_charged_node_tracks_its_driver():
    n = net(".input a\nC1 a m 1f\n")
    assert delay_estimate(n, "m", CFG, {"a": 0.9}) == 0.0


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


def test_transient_validates_stimulus():
    n = net(".input a\nMn y a GND nfet 19 0 3\n")
    with pytest.raises(ConfigError):
        transient(n, [], CFG)
    with pytest.raises(ConfigError):
        transient(n, [(0.0, {"a": 0.0}), (0.0, {"a": 0.9})], CFG)


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


def test_transient_keeps_the_sign_of_a_revisited_zero_input():
    n = net(".input a\nMp x a VDD pfet 19 0 3\nMn x a GND nfet 19 0 3\nC1 x GND 1f\n")
    stimulus = [(0.0, {"a": 0.9}), (1e-9, {"a": -0.0}), (2e-9, {"a": 0.9}), (3e-9, {"a": 0.0})]
    w = transient(n, stimulus, CFG)
    assert [(e.node, repr(e.new)) for e in w.events if e.node == "a"] == [
        ("a", "-0.0"), ("a", "0.9"), ("a", "0.0")]


def test_steady_state_result_is_the_callers_own(monkeypatch):
    n = build_sti()
    calls = _count_solves(monkeypatch)
    first = steady_state(n, {"in": 0.9}, CFG)
    want = dict(first)
    first["out"] = "mutated"
    del first["in"]
    assert steady_state(n, {"in": 0.9}, CFG) == want
    assert len(calls) == 1


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


def test_a_netlist_changed_in_place_is_compiled_again(monkeypatch):
    compiles = []

    def counted(n, _real=sim.flatten):
        compiles.append(n.name)
        return _real(n)
    monkeypatch.setattr(sim, "flatten", counted)
    inv = (Fet("Mp", CnfetInstance(Polarity.PFET, Chirality(19, 0), 3, "y", "a", "VDD")),
           Fet("Mn", CnfetInstance(Polarity.NFET, Chirality(19, 0), 3, "y", "a", "GND")))
    n = Netlist("hand", [Instance("X1", ("a", "x"), "cell"),
                         Fet("Mb", CnfetInstance(Polarity.NFET, Chirality(19, 0), 3,
                                                 "x", "b", "GND"))],
                frozenset({"a"}), {"cell": Subckt("cell", ("a", "y"), inv)})
    low = {"a": 0.0}
    assert delay_estimate(n, "x", CFG, low) == 0.0
    assert steady_state(n, low, CFG)["x"].level == 0.9
    assert len(compiles) == 1

    n.devices.append(Capacitor("C1", "x", "GND", 1e-15))
    assert delay_estimate(n, "x", CFG, low) == pytest.approx(1e-11)
    n.inputs = frozenset({"a", "b"})
    with pytest.raises(ConfigError, match="unassigned input nodes: b"):
        steady_state(n, low, CFG)
    n.subckts["cell"] = Subckt("cell", ("a", "y"), inv[1:])   # pull-down only
    assert steady_state(n, {"a": 0.0, "b": 0.0}, CFG)["x"] == Signal(0.0, Strength.CHARGED)
    assert len(compiles) == 4


def test_a_call_that_raises_leaves_later_results_identical():
    text = _ripple(2)
    good = {"a0": 0.9, "a1": 0.0, "b0": 0.45, "b1": 0.0, "c0": 0.0}
    cycling = {"a0": 0.0, "a1": 0.0, "b0": 0.45, "b1": 0.45, "c0": 0.9}

    def results(n):
        return steady_state(n, good, CFG), delay_estimate(n, "c2", CFG, good)

    want = results(parse(text))
    n = parse(text)
    results(n)
    failing = [(NonConvergent, lambda: steady_state(n, cycling, CFG)),
               (NonConvergent, lambda: delay_estimate(n, "c2", CFG, cycling)),
               (ConfigError, lambda: steady_state(n, {"ghost": 0.0}, CFG)),
               (NoPath, lambda: delay_estimate(n, "ghost", CFG)),
               (ConfigError, lambda: transient(n, [(0.0, good), (0.0, good)], CFG))]
    for error, call in failing:
        with pytest.raises(error):
            call()
        assert results(n) == want


def test_a_simulated_netlist_is_freed_without_the_cycle_collector():
    # a netlist without subckts is its own flattened form, which the
    # compiled form it keeps must not hold
    for build, out in ((lambda: build_design(2), "sum"), (lambda: parse(_ripple(1)), "c1")):
        n = build()
        delay_estimate(n, out, CFG)
        ref = weakref.ref(n)
        gc.disable()
        try:
            del n
            assert ref() is None
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
    m = measure(w, 2e-9)
    assert m.avg_power == pytest.approx(0.5 * 1e-15 * 0.81 / 2e-9)
    assert m.worst_delay == pytest.approx(1e-11)
    assert m.pdp == pytest.approx(m.avg_power * m.worst_delay)
    assert measure(w, 4e-9).avg_power == pytest.approx(m.avg_power / 2)


def test_measure_empty_and_invalid():
    assert measure(transient(net(".input a\nMn y a GND nfet 19 0 3\n"),
                             [(0.0, {"a": 0.9})], CFG), 1e-9) == Measurement(0, 0, 0)
    with pytest.raises(ConfigError):
        measure(transient(net(".input a\nMn y a GND nfet 19 0 3\n"),
                          [(0.0, {"a": 0.9})], CFG), 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_measure_rejects_non_finite_numbers(bad):
    w = Waveform([WaveEvent(1e-9, "y", 0.0, 0.9, 1e-16)], [0.0, 1e-9])
    with pytest.raises(ConfigError, match="finite"):
        measure(w, bad)
    w.edge_times.append(bad)
    with pytest.raises(ConfigError, match="finite"):
        measure(w, 2e-9)


def test_measure_matches_a_scan_over_any_edge_list():
    """Each event's edge is the latest edge time at or before it (0.0 when
    none is), whatever the order of edge_times or repeats in it."""
    def scan(w, duration):
        power = sum(e.energy for e in w.events) / duration
        worst = 0.0
        for e in w.events:
            edge = max((t for t in w.edge_times if t <= e.time), default=0.0)
            worst = max(worst, e.time - edge)
        return Measurement(power, worst, power * worst)

    rng = random.Random(7)
    for _ in range(300):
        edges = [rng.choice((0.0, -0.0, 1e-9, 2e-9, 3.5e-9, rng.uniform(-1e-9, 5e-9)))
                 for _ in range(rng.randrange(6))]
        events = [WaveEvent(rng.choice(edges + [rng.uniform(-2e-9, 6e-9)]), "y", 0.0, 0.9,
                            rng.uniform(0, 1e-15)) for _ in range(rng.randrange(1, 6))]
        w = Waveform(events, edges)
        assert repr(measure(w, 5e-9)) == repr(scan(w, 5e-9))


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
