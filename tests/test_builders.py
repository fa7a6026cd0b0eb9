"""Structural netlists: cells and both adder variants, against the behavioral
model, across the validated supply envelope, plus fixture synchronization."""

import dataclasses
import itertools
import random

import pytest

from conftest import sim_trits
from tritsim import (BuildConfig, Chirality, ConfigError, DesignVariant, FIXTURE_NAMES,
                     SimConfig, TernaryCellKind, VoltageMap, adder_eval, build_design,
                     build_nti, build_pti, build_sti, build_tgate, cell_eval,
                     delay_estimate, fixture_text, full_add, is_semiconducting,
                     load_fixture, OutOfRange, pick_chirality, serialize, steady_state,
                     threshold_voltage, truth_table_csv)
from tritsim.builders import HIGH_VTH, LOW_VTH

SUPPLIES = (0.8, 0.9, 1.0)


def _exhaustive(variant, vdd: float):
    net = build_design(variant, BuildConfig(vdd=vdd))
    cfg = SimConfig(vdd=vdd)
    levels = VoltageMap(vdd).levels()
    rows = []
    for a, b, c in itertools.product(range(3), repeat=3):
        sigs = steady_state(net, {"a": levels[a], "b": levels[b], "cin": levels[c]}, cfg)
        rows.append(((a, b, c), sim_trits(sigs, cfg, "sum", "cout")))
    return rows


# --- configuration ----------------------------------------------------------

def test_build_config_validates_supply_envelope():
    for vdd in (0.5, 1.2):
        with pytest.raises(ConfigError):
            BuildConfig(vdd=vdd)
    BuildConfig(vdd=0.6)
    BuildConfig(vdd=1.05)


def test_threshold_classes_hold_across_the_supply_envelope():
    for vdd in (0.6, 1.05):
        assert 0 < threshold_voltage(LOW_VTH) < vdd / 2
        assert vdd / 2 < threshold_voltage(HIGH_VTH) < vdd


def test_build_config_validates_scalars():
    assert [f.name for f in dataclasses.fields(BuildConfig)] == ["vdd"]
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError):
            BuildConfig(vdd=bad)


@pytest.mark.parametrize("bad", ["0.9", None])
def test_build_config_rejects_a_vdd_that_is_not_a_number(bad):
    with pytest.raises(ConfigError, match="validated for vdd"):
        BuildConfig(vdd=bad)


def test_unknown_variant_rejected():
    with pytest.raises(OutOfRange):
        build_design("design3")
    with pytest.raises(OutOfRange):
        adder_eval("design3", 0, 0, 0)


# --- chirality selection ----------------------------------------------------

def _table_scan():
    """Every semiconducting chirality up to n1 = 140 with its Vth, in (n1, n2)
    order."""
    return [(threshold_voltage(c), c) for n1 in range(1, 141) for n2 in range(0, n1 + 1)
            if is_semiconducting(c := Chirality(n1, n2))]


def _brute_pick(table, lo, hi):
    if not 0 <= lo < hi:
        return None
    best = None
    for vth, c in table:
        if lo < vth < hi:
            key = (-min(vth - lo, hi - vth), c.n1, c.n2)
            if best is None or key < best[0]:
                best = (key, c)
    return best and best[1]


def test_pick_chirality_maximizes_margin():
    table = _table_scan()
    lo, hi = 0.3, 0.45
    c = pick_chirality(lo, hi)
    assert is_semiconducting(c)
    vth = threshold_voltage(c)
    assert lo < vth < hi
    margin = min(vth - lo, hi - vth)
    # brute re-scan: no candidate does better
    for v, _ in table:
        if lo < v < hi:
            assert min(v - lo, hi - v) <= margin + 1e-15

    # the exact pick of a full scan, tie-break included, over a dense set of
    # windows: every detector window the builders ask for at vdd 0.6..1.05,
    # windows whose ends or midpoint sit on a table Vth, and random ones
    windows = [(a * vdd / 6, (a + 1) * vdd / 6)
               for vdd in (0.6, 0.8, 0.9, 1.0, 1.05, *(0.6 + i * 0.005 for i in range(91)))
               for a in range(6)]
    vths = sorted({v for v, _ in table if v < 1.2})
    for i in range(0, len(vths) - 2, 9):
        v0, v1, v2 = vths[i:i + 3]
        # (2*v0 - v1, v1) and v1 -+ 2**-5 have their midpoints exactly on v0, v1
        windows += [(v0, v2), (v0, v1), (2 * v0 - v1, v1), (v0, 2 * v1 - v0),
                    (v1 - 2 ** -5, v1 + 2 ** -5)]
    rng = random.Random(4)
    windows += [(lo, lo + rng.uniform(1e-4, 0.5))
                for lo in (rng.uniform(0.0, 1.1) for _ in range(200))]
    for lo, hi in windows:
        want = _brute_pick(table, lo, hi)
        if want is None:
            with pytest.raises(ConfigError):
                pick_chirality(lo, hi)
        else:
            assert pick_chirality(lo, hi) == want, (lo, hi)


def test_pick_chirality_is_deterministic():
    assert pick_chirality(0.25, 0.35) == pick_chirality(0.25, 0.35)


def test_pick_chirality_rejects_bad_windows():
    with pytest.raises(ConfigError):
        pick_chirality(0.4, 0.3)
    with pytest.raises(ConfigError):
        pick_chirality(1e-6, 1e-5)       # would need an impossibly wide tube


# --- cells ------------------------------------------------------------------

@pytest.mark.parametrize("build,kind", [
    (build_nti, TernaryCellKind.NTI),
    (build_pti, TernaryCellKind.PTI),
    (build_sti, TernaryCellKind.STI),
])
def test_cell_netlists_match_transfer_tables(build, kind):
    for vdd in SUPPLIES:
        net = build_sti(BuildConfig(vdd=vdd)) if build is build_sti else build()
        cfg = SimConfig(vdd=vdd)
        levels = VoltageMap(vdd).levels()
        for x in range(3):
            sigs = steady_state(net, {"in": levels[x]}, cfg)
            assert sim_trits(sigs, cfg, "out") == (str(int(cell_eval(kind, x))),), \
                f"{kind.value} at vdd={vdd}, in={x}"


def test_tgate_netlist():
    net = build_tgate()
    cfg = SimConfig()
    levels = VoltageMap(0.9).levels()
    for x in range(3):
        sigs = steady_state(net, {"in": levels[x], "c": 0.9, "cb": 0.0}, cfg)
        assert sigs["out"].level == pytest.approx(levels[x])
    off = steady_state(net, {"in": levels[1], "c": 0.0, "cb": 0.9}, cfg)
    assert off["out"].level == "z"


def test_sti_cell_size():
    assert build_sti(BuildConfig()).stats()["cnfets"] == 16


# --- adders -----------------------------------------------------------------

@pytest.mark.parametrize("variant", [DesignVariant.DESIGN1, DesignVariant.DESIGN2])
def test_adders_match_arithmetic_across_supplies(variant):
    for vdd in SUPPLIES:
        for (a, b, c), got in _exhaustive(variant, vdd):
            s, cout = full_add(a, b, c)
            assert got == (str(int(s)), str(int(cout))), \
                f"{variant.value} vdd={vdd} a={a} b={b} cin={c}"


def test_adders_match_behavioral_routing():
    for variant in (DesignVariant.DESIGN1, DesignVariant.DESIGN2):
        for (a, b, c), got in _exhaustive(variant, 0.9):
            s, cout = adder_eval(variant, a, b, c)
            assert got == (str(int(s)), str(int(cout)))


def test_both_variants_agree_everywhere():
    assert _exhaustive(DesignVariant.DESIGN1, 0.9) == \
        _exhaustive(DesignVariant.DESIGN2, 0.9)


def test_structural_sizes():
    d1 = build_design(1, BuildConfig()).stats()
    d2 = build_design(2, BuildConfig()).stats()
    assert d1 == {"cnfets": 91, "capacitors": 33, "sources": 1, "nodes": 46}
    assert d2 == {"cnfets": 59, "capacitors": 21, "sources": 1, "nodes": 32}
    # the switch-level reconstruction keeps the published size ordering
    assert d2["cnfets"] < d1["cnfets"]
    assert d1["capacitors"] > d2["capacitors"]


def test_three_input_capacitors_on_the_averaging_node():
    from tritsim import Capacitor
    for variant in (1, 2):
        net = build_design(variant, BuildConfig())
        shared = [d for d in net.devices
                  if isinstance(d, Capacitor) and "vsum" in (d.a, d.b)]
        assert len(shared) == 3
        assert {d.a for d in shared} == {"a", "b", "cin"}


def test_detectors_retune_with_supply():
    lo = serialize(build_design(2, BuildConfig(vdd=0.8)))
    hi = serialize(build_design(2, BuildConfig(vdd=1.0)))
    assert lo != hi                       # at least one detector picked differently


def test_design2_is_faster_at_every_load():
    d1 = build_design(1, BuildConfig())
    d2 = build_design(2, BuildConfig())
    for load in (1e-15, 2e-15, 3e-15, 4e-15, 5e-15):
        cfg = SimConfig(c_out_load=load)
        t1 = delay_estimate(d1, "sum", cfg)
        t2 = delay_estimate(d2, "sum", cfg)
        assert t2 < t1, f"load {load}: {t2} !< {t1}"


def test_carry_delay_is_finite_for_both():
    for variant in (1, 2):
        net = build_design(variant, BuildConfig())
        assert delay_estimate(net, "cout", SimConfig()) > 0


# --- fixtures ---------------------------------------------------------------

def test_fixtures_are_in_sync_with_builders():
    builders = {
        "design1.tnl": lambda: build_design(1, BuildConfig()),
        "design2.tnl": lambda: build_design(2, BuildConfig()),
        "sti.tnl": lambda: build_sti(BuildConfig()),
        "nti.tnl": build_nti,
        "pti.tnl": build_pti,
        "tgate.tnl": build_tgate,
    }
    assert set(builders) == set(FIXTURE_NAMES)
    for name, build in builders.items():
        assert fixture_text(name) == serialize(build()), f"{name} is stale"


def test_every_builder_output_validates():
    # the builders do not validate; the simulator does, once per netlist
    nets = [build_design(variant, BuildConfig(vdd=vdd))
            for variant in (1, 2) for vdd in (0.6, 0.9, 1.05)]
    nets += [build_sti(BuildConfig()), build_nti(), build_pti(), build_tgate()]
    for net in nets:
        net.validate()


def test_truth_table_fixture_matches_generator():
    assert fixture_text("truth_table.csv") == truth_table_csv()


def test_fixtures_load_as_netlists():
    for name in FIXTURE_NAMES:
        n = load_fixture(name)
        n.validate()
        assert n.stats()["cnfets"] >= 2
