"""Rank order against the reference: steady_state settles each region once the
regions holding its gates have settled, from all-'z'.  That is not exact by
construction: a pass FET's reference level reads its own region's level, so a
region started from 'z' could reach another fixpoint than the global loop of
tests/reference_sim.py, which sweeps every region from the start.  So the two
are compared on a seeded family wider than the golden corpus: netlists drawn
from a larger node pool, inverter chains with a capacitor on every stage,
uncapped pass chains (one region that settles a stage per sweep), rings
(whose rank graph is cyclic; some gate a FET between two inputs, a region with
no nodes whose flag only the cycle's record reads) and ripple adds."""

import itertools
import random

import reference_sim
from capture_signals import VDDS
from conftest import inverter_chain, ripple_text
from gen_netlists import NODE_POOL, random_netlist
from tritsim import SimConfig, parse

CFG = SimConfig()
LEVELS = CFG.vmap().levels()
POOL = NODE_POOL + [f"m{k}" for k in range(8)]


def _assigns(rng: random.Random, inputs, count: int) -> list[dict[str, float]]:
    return [{node: LEVELS[rng.randrange(3)] for node in sorted(inputs)} for _ in range(count)]


def _ring(length: int, gated: bool, kick: str = "a", extra: tuple[str, ...] = ()) -> str:
    """length inverters in a ring, kicked through a capacitor from input kick;
    gated, the first stage is a NAND of en and the last stage's output; then
    the extra lines."""
    last = f"n{length - 1}"
    lines = [f".input {kick}", f"C0 {kick} n0 1f"]
    if gated:
        lines += [".input en", f"Mgp n0 {last} VDD pfet 19 0 1", "Mgq n0 en VDD pfet 19 0 1",
                  f"Mgn n0 {last} g nfet 19 0 1", "Mgm g en GND nfet 19 0 1"]
    else:
        lines += [f"Mgp n0 {last} VDD pfet 19 0 1", f"Mgn n0 {last} GND nfet 19 0 1"]
    for k in range(1, length):
        lines += [f"M{k}p n{k} n{k - 1} VDD pfet 19 0 1", f"M{k}n n{k} n{k - 1} GND nfet 19 0 1"]
    return "* ring\n" + "\n".join([*lines, *extra]) + "\n.end\n"


def test_random_netlists_from_a_larger_pool_match_the_reference():
    rng = random.Random(2024)
    for i in range(300):
        n = random_netlist(rng, i, POOL)
        for assign in _assigns(rng, n.inputs, 3):
            reference_sim.check(n, assign)


def test_chains_with_a_capacitor_per_stage_match_the_reference():
    for cap in ("1f", None):
        n = parse("* chain\n" + inverter_chain(50, cap) + ".end\n")
        for volts in LEVELS:
            reference_sim.check(n, {"a": volts})


def test_rings_match_the_reference():
    for length in (2, 3, 4, 5):
        for gated in (False, True):
            n = parse(_ring(length, gated))
            for assign in _assigns(random.Random(length), n.inputs, 4):
                reference_sim.check(n, assign)
    # an odd ring drives y, the gate of a FET between the inputs a and b: that
    # FET is a region with no nodes, and only the cycle's record reads its flag
    for length, kick, polarity, vdd in itertools.product((3, 5, 7), "ab", ("nfet", "pfet"),
                                                         VDDS):
        last = f"n{length - 1}"
        n = parse(_ring(length, False, kick, (
            f".input {'b' if kick == 'a' else 'a'}", f"Myp y {last} VDD pfet 19 0 1",
            f"Myn y {last} GND nfet 19 0 1", f"Mpp b y a {polarity} 19 0 1")))
        cfg = SimConfig(vdd=vdd)
        for a, b in itertools.product(cfg.vmap().levels(), repeat=2):
            reference_sim.check(n, {"a": a, "b": b}, cfg)


def test_pass_chains_match_the_reference():
    # one region that needs a sweep per stage: a cap on the sweeps a region
    # in rank order runs would leave the far end of the long chain 'z'
    for stages, polarity, gate, vdd in itertools.product((2, 5, 24), ("nfet", "pfet"),
                                                         ("VDD", "GND", "g"), VDDS):
        lines = [".input a", *[".input g"] * (gate == "g"), f"Md n0 {gate} a {polarity} 19 0 1"]
        lines += [f"M{k} n{k} {gate} n{k - 1} {polarity} 19 0 1" for k in range(1, stages + 1)]
        n = parse("* pass chain\n" + "\n".join(lines) + "\n.end\n")
        cfg = SimConfig(vdd=vdd)
        for levels in itertools.product(cfg.vmap().levels(), repeat=len(n.inputs)):
            reference_sim.check(n, dict(zip(sorted(n.inputs), levels)), cfg)


def test_ripple_adds_match_the_reference():
    rng = random.Random(31)
    for width in (2, 3, 4):
        n = parse(ripple_text(width))
        names = [f"{p}{i}" for p in "ab" for i in range(width)] + ["c0"]
        for assign in _assigns(rng, names, 4):
            reference_sim.check(n, assign)
