"""Netlist builders for the ternary standard cells and the two full-adder
variants, plus access to the bundled .tnl fixtures.

The adders follow the capacitive-input architecture: three equal capacitors
average the inputs onto a shared sum node with seven levels k * vdd/6, a
detector inverter pair plus an input-referenced all-twos detector band the
node at 2.5 and 5.5 sixths, selector logic routes one of two transmission
gates (or a high-band pulldown) to the sum output, and band cells restore
full swing.  The first variant restores through a shifted inverter followed
by a standard ternary inverter (three sum-path stages including the gate);
the second uses a single shifted buffer stage instead (two stages), which is
where its delay advantage comes from.

Switch-level realities force two documented departures from the published
device totals: every mid-level output is produced by passing an explicit
half-rail source through a transmission gate (a switch model cannot express
the diode-divider trick analog designs use), and the sum-node detectors need
full-swing complementary inverters rather than ratioed stages.  The builders
therefore emit more transistors than the published 55/43; only the ordering
between the variants is preserved.  Detector chiralities are chosen per
supply voltage to center each threshold inside its band gap, the same
multi-threshold design knob the cell library itself is built on.

Every pull-up/pull-down pair on one gate is written by _Builder.inverter,
which takes one chirality per device; a sum-node detector is such a pair
whose two chiralities _sum_detector picks from the sigma levels at which
each device turns on.  The builders do not validate: a netlist is validated
where it enters (parse) and where it is simulated.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from operator import itemgetter

from .cells import DesignVariant, _variant_of
from .cnfet import Chirality, Polarity, is_semiconducting, threshold_voltage
from .errors import ConfigError, _finite
from .netlist import Capacitor, Fet, FixedSource, Netlist, parse

FIXTURE_NAMES = ("design1.tnl", "design2.tnl", "sti.tnl", "nti.tnl", "pti.tnl", "tgate.tnl")


def fixture_text(name: str) -> str:
    """Text of a bundled .tnl fixture (or the golden truth-table CSV)."""
    return resources.files(__package__).joinpath("fixtures").joinpath(name).read_text()


def load_fixture(name: str) -> Netlist:
    return parse(fixture_text(name))


MAX_N1 = 140                # the largest chirality index pick_chirality searches


@lru_cache(maxsize=None)
def _chirality_table() -> list[tuple[float, Chirality]]:
    """Semiconducting chiralities up to n1 = MAX_N1 with their Vth, sorted by
    Vth; the sort is stable, so equal Vths stay in (n1, n2) order."""
    out = []
    for n1 in range(1, MAX_N1 + 1):
        for n2 in range(0, n1 + 1):
            c = Chirality(n1, n2)
            if is_semiconducting(c):
                out.append((threshold_voltage(c), c))
    out.sort(key=itemgetter(0))
    return out


def pick_chirality(lo: float, hi: float) -> Chirality:
    """Semiconducting chirality whose Vth sits inside (lo, hi) with maximal
    margin to both edges.  Deterministic: ties break to the smallest indices."""
    if not 0 <= lo < hi:
        raise ConfigError(f"empty threshold window ({lo}, {hi})")
    table = _chirality_table()

    def margin(i: int) -> float:
        # <= 0 outside the window, > 0 inside it
        return min(table[i][0] - lo, hi - table[i][0])

    # Along the table vth - lo never falls and hi - vth never rises, so the
    # entries with vth - lo <= hi - vth form a prefix, the margin rises up to
    # its end and falls after it, and the entries of maximal margin are one
    # run that touches the prefix's end.
    a = bisect.bisect_left(table, True, key=lambda e: e[0] - lo > hi - e[0])
    around = [i for i in (a - 1, a) if 0 <= i < len(table)]
    best = max(margin(i) for i in around)
    if not best > 0:
        raise ConfigError(f"no semiconducting chirality with Vth in ({lo}, {hi})")
    first = last = next(i for i in around if margin(i) == best)
    while first > 0 and margin(first - 1) == best:
        first -= 1
    while last + 1 < len(table) and margin(last + 1) == best:
        last += 1
    return min((table[i][1] for i in range(first, last + 1)), key=lambda c: (c.n1, c.n2))


# The two stock chirality classes every cell is wired from; the sum-node
# detectors pick their own chiralities per vdd.  LOW_VTH (0.289 V) switches
# below vdd/2 and HIGH_VTH (0.549 V) between vdd/2 and vdd across the whole
# validated supply envelope.
LOW_VTH = Chirality(19, 0)
HIGH_VTH = Chirality(10, 0)
TUBES = 3                   # parallel tubes per device
INPUT_CAP = 1e-15           # each averaging capacitor of the adder front end
PARASITIC_CAP = 1e-16       # on each internal cell node


@dataclass(frozen=True)
class BuildConfig:
    """The supply voltage the builders target: it sets the half rail and the
    detector chiralities.  The builders are validated for vdd in [0.6, 1.05].
    """

    vdd: float = 0.9

    def __post_init__(self):
        if not (_finite(self.vdd) and 0.6 <= self.vdd <= 1.05):
            raise ConfigError(f"builders are validated for vdd in [0.6, 1.05], got {self.vdd!r}")


class _Builder:
    """Accumulates cards.  The netlist is validated where it is simulated."""

    def __init__(self, name: str):
        self.net = Netlist(name, [])

    def fet(self, name: str, drain: str, gate: str, source: str,
            polarity: Polarity, chirality: Chirality):
        self.net.devices.append(Fet(name, polarity, chirality, TUBES, drain, gate, source))

    def cap(self, name: str, a: str, b: str, farads: float):
        self.net.devices.append(Capacitor(name, a, b, farads))

    def source(self, name: str, node: str, volts: float):
        self.net.devices.append(FixedSource(name, node, volts))

    def probe(self, node: str):
        self.net.probes += (node,)

    def mark_inputs(self, *nodes: str):
        self.net.inputs = self.net.inputs | frozenset(nodes)

    def inverter(self, prefix: str, inp: str, out: str, up: Chirality, down: Chirality):
        """Complementary pair on one gate: pull-up of chirality up, pull-down
        of chirality down."""
        self.fet(f"M{prefix}p", out, inp, "VDD", Polarity.PFET, up)
        self.fet(f"M{prefix}n", out, inp, "GND", Polarity.NFET, down)

    def nor2(self, prefix: str, in_a: str, in_b: str, out: str, cls: Chirality):
        mid = f"{prefix}x"
        self.fet(f"M{prefix}p1", mid, in_a, "VDD", Polarity.PFET, cls)
        self.fet(f"M{prefix}p2", out, in_b, mid, Polarity.PFET, cls)
        self.fet(f"M{prefix}n1", out, in_a, "GND", Polarity.NFET, cls)
        self.fet(f"M{prefix}n2", out, in_b, "GND", Polarity.NFET, cls)

    def tgate(self, prefix: str, a: str, b: str, ctrl: str, ctrl_b: str, cls: Chirality):
        self.fet(f"M{prefix}tn", a, ctrl, b, Polarity.NFET, cls)
        self.fet(f"M{prefix}tp", a, ctrl_b, b, Polarity.PFET, cls)


# ---------------------------------------------------------------------------
# standard cells

def build_nti() -> Netlist:
    """Negative ternary inverter: low-Vth pulldown, high-Vth pullup."""
    b = _Builder("nti")
    b.inverter("", "in", "out", HIGH_VTH, LOW_VTH)
    b.mark_inputs("in")
    b.probe("out")
    return b.net


def build_pti() -> Netlist:
    """Positive ternary inverter: high-Vth pulldown, low-Vth pullup."""
    b = _Builder("pti")
    b.inverter("", "in", "out", LOW_VTH, HIGH_VTH)
    b.mark_inputs("in")
    b.probe("out")
    return b.net


def build_tgate() -> Netlist:
    """Transmission gate: parallel low-Vth pair, complementary controls c/cb."""
    b = _Builder("tgate")
    b.tgate("", "out", "in", "c", "cb", LOW_VTH)
    b.mark_inputs("in", "c", "cb")
    b.probe("out")
    return b.net


def _sti_stage(b: _Builder, prefix: str, inp: str, out: str, half: str):
    """Standard ternary inverter on a full-swing trit node.

    Rails via the high-Vth class; the middle level comes from the half rail
    through a transmission gate enabled by a mid-level detector built out of
    an NTI/PTI pair.  16 transistors.
    """
    nti = f"{prefix}nti"
    pti = f"{prefix}pti"
    ptib = f"{prefix}ptib"
    one = f"{prefix}one"
    oneb = f"{prefix}oneb"
    b.fet(f"M{prefix}up", out, inp, "VDD", Polarity.PFET, HIGH_VTH)
    b.fet(f"M{prefix}dn", out, inp, "GND", Polarity.NFET, HIGH_VTH)
    b.inverter(nti, inp, nti, HIGH_VTH, LOW_VTH)
    b.inverter(pti, inp, pti, LOW_VTH, HIGH_VTH)
    b.inverter(f"{prefix}pb", pti, ptib, LOW_VTH, LOW_VTH)
    b.nor2(f"{prefix}on", nti, ptib, one, LOW_VTH)
    b.inverter(f"{prefix}ob", one, oneb, LOW_VTH, LOW_VTH)
    b.tgate(f"{prefix}h", out, half, one, oneb, LOW_VTH)
    for node in (nti, pti, ptib, one, oneb):
        b.cap(f"Cp{node}", node, "GND", PARASITIC_CAP)


def build_sti(cfg: BuildConfig = BuildConfig()) -> Netlist:
    """Standard ternary inverter cell with its own half rail."""
    b = _Builder("sti")
    b.source("Vhalf", "half", cfg.vdd / 2)
    _sti_stage(b, "s", "in", "out", "half")
    b.mark_inputs("in")
    b.probe("out")
    return b.net


# ---------------------------------------------------------------------------
# full adders

def _sum_detector(b: _Builder, cfg: BuildConfig, out: str, up_to: int, down_from: int):
    """Inverter from the sum node onto out, tuned at vdd = cfg.vdd: its
    pull-up conducts iff sigma <= up_to (threshold is rail-relative, between
    levels up_to and up_to+1) and its pull-down iff sigma >= down_from
    (threshold between levels down_from-1 and down_from)."""
    v = cfg.vdd
    b.inverter(out, "vsum", out, pick_chirality((5 - up_to) * v / 6, (6 - up_to) * v / 6),
               pick_chirality((down_from - 1) * v / 6, down_from * v / 6))


def _common_front_end(b: _Builder, cfg: BuildConfig):
    lo, hi = LOW_VTH, HIGH_VTH

    # capacitive averaging node
    b.cap("Cina", "a", "vsum", INPUT_CAP)
    b.cap("Cinb", "b", "vsum", INPUT_CAP)
    b.cap("Cinc", "cin", "vsum", INPUT_CAP)
    b.source("Vhalf", "half", cfg.vdd / 2)

    # low-band detector inverter: s high iff sigma <= 2 (2.5 band edge)
    _sum_detector(b, cfg, "s", 2, 3)
    b.inverter("sb", "s", "sbar", lo, lo)

    # f low iff every input is 2 (5.5 band edge, input-referenced)
    b.fet("Mfa", "f", "a", "VDD", Polarity.PFET, lo)
    b.fet("Mfb", "f", "b", "VDD", Polarity.PFET, lo)
    b.fet("Mfc", "f", "cin", "VDD", Polarity.PFET, lo)
    b.fet("Mfd", "f", "a", "ft1", Polarity.NFET, hi)
    b.fet("Mfe", "ft1", "b", "ft2", Polarity.NFET, hi)
    b.fet("Mff", "ft2", "cin", "GND", Polarity.NFET, hi)
    b.inverter("fb", "f", "fbar", lo, lo)

    # mid-band select m = (not s) and f
    b.nor2("m", "s", "fbar", "m", lo)
    b.inverter("mb", "m", "mbar", lo, lo)

    # ternary carry output: 2 on the high band, half on the mid band,
    # 0 on the low band
    b.fet("Mcp", "cout", "f", "VDD", Polarity.PFET, lo)
    b.fet("Mcn", "cout", "s", "GND", Polarity.NFET, lo)
    b.tgate("c", "cout", "half", "m", "mbar", lo)

    # single-level decoders for the band cells
    _sum_detector(b, cfg, "z0", 0, 1)
    _sum_detector(b, cfg, "z1", 1, 2)
    b.inverter("z1b", "z1", "z1b", lo, lo)
    b.nor2("e1", "z0", "z1b", "e1", lo)   # sigma == 1
    b.inverter("e1b", "e1", "e1b", lo, lo)
    _sum_detector(b, cfg, "z3", 3, 4)
    _sum_detector(b, cfg, "z4", 4, 5)
    b.inverter("z4b", "z4", "z4b", lo, lo)
    b.nor2("e4", "z3", "z4b", "e4", lo)   # sigma == 4
    b.inverter("e4b", "e4", "e4b", lo, lo)

    # sum output routing: low band through tg0, mid band through tg1,
    # high band clamped low
    b.fet("Mspd", "sum", "fbar", "GND", Polarity.NFET, lo)
    b.tgate("g0", "sum", "out0", "s", "sbar", lo)
    b.tgate("g1", "sum", "out1", "m", "mbar", lo)

    for node in ("s", "sbar", "f", "fbar", "m", "mbar", "z0", "z1", "z1b",
                 "e1", "e1b", "z3", "z4", "z4b", "e4", "e4b", "out0", "out1"):
        b.cap(f"Cp{node}", node, "GND", PARASITIC_CAP)

    b.mark_inputs("a", "b", "cin")


def build_design(variant, cfg: BuildConfig = BuildConfig()) -> Netlist:
    """Structural netlist of one adder variant.

    Variant 1 band cells invert the sum-node band onto an intermediate trit
    and restore polarity through a standard ternary inverter; variant 2
    drives the restored trit in a single buffer stage gated by the decoder
    outputs.  Transistor and capacitor totals are available via stats().
    """
    v = _variant_of(variant)
    lo = LOW_VTH
    b = _Builder(v.value)
    _common_front_end(b, cfg)

    if v is DesignVariant.DESIGN2:
        # shifted buffers: full-swing rails gated by the decoded levels
        b.fet("Mb0p", "out0", "z1", "VDD", Polarity.PFET, lo)   # sigma >= 2
        b.fet("Mb0n", "out0", "z0", "GND", Polarity.NFET, lo)   # sigma == 0
        b.tgate("b0", "out0", "half", "e1", "e1b", lo)          # sigma == 1
        b.fet("Mb1p", "out1", "z4", "VDD", Polarity.PFET, lo)   # sigma >= 5
        b.fet("Mb1n", "out1", "z3", "GND", Polarity.NFET, lo)   # sigma <= 3
        b.tgate("b1", "out1", "half", "e4", "e4b", lo)          # sigma == 4
    else:
        # shifted inverters straight off the sum node, then STI restores
        _sum_detector(b, cfg, "i0", 0, 2)
        b.tgate("i0", "i0", "half", "e1", "e1b", lo)
        _sti_stage(b, "sa", "i0", "out0", "half")
        _sum_detector(b, cfg, "i1", 3, 5)
        b.tgate("i1", "i1", "half", "e4", "e4b", lo)
        _sti_stage(b, "sb", "i1", "out1", "half")
        b.cap("Cpi0", "i0", "GND", PARASITIC_CAP)
        b.cap("Cpi1", "i1", "GND", PARASITIC_CAP)

    b.probe("sum")
    b.probe("cout")
    return b.net
