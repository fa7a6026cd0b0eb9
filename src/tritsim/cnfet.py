"""CNFET device model.

A carbon nanotube FET is characterized by the chiral vector (n1, n2) of its
tubes.  The chirality fixes the tube diameter, and the diameter fixes the
threshold voltage, which is the single knob this library uses to build
multi-threshold ternary logic.  Tubes with n1 - n2 divisible by 3 are
metallic and unusable as transistor channels.

switch_on is the one conduction rule the simulator applies to every FET, and
gate_width gives a device's layout width from the reference process's tube
pitch and minimum width (PITCH_NM, W_MIN_NM).  All lengths are in nanometers
and all voltages in volts.  This module holds device physics only; a placed
transistor, with its tube count and terminals, is a netlist.Fet card.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import MetallicTube, OutOfRange, ZeroChirality

# Diameter per unit chiral index: a0 * sqrt(3) / pi with a0 = 0.142 nm,
# folded into a single coefficient.
DIAMETER_COEF_NM = 0.0783

# First-order fit: Vth * D_CNT is a constant for semiconducting tubes.
VTH_DIAMETER_PRODUCT = 0.43

WIDTH_MODES = ("as_published", "corrected")


@dataclass(frozen=True)
class Chirality:
    """Chiral vector (n1, n2), normalized so n1 >= n2."""

    n1: int
    n2: int = 0

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise OutOfRange(f"chiral indices must be non-negative, got ({self.n1}, {self.n2})")
        if self.n1 == 0 and self.n2 == 0:
            raise ZeroChirality("chirality (0, 0) does not describe a tube")
        if self.n2 > self.n1:
            n1, n2 = self.n2, self.n1
            object.__setattr__(self, "n1", n1)
            object.__setattr__(self, "n2", n2)


def cnt_diameter(c: Chirality) -> float:
    """Tube diameter in nm: 0.0783 * sqrt(n1^2 + n2^2 + n1*n2)."""
    return DIAMETER_COEF_NM * math.sqrt(c.n1 * c.n1 + c.n2 * c.n2 + c.n1 * c.n2)


def is_semiconducting(c: Chirality) -> bool:
    """False when n1 - n2 is a multiple of 3 (metallic tube)."""
    return (c.n1 - c.n2) % 3 != 0


def threshold_voltage(c: Chirality) -> float:
    """Threshold voltage in volts: 0.43 / D_CNT(nm).

    Raises MetallicTube for metallic chiralities, which have no bandgap.
    """
    if not is_semiconducting(c):
        raise MetallicTube(f"chirality ({c.n1}, {c.n2}) is metallic")
    return VTH_DIAMETER_PRODUCT / cnt_diameter(c)


# Gate-width geometry of the reference process.  The rest of that process is
# quoted for context only; nothing in the switch-level model reads it:
# channel length 32 nm, mean free path (intrinsic region) 100 nm, doped drain-
# and source-side extensions 32 nm each, top-gate oxide thickness 1 nm, gate
# oxide dielectric constant 16, flat-band term 6.0 (as quoted),
# substrate-coupling capacitance 20 aF/um.
PITCH_NM = 20.0     # inter-tube pitch under one gate
W_MIN_NM = 32.0     # minimum lithographic gate width


def gate_width(tubes: int, mode: str = "as_published") -> float:
    """Gate width in nm for N parallel tubes at PITCH_NM.

    The published width expression takes the smaller of W_MIN_NM and
    N * PITCH_NM, which shrinks multi-tube gates below the single-tube
    minimum; the "corrected" mode takes the larger of the two instead.  Both
    are kept selectable and every consumer must say which one it uses.
    """
    if mode not in WIDTH_MODES:
        raise OutOfRange(f"unknown width mode {mode!r}, expected one of {WIDTH_MODES}")
    if tubes < 1:
        raise OutOfRange("tube count must be >= 1")
    spread = tubes * PITCH_NM
    if mode == "as_published":
        return min(W_MIN_NM, spread)
    return max(W_MIN_NM, spread)


class Polarity(Enum):
    NFET = "nfet"
    PFET = "pfet"


def switch_on(is_nfet: bool, v_gate: float, v_ref: float, vth: float) -> bool:
    """The switch-level conduction rule: an NFET conducts iff
    v_gate - v_ref > vth, a PFET iff v_ref - v_gate > vth."""
    if is_nfet:
        return v_gate - v_ref > vth
    return v_ref - v_gate > vth

