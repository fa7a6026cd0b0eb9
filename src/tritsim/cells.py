"""Behavioral models of the ternary standard cells and the capacitive-input
full adder built from them.

The adder front end averages the three input voltages onto a shared sum node
(seven levels, k * vdd/6 for k = 0..6).  A carry generator bands that node at
2.5/6 and 5.5/6 of vdd, selector signals route one of three band cells to the
sum output, and the band cells restore full logic swing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import OutOfRange, WrongArity
from .trits import Trit, VoltageMap, _trit, trit_to_voltage


class TernaryCellKind(Enum):
    STI = "STI"                  # standard ternary inverter, x -> 2 - x
    NTI = "NTI"                  # negative ternary inverter
    PTI = "PTI"                  # positive ternary inverter
    STB = "STB"                  # standard ternary buffer (identity)
    TGATE = "TGATE"              # transmission gate (data + enable pair)
    STI_BAND0 = "STI_BAND0"      # low-band level restorer, sigma 0..2 -> sigma
    STI_BAND1 = "STI_BAND1"      # mid-band level restorer, sigma 3..5 -> sigma - 3
    CARRY_GEN = "CARRY_GEN"      # sum-node band classifier, sigma -> sigma div 3
    PULLDOWN_N = "PULLDOWN_N"    # high-band clamp, sigma 6 -> 0


_SINGLE_INPUT = {
    TernaryCellKind.STI: (2, 1, 0),
    TernaryCellKind.NTI: (2, 0, 0),
    TernaryCellKind.PTI: (2, 2, 0),
    TernaryCellKind.STB: (0, 1, 2),
}

# sigma -> trit over each band cell's declared input range
_BAND = {
    TernaryCellKind.STI_BAND0: {0: 0, 1: 1, 2: 2},
    TernaryCellKind.STI_BAND1: {3: 0, 4: 1, 5: 2},
    TernaryCellKind.CARRY_GEN: {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 2},
    TernaryCellKind.PULLDOWN_N: {6: 0},
}


def cell_eval(kind: TernaryCellKind, x) -> Trit:
    """Transfer function of the one-input cells (STI/NTI/PTI/STB)."""
    if kind not in _SINGLE_INPUT:
        raise WrongArity(f"{kind.value} is not a single-trit cell")
    return Trit(_SINGLE_INPUT[kind][_trit(x)])


def tgate_eval(x, enabled: bool = True) -> Trit:
    """Transmission gate: identity when enabled.  A disabled gate does not
    drive its output at all, so there is no trit to return."""
    if not enabled:
        raise WrongArity("a disabled transmission gate drives nothing")
    return _trit(x)


def band_eval(kind: TernaryCellKind, sigma: int) -> Trit:
    """Transfer of the sum-node band cells over their declared input range."""
    table = _BAND.get(kind)
    if table is None:
        raise WrongArity(f"{kind.value} is not a band cell")
    if sigma not in table:
        span = f"{min(table)}..{max(table)}" if len(table) > 1 else f"sigma = {min(table)}"
        raise OutOfRange(f"{kind.value} is defined on {span}, got {sigma}")
    return Trit(table[sigma])


def sum_node_voltage(a, b, cin, m: VoltageMap = VoltageMap()) -> float:
    """Voltage of the capacitive averaging node for three equal capacitors."""
    va = trit_to_voltage(a, m)
    vb = trit_to_voltage(b, m)
    vc = trit_to_voltage(cin, m)
    return (va + vb + vc) / 3.0


def carry_gen(v_sum: float, m: VoltageMap = VoltageMap()) -> Trit:
    """Band the shared sum node at 2.5/6 and 5.5/6 of vdd.

    The thresholds are ratios of vdd, so the classification is independent
    of the supply value.
    """
    lo = 2.5 * m.vdd / 6.0
    hi = 5.5 * m.vdd / 6.0
    if v_sum < lo:
        return Trit.ZERO
    if v_sum < hi:
        return Trit.ONE
    return Trit.TWO


@dataclass(frozen=True)
class SelectorState:
    """The (s, f) routing pair decoded from the carry.

    Only three states exist: (1,1) selects the low band, (0,1) the mid band,
    (0,0) the high-band pulldown.
    """

    s: int
    f: int

    def __post_init__(self):
        if (self.s, self.f) not in ((1, 1), (0, 1), (0, 0)):
            raise OutOfRange(f"selector state ({self.s}, {self.f}) is not reachable")


def selectors(cout) -> SelectorState:
    return (SelectorState(1, 1), SelectorState(0, 1), SelectorState(0, 0))[_trit(cout)]


class DesignVariant(Enum):
    DESIGN1 = "design1"
    DESIGN2 = "design2"


def _variant_of(design) -> DesignVariant:
    """The variant a caller names: the enum itself, 1/2, "1"/"2" or
    "design1"/"design2"."""
    if isinstance(design, DesignVariant):
        return design
    if design in (1, "1", "design1"):
        return DesignVariant.DESIGN1
    if design in (2, "2", "design2"):
        return DesignVariant.DESIGN2
    raise OutOfRange(f"unknown design variant {design!r}")


def adder_eval(design, a, b, cin, m: VoltageMap = VoltageMap()) -> tuple[Trit, Trit]:
    """Behavioral one-trit add routed the way the hardware routes it:
    averaging node, carry bands, selectors, band cell.  Both variants share
    this transfer; they differ only in stage structure."""
    _variant_of(design)
    v = sum_node_voltage(a, b, cin, m)
    cout = carry_gen(v, m)
    sel = selectors(cout)
    sigma = int(_trit(a)) + int(_trit(b)) + int(_trit(cin))
    if (sel.s, sel.f) == (1, 1):
        s = band_eval(TernaryCellKind.STI_BAND0, sigma)
    elif (sel.s, sel.f) == (0, 1):
        s = band_eval(TernaryCellKind.STI_BAND1, sigma)
    else:
        s = band_eval(TernaryCellKind.PULLDOWN_N, sigma)
    return s, cout


def datasheet_rows() -> list[tuple[str, int, int]]:
    """(kind, input, output) transfer rows for every cell kind."""
    rows = [(kind.value, x, y) for kind, outs in _SINGLE_INPUT.items()
            for x, y in enumerate(outs)]
    rows += [(TernaryCellKind.TGATE.value, x, int(tgate_eval(x))) for x in range(3)]
    rows += [(kind.value, sigma, y) for kind, table in _BAND.items()
             for sigma, y in table.items()]
    return rows


def datasheet_csv() -> str:
    lines = ["kind,input,output"]
    for kind, x, y in datasheet_rows():
        lines.append(f"{kind},{x},{y}")
    return "\n".join(lines) + "\n"
