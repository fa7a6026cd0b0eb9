"""Balanced-positional ternary arithmetic and the trit/voltage mapping.

Logic values 0, 1, 2 correspond to voltages 0, Vdd/2, Vdd.  A one-trit full
add of three trits a + b + cin = 3*cout + sum, so the carry is itself a trit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum

from .errors import Overflow, OutOfRange, Unresolvable, WidthMismatch, _finite


class Trit(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


def _trit(x) -> Trit:
    if x not in (0, 1, 2):
        raise OutOfRange(f"a trit is 0, 1 or 2, got {x!r}")
    return Trit(x)


def full_add(a, b, cin) -> tuple[Trit, Trit]:
    """One-trit full adder: returns (sum, cout) with a+b+cin = 3*cout + sum."""
    total = int(_trit(a)) + int(_trit(b)) + int(_trit(cin))
    return Trit(total % 3), Trit(total // 3)


@dataclass(frozen=True)
class VoltageMap:
    """Maps trits onto the three-level voltage lattice {0, vdd/2, vdd}."""

    vdd: float = 0.9

    def __post_init__(self):
        if not (_finite(self.vdd) and self.vdd > 0):
            raise OutOfRange("vdd must be finite and strictly positive")

    def levels(self) -> tuple[float, float, float]:
        return (0.0, self.vdd / 2.0, self.vdd)


def trit_to_voltage(t, m: VoltageMap = VoltageMap()) -> float:
    return m.levels()[_trit(t)]


def voltage_to_trit(v: float, m: VoltageMap = VoltageMap(),
                    tol: float | None = None) -> Trit:
    """Snap a voltage to the nearest lattice level within tol (default vdd/10).

    Raises Unresolvable when the voltage is further than tol from every level
    or is not a finite number, and OutOfRange when tol is not a number in
    (0, vdd/4).
    """
    if tol is None:
        tol = m.vdd / 10.0
    if not (_finite(tol) and 0 < tol < m.vdd / 4.0):
        raise OutOfRange(f"tolerance must be in (0, vdd/4), got {tol!r}")
    if not _finite(v):
        raise Unresolvable(f"{v!r} V is not a finite voltage")
    best = min(range(3), key=lambda i: abs(v - m.levels()[i]))
    if abs(v - m.levels()[best]) > tol:
        raise Unresolvable(f"{v} V is more than {tol} V from every level of {m.levels()}")
    return Trit(best)


@dataclass(frozen=True)
class TritVector:
    """Fixed-width unsigned ternary word, least significant trit first."""

    trits: tuple[Trit, ...]

    def __post_init__(self):
        object.__setattr__(self, "trits", tuple(_trit(t) for t in self.trits))

    @property
    def width(self) -> int:
        return len(self.trits)

    def __iter__(self):
        return iter(self.trits)

    def __getitem__(self, i):
        return self.trits[i]


def base3_value(v: TritVector) -> int:
    """Unsigned integer value of a trit vector."""
    total = 0
    for t in reversed(v.trits):
        total = total * 3 + int(t)
    return total


def from_integer(x: int, width: int) -> TritVector:
    """Encode x in the given width; Overflow when it does not fit."""
    if width < 1:
        raise OutOfRange("width must be >= 1")
    if x < 0 or x >= 3 ** width:
        raise Overflow(f"{x} does not fit in {width} trits")
    out = []
    for _ in range(width):
        out.append(Trit(x % 3))
        x //= 3
    return TritVector(tuple(out))


def ripple_add(a: TritVector, b: TritVector, cin=Trit.ZERO) -> tuple[TritVector, Trit]:
    """Width-preserving ripple-carry add; the final carry is returned."""
    if a.width != b.width:
        raise WidthMismatch(f"widths differ: {a.width} vs {b.width}")
    carry = _trit(cin)
    out = []
    for ta, tb in zip(a.trits, b.trits):
        s, carry = full_add(ta, tb, carry)
        out.append(s)
    return TritVector(tuple(out)), carry


def truth_table_rows() -> list[tuple[int, int, int, int, int]]:
    """All 27 (a, b, cin, sum, cout) rows in ascending (a, b, cin) order."""
    rows = []
    for a, b, cin in itertools.product(range(3), repeat=3):
        s, c = full_add(a, b, cin)
        rows.append((a, b, cin, int(s), int(c)))
    return rows


def truth_table_csv() -> str:
    lines = ["a,b,cin,sum,cout"]
    for row in truth_table_rows():
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
