"""Ternary arithmetic, voltage mapping, and multi-trit words."""

import random

import pytest

from tritsim import (Overflow, OutOfRange, TernaryCellKind, Trit, TritVector, Unresolvable,
                     VoltageMap, WidthMismatch, adder_eval, base3_value, cell_eval,
                     from_integer, full_add, ripple_add, selectors, tgate_eval, trit_to_voltage,
                     truth_table_csv, truth_table_rows, voltage_to_trit)


def test_full_add_matches_integer_arithmetic():
    for a in range(3):
        for b in range(3):
            for cin in range(3):
                s, c = full_add(a, b, cin)
                assert 3 * int(c) + int(s) == a + b + cin
                assert isinstance(s, Trit) and isinstance(c, Trit)


def test_full_add_carry_is_at_most_two():
    s, c = full_add(2, 2, 2)
    assert (int(s), int(c)) == (0, 2)


def test_voltage_levels():
    assert VoltageMap(0.9).levels() == (0.0, 0.45, 0.9)
    assert VoltageMap(1.0).levels() == (0.0, 0.5, 1.0)
    with pytest.raises(OutOfRange):
        VoltageMap(0.0)


@pytest.mark.parametrize("call", [
    lambda: full_add(3, 0, 0),
    lambda: full_add(1.5, 0, 0),        # int() would read it as 1
    lambda: trit_to_voltage(-1),
    lambda: cell_eval(TernaryCellKind.STI, 5),
    lambda: tgate_eval(3),
    lambda: selectors(4),
    lambda: adder_eval(1, 0, 0, 3),
    lambda: TritVector((0, "1")),
    lambda: VoltageMap(float("nan")),
    lambda: VoltageMap(float("inf")),
    lambda: VoltageMap("0.9"),
    lambda: VoltageMap(None),
], ids=["full-add-3", "full-add-1.5", "voltage-of-minus-1", "sti-of-5", "tgate-of-3",
        "selectors-of-4", "adder-cin-3", "vector-of-str", "vdd-nan", "vdd-inf", "vdd-str",
        "vdd-none"])
def test_a_value_out_of_range_raises_out_of_range(call):
    with pytest.raises(OutOfRange, match="^(a trit is 0, 1 or 2, got|vdd must be finite)"):
        call()


def test_trit_voltage_round_trip():
    for vdd in (0.8, 0.9, 1.0):
        m = VoltageMap(vdd)
        for t in range(3):
            assert int(voltage_to_trit(trit_to_voltage(t, m), m)) == t


def test_voltage_to_trit_tolerance():
    m = VoltageMap(0.9)
    assert voltage_to_trit(0.47, m) == Trit.ONE         # inside default vdd/10
    assert voltage_to_trit(0.88, m) == Trit.TWO
    with pytest.raises(Unresolvable):
        voltage_to_trit(0.60, m, 0.1)                   # 0.15 from the mid level
    with pytest.raises(Unresolvable):
        voltage_to_trit(0.225, m)                       # exactly between, 0.1125 off
    assert voltage_to_trit(0.60, m, 0.16) == Trit.ONE


@pytest.mark.parametrize("v", [float("nan"), float("inf"), float("-inf"), "0.4"])
def test_voltage_to_trit_rejects_non_finite(v):
    with pytest.raises(Unresolvable):
        voltage_to_trit(v, VoltageMap(0.9))


def test_voltage_tolerance_domain():
    m = VoltageMap(0.9)
    with pytest.raises(OutOfRange):
        voltage_to_trit(0.45, m, 0.0)
    with pytest.raises(OutOfRange):
        voltage_to_trit(0.45, m, 0.3)                   # >= vdd/4 would be ambiguous
    with pytest.raises(OutOfRange):
        voltage_to_trit(0.4, m, "0.1")                  # not a number


def test_trit_vector_shape():
    v = TritVector((1, 2, 0))
    assert v.width == 3
    assert list(v) == [Trit.ONE, Trit.TWO, Trit.ZERO]
    assert v[1] == Trit.TWO


def test_integer_round_trip():
    for width in (1, 2, 3, 4):
        for x in range(3 ** width):
            assert base3_value(from_integer(x, width)) == x


def test_from_integer_overflow():
    with pytest.raises(Overflow):
        from_integer(27, 3)
    with pytest.raises(Overflow):
        from_integer(-1, 3)
    with pytest.raises(OutOfRange):
        from_integer(0, 0)


def test_least_significant_trit_first():
    assert from_integer(5, 3).trits == (Trit.TWO, Trit.ONE, Trit.ZERO)
    assert base3_value(TritVector((0, 0, 1))) == 9


def test_ripple_add_exhaustive_small_widths():
    for width in (1, 2, 3):
        hi = 3 ** width
        for x in range(hi):
            for y in range(hi):
                for cin in range(3):
                    total, carry = ripple_add(from_integer(x, width),
                                              from_integer(y, width), cin)
                    assert base3_value(total) + int(carry) * hi == x + y + cin


def test_ripple_add_random_wide_words():
    rng = random.Random(2026)
    width = 8
    hi = 3 ** width
    for _ in range(1000):
        x, y = rng.randrange(hi), rng.randrange(hi)
        cin = rng.randrange(3)
        total, carry = ripple_add(from_integer(x, width), from_integer(y, width), cin)
        assert base3_value(total) + int(carry) * hi == x + y + cin


def test_ripple_add_width_mismatch():
    with pytest.raises(WidthMismatch):
        ripple_add(from_integer(1, 2), from_integer(1, 3))


def test_known_sum():
    # 5 + 7 = 12 in width 2 leaves 12 - 9 = 3 -> (0, 1) with carry 1
    total, carry = ripple_add(from_integer(5, 2), from_integer(7, 2))
    assert tuple(int(t) for t in total) == (0, 1)
    assert int(carry) == 1
    assert base3_value(from_integer(26, 3)) == 26
    assert tuple(int(t) for t in from_integer(26, 3)) == (2, 2, 2)


def test_truth_table_rows():
    rows = truth_table_rows()
    assert len(rows) == 27
    assert rows[0] == (0, 0, 0, 0, 0)
    assert rows[-1] == (2, 2, 2, 0, 2)
    assert rows == sorted(rows)                         # ascending (a, b, cin)
    for a, b, cin, s, c in rows:
        assert a + b + cin == 3 * c + s


def test_truth_table_csv_shape():
    text = truth_table_csv()
    lines = text.splitlines()
    assert lines[0] == "a,b,cin,sum,cout"
    assert len(lines) == 28
    assert lines[1] == "0,0,0,0,0"
    assert lines[-1] == "2,2,2,0,2"
    assert text.endswith("\n")
