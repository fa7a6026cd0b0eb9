"""Ideal cell transfer functions and the behavioral adder datasheet."""

import itertools

import pytest

from tritsim import (DesignVariant, OutOfRange, SelectorState,
                     TernaryCellKind, Trit, VoltageMap, WrongArity, adder_eval,
                     band_eval, carry_gen, cell_eval, datasheet_csv, datasheet_rows,
                     full_add, selectors, sum_node_voltage, tgate_eval)


def test_single_input_tables():
    want = {
        TernaryCellKind.STI: (2, 1, 0),
        TernaryCellKind.NTI: (2, 0, 0),
        TernaryCellKind.PTI: (2, 2, 0),
        TernaryCellKind.STB: (0, 1, 2),
    }
    for kind, outs in want.items():
        assert tuple(int(cell_eval(kind, x)) for x in range(3)) == outs


def test_inverter_identities():
    for x in range(3):
        assert int(cell_eval(TernaryCellKind.STI, x)) == 2 - x
        # NTI and PTI bracket the standard inverter
        assert cell_eval(TernaryCellKind.NTI, x) <= cell_eval(TernaryCellKind.STI, x)
        assert cell_eval(TernaryCellKind.STI, x) <= cell_eval(TernaryCellKind.PTI, x)


def test_cell_eval_rejects_non_single_input_kinds():
    for kind in (TernaryCellKind.TGATE, TernaryCellKind.CARRY_GEN,
                 TernaryCellKind.STI_BAND0):
        with pytest.raises(WrongArity):
            cell_eval(kind, 1)


def test_tgate():
    for x in range(3):
        assert int(tgate_eval(x)) == x
    with pytest.raises(WrongArity):
        tgate_eval(1, enabled=False)


def test_band_cells():
    for sigma in range(3):
        assert int(band_eval(TernaryCellKind.STI_BAND0, sigma)) == sigma
    for sigma in range(3, 6):
        assert int(band_eval(TernaryCellKind.STI_BAND1, sigma)) == sigma - 3
    assert int(band_eval(TernaryCellKind.PULLDOWN_N, 6)) == 0
    for sigma in range(7):
        assert int(band_eval(TernaryCellKind.CARRY_GEN, sigma)) == sigma // 3


def test_band_cells_reject_out_of_band_sums():
    with pytest.raises(OutOfRange):
        band_eval(TernaryCellKind.STI_BAND0, 3)
    with pytest.raises(OutOfRange):
        band_eval(TernaryCellKind.STI_BAND1, 2)
    with pytest.raises(OutOfRange):
        band_eval(TernaryCellKind.PULLDOWN_N, 5)
    with pytest.raises(OutOfRange):
        band_eval(TernaryCellKind.CARRY_GEN, 7)
    with pytest.raises(WrongArity):
        band_eval(TernaryCellKind.STI, 1)


def test_sum_node_voltage_is_the_capacitive_average():
    m = VoltageMap(0.9)
    assert sum_node_voltage(0, 0, 0, m) == 0.0
    assert sum_node_voltage(1, 1, 2, m) == pytest.approx(0.6)
    assert sum_node_voltage(2, 2, 2, m) == pytest.approx(0.9)
    # every input sum sigma lands on sigma * vdd / 6
    for a, b, cin in itertools.product(range(3), repeat=3):
        sigma = a + b + cin
        assert sum_node_voltage(a, b, cin, m) == pytest.approx(sigma * 0.9 / 6)


def test_carry_gen_bands():
    m = VoltageMap(0.9)
    for sigma in range(7):
        assert int(carry_gen(sigma * 0.9 / 6, m)) == sigma // 3
    # band edges sit at 2.5 and 5.5 sixths; probe both sides
    eps = 1e-9
    assert int(carry_gen(2.5 * 0.9 / 6 - eps, m)) == 0
    assert int(carry_gen(2.5 * 0.9 / 6 + eps, m)) == 1
    assert int(carry_gen(5.5 * 0.9 / 6 - eps, m)) == 1
    assert int(carry_gen(5.5 * 0.9 / 6 + eps, m)) == 2


def test_carry_gen_is_ratiometric():
    for vdd in (0.8, 0.9, 1.0, 1.2):
        m = VoltageMap(vdd)
        for sigma in range(7):
            assert int(carry_gen(sigma * vdd / 6, m)) == sigma // 3


def test_selector_states():
    assert selectors(0) == SelectorState(1, 1)
    assert selectors(1) == SelectorState(0, 1)
    assert selectors(2) == SelectorState(0, 0)
    with pytest.raises(OutOfRange):
        SelectorState(1, 0)


def test_adder_eval_equals_arithmetic_for_both_variants():
    for variant in (DesignVariant.DESIGN1, DesignVariant.DESIGN2):
        for a, b, cin in itertools.product(range(3), repeat=3):
            assert adder_eval(variant, a, b, cin) == full_add(a, b, cin)


def test_adder_eval_accepts_loose_variant_spellings():
    assert adder_eval(1, 1, 1, 1) == full_add(1, 1, 1)
    assert adder_eval("design2", 2, 2, 2) == full_add(2, 2, 2)
    with pytest.raises(OutOfRange):
        adder_eval(3, 0, 0, 0)


def test_datasheet_rows_cover_every_kind():
    rows = datasheet_rows()
    kinds = {k for k, _, _ in rows}
    assert kinds == {k.value for k in TernaryCellKind}
    trits = {y for _, _, y in rows}
    assert trits <= {0, 1, 2}
    csv = datasheet_csv()
    assert csv.splitlines()[0] == "kind,input,output"
    assert len(csv.splitlines()) == len(rows) + 1


def test_trit_enum_is_integral():
    assert int(Trit.TWO) == 2
    assert Trit.ONE + Trit.ONE == 2
