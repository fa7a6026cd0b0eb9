"""Device model: geometry, threshold voltage, widths, switch conduction.

Expected numbers are frozen from hand evaluation of the closed-form
expressions d = 0.0783 * sqrt(n1^2 + n2^2 + n1*n2) nm and vth = 0.43 / d V.
"""

import math
import random

import pytest

from tritsim import (Chirality, MetallicTube, OutOfRange,
                     WIDTH_MODES, ZeroChirality, cnt_diameter, gate_width, is_semiconducting,
                     threshold_voltage)
from tritsim.cnfet import switch_on

# chirality -> (diameter_nm, vth_v), computed by hand from the formulas
FROZEN = {
    (19, 0): (1.4876999999999998, 0.28903676816562485),
    (10, 0): (0.7829999999999999, 0.5491698595146871),
    (13, 0): (1.0179, 0.4224383534728362),
    (7, 5): (0.817475999647696, 0.5260093264943744),
}

METALLIC = [(6, 3), (5, 5), (9, 3), (12, 0), (14, 2)]


def test_diameter_and_threshold_match_frozen_values():
    for (n1, n2), (d, vth) in FROZEN.items():
        c = Chirality(n1, n2)
        assert cnt_diameter(c) == pytest.approx(d, rel=1e-12)
        assert threshold_voltage(c) == pytest.approx(vth, rel=1e-12)


def test_semiconducting_rule():
    for n1, n2 in FROZEN:
        assert is_semiconducting(Chirality(n1, n2))
    for n1, n2 in METALLIC:
        assert not is_semiconducting(Chirality(n1, n2))


def test_metallic_has_no_threshold():
    for n1, n2 in METALLIC:
        with pytest.raises(MetallicTube):
            threshold_voltage(Chirality(n1, n2))


def test_threshold_diameter_product_is_constant():
    rng = random.Random(1311)
    seen = 0
    while seen < 500:
        n1 = rng.randint(1, 60)
        n2 = rng.randint(0, n1)
        c = Chirality(n1, n2)
        if not is_semiconducting(c):
            continue
        seen += 1
        assert abs(threshold_voltage(c) * cnt_diameter(c) - 0.43) < 1e-9


def test_chirality_normalizes_index_order():
    assert Chirality(5, 7) == Chirality(7, 5)
    assert Chirality(0, 4) == Chirality(4, 0)


def test_chirality_rejects_invalid_indices():
    with pytest.raises(ZeroChirality):
        Chirality(0, 0)
    with pytest.raises(OutOfRange):
        Chirality(-1, 3)
    with pytest.raises(OutOfRange):
        Chirality(5, -2)


def test_diameter_scales_with_indices():
    # wider tubes switch earlier: vth falls as the diameter grows
    assert cnt_diameter(Chirality(19, 0)) > cnt_diameter(Chirality(10, 0))
    assert threshold_voltage(Chirality(19, 0)) < threshold_voltage(Chirality(10, 0))


def test_gate_width_modes():
    assert gate_width(1) == gate_width(1, "as_published") == 20.0
    assert gate_width(1, "corrected") == 32.0
    assert gate_width(2, "as_published") == 32.0
    assert gate_width(2, "corrected") == 40.0
    assert gate_width(3, "as_published") == 32.0
    assert gate_width(3, "corrected") == 60.0


def test_gate_width_validation():
    with pytest.raises(OutOfRange):
        gate_width(0)
    with pytest.raises(OutOfRange):
        gate_width(3, "fast")
    assert set(WIDTH_MODES) == {"as_published", "corrected"}


def test_conducts_nfet():
    vth = threshold_voltage(Chirality(10, 0))
    assert switch_on(True, 0.9, 0.0, vth)
    assert not switch_on(True, 0.45, 0.0, vth)     # 0.45 < 0.549
    assert not switch_on(True, vth, 0.0, vth)      # equality does not conduct
    assert not switch_on(True, 0.9, 0.45, vth)     # source lifted by half the swing


def test_conducts_pfet():
    vth = threshold_voltage(Chirality(19, 0))
    assert switch_on(False, 0.45, 0.9, vth)        # 0.45 below source by > 0.289
    assert switch_on(False, 0.0, 0.45, vth)
    assert not switch_on(False, 0.9, 0.9, vth)
    assert not switch_on(False, 0.7, 0.9, vth)     # only 0.2 below


def test_threshold_envelope_for_logic_levels():
    # the two stock classes straddle the mid level at the nominal supply
    low = threshold_voltage(Chirality(19, 0))
    high = threshold_voltage(Chirality(10, 0))
    assert 0.0 < low < 0.45 < high < 0.9
