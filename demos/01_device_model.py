#!/usr/bin/env python3
"""Tube geometry sets the threshold: walk a few chiralities through the
diameter and threshold formulas, and show the two gate-width conventions."""

from tritsim import Chirality, cnt_diameter, gate_width, is_semiconducting, threshold_voltage

print("chirality   semiconducting   diameter_nm   vth_v")
for n1, n2 in [(19, 0), (13, 0), (10, 0), (7, 5), (6, 3), (5, 5), (12, 0)]:
    c = Chirality(n1, n2)
    if is_semiconducting(c):
        print(f"({n1:2d},{n2:2d})      yes              {cnt_diameter(c):.4f}        "
              f"{threshold_voltage(c):.4f}")
    else:
        # (n1 - n2) divisible by 3: metallic, no threshold exists
        print(f"({n1:2d},{n2:2d})      no               {cnt_diameter(c):.4f}        -")

print()
print("product vth*d is constant by construction:")
for n1, n2 in [(19, 0), (10, 0), (7, 5)]:
    c = Chirality(n1, n2)
    print(f"  ({n1},{n2}): {threshold_voltage(c) * cnt_diameter(c):.12f}")

print()
print("gate width for N parallel tubes, both conventions:")
print("tubes   as_published   corrected")
for tubes in (1, 2, 3, 8):
    w_pub = gate_width(tubes, "as_published")
    w_cor = gate_width(tubes, "corrected")
    print(f"{tubes:>5}   {w_pub:>12}   {w_cor:>9}")
print()
print("the published min() saturates at the minimum width; the corrected")
print("max() grows with the tube count as a physical layout must")
