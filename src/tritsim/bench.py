"""Delay/power/PDP sweeps over the two adder variants.

A sweep point rebuilds the selected variant at the point's supply voltage
(detector thresholds retune with vdd), estimates worst-case sum settling
time over every input combination, and measures average switching power by
replaying the 27-entry exhaustive input sequence at the point's clock
period.  The power-delay product multiplies those two numbers.  The
transient is the next call on the netlist after the delay estimate, so it
finds the compiled form and the solves the estimate left there: a point
compiles once and solves each of the 27 input triples once.

The device model has no temperature dependence, so a temperature axis is
rejected up front instead of producing flat lines that look like data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .builders import BuildConfig, build_design
from .cells import DesignVariant
from .errors import ConfigError
from .sim import SimConfig, _exhaustive_inputs, delay_estimate, measure, transient

AXES = ("vdd", "load", "frequency")

DEFAULT_VALUES = {
    "vdd": (0.8, 0.9, 1.0),
    "load": (1e-15, 2e-15, 3e-15, 4e-15, 5e-15),
    "frequency": (100e6, 250e6, 500e6),
}

BOTH_VARIANTS = (DesignVariant.DESIGN1, DesignVariant.DESIGN2)


class SweepPoint(NamedTuple):
    variant: str
    axis: str
    value: float
    delay_s: float
    power_w: float
    pdp_j: float


@dataclass(frozen=True)
class SweepSpec:
    """One axis varies; the other operating conditions hold at their fields.

    An empty values tuple selects the default grid for the axis.
    """

    axis: str = "load"
    values: tuple[float, ...] = ()
    variants: tuple[DesignVariant, ...] = BOTH_VARIANTS
    vdd: float = 0.9
    load: float = 1e-15
    frequency: float = 250e6

    def __post_init__(self):
        if self.axis == "temperature":
            raise ConfigError(
                "temperature is outside the validity range of the switch-level "
                "device model; supported axes: " + ", ".join(AXES))
        if self.axis not in AXES:
            raise ConfigError(
                f"unknown sweep axis {self.axis!r}; supported axes: " + ", ".join(AXES))
        if not self.variants:
            raise ConfigError("at least one design variant is required")
        object.__setattr__(self, "values", tuple(self.values) or DEFAULT_VALUES[self.axis])
        if not all(map(math.isfinite, (*self.values, self.vdd, self.load, self.frequency))):
            raise ConfigError("sweep values, vdd, load and frequency must be finite")
        if any(v <= 0 for v in self.values):
            raise ConfigError("sweep values must be strictly positive")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("sweep values must be strictly increasing")
        if self.vdd <= 0 or self.load <= 0 or self.frequency <= 0:
            raise ConfigError("vdd, load and frequency must be strictly positive")


def benchmark_stimulus(vdd: float, period: float) -> list[tuple[float, dict[str, float]]]:
    """All 27 input triples in ascending (a, b, cin) order, one per period.
    The first entry doubles as the quiescent baseline."""
    if period <= 0:
        raise ConfigError("period must be strictly positive")
    return [(k * period, assign)
            for k, assign in enumerate(_exhaustive_inputs(("a", "b", "cin"), vdd))]


def run_sweep(spec: SweepSpec) -> list[SweepPoint]:
    points = []
    for variant in spec.variants:
        for value in spec.values:
            vdd = value if spec.axis == "vdd" else spec.vdd
            load = value if spec.axis == "load" else spec.load
            freq = value if spec.axis == "frequency" else spec.frequency
            net = build_design(variant, BuildConfig(vdd=vdd))
            cfg = SimConfig(vdd=vdd, c_out_load=load)
            period = 1.0 / freq
            delay = delay_estimate(net, "sum", cfg)
            wave = transient(net, benchmark_stimulus(vdd, period), cfg)
            power = measure(wave, 27 * period).avg_power
            points.append(SweepPoint(variant.value, spec.axis, value, delay, power,
                                     delay * power))
    return points


def sweep_csv(points: Sequence[SweepPoint]) -> str:
    lines = ["variant,axis,value,delay_s,power_w,pdp_j"]
    for p in points:
        lines.append(f"{p.variant},{p.axis},{p.value!r},"
                     f"{p.delay_s:.6e},{p.power_w:.6e},{p.pdp_j:.6e}")
    return "\n".join(lines) + "\n"
