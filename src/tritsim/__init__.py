"""Switch-level toolkit for ternary CNFET logic.

Layers, bottom up: cnfet (device physics), trits (ternary arithmetic and
voltage mapping), cells (ideal cell transfer functions and the behavioral
adder), netlist (.tnl text format), sim (steady state, timing, events),
builders (structural netlists of the cells and adders), bench (benchmark
sweeps).  The tritsim console script fronts all of it.
"""

from .bench import AXES, BOTH_VARIANTS, DEFAULT_VALUES, SweepPoint, SweepSpec, \
    benchmark_stimulus, run_sweep, sweep_csv
from .builders import BuildConfig, FIXTURE_NAMES, build_design, build_nti, build_pti, \
    build_sti, build_tgate, fixture_text, load_fixture, pick_chirality
from .cells import DesignVariant, SelectorState, TernaryCellKind, adder_eval, \
    band_eval, carry_gen, cell_eval, datasheet_csv, datasheet_rows, selectors, \
    sum_node_voltage, tgate_eval
from .cnfet import Chirality, DIAMETER_COEF_NM, Polarity, VTH_DIAMETER_PRODUCT, \
    WIDTH_MODES, cnt_diameter, gate_width, is_semiconducting, threshold_voltage
from .errors import ConfigError, MetallicTube, NetlistError, NetlistSemanticError, \
    NetlistSyntaxError, NoPath, NonConvergent, OutOfRange, Overflow, TritsimError, \
    Unresolvable, WidthMismatch, WrongArity, ZeroChirality
from .netlist import Capacitor, Fet, FixedSource, GND, Instance, Netlist, Subckt, \
    VDD, flatten, parse, serialize
from .sim import Signal, SimConfig, Strength, WaveEvent, Waveform, delay_estimate, \
    measure, steady_state, transient, waveform_csv, waveform_vcd
from .trits import Trit, TritVector, VoltageMap, base3_value, from_integer, full_add, \
    ripple_add, trit_to_voltage, truth_table_csv, truth_table_rows, voltage_to_trit

__version__ = "0.1.0"

__all__ = [
    "AXES", "BOTH_VARIANTS", "BuildConfig", "Capacitor", "Chirality", "ConfigError",
    "DEFAULT_VALUES", "DIAMETER_COEF_NM", "DesignVariant", "FIXTURE_NAMES", "Fet",
    "FixedSource", "GND", "Instance", "MetallicTube", "Netlist", "NetlistError",
    "NetlistSemanticError", "NetlistSyntaxError", "NoPath", "NonConvergent",
    "OutOfRange", "Overflow", "Polarity", "SelectorState", "Signal",
    "SimConfig", "Strength", "Subckt", "SweepPoint", "SweepSpec", "TernaryCellKind",
    "Trit", "TritVector", "TritsimError", "Unresolvable", "VDD", "VTH_DIAMETER_PRODUCT",
    "VoltageMap", "WIDTH_MODES", "WaveEvent", "Waveform", "WidthMismatch", "WrongArity",
    "ZeroChirality", "adder_eval", "band_eval", "base3_value", "benchmark_stimulus",
    "build_design", "build_nti", "build_pti", "build_sti", "build_tgate", "carry_gen",
    "cell_eval", "cnt_diameter", "datasheet_csv", "datasheet_rows", "delay_estimate",
    "fixture_text", "flatten", "from_integer", "full_add", "gate_width",
    "is_semiconducting", "load_fixture", "measure", "parse", "pick_chirality",
    "ripple_add", "run_sweep", "selectors", "serialize", "steady_state",
    "sum_node_voltage", "sweep_csv", "tgate_eval", "threshold_voltage", "transient",
    "trit_to_voltage", "truth_table_csv", "truth_table_rows", "voltage_to_trit",
    "waveform_csv", "waveform_vcd",
]
