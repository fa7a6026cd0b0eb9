"""Command line front end.

Subcommands: truth-table (arithmetic or simulated adder tables), device
(chirality report), simulate (steady state or waveform dump), sweep
(delay/power/PDP benchmarks), verify (netlist against the logic model).

Exit codes: 0 success, 1 a verification or table mismatch, 2 usage or
configuration problems (including netlist errors), 3 a simulation that
failed to settle.
"""

from __future__ import annotations

import argparse
import math
import sys

from .bench import BOTH_VARIANTS, SweepSpec, run_sweep, sweep_csv
from .builders import BuildConfig, build_design
from .cells import TernaryCellKind, _variant_of, cell_eval
from .cnfet import Chirality, cnt_diameter, gate_width, is_semiconducting, threshold_voltage
from .errors import ConfigError, NonConvergent, TritsimError
from .netlist import parse
from .sim import SimConfig, _exhaustive_stimulus, _trit_symbol, steady_state, transient, \
    waveform_csv, waveform_vcd
from .trits import VoltageMap, truth_table_csv, truth_table_rows

OK = 0
MISMATCH = 1
USAGE = 2
NO_FIXPOINT = 3


def _variants(arg: str):
    return BOTH_VARIANTS if arg == "both" else (_variant_of(arg),)


def _read_netlist(path: str):
    with open(path, "rb") as fh:
        return parse(fh.read())


def _load_netlist(args):
    if (args.netlist is None) == (args.design is None):
        raise ConfigError("pass exactly one of a netlist file or --design")
    if args.netlist is not None:
        return _read_netlist(args.netlist)
    return build_design(args.design, BuildConfig(vdd=args.vdd))


def _parse_inputs(spec: str, vdd: float) -> dict[str, float]:
    """node=value pairs, comma separated.  Bare 0/1/2 are trit levels; any
    other number, such as 0.45 or 1e-1, is taken as volts."""
    levels = VoltageMap(vdd).levels()
    out: dict[str, float] = {}
    for item in spec.split(","):
        if "=" not in item:
            raise ConfigError(f"malformed input assignment {item!r}, expected node=value")
        node, _, value = item.partition("=")
        node = node.strip()
        value = value.strip()
        if not node or not value:
            raise ConfigError(f"malformed input assignment {item!r}, expected node=value")
        if node in out:
            raise ConfigError(f"input {node} is assigned twice")
        if value in ("0", "1", "2"):
            out[node] = levels[int(value)]
            continue
        try:
            out[node] = float(value)
        except ValueError:
            raise ConfigError(
                f"input value {value!r} is neither a trit (0/1/2) nor a voltage") from None
    return out


def _check_rows(net, cfg: SimConfig, ins: tuple[str, ...], outs: tuple[str, ...],
                rows) -> list[tuple[tuple[int, ...], tuple[str, ...], tuple[str, ...]]]:
    """Solve every row and read its outputs back as logic symbols.

    A row holds the input trits on ins followed by the expected trits on
    outs.  Returns (input trits, simulated symbols, expected symbols) per row.
    """
    missing = sorted(set(ins + outs) - net.node_ids())
    if missing:
        raise ConfigError(f"netlist lacks required nodes: {', '.join(missing)}")
    levels = cfg.vmap().levels()
    checked = []
    for row in rows:
        trits_in = row[:len(ins)]
        sigs = steady_state(net, {n: levels[t] for n, t in zip(ins, trits_in)}, cfg)
        got = tuple(_trit_symbol(sigs[n].level, cfg) for n in outs)
        checked.append((trits_in, got, tuple(str(t) for t in row[len(ins):])))
    return checked


def _check_adder(net, cfg: SimConfig):
    return _check_rows(net, cfg, ("a", "b", "cin"), ("sum", "cout"), truth_table_rows())


def _adder_mismatch(trits_in: tuple[int, ...], got: tuple[str, ...],
                    want: tuple[str, ...]) -> str:
    a, b, c = trits_in
    return (f"a={a} b={b} cin={c}: sum={got[0]} cout={got[1]}, "
            f"want sum={want[0]} cout={want[1]}")


def cmd_truth_table(args) -> int:
    if args.design is None:
        sys.stdout.write(truth_table_csv())
        return OK
    cfg = SimConfig(vdd=args.vdd)
    lines = ["design,a,b,cin,sum,cout"]
    mismatches = []
    for variant in _variants(args.design):
        net = build_design(variant, BuildConfig(vdd=args.vdd))
        for trits_in, got, want in _check_adder(net, cfg):
            if got != want:
                mismatches.append(f"{variant.value} {_adder_mismatch(trits_in, got, want)}")
            lines.append(",".join((variant.value, *map(str, trits_in), *got)))
    sys.stdout.write("\n".join(lines) + "\n")
    if mismatches:
        for m in mismatches:
            print(m, file=sys.stderr)
        return MISMATCH
    return OK


def cmd_device(args) -> int:
    c = Chirality(args.n1, args.n2)
    semiconducting = is_semiconducting(c)
    if args.vth:
        if not semiconducting:
            print(f"error: ({c.n1}, {c.n2}) is metallic, no threshold voltage exists",
                  file=sys.stderr)
            return USAGE
        print(repr(threshold_voltage(c)))
        return OK
    lines = [
        f"chirality: ({c.n1}, {c.n2})",
        f"diameter_nm: {cnt_diameter(c)!r}",
        f"semiconducting: {'yes' if semiconducting else 'no'}",
    ]
    if semiconducting:
        lines.append(f"vth_v: {threshold_voltage(c)!r}")
    modes = [args.width_mode.replace("-", "_")] if args.width_mode \
        else ["as_published", "corrected"]
    for mode in modes:
        lines.append(f"width_nm_{mode}: {gate_width(args.tubes, mode)!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return OK


def cmd_simulate(args) -> int:
    net = _load_netlist(args)
    cfg = SimConfig(vdd=args.vdd, c_out_load=args.load)
    if args.inputs is not None:
        sigs = steady_state(net, _parse_inputs(args.inputs, args.vdd), cfg)
        lines = ["node,level_v,strength"]
        for node in sorted(sigs):
            sig = sigs[node]
            level = sig.level if isinstance(sig.level, str) else repr(sig.level)
            strength = sig.strength.name.lower() if sig.strength is not None else "floating"
            lines.append(f"{node},{level},{strength}")
        sys.stdout.write("\n".join(lines) + "\n")
        return OK
    nodes = sorted(net.inputs)
    if not nodes:
        raise ConfigError("netlist declares no input nodes; pass --inputs instead")
    if not (math.isfinite(args.freq) and args.freq > 0):
        raise ConfigError(f"--freq must be a finite frequency above 0 Hz, got {args.freq!r}")
    stimulus = _exhaustive_stimulus(nodes, args.vdd, 1.0 / args.freq)
    if not all(math.isfinite(t) for t, _ in stimulus):
        raise ConfigError(f"--freq {args.freq!r} Hz is too small: "
                          "its stimulus times are not finite")
    wave = transient(net, stimulus, cfg)
    if args.format == "vcd":
        sys.stdout.write(waveform_vcd(wave, cfg, name=net.name))
    else:
        sys.stdout.write(waveform_csv(wave))
    return OK


def cmd_sweep(args) -> int:
    spec = SweepSpec(axis=args.axis, values=tuple(args.values or ()),
                     variants=_variants(args.design), vdd=args.vdd,
                     load=args.load, frequency=args.freq)
    sys.stdout.write(sweep_csv(run_sweep(spec)))
    return OK


def cmd_verify(args) -> int:
    net = _read_netlist(args.netlist)
    cfg = SimConfig(vdd=args.vdd)
    if args.cell:
        kind = TernaryCellKind(args.cell.upper())
        checked = _check_rows(net, cfg, ("in",), ("out",),
                              [(x, int(cell_eval(kind, x))) for x in range(3)])
        mismatches = [f"in={x}: out={got}, want {want}"
                      for (x,), (got,), (want,) in checked if got != want]
    else:
        checked = _check_adder(net, cfg)
        mismatches = [_adder_mismatch(*row) for row in checked if row[1] != row[2]]
    if mismatches:
        for m in mismatches:
            print(f"FAIL {m}")
        print(f"{len(mismatches)} of {len(checked)} rows disagree")
        return MISMATCH
    print(f"ok: {len(checked)} rows match")
    return OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tritsim",
        description="Ternary CNFET adder toolkit: tables, devices, waveforms, sweeps.")
    sub = p.add_subparsers(dest="command", required=True)

    tt = sub.add_parser("truth-table",
                        help="ternary addition table, arithmetic or simulated")
    tt.add_argument("--design", choices=["1", "2", "both"],
                    help="simulate this structural variant instead of printing arithmetic")
    tt.add_argument("--vdd", type=float, default=SimConfig.vdd)
    tt.set_defaults(func=cmd_truth_table)

    dev = sub.add_parser("device", help="report one chirality's device parameters")
    dev.add_argument("n1", type=int)
    dev.add_argument("n2", type=int, nargs="?", default=0)
    dev.add_argument("tubes", type=int, nargs="?", default=1,
                     help="parallel tubes for the width lines")
    dev.add_argument("--width-mode", choices=["as-published", "corrected"],
                     help="print a single gate-width convention instead of both")
    dev.add_argument("--vth", action="store_true",
                     help="print only the threshold voltage; metallic tubes fail")
    dev.set_defaults(func=cmd_device)

    sim = sub.add_parser("simulate", help="steady state or exhaustive waveform")
    sim.add_argument("netlist", nargs="?", metavar="FILE",
                     help=".tnl netlist to simulate (or pass --design)")
    sim.add_argument("--design", choices=["1", "2"],
                     help="simulate a built-in adder instead of a file")
    sim.add_argument("--vdd", type=float, default=SimConfig.vdd)
    sim.add_argument("--load", type=float, default=SimConfig.c_out_load,
                     help="probe load in farads")
    sim.add_argument("--freq", type=float, default=SweepSpec.frequency,
                     help="stimulus rate in hertz")
    sim.add_argument("--format", choices=["csv", "vcd"], default="csv")
    sim.add_argument("--inputs", metavar="N=V,...",
                     help="single steady state for these assignments instead of a waveform")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="delay/power/PDP across an operating axis")
    sw.add_argument("--axis", choices=["vdd", "load", "frequency", "temperature"],
                    default="load")
    sw.add_argument("--values", type=float, nargs="*",
                    help="axis points; omit for the default grid")
    sw.add_argument("--design", choices=["1", "2", "both"], default="both")
    sw.add_argument("--vdd", type=float, default=SimConfig.vdd)
    sw.add_argument("--load", type=float, default=SimConfig.c_out_load)
    sw.add_argument("--freq", type=float, default=SweepSpec.frequency)
    sw.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="check a netlist against the logic model")
    ver.add_argument("netlist", metavar="FILE")
    ver.add_argument("--cell", choices=["sti", "nti", "pti", "stb"],
                     help="verify a one-input cell on nodes in/out instead of an adder")
    ver.add_argument("--vdd", type=float, default=SimConfig.vdd)
    ver.set_defaults(func=cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TritsimError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return NO_FIXPOINT if isinstance(e, NonConvergent) else USAGE


if __name__ == "__main__":
    sys.exit(main())
