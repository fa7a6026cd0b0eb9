"""Transistor-level netlist model with a SPICE-flavored text format (.tnl).

Grammar, one card per line, keywords case-insensitive::

    * <name>                                  first comment line names the netlist
    * anything                                comment
    .input <node>                             node driven externally per stimulus
    .subckt <name> <port> [<port> ...]        child definition (no nesting)
    .ends
    .probe <node>                             marks an output node
    .end                                      terminator, required
    M<id> <drain> <gate> <source> {nfet|pfet} <n1> <n2> <tubes>
    C<id> <a> <b> <value>[f|p|n]              capacitance, bare value = farads
    V<id> <node> <volts>                      ideal source pinning a node
    X<id> <node> [<node> ...] <subckt>        child instance, ports positional

Node ids are case-sensitive except VDD and GND, which are folded to upper
case and reserved for the rails.  Nodes exist by being referenced.  The
serializer emits a canonical form: name header, .input lines sorted, child
definitions sorted by name and always before any instance, devices in
declaration order, .end last.  parse(serialize(n)) reproduces n exactly and
a second serialization is byte-identical.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .cnfet import Chirality, CnfetInstance, Polarity, is_semiconducting
from .errors import NetlistSemanticError, NetlistSyntaxError, OutOfRange, ZeroChirality

VDD = "VDD"
GND = "GND"

_CAP_SCALE = {"f": 1e-15, "p": 1e-12, "n": 1e-9}


@dataclass(frozen=True)
class Fet:
    """Named transistor card wrapping a CnfetInstance."""

    name: str
    fet: CnfetInstance


@dataclass(frozen=True)
class Capacitor:
    name: str
    a: str
    b: str
    farads: float


@dataclass(frozen=True)
class FixedSource:
    name: str
    node: str
    volts: float


@dataclass(frozen=True)
class Probe:
    node: str


@dataclass(frozen=True)
class Instance:
    name: str
    bindings: tuple[str, ...]
    subckt: str


Device = Fet | Capacitor | FixedSource | Probe | Instance


@dataclass(frozen=True)
class Subckt:
    name: str
    ports: tuple[str, ...]
    devices: tuple[Device, ...]


@dataclass
class Netlist:
    """A top-level netlist.  `_compiled` holds the simulator's compiled form,
    outside init, repr and equality; an in-place change recompiles it."""

    name: str = "netlist"
    devices: list[Device] = field(default_factory=list)
    inputs: frozenset[str] = frozenset()
    subckts: dict[str, Subckt] = field(default_factory=dict)
    _compiled: object = field(default=None, init=False, repr=False, compare=False)

    def node_ids(self) -> set[str]:
        ids = set(self.inputs)
        for d in self.devices:
            ids.update(_device_nodes(d))
        return ids

    def probed(self) -> list[str]:
        return sorted(d.node for d in self.devices if isinstance(d, Probe))

    def stats(self) -> dict[str, int]:
        flat = flatten(self)
        return {
            "cnfets": sum(1 for d in flat.devices if isinstance(d, Fet)),
            "capacitors": sum(1 for d in flat.devices if isinstance(d, Capacitor)),
            "sources": sum(1 for d in flat.devices if isinstance(d, FixedSource)),
            "nodes": len(flat.node_ids()),
        }

    def validate(self) -> None:
        _validate_body(self.devices, self.inputs, self.subckts, top=True)
        for sub in self.subckts.values():
            _validate_body(sub.devices, frozenset(), {}, top=False)
            body_nodes = set()
            for d in sub.devices:
                body_nodes.update(_device_nodes(d))
            for port in sub.ports:
                if port not in body_nodes:
                    raise NetlistSemanticError(
                        f"subckt {sub.name}: port {port} not used by any device")


def _device_nodes(d: Device) -> tuple[str, ...]:
    if isinstance(d, Fet):
        return (d.fet.drain, d.fet.gate, d.fet.source)
    if isinstance(d, Capacitor):
        return (d.a, d.b)
    if isinstance(d, FixedSource):
        return (d.node,)
    if isinstance(d, Probe):
        return (d.node,)
    return tuple(d.bindings)


def _validate_body(devices, inputs, subckts, top: bool) -> None:
    names: set[str] = set()
    source_nodes: dict[str, float] = {}
    referenced: set[str] = set()
    for d in devices:
        if not isinstance(d, Probe):
            if d.name in names:
                raise NetlistSemanticError(f"duplicate device id {d.name}")
            names.add(d.name)
        if isinstance(d, Fet):
            if not is_semiconducting(d.fet.chirality):
                raise NetlistSemanticError(
                    f"device {d.name}: metallic chirality "
                    f"({d.fet.chirality.n1}, {d.fet.chirality.n2})")
            referenced.update(_device_nodes(d))
        elif isinstance(d, Capacitor):
            if not (math.isfinite(d.farads) and d.farads > 0):
                raise NetlistSemanticError(
                    f"device {d.name}: capacitance must be finite and positive")
            referenced.update(_device_nodes(d))
        elif isinstance(d, FixedSource):
            if not math.isfinite(d.volts):
                raise NetlistSemanticError(f"device {d.name}: voltage must be finite")
            if d.node in (VDD, GND):
                raise NetlistSemanticError(f"device {d.name}: {d.node} is already a rail")
            if d.node in source_nodes:
                raise NetlistSemanticError(f"device {d.name}: node {d.node} has two sources")
            source_nodes[d.node] = d.volts
            referenced.add(d.node)
        elif isinstance(d, Instance):
            if not top:
                raise NetlistSemanticError("subckt bodies cannot instantiate subckts")
            sub = subckts.get(d.subckt)
            if sub is None:
                raise NetlistSemanticError(f"instance {d.name}: unknown subckt {d.subckt}")
            if len(d.bindings) != len(sub.ports):
                raise NetlistSemanticError(
                    f"instance {d.name}: {len(d.bindings)} bindings for "
                    f"{len(sub.ports)} ports of {d.subckt}")
            referenced.update(d.bindings)
    for d in devices:
        if isinstance(d, Probe) and d.node not in referenced:
            raise NetlistSemanticError(f"probe of unknown node {d.node}")
    for node in inputs:
        if node not in referenced:
            raise NetlistSemanticError(f"declared input {node} is not connected")
        if node in source_nodes or node in (VDD, GND):
            raise NetlistSemanticError(f"input {node} is already driven internally")


def flatten(n: Netlist) -> Netlist:
    """Expand subckt instances in place-and-prefix style.  Bound ports map to
    the caller's nodes; internal child nodes and device names get the
    instance name as a dotted prefix.  VDD/GND stay global."""
    if not n.subckts and not any(isinstance(d, Instance) for d in n.devices):
        return n
    out: list[Device] = []
    for d in n.devices:
        if not isinstance(d, Instance):
            out.append(d)
            continue
        sub = n.subckts[d.subckt]
        port_map = dict(zip(sub.ports, d.bindings))

        def remap(node: str, inst=d) -> str:
            if node in (VDD, GND):
                return node
            if node in port_map:
                return port_map[node]
            return f"{inst.name}.{node}"

        for cd in sub.devices:
            if isinstance(cd, Fet):
                f = cd.fet
                out.append(Fet(f"{d.name}.{cd.name}", CnfetInstance(
                    f.polarity, f.chirality, f.tubes,
                    remap(f.drain), remap(f.gate), remap(f.source))))
            elif isinstance(cd, Capacitor):
                out.append(Capacitor(f"{d.name}.{cd.name}", remap(cd.a), remap(cd.b), cd.farads))
            elif isinstance(cd, FixedSource):
                out.append(FixedSource(f"{d.name}.{cd.name}", remap(cd.node), cd.volts))
            else:
                raise NetlistSemanticError(
                    f"instance {d.name}: unsupported child device {cd!r}")
    return Netlist(n.name, out, n.inputs, {})


# ---------------------------------------------------------------------------
# parsing

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


def _norm_node(tok: str) -> str:
    if tok.upper() in (VDD, GND):
        return tok.upper()
    return tok


def _tokens_with_cols(line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_int(tok: str, lineno: int, col: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise NetlistSyntaxError(lineno, col, f"expected integer {what}, got {tok!r}") from None


def _parse_float(tok: str, lineno: int, col: int, what: str, written: str | None = None) -> float:
    """tok as a finite float; errors quote written, the token as it stands in
    the file (tok by default)."""
    shown = tok if written is None else written
    try:
        value = float(tok)
    except ValueError:
        raise NetlistSyntaxError(lineno, col, f"expected number {what}, got {shown!r}") from None
    if not math.isfinite(value):
        raise NetlistSyntaxError(lineno, col, f"expected finite {what}, got {shown!r}")
    return value


def _parse_cap_value(tok: str, lineno: int, col: int) -> float:
    scale = _CAP_SCALE.get(tok[-1:].lower())
    if scale is not None:
        try:
            float(tok[:-1])
        except ValueError:
            scale = None    # 'inf' and 'nan' end in a scale letter but are read whole
    if scale is None:
        return _parse_float(tok, lineno, col, "capacitance")
    return _parse_float(tok[:-1], lineno, col, "capacitance", tok) * scale


def _parse_device(toks: list[tuple[str, int]], lineno: int) -> Device:
    (card, col0) = toks[0]
    kind = card[0].lower()
    if len(card) < 2:
        raise NetlistSyntaxError(lineno, col0, f"device id missing after {card!r}")
    if kind == "m":
        if len(toks) != 8:
            raise NetlistSyntaxError(lineno, col0,
                                     f"transistor card takes 8 fields, got {len(toks)}")
        _, d, g, s, pol, n1, n2, tubes = [t for t, _ in toks]
        if pol.lower() not in ("nfet", "pfet"):
            raise NetlistSyntaxError(lineno, toks[4][1],
                                     f"polarity must be nfet or pfet, got {pol!r}")
        n1v = _parse_int(n1, lineno, toks[5][1], "chiral index")
        n2v = _parse_int(n2, lineno, toks[6][1], "chiral index")
        tubesv = _parse_int(tubes, lineno, toks[7][1], "tube count")
        if tubesv < 1:
            raise NetlistSemanticError(f"device {card}: tube count must be >= 1", lineno)
        try:
            chir = Chirality(n1v, n2v)
        except (ZeroChirality, OutOfRange) as e:
            raise NetlistSemanticError(f"device {card}: {e}", lineno) from None
        return Fet(card, CnfetInstance(
            Polarity(pol.lower()), chir, tubesv,
            _norm_node(d), _norm_node(g), _norm_node(s)))
    if kind == "c":
        if len(toks) != 4:
            raise NetlistSyntaxError(lineno, col0,
                                     f"capacitor card takes 4 fields, got {len(toks)}")
        value = _parse_cap_value(toks[3][0], lineno, toks[3][1])
        return Capacitor(card, _norm_node(toks[1][0]), _norm_node(toks[2][0]), value)
    if kind == "v":
        if len(toks) != 3:
            raise NetlistSyntaxError(lineno, col0,
                                     f"source card takes 3 fields, got {len(toks)}")
        volts = _parse_float(toks[2][0], lineno, toks[2][1], "voltage")
        return FixedSource(card, _norm_node(toks[1][0]), volts)
    if kind == "x":
        if len(toks) < 3:
            raise NetlistSyntaxError(lineno, col0,
                                     "instance card needs at least one binding and a subckt")
        bindings = tuple(_norm_node(t) for t, _ in toks[1:-1])
        return Instance(card, bindings, toks[-1][0])
    raise NetlistSyntaxError(lineno, col0, f"unknown card {card!r}")


def parse(text: str | bytes) -> Netlist:
    """Parse .tnl text (bytes are read as UTF-8) into a validated Netlist."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            # the bad byte's line and column, counted as for decoded text
            head = (text[:e.start].decode("utf-8") + "?").splitlines()
            raise NetlistSyntaxError(len(head), len(head[-1]),
                                     f"byte 0x{text[e.start]:02x} is not UTF-8 text") from None
    text = text.removeprefix("\ufeff")     # one UTF-8 byte-order mark
    name = "netlist"
    name_seen = False
    devices: list[Device] = []
    inputs: set[str] = set()
    subckts: dict[str, Subckt] = {}
    current_sub: tuple[str, tuple[str, ...], list[Device]] | None = None
    ended = False
    any_card = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("*"):
            if not any_card and not name_seen:
                fields = line[1:].split()
                if len(fields) == 1 and _NAME_RE.match(fields[0]):
                    name = fields[0]
                    name_seen = True
            continue
        if ended:
            raise NetlistSyntaxError(lineno, 1, "content after .end")
        any_card = True
        toks = _tokens_with_cols(raw)
        head = toks[0][0].lower()
        if head == ".end":
            ended = True
            continue
        if head == ".ends":
            if current_sub is None:
                raise NetlistSyntaxError(lineno, toks[0][1], ".ends outside a subckt")
            sname, ports, body = current_sub
            subckts[sname] = Subckt(sname, ports, tuple(body))
            current_sub = None
            continue
        if head == ".subckt":
            if current_sub is not None:
                raise NetlistSyntaxError(lineno, toks[0][1], "subckts cannot nest")
            if len(toks) < 3:
                raise NetlistSyntaxError(lineno, toks[0][1],
                                         ".subckt needs a name and at least one port")
            sname = toks[1][0]
            if sname in subckts:
                raise NetlistSemanticError(f"duplicate subckt {sname}", lineno)
            ports = tuple(_norm_node(t) for t, _ in toks[2:])
            current_sub = (sname, ports, [])
            continue
        if head == ".probe":
            if len(toks) != 2:
                raise NetlistSyntaxError(lineno, toks[0][1], ".probe takes one node")
            if current_sub is not None:
                raise NetlistSyntaxError(lineno, toks[0][1], ".probe not allowed in a subckt")
            devices.append(Probe(_norm_node(toks[1][0])))
            continue
        if head == ".input":
            if len(toks) != 2:
                raise NetlistSyntaxError(lineno, toks[0][1], ".input takes one node")
            if current_sub is not None:
                raise NetlistSyntaxError(lineno, toks[0][1], ".input not allowed in a subckt")
            inputs.add(_norm_node(toks[1][0]))
            continue
        if head.startswith("."):
            raise NetlistSyntaxError(lineno, toks[0][1], f"unknown directive {toks[0][0]!r}")
        dev = _parse_device(toks, lineno)
        if current_sub is not None:
            current_sub[2].append(dev)
        else:
            devices.append(dev)

    if current_sub is not None:
        raise NetlistSyntaxError(len(text.splitlines()) + 1, 1, "unterminated .subckt")
    if not ended:
        raise NetlistSyntaxError(len(text.splitlines()) + 1, 1, "missing .end")
    n = Netlist(name, devices, frozenset(inputs), subckts)
    n.validate()
    return n


# ---------------------------------------------------------------------------
# serialization

def _fmt_cap(farads: float) -> str:
    in_femto = farads / 1e-15
    if in_femto * 1e-15 == farads:
        return f"{in_femto!r}f"
    return repr(farads)


def _device_line(d: Device) -> str:
    if isinstance(d, Fet):
        f = d.fet
        return (f"{d.name} {f.drain} {f.gate} {f.source} {f.polarity.value} "
                f"{f.chirality.n1} {f.chirality.n2} {f.tubes}")
    if isinstance(d, Capacitor):
        return f"{d.name} {d.a} {d.b} {_fmt_cap(d.farads)}"
    if isinstance(d, FixedSource):
        return f"{d.name} {d.node} {d.volts!r}"
    if isinstance(d, Probe):
        return f".probe {d.node}"
    return f"{d.name} {' '.join(d.bindings)} {d.subckt}"


def serialize(n: Netlist) -> str:
    """Canonical .tnl text.  Serializing the parse of this output reproduces
    it byte for byte."""
    lines = [f"* {n.name}"]
    for node in sorted(n.inputs):
        lines.append(f".input {node}")
    for sname in sorted(n.subckts):
        sub = n.subckts[sname]
        lines.append(f".subckt {sub.name} {' '.join(sub.ports)}")
        for d in sub.devices:
            lines.append(_device_line(d))
        lines.append(".ends")
    for d in n.devices:
        lines.append(_device_line(d))
    lines.append(".end")
    return "\n".join(lines) + "\n"
