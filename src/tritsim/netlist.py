"""Transistor-level netlist model with a SPICE-flavored text format (.tnl).

Grammar, one card per line, keywords case-insensitive::

    * <name>                                  first comment line names the netlist
    * anything                                comment
    .input <node>                             node driven externally per stimulus
    .subckt <name> <port> [<port> ...]        child definition (no nesting)
    .ends
    .probe <node>                             marks an output node, once each
    .end                                      terminator, required
    M<id> <drain> <gate> <source> {nfet|pfet} <n1> <n2> <tubes>
    C<id> <a> <b> <value>[f|p|n]              capacitance, bare value = farads
    V<id> <node> <volts>                      ideal source pinning a node
    X<id> <node> [<node> ...] <subckt>        child instance, ports positional

Node ids are case-sensitive except VDD and GND, which are folded to upper
case and reserved for the rails.  Nodes exist by being referenced.  The
serializer emits a canonical form: name header, .input lines sorted, child
definitions sorted by name and always before any instance, devices in
declaration order, .probe lines in the order written, .end last.
parse(serialize(n)) reproduces n exactly and a second serialization is
byte-identical.
"""

from __future__ import annotations

import dataclasses
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

from .cnfet import Chirality, Polarity, is_semiconducting
from .errors import NetlistSemanticError, NetlistSyntaxError, OutOfRange, ZeroChirality, _finite

VDD = "VDD"
GND = "GND"

_CAP_SCALE = {"f": 1e-15, "p": 1e-12, "n": 1e-9}


@dataclass(frozen=True)
class Fet:
    """One switch-level transistor card: polarity, chirality, parallel tube
    count, and the node ids of its three terminals."""

    name: str
    polarity: Polarity
    chirality: Chirality
    tubes: int
    drain: str
    gate: str
    source: str

    def __post_init__(self):
        if self.tubes < 1:
            raise OutOfRange("tube count must be >= 1")


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
class Instance:
    name: str
    bindings: tuple[str, ...]
    subckt: str


Device = Fet | Capacitor | FixedSource | Instance

# each card kind's node fields, in card order; _NODES_OF reads them as one
# tuple (attrgetter of a single field returns it bare), an Instance's as its bindings
_NODE_FIELDS = {Fet: ("drain", "gate", "source"), Capacitor: ("a", "b"), FixedSource: ("node",)}
_NODES_OF = {kind: attrgetter(*f) if len(f) > 1 else lambda d, get=attrgetter(*f): (get(d),)
             for kind, f in _NODE_FIELDS.items()} | {Instance: attrgetter("bindings")}


@dataclass(frozen=True)
class Subckt:
    name: str
    ports: tuple[str, ...]
    devices: tuple[Device, ...]


@dataclass
class Netlist:
    """A top-level netlist.  `probes` are its output nodes, each once, in the
    order written; each carries SimConfig.c_out_load.  `_compiled` holds the
    simulator's compiled form, outside init, repr and equality; an in-place
    change recompiles it."""

    name: str = "netlist"
    devices: list[Device] = field(default_factory=list)
    inputs: frozenset[str] = frozenset()
    subckts: dict[str, Subckt] = field(default_factory=dict)
    probes: tuple[str, ...] = ()
    _compiled: object = field(default=None, init=False, repr=False, compare=False)

    def _contents(self) -> tuple:
        """The compile cache's key: every compared field but the name."""
        return (self.inputs, self.probes, *self.subckts, *self.subckts.values(), *self.devices)

    def node_ids(self) -> set[str]:
        ids = set(self.inputs)
        for d in self.devices:
            ids.update(_device_nodes(d))
        return ids

    def stats(self) -> dict[str, int]:
        flat = flatten(self)
        kinds = Counter(type(d) for d in flat.devices)
        return {"cnfets": kinds[Fet], "capacitors": kinds[Capacitor],
                "sources": kinds[FixedSource], "nodes": len(flat.node_ids())}

    def validate(self) -> None:
        if not _NAME_RE.fullmatch(self.name):
            raise NetlistSemanticError(f"netlist name {self.name!r} must match [A-Za-z0-9_.-]+")
        used = _validate_body(self.devices, self.inputs, self.subckts, top=True)
        probed: set[str] = set()
        for node in self.probes:
            if node in probed:
                raise NetlistSemanticError(f"node {node} is probed twice")
            if node not in used:
                raise NetlistSemanticError(f"probe of unknown node {node}")
            probed.add(node)
        for key, sub in self.subckts.items():
            if key != sub.name:
                raise NetlistSemanticError(f"subckt {sub.name} is filed under {key}")
            if sub.name.split() != [sub.name]:
                raise NetlistSemanticError(
                    f"subckt name {sub.name!r} cannot be written in .tnl text (one token)")
            if not sub.ports:
                raise NetlistSemanticError(f"subckt {sub.name} has no ports")
            used = _validate_body(sub.devices, frozenset(), {}, top=False)
            for k, port in enumerate(sub.ports):
                if port in sub.ports[:k]:
                    raise NetlistSemanticError(f"subckt {sub.name}: port {port} listed twice")
                if port not in used:
                    raise NetlistSemanticError(
                        f"subckt {sub.name}: port {port} not used by any device")


def _device_nodes(d: Device) -> tuple[str, ...]:
    return _NODES_OF[type(d)](d)


def _validate_body(devices, inputs, subckts, top: bool) -> set[str]:
    """Check one body; returns the nodes its devices use."""
    names: set[str] = set()
    source_nodes: dict[str, float] = {}
    referenced: set[str] = set()
    for d in devices:
        if d.name in names:
            raise NetlistSemanticError(f"duplicate device id {d.name}")
        if d.name.split() != [d.name]:
            raise NetlistSemanticError(
                f"device name {d.name!r} cannot be written in .tnl text (one token)")
        names.add(d.name)
        referenced.update(_device_nodes(d))
        if isinstance(d, Fet):
            if not is_semiconducting(d.chirality):
                raise NetlistSemanticError(
                    f"device {d.name}: metallic chirality "
                    f"({d.chirality.n1}, {d.chirality.n2})")
        elif isinstance(d, Capacitor):
            if not (_finite(d.farads) and d.farads > 0):
                raise NetlistSemanticError(
                    f"device {d.name}: capacitance must be finite and positive")
        elif isinstance(d, FixedSource):
            if not _finite(d.volts):
                raise NetlistSemanticError(f"device {d.name}: voltage must be finite")
            if d.node in (VDD, GND):
                raise NetlistSemanticError(f"device {d.name}: {d.node} is already a rail")
            if d.node in source_nodes:
                raise NetlistSemanticError(f"device {d.name}: node {d.node} has two sources")
            source_nodes[d.node] = d.volts
        else:   # an Instance
            if not top:
                raise NetlistSemanticError("subckt bodies cannot instantiate subckts")
            sub = subckts.get(d.subckt)
            if sub is None:
                raise NetlistSemanticError(f"instance {d.name}: unknown subckt {d.subckt}")
            if len(d.bindings) != len(sub.ports):
                raise NetlistSemanticError(
                    f"instance {d.name}: {len(d.bindings)} bindings for "
                    f"{len(sub.ports)} ports of {d.subckt}")
            for port, node in zip(sub.ports, d.bindings):
                if port in (VDD, GND) and node != port:
                    raise NetlistSemanticError(
                        f"instance {d.name}: rail port {port} of {d.subckt} bound to {node}")
    # ids that the CLI's rows (',', '=') or .tnl tokens (spaces, rail case) cannot carry
    bad = sorted(node for node in referenced | inputs
                 if "," in node or "=" in node or node.split() != [_norm_node(node)])
    if bad and ("," in bad[0] or "=" in bad[0]):
        raise NetlistSemanticError(f"node id {bad[0]} contains ',' or '='")
    if bad:
        raise NetlistSemanticError(f"node id {bad[0]!r} cannot be written in .tnl text "
                                   "(one token, VDD/GND in upper case only)")
    for node in sorted(inputs):
        if node not in referenced:
            raise NetlistSemanticError(f"declared input {node} is not connected")
        if node in source_nodes or node in (VDD, GND):
            raise NetlistSemanticError(f"input {node} is already driven internally")
    return referenced


def flatten(n: Netlist) -> Netlist:
    """Validates n and returns it with its subckt instances expanded, after
    validating that copy too; n without subckts comes back as it is.  Bound
    ports map to the caller's nodes; internal child nodes and device names
    get the instance name as a dotted prefix, and a prefixed node must not
    already name another node.  VDD/GND stay global."""
    n.validate()
    if not n.subckts:       # then validate has ruled out any instance
        return n
    owner = dict.fromkeys(n.node_ids())     # node -> instance it is internal to, or None
    out: list[Device] = []
    for d in n.devices:
        if not isinstance(d, Instance):
            out.append(d)
            continue
        sub = n.subckts[d.subckt]
        port_map = dict(zip(sub.ports, d.bindings))

        def remap(node: str, inst=d.name) -> str:
            if node in (VDD, GND):
                return node
            if node in port_map:
                return port_map[node]
            prefixed = f"{inst}.{node}"
            if owner.setdefault(prefixed, inst) != inst:
                raise NetlistSemanticError(
                    f"instance {inst}: internal node {prefixed} already names another node")
            return prefixed

        for cd in sub.devices:      # validate admits no instance here
            out.append(dataclasses.replace(cd, name=f"{d.name}.{cd.name}", **{
                f: remap(getattr(cd, f)) for f in _NODE_FIELDS[type(cd)]}))
    flat = Netlist(n.name, out, n.inputs, {}, n.probes)
    flat.validate()
    return flat


# ---------------------------------------------------------------------------
# parsing

_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")


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
        try:
            return Fet(card, Polarity(pol.lower()), Chirality(n1v, n2v), tubesv,
                       _norm_node(d), _norm_node(g), _norm_node(s))
        except (ZeroChirality, OutOfRange) as e:
            raise NetlistSemanticError(f"device {card}: {e}", lineno) from None
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
    probes: list[str] = []
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
                if len(fields) == 1 and _NAME_RE.fullmatch(fields[0]):
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
        if head in (".probe", ".input"):
            if len(toks) != 2:
                raise NetlistSyntaxError(lineno, toks[0][1], f"{head} takes one node")
            if current_sub is not None:
                raise NetlistSyntaxError(lineno, toks[0][1], f"{head} not allowed in a subckt")
            node = _norm_node(toks[1][0])
            if head == ".probe":
                probes.append(node)
            else:
                inputs.add(node)
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
    n = Netlist(name, devices, frozenset(inputs), subckts, tuple(probes))
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
    nodes = " ".join(_device_nodes(d))
    if isinstance(d, Fet):
        return f"{d.name} {nodes} {d.polarity.value} {d.chirality.n1} {d.chirality.n2} {d.tubes}"
    if isinstance(d, Capacitor):
        return f"{d.name} {nodes} {_fmt_cap(d.farads)}"
    if isinstance(d, FixedSource):
        return f"{d.name} {nodes} {d.volts!r}"
    return f"{d.name} {nodes} {d.subckt}"


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
    for node in n.probes:
        lines.append(f".probe {node}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
