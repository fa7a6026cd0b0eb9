"""Netlist text format: parsing, validation, flattening, serialization."""

import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import tritsim
from gen_netlists import random_netlist
from tritsim import (Capacitor, Chirality, Fet, FixedSource, Instance, NetlistSemanticError,
                     NetlistSyntaxError, Netlist, OutOfRange, Polarity, Subckt,
                     fixture_text, FIXTURE_NAMES, flatten, parse, serialize)

SAMPLE = """\
* sample
* capacitively loaded pass stage with one child definition
.input a

.subckt inv in out
Mp out in VDD pfet 19 0 2
Mn out in GND nfet 10 0 1
.ends

Ma y a GND nfet 19 0 3
Cload y gnd 2.5f
Vbias nb 0.45
Xu1 a y inv
.probe y
.end
"""


def test_parse_sample_structure():
    n = parse(SAMPLE)
    assert n.name == "sample"
    assert n.inputs == frozenset({"a"})
    assert [type(d).__name__ for d in n.devices] == \
        ["Fet", "Capacitor", "FixedSource", "Instance"]
    ma = n.devices[0]
    assert ma == Fet("Ma", Polarity.NFET, Chirality(19, 0), 3, "y", "a", "GND")
    cload = n.devices[1]
    assert cload.b == "GND" and cload.farads == 2.5 * 1e-15
    assert n.devices[2] == FixedSource("Vbias", "nb", 0.45)
    assert n.devices[3] == Instance("Xu1", ("a", "y"), "inv")
    assert n.probes == ("y",)
    sub = n.subckts["inv"]
    assert sub.ports == ("in", "out")
    assert len(sub.devices) == 2


def test_parse_accepts_bytes():
    n = parse(SAMPLE.encode())
    assert n == parse(SAMPLE)


def test_parse_drops_one_leading_byte_order_mark():
    want = parse("* bom\n.end\n")
    assert want.name == "bom"
    assert parse(b"\xef\xbb\xbf* bom\n.end\n") == want
    assert parse("\ufeff* bom\n.end\n") == want
    with pytest.raises(NetlistSyntaxError, match="unknown card"):
        parse("\ufeff\ufeff* bom\n.end\n")


@pytest.mark.parametrize("data,line,col", [
    (b"\xff", 1, 1),
    (b"* t\n\xff\n.end\n", 2, 1),
    (b"* t\r\nC1 a\xc3\xa9 \xff\n.end\n", 2, 7),   # columns count characters
])
def test_parse_rejects_bytes_that_are_not_utf8(data, line, col):
    with pytest.raises(NetlistSyntaxError, match="not UTF-8") as e:
        parse(data)
    assert (e.value.line, e.value.col) == (line, col)


def test_rail_and_keyword_case_folding():
    n = parse("* t\nM1 y a vdd PFET 19 0 1\nC1 y Gnd 1f\n.END\n")
    assert n.devices[0].source == "VDD"
    assert n.devices[1].b == "GND"


def test_first_comment_names_netlist_only_before_cards():
    n = parse("* named\nC1 a b 1f\n* late_name\n.end\n")
    assert n.name == "named"
    n = parse("C1 a b 1f\n* late_name\n.end\n")
    assert n.name == "netlist"
    # multi-word comments are not names
    n = parse("* two words\nC1 a b 1f\n.end\n")
    assert n.name == "netlist"


def test_capacitance_suffixes():
    n = parse("* t\nC1 a b 2f\nC2 a b 3p\nC3 a b 1.5n\nC4 a b 4.7e-14\n.end\n")
    assert [d.farads for d in n.devices] == [2 * 1e-15, 3 * 1e-12, 1.5 * 1e-9, 4.7e-14]


def test_stats_flattens_instances():
    n = parse(SAMPLE)
    assert n.stats() == {"cnfets": 3, "capacitors": 1, "sources": 1, "nodes": 5}


def test_flatten_prefixes_child_nodes_and_keeps_rails():
    n = parse(SAMPLE)
    flat = flatten(n)
    names = [d.name for d in flat.devices if isinstance(d, Fet)]
    assert names == ["Ma", "Xu1.Mp", "Xu1.Mn"]
    mp = next(d for d in flat.devices if d.name == "Xu1.Mp")
    assert (mp.drain, mp.gate, mp.source) == ("y", "a", "VDD")
    # every other field of a child transistor is kept as it is
    nodes = {"in": "a", "out": "y", "VDD": "VDD", "GND": "GND"}
    children = [d for d in flat.devices if isinstance(d, Fet) and d.name.startswith("Xu1.")]
    assert children == [replace(f, name=f"Xu1.{f.name}", drain=nodes[f.drain],
                                gate=nodes[f.gate], source=nodes[f.source])
                        for f in n.subckts["inv"].devices]
    assert not flat.subckts


def test_flatten_prefixes_internal_child_nodes():
    text = """* t
.subckt delay in out
Mq1 mid in GND nfet 19 0 1
Mq2 out mid GND nfet 19 0 1
.ends
X1 p q delay
.end
"""
    n = parse(text)
    assert n.node_ids() == {"p", "q"}
    flat = flatten(n)
    assert {d.drain for d in flat.devices} == {"X1.mid", "q"}
    assert "X1.mid" in flat.node_ids()


@pytest.mark.parametrize("text,line,col,fragment", [
    ("M1 a b\n.end\n", 1, 1, "8 fields"),
    ("M1 d g s nfet 19 0\n.end\n", 1, 1, "8 fields"),
    ("M1 d g s mosfet 19 0 1\n.end\n", 1, 10, "polarity"),
    ("M1 d g s nfet x 0 1\n.end\n", 1, 15, "integer"),
    ("C1 a b\n.end\n", 1, 1, "4 fields"),
    ("C1 a b 1q\n.end\n", 1, 8, "capacitance"),
    ("V1 a\n.end\n", 1, 1, "3 fields"),
    ("V1 a volts\n.end\n", 1, 6, "number"),
    ("X1 sub\n.end\n", 1, 1, "binding"),
    ("Q1 a b c\n.end\n", 1, 1, "unknown card"),
    ("M\n.end\n", 1, 1, "device id missing after 'M'"),
    (".probe a b\n.end\n", 1, 1, "one node"),
    (".input\n.end\n", 1, 1, "one node"),
    (".foo x\n.end\n", 1, 1, "unknown directive"),
    (".ends\n.end\n", 1, 1, "outside"),
    (".subckt s\n.end\n", 1, 1, "at least one port"),
    ("V1 a nan\n.end\n", 1, 6, "finite"),
    ("V1 a -inf\n.end\n", 1, 6, "finite"),
    ("C1 a b nanf\n.end\n", 1, 8, "finite"),
    ("C1 a b infp\n.end\n", 1, 8, "finite"),
    ("C1 a b 1e999\n.end\n", 1, 8, "finite"),
    ("C1 a GND inf\n.end\n", 1, 10, "got 'inf'"),
    ("C1 a GND nan\n.end\n", 1, 10, "got 'nan'"),
    ("C1 a GND nanf\n.end\n", 1, 10, "got 'nanf'"),
    ("C1 a GND 1xp\n.end\n", 1, 10, "got '1xp'"),
])
def test_syntax_error_positions(text, line, col, fragment):
    with pytest.raises(NetlistSyntaxError) as e:
        parse(text)
    assert e.value.line == line
    assert e.value.col == col
    assert fragment in str(e.value)


def test_validate_rejects_non_finite_values_built_in_code():
    with pytest.raises(NetlistSemanticError, match="positive"):
        Netlist("hand", [Capacitor("C1", "a", "b", float("nan"))]).validate()
    for farads in (float("inf"), -float("inf")):
        with pytest.raises(NetlistSemanticError, match="finite"):
            Netlist("hand", [Capacitor("C1", "a", "b", farads)]).validate()
    with pytest.raises(NetlistSemanticError, match="finite"):
        Netlist("hand", [FixedSource("V1", "a", float("inf")),
                         Capacitor("C1", "a", "b", 1e-15)]).validate()


@pytest.mark.parametrize("device", [Capacitor("C1", "a", "GND", "1f"),
                                    FixedSource("V1", "a", "0.45")], ids=["farads", "volts"])
def test_flatten_rejects_a_value_that_is_not_a_number(device):
    with pytest.raises(NetlistSemanticError, match="finite"):
        flatten(Netlist("hand", [device, Capacitor("C2", "a", "b", 1e-15)]))


def test_syntax_error_column_tracks_indentation():
    with pytest.raises(NetlistSyntaxError) as e:
        parse("   Q1 a b c\n.end\n")
    assert (e.value.line, e.value.col) == (1, 4)


def test_missing_end():
    with pytest.raises(NetlistSyntaxError) as e:
        parse("C1 a b 1f\n")
    assert "missing .end" in str(e.value)


def test_content_after_end():
    with pytest.raises(NetlistSyntaxError) as e:
        parse(".end\nC1 a b 1f\n")
    assert "after .end" in str(e.value)


def test_unterminated_subckt():
    with pytest.raises(NetlistSyntaxError) as e:
        parse(".subckt s p\nC1 p x 1f\n.end\n")
    assert "unterminated" in str(e.value) or "missing" in str(e.value)


def test_nested_subckt_rejected():
    with pytest.raises(NetlistSyntaxError):
        parse(".subckt s p\n.subckt t q\n.ends\n.ends\n.end\n")


def test_probe_and_input_rejected_inside_subckt():
    with pytest.raises(NetlistSyntaxError):
        parse(".subckt s p\n.probe p\n.ends\n.end\n")
    with pytest.raises(NetlistSyntaxError):
        parse(".subckt s p\n.input p\n.ends\n.end\n")


@pytest.mark.parametrize("text,fragment", [
    ("M1 d g s nfet 6 3 1\n.end\n", "metallic"),
    ("M1 d g s nfet 0 0 1\n.end\n", "chirality"),
    ("M1 d g s nfet 19 0 0\n.end\n", "tube count"),
    ("C1 a b 0f\n.end\n", "positive"),
    ("C1 a b -1f\n.end\n", "positive"),
    ("C1 a b 1f\nC1 c d 1f\n.end\n", "duplicate device"),
    ("V1 VDD 0.9\n.end\n", "rail"),
    ("V1 a 0.9\nV2 a 0.3\n.end\n", "two sources"),
    ("X1 a b ghost\n.end\n", "unknown subckt"),
    (".subckt s p q\nC1 p q 1f\n.ends\nX1 a s\n.end\n", "bindings"),
    (".probe ghost\nC1 a b 1f\n.end\n", "unknown node"),
    # probed twice, y would carry the output load twice
    (".probe y\nC1 y GND 1f\n.probe y\n.end\n", "node y is probed twice"),
    (".input ghost\nC1 a b 1f\n.end\n", "not connected"),
    (".input a\nV1 a 0.9\nC1 a b 1f\n.end\n", "driven"),
    (".subckt s p q\nC1 p x 1f\n.ends\nX1 a b s\n.end\n", "port q not used"),
    (".subckt s p\nC1 p x 1f\n.ends\n.subckt s p\nC2 p x 1f\n.ends\n.end\n", "duplicate subckt"),
    (".subckt s p q q\nC1 p q 1f\n.ends\nX1 x y w s\n.probe y\n.end\n",
     "subckt s: port q listed twice"),
    (".subckt s p GND q\nMn q p GND nfet 19 0 3\n.ends\nX1 x VDD w s\n.end\n",
     "instance X1: rail port GND of s bound to VDD"),
    (".subckt s p VDD\nMp p p VDD pfet 19 0 3\n.ends\nX1 x y s\n.end\n",
     "instance X1: rail port VDD of s bound to y"),
    # the CLI writes node ids into comma-separated rows and reads node=value
    (".input a,b\nM1 y,z a,b GND nfet 19 0 3\nC1 y,z VDD 1f\n.probe y,z\n.end\n",
     "node id a,b contains ',' or '='"),
    (".input a=b\nC1 a GND 1f\n.end\n", "node id a=b contains"),
    (".subckt s p,q\nC1 p,q x 1f\n.ends\nX1 a s\n.end\n", "node id p,q contains"),
    (".subckt s p\nC1 p x 1f\n.ends\nX1 a=1 s\n.end\n", "node id a=1 contains"),
])
def test_semantic_errors(text, fragment):
    with pytest.raises(NetlistSemanticError) as e:
        parse(text)
    assert fragment in str(e.value)


def test_fet_requires_tubes():
    with pytest.raises(OutOfRange, match="tube count must be >= 1"):
        Fet("M1", Polarity.NFET, Chirality(19, 0), 0, "d", "g", "s")
    with pytest.raises(NetlistSemanticError) as e:
        parse("* t\nM1 d g s nfet 19 0 -2\n.end\n")
    assert str(e.value) == "line 2: device M1: tube count must be >= 1"


def test_instance_inside_subckt_rejected():
    text = """* t
.subckt a p
C1 p x 1f
.ends
.subckt b q
X1 q a
.ends
.end
"""
    with pytest.raises(NetlistSemanticError) as e:
        parse(text)
    assert "cannot instantiate" in str(e.value)


def test_serialize_is_canonical():
    n = parse(SAMPLE)
    text = serialize(n)
    lines = text.splitlines()
    assert lines[0] == "* sample"
    assert lines[1] == ".input a"
    assert lines[2].startswith(".subckt inv")
    assert lines[-1] == ".end"
    assert text.endswith("\n")


def test_probes_are_written_after_the_devices_in_their_order():
    n = parse("* t\n.probe y\nC1 y GND 1f\n.probe a\nC2 a y 1f\n.end\n")
    assert n.probes == ("y", "a")
    text = serialize(n)
    assert text == "* t\nC1 y GND 1.0f\nC2 a y 1.0f\n.probe y\n.probe a\n.end\n"
    assert parse(text) == n


def test_round_trip_sample():
    n = parse(SAMPLE)
    assert parse(serialize(n)) == n
    # canonical form is a fixpoint
    assert serialize(parse(serialize(n))) == serialize(n)


def test_round_trip_fixtures():
    for name in FIXTURE_NAMES:
        text = fixture_text(name)
        n = parse(text)
        assert serialize(n) == text
        assert parse(serialize(n)) == n


def test_a_bad_input_message_does_not_depend_on_the_hash_seed():
    # three unconnected inputs; iterating the frozenset named any of them
    code = ("from tritsim import parse\n"
            "try:\n"
            "    parse('* t\\n.input alpha\\n.input beta\\n.input gamma\\n.end\\n')\n"
            "except Exception as e:\n"
            "    print(e)\n")
    path = os.pathsep.join(filter(None, (str(Path(tritsim.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH"))))
    messages = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, env={**os.environ, "PYTHONPATH": path,
                                                "PYTHONHASHSEED": str(seed)}).stdout
                for seed in range(1, 7)}
    assert messages == {"declared input alpha is not connected\n"}


def test_round_trip_generated_netlists():
    rng = random.Random(90210)
    for i in range(100):
        n = random_netlist(rng, i)
        text = serialize(n)
        back = parse(text)
        assert back == n, f"netlist {i} changed across a round trip"
        assert serialize(back) == text


def test_empty_netlist_round_trip():
    n = parse("* bare\n.end\n")
    assert n.name == "bare"
    assert n.devices == []
    assert parse(serialize(n)) == n


def test_validate_on_hand_built_netlist():
    n = Netlist("hand", [Capacitor("C1", "a", "b", 1e-15)], probes=("a",))
    n.validate()
    bad = Netlist("hand", [Capacitor("C1", "a", "b", 1e-15)], probes=("ghost",))
    with pytest.raises(NetlistSemanticError):
        bad.validate()
    twice = Netlist("hand", [Capacitor("C1", "a", "b", 1e-15)], probes=("a", "b", "a"))
    with pytest.raises(NetlistSemanticError, match="^node a is probed twice$"):
        twice.validate()


_CAP = Capacitor("C1", "p", "GND", 1e-15)


# each of these passed validate, then failed or changed across serialize -> parse
@pytest.mark.parametrize("node,n", [
    *((x, Netlist("hand", [Capacitor("C1", x, "GND", 1e-15)]))
      for x in ("a b", "", " a", "vdd", "Gnd")),
    ("vdd", Netlist("hand", [Instance("X1", ("a",), "s")], frozenset(),
                    {"s": Subckt("s", ("vdd",), (Capacitor("C1", "vdd", "GND", 1e-15),))})),
    ("a b", Netlist("hand", [Capacitor("C1", "a b", "GND", 1e-15)], frozenset({"a b"}))),
], ids=["space", "empty", "leading-space", "vdd", "Gnd", "port-vdd", "input-a-b"])
def test_a_node_id_the_text_cannot_carry_is_rejected(node, n):
    with pytest.raises(NetlistSemanticError,
                       match=f"^node id {re.escape(repr(node))} cannot be written in .tnl text"):
        n.validate()


@pytest.mark.parametrize("n,message", [
    (Netlist("my net", [_CAP]), "netlist name 'my net' must match [A-Za-z0-9_.-]+"),
    (Netlist("", [_CAP]), "netlist name '' must match [A-Za-z0-9_.-]+"),
    (Netlist("abc\n", [_CAP]), "netlist name 'abc\\n' must match [A-Za-z0-9_.-]+"),
    (Netlist("hand", [Instance("X1", ("a",), "s")], frozenset(),
             {"s": Subckt("t", ("p",), (_CAP,))}), "subckt t is filed under s"),
    (Netlist("hand", [_CAP], frozenset(), {"s": Subckt("s", (), (_CAP,))}),
     "subckt s has no ports"),
    # each of these validated, then re-parsed as a different card or failed
    (Netlist("hand", [Capacitor("C 1", "p", "GND", 1e-15)]),
     "device name 'C 1' cannot be written in .tnl text (one token)"),
    (Netlist("hand", [Capacitor("", "p", "GND", 1e-15)]),
     "device name '' cannot be written in .tnl text (one token)"),
    (Netlist("hand", [Instance("X 1", ("a",), "s")], frozenset(),
             {"s": Subckt("s", ("p",), (_CAP,))}),
     "device name 'X 1' cannot be written in .tnl text (one token)"),
    (Netlist("hand", [Instance("X1", ("a",), "s")], frozenset(),
             {"s": Subckt("s", ("p",), (Capacitor("C\t1", "p", "GND", 1e-15),))}),
     "device name 'C\\t1' cannot be written in .tnl text (one token)"),
    (Netlist("hand", [Instance("X1", ("a",), "my sub")], frozenset(),
             {"my sub": Subckt("my sub", ("p",), (_CAP,))}),
     "subckt name 'my sub' cannot be written in .tnl text (one token)"),
], ids=["space", "empty", "newline", "subckt-key", "no-ports", "device-space", "device-empty",
        "instance-space", "child-tab", "subckt-space"])
def test_a_name_the_text_cannot_carry_is_rejected(n, message):
    with pytest.raises(NetlistSemanticError, match=f"^{re.escape(message)}$"):
        n.validate()
