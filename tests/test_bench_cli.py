"""Sweep engine and command-line front end.

CLI tests drive main() in-process and freeze exit codes and output shapes.
Sweep rows are frozen strings: the engine is deterministic, so any drift in
the numbers means the electrical model changed.
"""

import itertools
from collections import Counter

import pytest

from tritsim import (BOTH_VARIANTS, DEFAULT_VALUES, BuildConfig, ConfigError, DesignVariant,
                     FixedSource, OutOfRange, SimConfig, SweepSpec, benchmark_stimulus,
                     build_design, delay_estimate, fixture_text, run_sweep, sim, sweep_csv,
                     transient, truth_table_csv)
from tritsim import cli
from tritsim.cli import _build_parser, main

LOAD_POINT_CSV = (
    "variant,axis,value,delay_s,power_w,pdp_j\n"
    "design1,load,1e-15,3.000000e-11,1.980000e-07,5.940000e-18\n"
    "design2,load,1e-15,2.600000e-11,1.711875e-07,4.450875e-18\n"
)


# --- sweep spec -------------------------------------------------------------

def test_spec_defaults():
    spec = SweepSpec()
    assert spec.axis == "load"
    assert spec.values == DEFAULT_VALUES["load"]
    assert spec.variants == BOTH_VARIANTS
    assert (spec.vdd, spec.load, spec.frequency) == (0.9, 1e-15, 250e6)


def test_spec_fills_default_grid_per_axis():
    for axis, grid in DEFAULT_VALUES.items():
        assert SweepSpec(axis=axis).values == grid


def test_temperature_axis_is_rejected():
    with pytest.raises(ConfigError, match="validity"):
        SweepSpec(axis="temperature")


def test_unknown_axis_is_rejected():
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        SweepSpec(axis="area")


def test_spec_validates_fields():
    with pytest.raises(ConfigError):
        SweepSpec(variants=())
    with pytest.raises(ConfigError):
        SweepSpec(values=(1e-15, -1e-15))
    with pytest.raises(ConfigError):
        SweepSpec(values=(2e-15, 1e-15))    # must be strictly increasing
    with pytest.raises(ConfigError):
        SweepSpec(values=(1e-15, 1e-15))
    with pytest.raises(ConfigError):
        SweepSpec(load=0.0)
    with pytest.raises(ConfigError):
        SweepSpec(frequency=-1.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for field in ("vdd", "load", "frequency"):
            with pytest.raises(ConfigError, match="finite"):
                SweepSpec(**{field: bad})
        with pytest.raises(ConfigError, match="finite"):
            SweepSpec(values=(bad,))
        with pytest.raises(ConfigError, match="finite"):
            SweepSpec(values=(1e-15, bad))


@pytest.mark.parametrize("field", [{"values": ("1e-15",)}, {"vdd": "0.9"}, {"frequency": None}],
                         ids=["values", "vdd", "frequency"])
def test_spec_rejects_a_value_that_is_not_a_number(field):
    with pytest.raises(ConfigError, match="finite"):
        SweepSpec(**field)


def test_spec_reads_each_variant_as_the_other_calls_do():
    assert SweepSpec(variants=("2", 1)).variants == (DesignVariant.DESIGN2, DesignVariant.DESIGN1)
    header, _, design2 = LOAD_POINT_CSV.splitlines(keepends=True)
    assert sweep_csv(run_sweep(SweepSpec(variants=("2",), values=(1e-15,)))) == header + design2
    with pytest.raises(OutOfRange, match="^unknown design variant 'nope'$"):
        SweepSpec(variants=("nope",))


def test_spec_rejects_a_frequency_too_small_to_invert():
    # 1 / 1e-307 is finite, but 27 periods of it are not
    with pytest.raises(ConfigError, match="frequency 1e-307 Hz is too small"):
        SweepSpec(frequency=1e-307)
    with pytest.raises(ConfigError, match="values entry 1e-307 Hz is too small"):
        SweepSpec(axis="frequency", values=(1e-307, 1.0))
    assert SweepSpec(frequency=1e-306).frequency == 1e-306


# --- stimulus ---------------------------------------------------------------

def test_benchmark_stimulus_shape():
    period = 4e-9
    stim = benchmark_stimulus(0.9, period)
    assert len(stim) == 27
    assert [t for t, _ in stim] == [k * period for k in range(27)]
    assert stim[0][1] == {"a": 0.0, "b": 0.0, "cin": 0.0}
    assert stim[-1][1] == {"a": 0.9, "b": 0.9, "cin": 0.9}
    triples = [(e["a"], e["b"], e["cin"]) for _, e in stim]
    assert triples == sorted(triples)     # lexicographic, no repeats
    assert len(set(triples)) == 27


def test_benchmark_stimulus_rejects_bad_period():
    with pytest.raises(ConfigError):
        benchmark_stimulus(0.9, 0.0)


# --- engine -----------------------------------------------------------------

def test_single_load_point_rows_are_frozen():
    points = run_sweep(SweepSpec(values=(1e-15,)))
    assert sweep_csv(points) == LOAD_POINT_CSV
    for p in points:
        assert p.delay_s > 0 and p.power_w > 0
        assert p.pdp_j == p.delay_s * p.power_w


def test_second_variant_wins_on_all_three_metrics():
    d1, d2 = run_sweep(SweepSpec(values=(2e-15,)))
    assert d1.variant == "design1" and d2.variant == "design2"
    assert d2.delay_s < d1.delay_s
    assert d2.power_w < d1.power_w
    assert d2.pdp_j < d1.pdp_j


def test_vdd_point_is_frozen():
    (p,) = run_sweep(SweepSpec(axis="vdd", values=(0.8,),
                               variants=(DesignVariant.DESIGN1,)))
    assert sweep_csv([p]).splitlines()[1] == \
        "design1,vdd,0.8,3.000000e-11,1.564444e-07,4.693333e-18"


def test_frequency_point_is_frozen():
    (p,) = run_sweep(SweepSpec(axis="frequency", values=(1e8,),
                               variants=(DesignVariant.DESIGN1,)))
    assert sweep_csv([p]).splitlines()[1] == \
        "design1,frequency,100000000.0,3.000000e-11,7.920000e-08,2.376000e-18"


def test_row_count_is_variants_times_values():
    points = run_sweep(SweepSpec(values=(1e-15, 3e-15)))
    assert len(points) == 4
    assert [(p.variant, p.value) for p in points] == [
        ("design1", 1e-15), ("design1", 3e-15),
        ("design2", 1e-15), ("design2", 3e-15)]


def test_sweep_is_deterministic():
    spec = SweepSpec(axis="vdd", values=(1.0,))
    assert sweep_csv(run_sweep(spec)) == sweep_csv(run_sweep(spec))


def _count_compiles_and_solves(monkeypatch) -> Counter:
    """Counts of sim.flatten calls (one per compile) and of sim._solve calls."""
    counts: Counter = Counter()
    for name in ("flatten", "_solve"):
        def counted(*args, _real=getattr(sim, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(sim, name, counted)
    return counts


def test_sweep_point_compiles_once_and_solves_each_triple_once(monkeypatch):
    counts = _count_compiles_and_solves(monkeypatch)
    run_sweep(SweepSpec(values=(1e-15,), variants=(DesignVariant.DESIGN2,)))
    assert counts == {"flatten": 1, "_solve": 27}


def test_a_sweep_point_builds_no_signal(monkeypatch):
    # delay_estimate and transient never read a Signal, so a solve builds
    # one only when steady_state reads it; this held before solves carried
    # Signals too, and guards against keeping them up eagerly.  The tables
    # start empty, so every row is made here, not met with Signals built
    monkeypatch.setattr(sim, "_TABLES", sim._Tables())
    built = []
    monkeypatch.setattr(sim, "Signal", lambda *args: built.append(args))
    run_sweep(SweepSpec(values=(1e-15,)))
    assert built == []


def test_direct_pair_compiles_once_and_solves_each_triple_once(monkeypatch):
    # the transient is the next call on the netlist after the delay estimate,
    # so it finds the compiled form and the estimate's 27 solves
    net = build_design(DesignVariant.DESIGN2, BuildConfig())
    cfg = SimConfig()
    counts = _count_compiles_and_solves(monkeypatch)
    delay_estimate(net, "sum", cfg)
    transient(net, benchmark_stimulus(cfg.vdd, 4e-9), cfg)
    assert counts == {"flatten": 1, "_solve": 27}


# --- cli: truth-table -------------------------------------------------------

def test_cli_truth_table_arithmetic(capsys):
    assert main(["truth-table"]) == 0
    assert capsys.readouterr().out == truth_table_csv()


def test_cli_truth_table_compiles_each_design_once(monkeypatch, capsys):
    counts = _count_compiles_and_solves(monkeypatch)
    assert main(["truth-table", "--design", "both"]) == 0
    assert counts == {"flatten": 2, "_solve": 54}


def test_cli_truth_table_simulated_both(capsys):
    assert main(["truth-table", "--design", "both"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "design,a,b,cin,sum,cout"
    assert len(lines) == 1 + 54
    assert lines[1] == "design1,0,0,0,0,0"
    assert lines[-1] == "design2,2,2,2,0,2"
    assert main(["truth-table", "--design", "both"]) == 0
    assert capsys.readouterr().out == out


def test_cli_truth_table_reports_a_design_that_mismatches(monkeypatch, capsys):
    # a source pinning sum to 0 V breaks every row whose sum is not 0
    def pinned(variant, cfg, _real=cli.build_design):
        net = _real(variant, cfg)
        net.devices.append(FixedSource("Vbad", "sum", 0.0))
        return net
    monkeypatch.setattr(cli, "build_design", pinned)
    assert main(["truth-table", "--design", "2"]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1 + 27
    err = captured.err.splitlines()
    assert len(err) == 18
    assert err[0] == "design2 a=0 b=0 cin=1: sum=0 cout=0, want sum=1 cout=0"


def test_cli_truth_table_single_design_rows_match_arithmetic(capsys):
    assert main(["truth-table", "--design", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    arith = ["design2,%d,%d,%d,%d,%d" % (a, b, c, (a + b + c) % 3, (a + b + c) // 3)
             for a, b, c in itertools.product(range(3), repeat=3)]
    assert rows == arith


# --- cli: device ------------------------------------------------------------

def test_cli_device_report(capsys):
    assert main(["device", "19"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert fields["chirality"] == "(19, 0)"
    assert float(fields["diameter_nm"]) == pytest.approx(1.4877, rel=1e-12)
    assert fields["semiconducting"] == "yes"
    assert float(fields["vth_v"]) == pytest.approx(0.28903676816562485, rel=1e-12)
    assert float(fields["width_nm_as_published"]) == 20
    assert float(fields["width_nm_corrected"]) == 32


def test_cli_device_positional_tubes_and_width_mode(capsys):
    assert main(["device", "19", "0", "3"]) == 0
    fields = dict(line.split(": ", 1)
                  for line in capsys.readouterr().out.splitlines())
    assert float(fields["width_nm_as_published"]) == 32   # min(32, 3*20)
    assert float(fields["width_nm_corrected"]) == 60      # max(32, 3*20)
    assert main(["device", "19", "0", "3", "--width-mode", "corrected"]) == 0
    out = capsys.readouterr().out
    assert "width_nm_corrected: " in out
    assert "width_nm_as_published" not in out


def test_cli_device_metallic_report(capsys):
    assert main(["device", "12", "0"]) == 0
    out = capsys.readouterr().out
    assert "semiconducting: no" in out
    assert "vth_v" not in out


def test_cli_device_vth_only(capsys):
    assert main(["device", "19", "--vth"]) == 0
    assert capsys.readouterr().out.strip() == "0.28903676816562485"


def test_cli_device_vth_metallic_fails(capsys):
    assert main(["device", "12", "--vth"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "metallic" in captured.err


# --- cli: simulate ----------------------------------------------------------

def test_cli_simulate_steady_state_table(capsys):
    assert main(["simulate", "--design", "1",
                 "--inputs", "a=0,b=0.45,cin=0.9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "node,level_v,strength"
    table = {}
    for line in lines[1:]:
        node, level, strength = line.split(",")
        table[node] = (level, strength)
    # a + b + cin = 3 trits: sum 0, carry 1
    assert table["sum"][0] == "0.0"
    assert table["cout"][0] == "0.45"
    assert table["sum"][1] != "floating"


def test_cli_simulate_waveform_csv(capsys):
    assert main(["simulate", "--design", "2", "--freq", "1e9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "time_s,node,level_v,energy_j"
    assert len(lines) > 28


def test_cli_simulate_waveform_vcd(capsys):
    assert main(["simulate", "--design", "2", "--format", "vcd"]) == 0
    out = capsys.readouterr().out
    assert "$timescale 1ps $end" in out
    assert "$enddefinitions $end" in out
    assert "design2" in out


def test_cli_simulate_netlist_file(tmp_path, capsys):
    path = tmp_path / "sti.tnl"
    path.write_text(fixture_text("sti.tnl"))
    assert main(["simulate", str(path), "--inputs", "in=0.9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("out,0.0,") for line in lines)


RING = """\
* ring
.input a
C0 a n0 1f
M0p n1 n0 VDD pfet 19 0 1
M0n n1 n0 GND nfet 19 0 1
M1p n2 n1 VDD pfet 19 0 1
M1n n2 n1 GND nfet 19 0 1
M2p n0 n2 VDD pfet 19 0 1
M2n n0 n2 GND nfet 19 0 1
.end
"""


def test_cli_simulate_limit_cycle_exits_3(tmp_path, capsys):
    path = tmp_path / "ring.tnl"
    path.write_text(RING)
    assert main(["simulate", str(path), "--inputs", "a=0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no fixpoint: limit cycle of period 6 sweeps, changing n0\n"


def test_cli_simulate_timing_cycle_exits_2(tmp_path, capsys):
    path = tmp_path / "keeper.tnl"
    path.write_text("* keeper\n.input s\nMP n m VDD pfet 19 0 3\nMN m n GND nfet 19 0 3\n"
                    "Ms m s GND nfet 19 0 1\n.probe n\n.end\n")
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: timing cycle through node m\n"


def test_cli_simulate_rejects_a_node_id_with_a_separator(tmp_path, capsys):
    # a comma in a node id would add a column to every CSV row it names
    path = tmp_path / "comma.tnl"
    path.write_text("* comma\n.input a,b\nM1 y,z a,b GND nfet 19 0 3\nC1 y,z VDD 1f\n"
                    ".probe y,z\n.end\n")
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: node id a,b contains ',' or '='\n"


def test_cli_verify_reads_a_netlist_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "design2.tnl"
    path.write_bytes(b"\xef\xbb\xbf" + fixture_text("design2.tnl").encode())
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "ok: 27 rows match\n"


def test_cli_simulate_bad_input_name(capsys):
    assert main(["simulate", "--design", "1", "--inputs", "bogus=0.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_simulate_needs_inputs_to_enumerate(tmp_path, capsys):
    path = tmp_path / "bare.tnl"
    path.write_text("* bare\nC1 a GND 1f\n.end\n")
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: netlist declares no input nodes; pass --inputs instead\n"


def test_cli_simulate_needs_exactly_one_source(tmp_path, capsys):
    assert main(["simulate"]) == 2
    assert "exactly one" in capsys.readouterr().err
    path = tmp_path / "sti.tnl"
    path.write_text(fixture_text("sti.tnl"))
    assert main(["simulate", str(path), "--design", "1"]) == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("inputs,message", [
    ("a=0,b=0,cin=0,half=0.1", "cannot reassign fixed-source node half"),
    ("a=0,a=2,b=0,cin=0", "input a is assigned twice"),
    ("a=0,b", "malformed input assignment 'b', expected node=value"),
    ("a=0,=1", "malformed input assignment '=1', expected node=value"),
    ("a=0,b= ", "malformed input assignment 'b= ', expected node=value"),
    ("a=high", "input value 'high' is neither a trit (0/1/2) nor a voltage"),
    ("", "malformed input assignment '', expected node=value"),
])
def test_cli_simulate_rejects_conflicting_inputs(capsys, inputs, message):
    assert main(["simulate", "--design", "2", "--inputs", inputs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["verify"], ["simulate"]])
def test_cli_rejects_a_netlist_that_is_not_utf8(tmp_path, capsys, argv):
    path = tmp_path / "bad.tnl"
    path.write_bytes(b"* bad\n\xff\n.end\n")
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2, col 1: byte 0xff is not UTF-8 text\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--values", "nan"],
    ["sweep", "--values", "1e-15", "inf"],
    ["sweep", "--axis", "vdd", "--values", "0.9", "--load", "nan"],
    ["simulate", "--design", "2", "--inputs", "a=nan,b=0,cin=0"],
    ["simulate", "--design", "2", "--load", "nan", "--inputs", "a=0,b=0,cin=0"],
])
def test_cli_rejects_non_finite_numbers(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--design", "2", "--freq", "5e-324"], "--freq 5e-324 Hz is too small"),
    (["sweep", "--axis", "frequency", "--values", "5e-324"],
     "values entry 5e-324 Hz is too small"),
    (["sweep", "--freq", "1e-307", "--values", "1e-15"], "frequency 1e-307 Hz is too small"),
], ids=["simulate-freq", "sweep-values", "sweep-freq"])
def test_cli_rejects_a_frequency_too_small_to_invert(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_cli_defaults_are_the_library_operating_point():
    parser = _build_parser()
    cfg, spec = SimConfig(), SweepSpec()
    for argv in (["truth-table"], ["simulate"], ["sweep"], ["verify", "adder.tnl"]):
        assert parser.parse_args(argv).vdd == cfg.vdd == spec.vdd
    for argv in (["simulate"], ["sweep"]):
        args = parser.parse_args(argv)
        assert (args.load, args.freq) == (cfg.c_out_load, spec.frequency) \
            == (spec.load, spec.frequency)


@pytest.mark.parametrize("freq", ["0", "-1", "nan", "inf"])
def test_cli_simulate_rejects_bad_frequency(capsys, freq):
    assert main(["simulate", "--design", "2", "--freq", freq]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--freq must be a finite frequency above 0 Hz" in captured.err


# --- cli: sweep -------------------------------------------------------------

def test_cli_sweep_temperature_notice(capsys):
    assert main(["sweep", "--axis", "temperature"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validity" in captured.err


def test_cli_sweep_single_point(capsys):
    assert main(["sweep", "--values", "1e-15"]) == 0
    assert capsys.readouterr().out == LOAD_POINT_CSV


# --- cli: verify ------------------------------------------------------------

def _write_fixture(tmp_path, name):
    path = tmp_path / name
    path.write_text(fixture_text(name))
    return str(path)


@pytest.mark.parametrize("name", ["design1.tnl", "design2.tnl"])
def test_cli_verify_adders(tmp_path, capsys, name):
    assert main(["verify", _write_fixture(tmp_path, name)]) == 0
    assert capsys.readouterr().out == "ok: 27 rows match\n"


@pytest.mark.parametrize("name,cell", [
    ("sti.tnl", "sti"), ("nti.tnl", "nti"), ("pti.tnl", "pti"),
])
def test_cli_verify_cells(tmp_path, capsys, name, cell):
    assert main(["verify", _write_fixture(tmp_path, name), "--cell", cell]) == 0
    assert capsys.readouterr().out == "ok: 3 rows match\n"


WRONG_ADDER = """\
* wrong
.input a
.input b
.input cin
Msp sum a VDD pfet 10 0 3
Msn sum a GND nfet 19 0 3
Mcp cout b VDD pfet 10 0 3
Mcn cout b GND nfet 19 0 3
Cc cin GND 1f
.probe sum
.probe cout
.end
"""


def test_cli_verify_flags_wrong_logic(tmp_path, capsys):
    path = tmp_path / "wrong.tnl"
    path.write_text(WRONG_ADDER)
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL ") >= 1
    assert "rows disagree" in out.splitlines()[-1]


PARTIAL = """\
* partial
.input a
Msp sum a VDD pfet 10 0 3
Msn sum a GND nfet 19 0 3
.probe sum
.end
"""


def test_cli_verify_missing_nodes(tmp_path, capsys):
    path = tmp_path / "partial.tnl"
    path.write_text(PARTIAL)
    assert main(["verify", str(path)]) == 2
    assert "lacks required nodes" in capsys.readouterr().err


def test_cli_verify_malformed_netlist(tmp_path, capsys):
    path = tmp_path / "bad.tnl"
    path.write_text("* bad\nMx a b\n.end\n")
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_missing_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.tnl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])                  # --netlist is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["device", "not_a_number"])
    assert exc.value.code == 2
