"""Golden digests of simulated node signals, delays and transient events.

Each case is rendered as canonical text and stored as its sha256 in
tests/golden/signals.json; tests/test_golden_signals.py recomputes the
digests and compares.  Cases:

- both adder variants x 27 input rows x vdd in {0.6, 0.8, 0.9, 1.0, 1.05}:
  every node's (name, repr(level), strength) from steady_state;
- both variants x the same vdds: repr of delay_estimate(net, "sum") and of
  the transient events under the 27-entry benchmark stimulus;
- run_sweep over the default grid of each axis (vdd, load, frequency), both
  variants: repr of every point's delay, power and PDP;
- the seeded generated corpus (tests/gen_netlists.py, the 100 netlists of
  random.Random(90210)): steady state under every input assignment,
  delay_estimate of every probed node and the exhaustive transient.  Library
  errors are part of the text as "ErrorType: message";
- the command line: the exit code and stdout of the truth-table, simulate,
  verify and sweep commands in CLI_COMMANDS, which must stay byte-identical.

Re-capture only when a change is meant to alter a simulated result:

    PYTHONPATH=src:tests python3 tests/capture_signals.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from importlib import resources
from pathlib import Path

from gen_netlists import random_netlist
from tritsim import (AXES, BOTH_VARIANTS, BuildConfig, SimConfig, SweepSpec, TritsimError,
                     benchmark_stimulus, build_design, delay_estimate, run_sweep, steady_state,
                     transient)
from tritsim.cli import main
from tritsim.sim import _exhaustive_inputs

GOLDEN = Path(__file__).resolve().parent / "golden" / "signals.json"
VDDS = (0.6, 0.8, 0.9, 1.0, 1.05)
PERIOD = 4e-9
CORPUS_SEED = 90210
CORPUS_SIZE = 100
FIXTURES = resources.files("tritsim") / "fixtures"
# argv of each CLI case; a bundled fixture is named by its file name
CLI_COMMANDS = (
    ("truth-table", "--design", "both"),
    *((("simulate", "--design", d, *extra) for d in "12" for extra in (
        (), ("--format", "vcd"), ("--inputs", "a=0,b=1,cin=2"),
        ("--inputs", "a=0,b=0.45,cin=0.9")))),
    ("verify", "design1.tnl"),
    ("verify", "design2.tnl"),
    *(("verify", f"{cell}.tnl", "--cell", cell) for cell in ("sti", "nti", "pti")),
    *(("sweep", "--axis", axis) for axis in ("load", "vdd", "frequency")),
)


def _signals_text(sigs) -> str:
    return "".join(f"{node} {sig.level!r} {sig.strength.name if sig.strength else '-'}\n"
                   for node, sig in sorted(sigs.items()))


def _attempt(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except TritsimError as e:
        return f"{type(e).__name__}: {e}"


def _steady_text(net, assign, cfg) -> str:
    try:
        return _signals_text(steady_state(net, assign, cfg))
    except TritsimError as e:
        return f"{type(e).__name__}: {e}\n"


def _events(net, stimulus, cfg):
    return transient(net, stimulus, cfg).events


def corpus_text(net, cfg) -> str:
    """A corpus case: every steady state, every probe's delay, the transient.
    A netlist with too many inputs to enumerate is the error that says so."""
    try:
        assigns = _exhaustive_inputs(sorted(net.inputs), cfg.vdd)
    except TritsimError as e:
        return f"{type(e).__name__}: {e}"
    parts = [_steady_text(net, assign, cfg) for assign in assigns]
    parts += [_attempt(delay_estimate, net, node, cfg) for node in net.probes]
    parts.append(_attempt(_events, net, [(k * PERIOD, a) for k, a in enumerate(assigns)], cfg))
    return "\n".join(parts)


def cli_text(argv) -> str:
    """A CLI case: its exit code, then its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(FIXTURES / a) if a.endswith(".tnl") else a for a in argv])
    return f"exit {code}\n{out.getvalue()}"


def cases():
    """(case name, canonical text) pairs, in a fixed order."""
    for variant in BOTH_VARIANTS:
        for vdd in VDDS:
            net = build_design(variant, BuildConfig(vdd=vdd))
            cfg = SimConfig(vdd=vdd)
            rows = itertools.product("012", repeat=3)
            for row, assign in zip(rows, _exhaustive_inputs(("a", "b", "cin"), vdd)):
                yield f"{variant.value}@{vdd}:{''.join(row)}", _steady_text(net, assign, cfg)
            yield f"{variant.value}@{vdd}:timing", "\n".join((
                _attempt(delay_estimate, net, "sum", cfg),
                _attempt(_events, net, benchmark_stimulus(vdd, PERIOD), cfg)))
    for axis in AXES:
        yield f"sweep:{axis}", "".join(
            f"{p.variant} {p.value!r} {p.delay_s!r} {p.power_w!r} {p.pdp_j!r}\n"
            for p in run_sweep(SweepSpec(axis=axis)))
    rng = random.Random(CORPUS_SEED)
    cfg = SimConfig()
    for i in range(CORPUS_SIZE):
        net = random_netlist(rng, i)
        yield net.name, corpus_text(net, cfg)
    for argv in CLI_COMMANDS:
        yield f"cli:{' '.join(argv)}", cli_text(argv)


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in cases()}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
