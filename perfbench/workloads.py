"""The three benchmark workloads: sweep, verify and ripple.

Each workload is a closed loop with one caller: `ops(seed)` yields an
endless, seed-determined sequence of (group, op) pairs, and the runner calls
each op only after the previous one returned.  An op raises `Mismatch` when
its output disagrees with the oracle; any other exception is the library's.

`setup(lib, tracer)` builds and parses every netlist the ops use.  `lib` is
the namespace of tritsim functions (spanned in the traced run); checking code
runs inside `tracer.oracle()` so that it is excluded from op latency.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEP_AXES = ("load", "vdd")
VERIFY_VDDS = (0.6, 0.8, 0.9, 1.0, 1.05)
CELL_FIXTURES = ("sti", "nti", "pti")
FIXTURE_VDD = 0.9                 # the cell fixtures pin their half rail at 0.45 V
# Adds of each width per round: about equal host time per width at the seed
# commit, so the small widths are not starved by the large ones.
RIPPLE_MIX = {1: 40, 2: 10, 4: 4, 8: 2, 16: 1}
RIPPLE_VDD = 0.9


class Mismatch(Exception):
    """An op's output disagrees with its oracle."""


def trit_symbol(lib, level, cfg) -> str:
    """'0'/'1'/'2' for a resolved level, else 'x' or 'z'."""
    if isinstance(level, str):
        return level
    try:
        return str(int(lib.voltage_to_trit(level, cfg.vmap(), cfg.tol())))
    except lib.Unresolvable:
        return "x"


def seeded_passes(seed: int, n: int):
    """Endless indices 0..n-1, each pass in a fresh seeded order."""
    rng = random.Random(seed)
    order = list(range(n))
    while True:
        rng.shuffle(order)
        yield from order


# ---------------------------------------------------------------------------

class Sweep:
    """`bench.run_sweep` then `bench.sweep_csv` over the default load and vdd
    grids.  One op is one grid value of a `--design both` sweep: two sweep
    points, design1 and design2, so that every op costs about the same (one
    point per op would split the latencies 8/8 between two modes).  The CSV
    must equal its golden rows byte for byte; in the traced run each point's
    transient event count and total energy must equal their golden values."""

    name = "sweep"
    known_defect = None
    tail = 0.9          # about 150 ops a run: p90 has ten or more beyond it

    def setup(self, lib, tracer) -> None:
        self.lib, self.tracer = lib, tracer
        header, *rows = (GOLDEN / "sweep.csv").read_text().splitlines()
        transients = json.loads((GOLDEN / "sweep_transient.json").read_text())
        golden = {}
        for row, transient in zip(rows, transients):
            variant, axis, value = row.split(",")[:3]
            golden[(variant, axis, float(value))] = (row, transient)
        self.cases = []
        for axis in SWEEP_AXES:
            for value in lib.DEFAULT_VALUES[axis]:
                want = [golden[(v.value, axis, value)] for v in lib.BOTH_VARIANTS]
                csv = "".join(f"{line}\n" for line in [header] + [row for row, _ in want])
                self.cases.append((axis, value, csv, [t for _, t in want]))
        # fills the builders' chirality table, as any first build would
        for variant in lib.BOTH_VARIANTS:
            lib.build_design(variant, lib.BuildConfig())

    def ops(self, seed: int):
        for i in seeded_passes(seed, len(self.cases)):
            yield self.cases[i][0], lambda c=self.cases[i]: self._grid_value(*c)

    def _grid_value(self, axis, value, want_csv, want_transients) -> None:
        lib, tracer = self.lib, self.tracer
        tracer.waveforms.clear()
        csv = lib.sweep_csv(lib.run_sweep(lib.SweepSpec(axis=axis, values=(value,))))
        with tracer.oracle():
            if csv != want_csv:
                raise Mismatch(f"sweep csv {csv!r} != golden {want_csv!r}")
            got = [{"events": len(w.events), "energy_j": sum(e.energy for e in w.events)}
                   for w in tracer.waveforms]
            if tracer.enabled and got != want_transients:
                raise Mismatch(f"{axis}={value}: transients {got} != golden {want_transients}")


# ---------------------------------------------------------------------------

class Verify:
    """Exhaustive functional verification, one op per truth-table row: both
    adder variants at each vdd, built, serialized and re-parsed (the path
    `tritsim verify FILE` takes), 27 rows each, plus the parsed sti/nti/pti
    fixtures at 3 rows each."""

    name = "verify"
    known_defect = None
    tail = 0.95         # p99 sits among the rows a host hiccup slowed, not the slow rows

    def setup(self, lib, tracer) -> None:
        self.lib, self.tracer = lib, tracer
        rows = []
        for vdd in VERIFY_VDDS:
            cfg = lib.SimConfig(vdd=vdd)
            levels = cfg.vmap().levels()
            for variant in lib.BOTH_VARIANTS:
                text = lib.serialize(lib.build_design(variant, lib.BuildConfig(vdd=vdd)))
                net = lib.parse(text)
                for a, b, c in itertools.product(range(3), repeat=3):
                    inputs = {"a": levels[a], "b": levels[b], "cin": levels[c]}
                    rows.append((f"{variant.value}@{vdd}", self._adder_row,
                                 (net, cfg, variant, inputs, (a, b, c))))
        cfg = lib.SimConfig(vdd=FIXTURE_VDD)
        levels = cfg.vmap().levels()
        for cell in CELL_FIXTURES:
            net = lib.parse(lib.fixture_text(f"{cell}.tnl"))
            kind = lib.TernaryCellKind(cell.upper())
            for x in range(3):
                rows.append((cell, self._cell_row, (net, cfg, kind, {"in": levels[x]}, x)))
        self.rows = rows

    def ops(self, seed: int):
        for i in seeded_passes(seed, len(self.rows)):
            group, fn, args = self.rows[i]
            yield group, lambda fn=fn, args=args: fn(*args)

    def _adder_row(self, net, cfg, variant, inputs, trits) -> None:
        lib = self.lib
        sigs = lib.steady_state(net, inputs, cfg)
        with self.tracer.oracle():
            got = (trit_symbol(lib, sigs["sum"].level, cfg),
                   trit_symbol(lib, sigs["cout"].level, cfg))
            arithmetic = tuple(str(int(t)) for t in lib.full_add(*trits))
            behavioural = tuple(str(int(t)) for t in lib.adder_eval(variant, *trits, cfg.vmap()))
            if not got == arithmetic == behavioural:
                raise Mismatch(f"{variant.value} vdd={cfg.vdd} {trits}: (sum, cout) = {got}, "
                               f"full_add {arithmetic}, adder_eval {behavioural}")

    def _cell_row(self, net, cfg, kind, inputs, x) -> None:
        lib = self.lib
        sigs = lib.steady_state(net, inputs, cfg)
        with self.tracer.oracle():
            got = trit_symbol(lib, sigs["out"].level, cfg)
            want = str(int(lib.cell_eval(kind, x)))
            if got != want:
                raise Mismatch(f"{kind.value} in={x}: out={got}, want {want}")


# ---------------------------------------------------------------------------

def ripple_text(cell_text: str, width: int) -> str:
    """Structural `width`-trit ripple adder: one `.subckt` copy of the given
    one-trit adder per trit, each carry-out wired to the next carry-in."""
    body = [line for line in cell_text.splitlines()[1:]
            if not line.startswith((".input", ".probe", ".end"))]
    lines = [f"* ripple{width}"]
    lines += [f".input {p}{i}" for p in "ab" for i in range(width)] + [".input c0"]
    lines += [".subckt add a b cin sum cout", *body, ".ends"]
    lines += [f"X{i} a{i} b{i} c{i} s{i} c{i + 1} add" for i in range(width)]
    lines += [f".probe s{i}" for i in range(width)] + [f".probe c{width}", ".end"]
    return "\n".join(lines) + "\n"


class Ripple:
    """Structural N-trit ripple adders from design2 cells.  One op is one
    addition: `steady_state`, a check against `trits.ripple_add` and the
    integer oracle, then `delay_estimate` of the top carry-out under the same
    inputs.  The first op of each width is the all-carry-propagate case
    (all 2s + 0 + carry-in 1); later ones come in seeded rounds of RIPPLE_MIX
    adds with operands drawn from the seed."""

    name = "ripple"
    # Adders of two or more trits hit period-2 limit cycles that a larger
    # iteration budget does not fix: `steady_state` raises NonConvergent.  Such
    # an add did not settle; it shows in `settled_share` and
    # `fail.nonconvergent`, not as a failed op.
    known_defect = "nonconvergent"
    tail = 0.99         # among the 16-trit adds; p90 falls on a steep stretch of
                        # 4-trit adds, where it moves with the seed's operands

    def setup(self, lib, tracer) -> None:
        self.lib, self.tracer = lib, tracer
        self.cfg = lib.SimConfig(vdd=RIPPLE_VDD)
        cell = lib.serialize(lib.build_design(lib.DesignVariant.DESIGN2,
                                              lib.BuildConfig(vdd=RIPPLE_VDD)))
        self.nets = {n: lib.parse(ripple_text(cell, n)) for n in RIPPLE_MIX}

    def ops(self, seed: int):
        rng = random.Random(seed)
        widths = [n for n, count in RIPPLE_MIX.items() for _ in range(count)]

        def drawn():
            while True:
                rng.shuffle(widths)
                for n in widths:
                    yield n, rng.randrange(3 ** n), rng.randrange(3 ** n), rng.randrange(3)

        levels = self.cfg.vmap().levels()
        propagate = ((n, 3 ** n - 1, 0, 1) for n in RIPPLE_MIX)
        for n, a, b, cin in itertools.chain(propagate, drawn()):
            av, bv = self.lib.from_integer(a, n), self.lib.from_integer(b, n)
            inputs = {f"a{i}": levels[av[i]] for i in range(n)}
            inputs.update({f"b{i}": levels[bv[i]] for i in range(n)})
            inputs["c0"] = levels[cin]
            yield f"n{n}", lambda args=(n, a, b, cin, av, bv, inputs): self._add(*args)

    def _add(self, n: int, a: int, b: int, cin: int, av, bv, inputs) -> None:
        lib, cfg = self.lib, self.cfg
        sigs = lib.steady_state(self.nets[n], inputs, cfg)
        with self.tracer.oracle():
            got = [trit_symbol(lib, sigs[f"s{i}"].level, cfg) for i in range(n)]
            got_carry = trit_symbol(lib, sigs[f"c{n}"].level, cfg)
            total, carry = lib.ripple_add(av, bv, cin)
            want = [str(int(t)) for t in total]
            if got != want or got_carry != str(int(carry)):
                raise Mismatch(f"n={n} {a}+{b}+{cin}: sum {got} carry {got_carry}, "
                               f"ripple_add {want} carry {int(carry)}")
            if lib.base3_value(total) + int(carry) * 3 ** n != a + b + cin:
                raise Mismatch(f"n={n} {a}+{b}+{cin}: ripple_add disagrees with integers")
        lib.delay_estimate(self.nets[n], f"c{n}", cfg, inputs)


WORKLOADS = {w.name: w for w in (Sweep, Verify, Ripple)}
