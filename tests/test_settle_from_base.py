"""Settling from a base: a solve in rank order starts from the last solve on
its pinned set and steps only the regions a changed pin or node reaches.
Each assignment here is solved on a netlist that has just solved another,
seeded one, and compared with a fresh compile's settle from all-'z': levels
by repr, strengths by identity, every FET's flag, NonConvergent by message.
The families are test_rank_order.py's, the first 500 netlists of the
differential corpus (some of whose rank paths fall back to one component
after a base exists), both adders at the golden vdds and seeded ripple
adds, some with an internal node pinned too.  Half the assignments, in
alternate pairs, are also read through steady_state, so a solve carries
its base's Signals or has none to carry, and every Signal read is compared
with the fresh compile's.  Then a one-input toggle of a 16-trit ripple
adder is counted: it reads the levels at the reads of few of its regions,
looks each of them up once when the tables are warm, and builds few
Signals.  Last, a region that repeats a conducting set keeps that in its
settled entry, and a fresh netlist of the same design that reads the entry
reports the same NonConvergent."""

import copy
import itertools
import random

import pytest

from capture_signals import VDDS
from conftest import fet_flags, inverter_chain, ripple_text
from differential import CORPUS_SEED
from gen_netlists import random_netlist
from test_rank_order import LEVELS, POOL, _assigns, _ring
from tritsim import (BOTH_VARIANTS, BuildConfig, NonConvergent, SimConfig, build_design, parse,
                     serialize, sim, steady_state)

CFG = SimConfig()


@pytest.fixture
def settles(monkeypatch):
    """Records each rank-order settle as (had a base, fell back)."""
    calls = []

    def settle_from(pins, part, base, _real=sim._settle_from):
        solve = _real(pins, part, base)
        calls.append((base is not None, solve is None))
        return solve

    monkeypatch.setattr(sim, "_settle_from", settle_from)
    return calls


def _outcome(n, inputs, cfg):
    """n's solve of inputs, as steady_state gets it: (its Signals' levels by
    repr, their strengths, flags), or NonConvergent's message."""
    comp = sim._compile(n, cfg)
    try:
        solve = sim._solved(comp, sim._pin_map(comp, inputs))
    except NonConvergent as e:
        return str(e)
    return ([repr(sig.level) for sig in solve.signals], [sig.strength for sig in solve.signals],
            fet_flags(comp, solve))


def _walk(n, assigns, cfg=CFG) -> None:
    """Solves assigns in order on n, each after the one before it, and checks
    each against a fresh compile of n, settled from all-'z'.  Assignments 1
    and 2 of every four are also read through steady_state: in pairs, so
    that where two pinned sets alternate, each is read."""
    fresh = copy.deepcopy(n)
    for j, inputs in enumerate(assigns):
        got = _outcome(n, inputs, cfg)
        fresh._compiled = None
        want = _outcome(fresh, inputs, cfg)
        assert got == want
        if isinstance(got, str):
            continue
        assert all(g is w for g, w in zip(got[1], want[1]))
        if j % 4 in (1, 2):
            signals = steady_state(n, inputs, cfg)
            expected = steady_state(fresh, inputs, cfg)
            assert list(signals) == list(expected)
            assert list(map(repr, signals.values())) == list(map(repr, expected.values()))
            assert all(g.strength is w.strength for g, w in zip(signals.values(),
                                                                 expected.values()))


def _internal(n, rng: random.Random) -> str | None:
    """A seeded node of n that is neither an input, a rail nor a fixed
    source, so an assignment may pin it too; None when n has none."""
    comp = sim._compile(n, CFG)
    nodes = [name for name, volts in zip(comp.names, comp.fixed)
             if volts is None and name not in comp.inputs]
    return rng.choice(nodes) if nodes else None


def test_random_netlists_from_a_larger_pool(settles):
    rng = random.Random(2024)
    for i in range(300):
        n = random_netlist(rng, i, POOL)
        _walk(n, _assigns(rng, n.inputs, 4))
    assert sum(based for based, _ in settles) > 500


def test_corpus_netlists(settles):
    # an extra pinned node is another pinned set, with a base of its own; the
    # two sets alternate, so each solve's base is two solves back
    corpus = random.Random(CORPUS_SEED)
    for i in range(500):
        n = random_netlist(corpus, i)
        rng = random.Random(i)
        extra = _internal(n, rng)
        assigns = []
        for inputs in _assigns(rng, n.inputs, 6):
            assigns.append(inputs)
            if extra is not None:
                assigns.append({**inputs, extra: LEVELS[rng.randrange(3)]})
        _walk(n, assigns)
    assert sum(based for based, _ in settles) > 2000
    assert sum(based and fell for based, fell in settles) > 0


def test_chains_and_rings(settles):
    for cap in ("1f", None):
        n = parse("* chain\n" + inverter_chain(50, cap) + ".end\n")
        _walk(n, [{"a": LEVELS[k]} for k in (0, 1, 2, 0, 2, 1)])
    for length, gated in itertools.product((2, 3, 4, 5), (False, True)):
        n = parse(_ring(length, gated))
        _walk(n, _assigns(random.Random(length), n.inputs, 6))
    assert sum(based for based, _ in settles) == 2 * 5      # a ring has no rank order


def test_pass_chains(settles):
    for stages, polarity, gate, vdd in itertools.product((2, 5, 24), ("nfet", "pfet"),
                                                         ("VDD", "GND", "g"), VDDS):
        lines = [".input a", *[".input g"] * (gate == "g"), f"Md n0 {gate} a {polarity} 19 0 1"]
        lines += [f"M{k} n{k} {gate} n{k - 1} {polarity} 19 0 1" for k in range(1, stages + 1)]
        n = parse("* pass chain\n" + "\n".join(lines) + "\n.end\n")
        cfg = SimConfig(vdd=vdd)
        assigns = [dict(zip(sorted(n.inputs), levels))
                   for levels in itertools.product(cfg.vmap().levels(), repeat=len(n.inputs))]
        random.Random(stages).shuffle(assigns)
        _walk(n, assigns, cfg)
    assert sum(based for based, _ in settles) == 30 * 8 + 60 * 2


def test_adders_at_each_vdd(settles):
    for variant, vdd in itertools.product(BOTH_VARIANTS, VDDS):
        cfg = SimConfig(vdd=vdd)
        levels = cfg.vmap().levels()
        assigns = [{"a": a, "b": b, "cin": c} for a, b, c in itertools.product(levels, repeat=3)]
        random.Random(len(assigns)).shuffle(assigns)
        _walk(build_design(variant, BuildConfig(vdd=vdd)), assigns, cfg)
    assert sum(based for based, _ in settles) == 10 * 26


def test_ripple_adds(settles):
    # c1 is X0's carry-out, pinned in every other add: no input, but a pin
    # whose change must reach X1
    rng = random.Random(31)
    for width in (2, 3, 4, 16):
        n = parse(ripple_text(width))
        names = [f"{p}{i}" for p in "ab" for i in range(width)] + ["c0"]
        assigns = []
        for inputs in _assigns(rng, names, 8):
            assigns += [inputs, {**inputs, "c1": LEVELS[rng.randrange(3)]}]
        _walk(n, assigns)
    assert sum(based for based, _ in settles) == 4 * (16 - 2)


def test_a_stepped_region_starts_from_all_z():
    # m gates M1 inside its own region, so the region's state after a=0
    # holds at a=0.45, where its settle from all-'z' (and the global loop)
    # finds no fixpoint
    n = parse("* two states\n.input a\n.input b\nV1 s 0.581\nCa a p 3.26f\nCm m q 3.88f\n"
              "Cb b r 3.57f\nCg m s 4f\nM1 r m p nfet 19 0 3\nM2 r p q nfet 19 0 1\n.end\n")
    _walk(n, [{"a": 0.0, "b": 0.0}, {"a": 0.45, "b": 0.0}])
    with pytest.raises(NonConvergent):
        steady_state(n, {"a": 0.45, "b": 0.0}, CFG)


def _toggles(rng: random.Random, count: int):
    """A 16-trit ripple adder after a seeded assignment is read, and after
    each of count one-input toggles that follow it is read again."""
    n = parse(ripple_text(16))
    names = [f"{p}{i}" for p in "ab" for i in range(16)] + ["c0"]
    inputs = {name: LEVELS[rng.randrange(3)] for name in names}
    steady_state(n, inputs, CFG)
    yield n
    for _ in range(count):
        name = rng.choice(names)
        inputs[name] = rng.choice([volts for volts in LEVELS if volts != inputs[name]])
        yield steady_state(n, inputs, CFG)


def _reading(monkeypatch, read: list[int], table=None) -> None:
    """Appends to read the index of each region whose reads are read, from
    the next partition on; table(shape), when given, is the table each
    region of that shape holds in place of the process's."""
    def regions(fets, cap_adj, pinned, _real=sim._regions):
        part = _real(fets, cap_adj, pinned)

        def counted(r, reads_of):
            def reads(levels):
                read.append(r)
                return reads_of(levels)
            return reads
        return part._replace(regions=[
            region._replace(reads_of=counted(r, region.reads_of),
                            table=region.table if table is None else table(region.shape))
            for r, region in enumerate(part.regions)])

    monkeypatch.setattr(sim, "_regions", regions)


def test_a_one_input_toggle_reads_few_regions(monkeypatch):
    # a toggle reaches the regions its input feeds and those their changed
    # nodes feed in turn; every other region is carried from the base
    read: list[int] = []                    # a region per call of its reads getter
    _reading(monkeypatch, read)
    toggles = _toggles(random.Random(3), 200)
    n = next(toggles)
    (part,) = n._compiled.regions.values()
    assert len(part.regions) == 289 and sorted(read) == list(range(289))
    read.clear()
    counts = []
    for _ in toggles:
        counts.append(len(read))
        read.clear()
    assert len(counts) == 200 and max(counts) < 289 / 4


def test_a_warm_one_input_toggle_looks_up_each_stepped_region_once(monkeypatch):
    # once the tables hold the settled entry of every reads the toggles meet,
    # a stepped region is one lookup, and no step row is read
    read: list[int] = []
    lookups = [0]

    class Counted(dict):
        def get(self, key, default=None):
            lookups[0] += 1
            return super().get(key, default)

    tables: dict[tuple, Counted] = {}
    _reading(monkeypatch, read, lambda shape: tables.setdefault(shape, Counted()))
    for _ in _toggles(random.Random(5), 100):      # fills the tables
        pass
    settled = []
    monkeypatch.setattr(sim, "_settled",
                        lambda *args, _real=sim._settled: settled.append(args) or _real(*args))
    read.clear()
    lookups[0] = 0
    counts = []
    for _ in _toggles(random.Random(5), 100):      # the same toggles on a new netlist
        counts.append((lookups[0], len(read), len(set(read))))
        read.clear()
        lookups[0] = 0
    assert counts[0] == (289, 289, 289)            # its first solve steps every region
    assert all(looked == stepped == once for looked, stepped, once in counts)
    assert len(counts) == 101 and sum(stepped for _, stepped, _ in counts[1:]) > 100
    assert settled == []


def test_a_repeat_entry_gives_the_same_nonconvergent(monkeypatch):
    # a region that repeats a conducting set from all-'z' stores the row its
    # set came back on, and a fresh netlist of the same design reads it: its
    # rank path falls back to the global loop, which names the same cycle
    fell: list[bool] = []
    settled: list[tuple] = []

    def settle_from(pins, part, base, _real=sim._settle_from):
        solve = _real(pins, part, base)
        fell.append(solve is None)
        return solve

    def counted(*args, _real=sim._settled):
        settled.append(args)
        return _real(*args)

    monkeypatch.setattr(sim, "_settle_from", settle_from)
    monkeypatch.setattr(sim, "_settled", counted)
    corpus = random.Random(CORPUS_SEED)
    found = None
    for i in range(100):                # the first such netlist is corpus netlist 1
        n = random_netlist(corpus, i)
        for inputs in _assigns(random.Random(i), n.inputs, 9):
            fell.clear()
            try:
                steady_state(n, inputs, CFG)
            except NonConvergent:
                if fell == [True]:
                    found = serialize(n), inputs
                    break
        if found:
            break
    text, inputs = found
    monkeypatch.setattr(sim, "_TABLES", sim._Tables())
    outcomes = []
    for _ in range(2):
        fell.clear()
        settled.clear()
        with pytest.raises(NonConvergent) as caught:
            steady_state(parse(text), inputs, CFG)
        outcomes.append((fell == [True], bool(settled), caught.value.period,
                         caught.value.changing))
    first, second = outcomes
    assert first[:2] == (True, True) and second[:2] == (True, False)
    assert first[2:] == second[2:]


def test_a_one_input_toggle_builds_few_signals(monkeypatch):
    # a solve carries its base's Signals, builds one for a changed pin, and
    # takes a stepped region's from its settled entry, which built them with
    # its row.  The first read of the netlist builds 166 of its 467: one per
    # pin (51: inputs, rails and fixed sources) and 115 in the rows it
    # enters, as its 16 cells share entries; the all-'z' start is one Signal
    # built at import.  The
    # tables start empty, so no entry holds Signals another test built
    monkeypatch.setattr(sim, "_TABLES", sim._Tables())
    built = []

    def signal(level, strength, _real=sim.Signal):
        built.append(level)
        return _real(level, strength)

    monkeypatch.setattr(sim, "Signal", signal)
    toggles = _toggles(random.Random(3), 200)
    n = next(toggles)
    assert len(n._compiled.names) == 467 and len(built) == 166
    built.clear()
    counts = []
    for _ in toggles:
        counts.append(len(built))
        built.clear()
    assert len(counts) == 200 and max(counts) < 467 / 4
