"""Timing is read on demand, one node at a time, on a forest each solve keeps:
a delay or its error does not depend on which nodes were read before it."""

import itertools
import random

from capture_signals import CORPUS_SEED, CORPUS_SIZE, VDDS
from conftest import ripple_text
from gen_netlists import random_netlist
from tritsim import (BOTH_VARIANTS, BuildConfig, SimConfig, TritsimError, build_design,
                     delay_estimate, flatten, parse)

CFG = SimConfig()


def _reads(n, nodes, cfg, inputs) -> list[str]:
    """repr of each node's delay_estimate on n, or its error's type and
    message, read in the order given."""
    got = []
    for node in nodes:
        try:
            got.append(repr(delay_estimate(n, node, cfg, inputs)))
        except TritsimError as e:
            got.append(f"{type(e).__name__}: {e}")
    return got


def _pairs():
    """(a netlist, an equal one, cfg, inputs or None for every assignment):
    the golden corpus, both adders at every golden vdd, and seeded ripple adds."""
    first, second = random.Random(CORPUS_SEED), random.Random(CORPUS_SEED)
    for i in range(CORPUS_SIZE):
        yield random_netlist(first, i), random_netlist(second, i), CFG, None
    for variant, vdd in itertools.product(BOTH_VARIANTS, VDDS):
        build = BuildConfig(vdd=vdd)
        yield build_design(variant, build), build_design(variant, build), SimConfig(vdd=vdd), None
    rng = random.Random(5)
    levels = CFG.vmap().levels()
    for width in (2, 3, 4):
        for _ in range(3):
            inputs = {f"{p}{i}": levels[rng.randrange(3)] for p in "ab" for i in range(width)}
            inputs["c0"] = levels[rng.randrange(3)]
            yield parse(ripple_text(width)), parse(ripple_text(width)), CFG, inputs


def test_a_delay_does_not_depend_on_the_reads_before_it():
    # every node, in index order on one netlist and shuffled on a fresh one
    order = random.Random(11)
    for n, fresh, cfg, inputs in _pairs():
        nodes = sorted(flatten(n).node_ids())
        want = dict(zip(nodes, _reads(n, nodes, cfg, inputs)))
        shuffled = order.sample(nodes, len(nodes))
        assert dict(zip(shuffled, _reads(fresh, shuffled, cfg, inputs))) == want, n.name
