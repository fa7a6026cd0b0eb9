"""One sha256 over a wide sample of simulated outputs, for comparing two
versions of the simulator or two hash seeds.  It is not a test: pytest does
not collect it, and no digest is stored.  Run it on both sides and compare:

    PYTHONPATH=src:tests python3 tests/differential.py

It digests, in order:

- capture_signals.corpus_text of the first CORPUS_SIZE netlists of
  random.Random(CORPUS_SEED) (tests/gen_netlists.py), each at vdd 0.8 and 0.9:
  every steady state, every probe's delay and the exhaustive transient;
- RIPPLE_ADDS ripple adds drawn from random.Random(RIPPLE_SEED), widths 1-8:
  the steady state, and delay_estimate of the carry-out and of s0.
"""

from __future__ import annotations

import hashlib
import random

from capture_signals import _attempt, _steady_text, corpus_text
from conftest import ripple_text
from gen_netlists import random_netlist
from tritsim import SimConfig, delay_estimate, parse

CORPUS_SEED = 12345
CORPUS_SIZE = 2500
VDDS = (0.8, 0.9)
RIPPLE_SEED = 4242
RIPPLE_ADDS = 200


def texts():
    """The canonical text of each case, in a fixed order."""
    rng = random.Random(CORPUS_SEED)
    for i in range(CORPUS_SIZE):
        net = random_netlist(rng, i)
        for vdd in VDDS:
            yield corpus_text(net, SimConfig(vdd=vdd))
    rng = random.Random(RIPPLE_SEED)
    cfg = SimConfig()
    levels = cfg.vmap().levels()
    adders = {}
    for _ in range(RIPPLE_ADDS):
        width = rng.randint(1, 8)
        net = adders.setdefault(width, parse(ripple_text(width)))
        inputs = {f"{p}{i}": levels[rng.randrange(3)] for p in "ab" for i in range(width)}
        inputs["c0"] = levels[rng.randrange(3)]
        yield "\n".join((_steady_text(net, inputs, cfg),
                         _attempt(delay_estimate, net, f"c{width}", cfg, inputs),
                         _attempt(delay_estimate, net, "s0", cfg, inputs)))


def digest() -> str:
    h = hashlib.sha256()
    for text in texts():
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
