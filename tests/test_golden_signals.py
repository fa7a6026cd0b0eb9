"""Every simulated node signal, delay and transient event matches the digests
captured in tests/golden/signals.json (see tests/capture_signals.py), and
does not depend on the order devices are declared in."""

import json
import random

from capture_signals import CORPUS_SEED, CORPUS_SIZE, GOLDEN, corpus_text, digests
from gen_netlists import random_netlist
from tritsim import Netlist, SimConfig


def test_golden_signal_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert got.keys() == want.keys()
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"{len(changed)} cases changed: {changed[:10]}"


def test_corpus_results_do_not_depend_on_device_order():
    rng = random.Random(CORPUS_SEED)
    order = random.Random(2)    # moves an event energy of rand92 if capacitances add in order
    cfg = SimConfig()
    changed = []
    for i in range(CORPUS_SIZE):
        net = random_netlist(rng, i)
        devices = list(net.devices)
        order.shuffle(devices)
        shuffled = Netlist(net.name, devices, net.inputs, net.subckts)
        if corpus_text(shuffled, cfg) != corpus_text(net, cfg):
            changed.append(net.name)
    assert not changed
