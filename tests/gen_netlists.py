"""Deterministic pseudo-random netlists for parser round-trip tests.

Every generated netlist passes validate(): only semiconducting chiralities,
positive capacitances, one source per non-rail node, instance arities that
match their definition, inputs that are connected and undriven.
"""

import random

from tritsim import (Capacitor, Chirality, Fet, FixedSource, Instance,
                     Netlist, Polarity, Subckt)

CHIRALITIES = [(19, 0), (10, 0), (13, 0), (7, 5), (8, 4), (23, 0)]
NODE_POOL = ["n0", "n1", "n2", "n3", "n4", "n5", "na", "nb"]


def _random_subckt(rng: random.Random, name: str) -> Subckt:
    ports = tuple(f"p{k}" for k in range(rng.randint(1, 3)))
    body = []
    seq = 0
    for port in ports:
        # a capacitor per port guarantees every port is used
        body.append(Capacitor(f"Cq{seq}", port, f"loc{seq}",
                              rng.uniform(1e-16, 5e-15)))
        seq += 1
    local = list(ports) + [f"loc{k}" for k in range(seq)] + ["VDD", "GND"]
    for _ in range(rng.randint(0, 3)):
        n1, n2 = rng.choice(CHIRALITIES)
        body.append(Fet(
            f"Mq{seq}", rng.choice([Polarity.NFET, Polarity.PFET]), Chirality(n1, n2),
            rng.randint(1, 4), rng.choice(local), rng.choice(local), rng.choice(local)))
        seq += 1
    return Subckt(name, ports, tuple(body))


def random_netlist(rng: random.Random, index: int, pool: list[str] = NODE_POOL) -> Netlist:
    """A netlist of 3-10 top-level cards on the nodes of pool and the rails."""
    subckts = {}
    for si in range(rng.randint(0, 2)):
        name = f"sub{si}"
        subckts[name] = _random_subckt(rng, name)

    devices = []
    source_nodes: set[str] = set()
    referenced: set[str] = set()
    for seq in range(rng.randint(3, 10)):
        roll = rng.random()
        if roll < 0.5:
            n1, n2 = rng.choice(CHIRALITIES)
            d, g, s = (rng.choice(pool + ["VDD", "GND"]) for _ in range(3))
            devices.append(Fet(f"M{seq}", rng.choice([Polarity.NFET, Polarity.PFET]),
                               Chirality(n1, n2), rng.randint(1, 4), d, g, s))
            referenced.update((d, g, s))
        elif roll < 0.72:
            a = rng.choice(pool)
            b = rng.choice(pool + ["GND"])
            value = rng.choice([1e-15, 4e-15, 2.5e-16, 7.5e-13, rng.uniform(1e-16, 1e-12)])
            devices.append(Capacitor(f"C{seq}", a, b, value))
            referenced.update((a, b))
        elif roll < 0.88 and subckts:
            sname = rng.choice(sorted(subckts))
            bindings = tuple(rng.choice(pool) for _ in subckts[sname].ports)
            devices.append(Instance(f"X{seq}", bindings, sname))
            referenced.update(bindings)
        else:
            free = [n for n in pool if n not in source_nodes]
            if not free:
                continue
            node = rng.choice(free)
            source_nodes.add(node)
            devices.append(FixedSource(f"V{seq}", node, round(rng.uniform(0.1, 1.0), 3)))
            referenced.add(node)

    inputs = frozenset(n for n in sorted(referenced)
                       if n not in source_nodes and n not in ("VDD", "GND")
                       and rng.random() < 0.3)
    probes = tuple(node for node in sorted(referenced) if rng.random() < 0.2)

    n = Netlist(f"rand{index}", devices, inputs, subckts, probes)
    n.validate()
    return n
