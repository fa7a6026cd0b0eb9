"""Shared helpers for the test suite."""

from tritsim import SimConfig, Unresolvable, build_design, serialize, voltage_to_trit


def sim_symbol(sig, cfg: SimConfig) -> str:
    """Trit symbol '0'/'1'/'2' (or 'x'/'z') for one resolved node signal."""
    if isinstance(sig.level, str):
        return sig.level
    try:
        return str(int(voltage_to_trit(sig.level, cfg.vmap(), cfg.tol())))
    except Unresolvable:
        return "x"


def sim_trits(sigs, cfg: SimConfig, *nodes: str) -> tuple:
    return tuple(sim_symbol(sigs[n], cfg) for n in nodes)


def inverter_chain(depth: int, cap: str | None = None,
                   names: list[str] | None = None) -> str:
    """depth inverters from input a; stage k drives names[k], n{k} by default."""
    lines = [".input a"]
    prev = "a"
    for k in range(depth):
        out = names[k] if names else f"n{k}"
        lines.append(f"M{k}p {out} {prev} VDD pfet 19 0 1")
        lines.append(f"M{k}n {out} {prev} GND nfet 19 0 1")
        if cap:
            lines.append(f"C{k} {out} GND {cap}")
        prev = out
    return "\n".join(lines) + "\n"


def fet_flags(comp, solve) -> bytes:
    """Each FET's flag in a solve, 1 where it conducts, from the rows its
    regions settled on."""
    flags = bytearray(len(comp.fets))
    for region, row in zip(solve.part.regions, solve.rows):
        for k, f in zip(region.fets, row[1]):
            flags[k] = f
    return bytes(flags)


def ripple_text(width: int) -> str:
    """A width-trit ripple adder of design2 cells, one subcircuit per trit,
    each carry-out wired to the next carry-in."""
    cell = [line for line in serialize(build_design(2)).splitlines()[1:]
            if not line.startswith((".input", ".probe", ".end"))]
    return "\n".join([f"* ripple{width}",
                      *(f".input {p}{i}" for p in "ab" for i in range(width)), ".input c0",
                      ".subckt add a b cin sum cout", *cell, ".ends",
                      *(f"X{i} a{i} b{i} c{i} s{i} c{i + 1} add" for i in range(width)),
                      ".end"]) + "\n"
