"""Write the sweep workload's golden files from the current tritsim.

    python3 perfbench/capture_golden.py

golden/sweep.csv is `bench.sweep_csv` of the default load grid then the
default vdd grid, both variants.  golden/sweep_transient.json holds, per row,
the event count and total energy of the point's `transient` waveform.  The
files pin the simulated results when the benchmark was defined: a change that
only speeds tritsim up must leave them identical, so regenerate them only for
a deliberate correctness fix to the model, and say so.
"""

from __future__ import annotations

import json

from run import ROOT, fresh_import
from workloads import GOLDEN, SWEEP_AXES


def main() -> None:
    lib = fresh_import(ROOT / "src")
    bench = lib.modules.bench
    transient = bench.transient
    waves = []

    def capture(*args, **kwargs):
        waves.append(transient(*args, **kwargs))
        return waves[-1]

    bench.transient = capture
    try:
        points = [p for axis in SWEEP_AXES for p in lib.run_sweep(lib.SweepSpec(axis=axis))]
    finally:
        bench.transient = transient
    rows = [{"events": len(w.events), "energy_j": sum(e.energy for e in w.events)}
            for w in waves]
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "sweep.csv").write_text(lib.sweep_csv(points))
    (GOLDEN / "sweep_transient.json").write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
