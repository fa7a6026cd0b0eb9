"""Every simulated node signal, delay and transient event matches the digests
captured in tests/golden/signals.json (see tests/capture_signals.py)."""

import json

from capture_signals import GOLDEN, digests


def test_golden_signal_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert got.keys() == want.keys()
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"{len(changed)} cases changed: {changed[:10]}"
