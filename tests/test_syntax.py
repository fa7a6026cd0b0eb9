"""Every Python file of the project parses under the oldest supported Python.

pyproject.toml declares requires-python >= 3.10; ast.parse with
feature_version=(3, 10) rejects grammar that only later versions accept,
so such syntax fails here on any interpreter, not only on a 3.10 one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in ROOT.rglob("*.py")
                 if not any(part.startswith(".") for part in p.relative_to(ROOT).parts))


def test_sources_are_found():
    assert ROOT / "src" / "tritsim" / "sim.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
