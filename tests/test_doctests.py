"""Every ``>>>`` example in ``src/repro`` must run as written."""

import doctest
import importlib
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent


def _modules_with_examples() -> list[str]:
    names = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if ">>>" not in path.read_text(encoding="utf-8"):
            continue
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


@pytest.mark.parametrize("name", _modules_with_examples())
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
