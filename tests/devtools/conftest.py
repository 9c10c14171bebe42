"""Shared fixtures for the analyzer tests."""

from pathlib import Path

import pytest

from repro.devtools.lint import analyze

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_report():
    """One lint pass over ``src/repro`` with the checked-in baseline,
    shared by the repository meta-tests (a pass takes seconds)."""
    return analyze(
        [REPO_ROOT / "src" / "repro"],
        baseline=REPO_ROOT / ".lint-baseline.json",
    )
