"""The report container and file discovery."""

from __future__ import annotations

import errno
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.devtools.common.findings import Finding

__all__ = ["DEFAULT_PATHS", "LintReport", "iter_python_files"]

#: The library tree the correctness contracts cover.  ``tools/`` and
#: ``benchmarks/`` are operator-facing (timing is their job) and are
#: deliberately outside the default scope.
DEFAULT_PATHS = ("src/repro",)


@dataclass
class LintReport:
    """All findings from one lint run, sorted by location."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: ``--dump`` name -> the graph a family's rules ran against.
    graphs: dict[str, Any] = field(default_factory=dict)

    @property
    def blocking(self) -> list[Finding]:
        return [f for f in self.findings if f.blocking]

    @property
    def waived(self) -> list[Finding]:
        return [f for f in self.findings if f.waived]

    @property
    def baselined(self) -> list[Finding]:
        return [f for f in self.findings if f.baselined]

    @property
    def exit_code(self) -> int:
        return 1 if self.blocking else 0

    def summary(self) -> dict[str, int]:
        return {
            "files": self.files_checked,
            "findings": len(self.findings),
            "blocking": len(self.blocking),
            "waived": len(self.waived),
            "baselined": len(self.baselined),
        }


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Every ``.py`` file under the given paths, sorted for determinism.

    Raises :class:`FileNotFoundError` for a path that does not exist and
    :class:`NotADirectoryError` for one that is neither a directory nor
    a ``.py`` file, so a mistyped path cannot pass having checked
    nothing.
    """
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(
                errno.ENOENT, "no such file or directory", str(raw)
            )
        if path.is_dir():
            files.update(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise NotADirectoryError(
                errno.ENOTDIR, "not a directory or a .py file", str(raw)
            )
    return sorted(files)
