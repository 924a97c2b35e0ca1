"""Finding and severity types for the :mod:`repro.lint` analyzer.

A :class:`Finding` is one violation at one source location.  Every
finding fails the run; the severity only says how sure the rule is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.IntEnum):
    """Rule severity, shown in the report next to each finding."""

    WARNING = 20
    ERROR = 30


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """One ``path:line:col: SEV RULE message`` text line."""
        sev = self.severity.name.lower()
        return f"{self.path}:{self.line}:{self.col}: {sev} {self.rule} {self.message}"
