"""Report containers for the property-check operations.

Verification operations never raise on a failed mathematical property; they
return a Report whose entries carry the witness data (vectors, distances,
counts) needed to reproduce the failure.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [{"re": float(z.real), "im": float(z.imag)} for z in value.ravel()]
        return value.tolist()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


@dataclass
class Check:
    label: str
    ok: bool
    data: dict = field(default_factory=dict)


@dataclass
class Report:
    """A named list of pass/fail checks with witness payloads."""

    name: str
    checks: list[Check] = field(default_factory=list)

    def add(self, label: str, ok, **data) -> None:
        self.checks.append(Check(label, bool(ok), data))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": [
                {"label": c.label, "ok": c.ok, **_jsonable(c.data)} for c in self.checks
            ],
        }
