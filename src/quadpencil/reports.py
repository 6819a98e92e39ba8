"""Report containers for the property-check operations.

Verification operations never raise on a failed mathematical property; they
return a Report whose entries carry the witness data (vectors, distances,
counts) needed to reproduce the failure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def _jsonable(value: Any) -> Any:
    """The one JSON encoder of the library's values: a NamedTuple record as
    an object of its fields, a complex number as {re, im}, numpy scalars and
    arrays as Python ones, and a non-finite float as None (JSON null)."""
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "c":  # a complex array is written flat
            value = value.ravel()
        elif value.dtype.kind != "f" or np.isfinite(value).all():
            return value.tolist()
        return _jsonable(value.tolist())
    if isinstance(value, complex):
        return {"re": _jsonable(value.real), "im": _jsonable(value.imag)}
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        return _jsonable(value._asdict())
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
