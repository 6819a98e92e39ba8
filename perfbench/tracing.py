"""Per-layer trace of a benchmark run, recorded from the benchmark's side.

`Tracer.install` replaces the public functions listed in TRACED with a
wrapper at every import site (the defining module, every quadpencil module
that imported the name, and the package namespace), so that
`quadpencil.beam.compute_alpha` and `quadpencil.interlacing.compute_alpha`
record the same `pencil.compute_alpha` span. Spans (name, start, end,
parent, op id) stay in memory and are written once, at the end.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import scipy.linalg

MODULES = ("config", "cli", "pencil", "linearization", "variational",
           "interlacing", "beam", "evolution", "reports")

# The public functions whose time an optimisation is expected to move.
TRACED = {
    "config": ("load_config", "build_pencil"),
    "cli": ("main",),
    "pencil": ("compute_alpha", "compute_scalars", "compute_delta_gamma",
               "dstar_empty_certificate", "rayleigh_batch"),
    "linearization": ("build_linearization", "full_spectrum", "structural_report",
                      "check_pencil_equivalence", "resolvent_region_check"),
    "variational": ("locate_real_eigenvalues", "verify_minmax", "inertia_negative"),
    "interlacing": ("check_form_order", "compare_eigenvalues"),
    "beam": ("discretize_beam", "verify_beam_theorem", "beam_bounds"),
    "evolution": ("simulate", "energy_monotonicity_report"),
}

# Metrics computed from the trace rather than read off one span.
DERIVED = (
    ("linearization.clusters", "count", "lower"),
    ("linearization.eig_floor_s", "s", "lower"),
    ("linearization.full_spectrum_over_eig", "ratio", "lower"),
    ("evolution.steps", "count", "higher"),
    ("evolution.steps_per_s", "1/s", "higher"),
    ("cli.bytes_out", "bytes", "lower"),
    ("import.scipy_optimize_s", "s", "lower"),
    ("reports.checks", "count", "higher"),
    ("reports.checks_failed", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for module, funcs in TRACED.items():
        for func in funcs:
            out += [(f"{module}.{func}.calls", "count", "lower"),
                    (f"{module}.{func}.self_s", "s", "lower"),
                    (f"{module}.{func}.total_s", "s", "lower")]
    return out + list(DERIVED)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.op = -1
        self.checks = 0
        self.checks_failed = 0
        self.clusters = 0
        self.steps = 0
        self.companions = []          # matrices handed to full_spectrum
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        from quadpencil.reports import Report
        self._report_type = Report

    def install(self) -> "Tracer":
        sites = [importlib.import_module("quadpencil")] + [
            importlib.import_module(f"quadpencil.{m}") for m in MODULES]
        for module, funcs in TRACED.items():
            home = importlib.import_module(f"quadpencil.{module}")
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{module}.{func}", original)
                for site in sites:
                    if getattr(site, func, None) is original:
                        self._patches.append((site, func, original))
                        setattr(site, func, wrapper)
        return self

    def uninstall(self) -> None:
        for site, func, original in reversed(self._patches):
            setattr(site, func, original)
        self._patches.clear()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._observe(name, args, result)
            return result
        return traced

    def _observe(self, name: str, args, result) -> None:
        if isinstance(result, self._report_type):
            self.checks += len(result.checks)
            self.checks_failed += len(result.failures())
        elif name == "linearization.full_spectrum":
            self.clusters += len(result.eigenvalues)
            self.companions.append(args[0].a_matrix)
        elif name == "evolution.simulate":
            self.steps += len(result.times) - 1

    @contextmanager
    def op_span(self, kind: str):
        self.op += 1
        idx = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(idx)

    def eig_floor(self) -> float:
        """Seconds of bare scipy.linalg.eig on every companion full_spectrum saw."""
        total = 0.0
        for a in self.companions:
            start = self.clock()
            scipy.linalg.eig(a)
            total += self.clock() - start
        return total

    def metrics(self, *, traced_wall: float, untraced_wall: float, eig_floor_s: float,
                scipy_optimize_s: float, bytes_out: int) -> dict[str, float]:
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        child = defaultdict(float)
        for idx in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[idx]
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[idx]
            if parent >= 0:
                child[parent] += dur
        out = {}
        for module, funcs in TRACED.items():
            for func in funcs:
                key = f"{module}.{func}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.self_s"] = self_s[key]
                out[f"{key}.total_s"] = total[key]
        op_total = sum(v for k, v in total.items() if k.startswith("op."))
        op_self = sum(v for k, v in self_s.items() if k.startswith("op."))
        sim_s = total["evolution.simulate"]
        out.update({
            "linearization.clusters": self.clusters,
            "linearization.eig_floor_s": eig_floor_s,
            "linearization.full_spectrum_over_eig":
                total["linearization.full_spectrum"] / eig_floor_s if eig_floor_s else 0.0,
            "evolution.steps": self.steps,
            "evolution.steps_per_s": self.steps / sim_s if sim_s else 0.0,
            "cli.bytes_out": bytes_out,
            "import.scipy_optimize_s": scipy_optimize_s,
            "reports.checks": self.checks,
            "reports.checks_failed": self.checks_failed,
            "trace.overhead_ratio": traced_wall / untraced_wall,
            "trace.unattributed_share": op_self / op_total if op_total else 0.0,
        })
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
        }))
