"""quadpencil benchmark: verdict latency and throughput, with per-layer traces.

    python3 perfbench/run.py --workload {beam-scale,cli-mix} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. One process, one client in a closed
loop, BLAS pinned to one thread. A workload is one round of problems. The
untraced run (--trace 0) runs as many whole rounds as fit in S seconds after
set-up by their nominal times (at least one), so the same arguments run the
same ops on any host, and prints the end-to-end metrics. The traced run
(--trace 1) runs the round once untraced and once traced and prints the
per-layer metrics. Every op is checked against an oracle; the last line of
stdout is the JSON result. See perfbench/README.md.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_THREADS = "1"
SETUP_SAMPLES = 11   # fresh interpreters per run; setup_s is the median of
                     # their set-up times over their host scales
END_TO_END = ("setup_s", "problems_per_s", "peak_rss_mb")
OP_KINDS = ("spectrum", "variational", "locate", "simulate", "interlace", "beam-report")
PROBE_TIMEOUT_S = 120
# Seconds of a run's set-up (probes, oracles, warm-up) and of one round,
# on the host of the README's baseline. They fix how many rounds a run
# measures; no measured time does.
PREPARE_NOMINAL_S = 12.0
ROUND_NOMINAL_S = {"beam-scale": 29.0, "cli-mix": 18.5}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("beam-scale", "cli-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_environment() -> None:
    """Pin the BLAS thread count before numpy is imported (here and in the
    set-up probes), and drop the CLI's seed override."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("QUADPENCIL_SEED", None)


def _probe(*args: str) -> list[float]:
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True, env=os.environ)
    return [float(v) for v in done.stdout.strip().splitlines()[-1].split()]


def _record(args) -> dict:
    import numpy
    import scipy

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds a run of `seconds` measures: as many as fit after
    set-up by their nominal times, and at least one."""
    return max(1, int((seconds - PREPARE_NOMINAL_S) // ROUND_NOMINAL_S[workload]))


def run_problems(problems, clock, *, rounds=1, tracer=None, before_op=None):
    """Run `rounds` whole rounds of the problems. `before_op` runs before
    every op, outside the op's time. Returns the outcomes and, for each
    problem pass, (problem label, seconds of its ops)."""
    from workloads import run_op

    outcomes, passes = [], []
    for _ in range(rounds):
        for problem in problems:
            seconds = 0.0
            for op in problem.ops:
                if before_op is not None:
                    before_op()
                if tracer is None:
                    outcome = run_op(problem.label, op, clock)
                else:
                    with tracer.op_span(op.kind):
                        outcome = run_op(problem.label, op, clock)
                outcomes.append(outcome)
                seconds += outcome.seconds
            passes.append((problem.label, seconds))
    return outcomes, passes


def end_to_end(outcomes, passes, host_scale=1.0) -> dict:
    """problems_per_s from the median op time of each problem over its
    passes, times the host scale, and the median latency of each op kind."""
    times = defaultdict(list)
    for label, seconds in passes:
        times[label].append(seconds)
    round_s = sum(statistics.median(t) for t in times.values())
    values = {"problems_per_s": len(times) / round_s * host_scale}
    for kind in OP_KINDS:
        secs = [o.seconds for o in outcomes if o.kind == kind]
        if secs:
            values[f"{kind.replace('-', '_')}_p50_s"] = statistics.median(secs)
    return values


def _tail(values: list[float]) -> str:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            value = ordered[min(n - 1, int(round(p / 100.0 * (n - 1))))]
            return f"p{p:g}={value:.6g}s"
    return "no percentile has 10 samples beyond it"


def main(argv=None) -> int:
    clock = time.perf_counter
    started = clock()
    args = _parse(argv)
    _pin_environment()
    if not (ROOT / "src" / "quadpencil" / "__init__.py").is_file() or not (
            ROOT / "configs").is_dir():
        print(f"perfbench: no quadpencil source tree (src/quadpencil, configs/) "
              f"under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import quadpencil
    if Path(quadpencil.__file__).resolve().parent != ROOT / "src" / "quadpencil":
        print(f"perfbench: imported quadpencil from {quadpencil.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    record = _record(args)
    setup = [] if args.trace else [
        _probe(str(ROOT), args.workload, str(args.seed)) for _ in range(SETUP_SAMPLES)]
    problems = workloads.build(args.workload, args.seed, ROOT)
    # Warm-up on the tiny round: first-call costs are not measured.
    run_problems(workloads.build(args.workload, args.seed, ROOT, tiny=True), clock)

    lines = []
    if args.trace:
        from tracing import Tracer, per_layer_metrics

        _, untraced = run_problems(problems, clock)
        tracer = Tracer(clock).install()
        try:
            outcomes, passes = run_problems(problems, clock, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(
            traced_wall=sum(s for _, s in passes), untraced_wall=sum(s for _, s in untraced),
            eig_floor_s=tracer.eig_floor(),
            scipy_optimize_s=statistics.median(
                _probe("--scipy-optimize")[0] for _ in range(3)),
            bytes_out=sum(o.bytes_out for o in outcomes))
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        lines.append(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        report = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        scales = []
        outcomes, passes = run_problems(
            problems, clock, rounds=rounds_for(args.workload, args.seconds),
            before_op=(lambda: scales.append(workloads.host_scale(clock)))
            if args.workload == "cli-mix" else None)
        host_scale = statistics.median(scales) if scales else 1.0
        failed = sum(o.failed for o in outcomes)
        values = {"setup_s": statistics.median(s / scale for s, scale in setup),
                  **end_to_end(outcomes, passes, host_scale),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "failed_ratio": failed / len(outcomes)}
        units = {"setup_s": "s", "problems_per_s": "1/s", "peak_rss_mb": "MB",
                 "failed_ratio": "ratio"}
        for kind in OP_KINDS:
            secs = [o.seconds for o in outcomes if o.kind == kind]
            if secs:
                lines.append(f"latency {kind} ops={len(secs)} {_tail(secs)}")
        for name, value in values.items():
            gated = "gated" if name in END_TO_END else "info"
            lines.append(f"metric {name} {value:.6g} {units.get(name, 's')} ({gated})")
        lines.append(f"setup_s samples (seconds, host scale) "
                     f"{' '.join(f'{s:.4f},{scale:.3f}' for s, scale in setup)}; "
                     f"unscaled median {statistics.median(s for s, _ in setup):.6g} s")
        lines.append(f"passes {len(passes)} over {len(problems)} problems, op seconds "
                     f"{' '.join(f'{s:.3f}' for _, s in passes)}; {len(outcomes)} ops, "
                     f"{failed} failed; run wall {clock() - started:.1f} s")
        if scales:
            lines.append(f"host_scale {host_scale:.4f}: median of {len(scales)} samples; "
                         f"unscaled problems_per_s "
                         f"{values['problems_per_s'] / host_scale:.6g}")
        report = {name: {"value": values[name], "unit": units.get(name, "s")}
                  for name in END_TO_END}

    record["passes"] = len(passes)
    record["ops"] = {kind: sum(o.kind == kind for o in outcomes)
                     for kind in OP_KINDS if any(o.kind == kind for o in outcomes)}
    lines += [f"failed-op {o.label} {o.kind}: {o.note}" for o in outcomes if o.failed]
    print("record " + json.dumps(record, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": all(o.correct for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
