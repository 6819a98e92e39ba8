"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py ROOT WORKLOAD SEED
        prints the seconds taken by `import quadpencil` plus setting up the
        workload's inputs (configs loaded, pencils built), as
        `workloads.inputs` does, and then the host scale measured right
        after it in the same interpreter.
    python3 perfbench/setup_probe.py --scipy-optimize
        prints the seconds `import scipy.optimize` takes after numpy.
"""
import statistics
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> None:
    if argv == ["--scipy-optimize"]:
        import numpy  # noqa: F401  (numpy's own import is not part of the figure)
        start = time.perf_counter()
        import scipy.optimize  # noqa: F401
        print(time.perf_counter() - start)
        return
    root, workload, seed = Path(argv[0]), argv[1], int(argv[2])
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import quadpencil  # noqa: F401
    import workloads
    workloads.inputs(workload, seed, root)
    setup_s = time.perf_counter() - start
    scale = statistics.median(
        workloads.host_scale(time.perf_counter, calls=5) for _ in range(5))
    print(setup_s, scale)


if __name__ == "__main__":
    main(sys.argv[1:])
