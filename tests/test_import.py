import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import quadpencil

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_import_loads_no_optimizer_or_interpolation():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import quadpencil; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.interpolate') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_minmax_verification_loads_no_optimizer():
    # Nor numpy.ma (np.unique without indices imports it) or numpy.polynomial
    # on the way to a beam's spectrum: each costs every process milliseconds.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import quadpencil as qp; "
            "p = qp.QuadraticPencil([[2.0, 0.0], [0.0, 8.0]], "
            "[[6.0, 0.0], [0.0, 2.0]]); "
            "res = qp.locate_real_eigenvalues(p, qp.IntervalDelta(lower=-2.1), 1e-10); "
            "assert qp.verify_minmax(p, res, random_subspaces=20, seed=0).ok; "
            "cfg = qp.BeamConfig(a0=1.0, n_modes=12, damping=qp.make_damping_profile("
            "{'profile': 'four_plus_sin'})); "
            "qp.full_spectrum(qp.build_linearization(qp.discretize_beam(cfg))); "
            "print(res.n_found, *(m in sys.modules for m in "
            "('scipy.optimize', 'numpy.ma', 'numpy.polynomial')))")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "1 False False False"


def test_benchmark_traced_functions_exist():
    # The benchmark's tracer wraps these functions by module and name, so
    # deleting or renaming one breaks `perfbench/run.py --trace 1`.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"quadpencil.{module}"),
                                       name, None))]
    assert missing == []


def test_all_names_resolve():
    assert [name for name in quadpencil.__all__ if not hasattr(quadpencil, name)] == []


def test_verifier_defaults_are_the_config_tolerances():
    tolerances = quadpencil.Tolerances()
    defaults = {
        f.__name__: {k: p.default for k, p in inspect.signature(f).parameters.items()
                     if k in ("tol", "locate_tol")}
        for f in (quadpencil.verify_minmax, quadpencil.compare_eigenvalues,
                  quadpencil.verify_beam_theorem)
    }
    both = {"tol": tolerances.verify, "locate_tol": tolerances.eigen}
    assert defaults == {"verify_minmax": {"tol": tolerances.verify},
                        "compare_eigenvalues": both, "verify_beam_theorem": both}
