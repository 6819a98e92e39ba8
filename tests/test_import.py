import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_optimizer_or_interpolation():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import quadpencil; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.interpolate') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_minmax_verification_loads_no_optimizer():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import quadpencil as qp; "
            "p = qp.QuadraticPencil.from_matrices([[2.0, 0.0], [0.0, 8.0]], "
            "[[6.0, 0.0], [0.0, 2.0]]); "
            "res = qp.locate_real_eigenvalues(p, qp.IntervalDelta(lower=-2.1), 1e-10); "
            "assert qp.verify_minmax(p, res, random_subspaces=20, seed=0).ok; "
            "print(res.n_found, 'scipy.optimize' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "1 False"
