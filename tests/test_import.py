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
