import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

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
            "assert qp.verify_minmax(p, res).ok; "
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


def test_verifiers_take_no_tolerance():
    # pencil.EIGEN_TOL and pencil.VERIFY_TOL are the one source of the
    # verdict tolerances: no verifier lets a caller set either.
    settable = [f.__name__ for f in (quadpencil.verify_minmax, quadpencil.compare_eigenvalues,
                                     quadpencil.verify_beam_theorem)
                if {"tol", "locate_tol"} & set(inspect.signature(f).parameters)]
    assert settable == []


# The modules that setting up the benchmark's inputs (beams discretized,
# configs loaded and pencils built) has no use for.
CHECKERS = ("variational", "linearization", "evolution", "interlacing", "reports")
# The modules a command should load only when it runs them.
WATCHED = ("quadpencil.beam", "quadpencil.variational", "quadpencil.evolution",
           "quadpencil.interlacing", "scipy.optimize", "scipy.spatial", "numpy.ma",
           "numpy.polynomial", "numpy.random")


def _fresh(code, *args):
    """Run `code` in a fresh interpreter with src/ on its path; its stdout."""
    done = subprocess.run([sys.executable, "-c", code, str(SRC), *map(str, args)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_setup_loads_no_checker_module():
    # What a benchmark workload sets up: n = 50 beams of both profiles, and
    # every shipped config loaded and its pencil built.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from pathlib import Path; "
            "import quadpencil as qp, quadpencil.cli; "
            "[qp.discretize_beam(qp.BeamConfig(a0=1.0, n_modes=50, "
            "damping=qp.make_damping_profile(spec))) for spec in "
            "({'profile': 'constant', 'params': {'value': 4.0}}, "
            "{'profile': 'four_plus_sin', 'params': {}})]; "
            "paths = sorted(Path(sys.argv[2]).glob('*.json')); "
            "[qp.build_pencil(qp.load_config(p)) for p in paths]; "
            f"print(len(paths), [m for m in {CHECKERS!r} if 'quadpencil.' + m in sys.modules])")
    assert _fresh(code, ROOT / "configs").strip() == "7 []"


@pytest.mark.parametrize("argv, loaded", [
    (["spectrum", "dense_diag.json"], []),
    (["spectrum", "beam_sin.json"], ["quadpencil.beam"]),
    (["simulate", "dense_diag.json", "--t-final", "1", "--dt", "0.01"],
     ["quadpencil.evolution"]),
    (["variational", "dense_diag.json"], ["quadpencil.variational"]),
    (["variational", "random_dim4.json"], ["quadpencil.variational", "numpy.random"]),
    (["interlace", "beam_const4.json", "beam_const5.json"],
     ["quadpencil.beam", "quadpencil.variational", "quadpencil.interlacing"]),
    (["beam-report", "beam_sin.json"], ["quadpencil.beam", "quadpencil.variational"]),
])
def test_command_loads_only_what_it_runs(tmp_path, argv, loaded):
    # Each command in a fresh process: of WATCHED, it loads exactly `loaded`.
    # No command loads scipy.optimize, scipy.spatial (alpha's hulls are
    # numpy), numpy.ma or numpy.polynomial, and only a random-source config
    # loads numpy.random (config.random_pencil draws the pencil).
    argv = [str(ROOT / "configs" / a) if a.endswith(".json") else a for a in argv]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from quadpencil.cli import main; "
            "rc = main(sys.argv[2:]); "
            f"print(rc, [m for m in {WATCHED!r} if m in sys.modules])")
    out = _fresh(code, *argv, "--out", tmp_path / "out")
    assert out.strip() == f"0 {loaded!r}"


def test_variational_adds_no_numpy_random(tmp_path):
    # On a config that draws nothing, variational adds no numpy.random to
    # what `import numpy` loaded (numpy 1.x loads it with numpy itself):
    # verify_minmax draws no subspaces, only config.random_pencil draws.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
            "before = set(sys.modules); from quadpencil.cli import main; "
            "rc = main(sys.argv[2:]); "
            "print(rc, sorted(m for m in set(sys.modules) - before "
            "if m.startswith('numpy.random')))")
    out = _fresh(code, "variational", ROOT / "configs" / "dense_diag.json",
                 "--out", tmp_path / "out")
    assert out.strip() == "0 []"


# What every command loads after numpy and quadpencil.cli: its argument
# parsing, JSON and the modules of a pencil. Only spectrum and simulate load
# the companion (quadpencil.linearization).
COMMAND_BASE = ["argparse", "gettext", "json", "json.decoder", "json.encoder", "json.scanner",
                "locale", "quadpencil.blocks", "quadpencil.config", "quadpencil.pencil",
                "quadpencil.reports"]


@pytest.mark.parametrize("argv, extra", [
    (["spectrum", "dense_diag.json"], ["quadpencil.linearization"]),
    (["spectrum", "beam_sin.json"], ["quadpencil.beam", "quadpencil.linearization"]),
    (["simulate", "dense_diag.json", "--t-final", "1", "--dt", "0.01"],
     ["quadpencil.evolution", "quadpencil.linearization"]),
    (["variational", "dense_diag.json"], ["quadpencil.variational"]),
    (["variational", "random_dim4.json"],
     ["base64", "hashlib", "hmac", "quadpencil.variational", "secrets"]),
    (["interlace", "beam_const4.json", "beam_const5.json"],
     ["quadpencil.beam", "quadpencil.interlacing", "quadpencil.variational"]),
    (["beam-report", "beam_const4.json"], ["quadpencil.beam", "quadpencil.variational"]),
])
def test_command_loads_no_other_module(tmp_path, argv, extra):
    # Every public module a command loads after numpy and quadpencil.cli
    # (numpy's own submodules are WATCHED above): the pencil's blocks and
    # alpha add none. base64 to secrets come with numpy.random.
    argv = [str(ROOT / "configs" / a) if a.endswith(".json") else a for a in argv]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy, quadpencil.cli; "
            "before = set(sys.modules); quadpencil.cli.main(sys.argv[2:]); "
            "print(sorted(m for m in set(sys.modules) - before "
            "if not m.startswith(('_', 'numpy.', 'cython'))))")
    out = _fresh(code, *argv, "--out", tmp_path / "out")
    assert out.strip() == repr(sorted(COMMAND_BASE + extra))


def test_pencil_module_loads_no_other_module():
    # After numpy, quadpencil.pencil loads only the standard library's
    # dataclasses (with copy and __future__) and its own package.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
            "before = set(sys.modules); import quadpencil.pencil; "
            "print(sorted(set(sys.modules) - before))")
    assert _fresh(code).strip() == repr(["__future__", "copy", "dataclasses", "quadpencil",
                                        "quadpencil.blocks", "quadpencil.errors",
                                        "quadpencil.pencil"])


def test_lazy_namespace():
    # In a fresh process: every submodule resolves as an attribute before
    # anything imported it, every public name resolves, and star-imports
    # bind __all__; the CLI module resolves the library names too.
    code = """
import pkgutil, sys, types
sys.path.insert(0, sys.argv[1])
import quadpencil
names = [m.name for m in pkgutil.iter_modules(quadpencil.__path__)]
assert not [m for m in sys.modules if m.startswith('quadpencil.')]
for name in names:
    module = getattr(quadpencil, name)
    assert isinstance(module, types.ModuleType) and module.__name__ == 'quadpencil.' + name
assert set(quadpencil.__all__) | set(names) <= set(dir(quadpencil))
assert all(getattr(quadpencil, name) is not None for name in quadpencil.__all__)
star = {}
exec('from quadpencil import *', star)
assert set(quadpencil.__all__) <= set(star)
try:
    quadpencil.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError('quadpencil.no_such_name resolved')
assert quadpencil.cli.full_spectrum is quadpencil.linearization.full_spectrum
print(len(names), len(quadpencil.__all__))
"""
    assert _fresh(code).strip() == "11 53"
