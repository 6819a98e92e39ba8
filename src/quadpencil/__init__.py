"""Spectral analysis of damped second-order systems via quadratic pencils.

`import quadpencil` loads none of its modules: each public name below, and
each submodule name (`quadpencil.linearization`), imports its module on
first access (PEP 562), so a process compiles and runs only the modules it
uses.
"""
import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "beam": ("BeamBounds", "BeamConfig", "DampingProfile", "QuadratureSpec", "beam_bounds",
             "beam_closed_form", "discretize_beam", "make_damping_profile",
             "verify_beam_theorem"),
    "config": ("ProblemConfig", "build_pencil", "load_config", "random_pencil"),
    "errors": ("ComputationError", "ConfigError", "FormOrderError", "InvalidArgumentError",
               "QuadPencilError"),
    "evolution": ("SimulationTrace", "energy_monotonicity_report", "simulate"),
    "interlacing": ("ComparisonReport", "check_form_order", "compare_eigenvalues"),
    "linearization": ("LinearizedSystem", "SpectrumResult", "build_linearization",
                      "check_pencil_equivalence", "full_spectrum", "resolvent_region_check",
                      "structural_report"),
    "pencil": ("AlphaResult", "DstarCertificate", "DstarVerdict", "PencilScalars",
               "QuadraticPencil", "RayleighPair", "compute_alpha", "compute_delta_gamma",
               "compute_scalars", "disc_radius", "dstar_empty_certificate", "rayleigh_batch",
               "rayleigh_pair"),
    "reports": ("Check", "Report"),
    "variational": ("EigenvalueDiagnostics", "InertiaCount", "IntervalDelta",
                    "VariationalResult", "inertia_negative", "locate_real_eigenvalues",
                    "verify_minmax"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"blocks", "cli"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
