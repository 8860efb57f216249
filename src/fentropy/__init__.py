"""Furstenberg entropy on the free-group boundary, sigma-stochastic walks,
and uniform-integrability gauges.

The package imports its modules on first use (PEP 562), so that
`import fentropy` loads neither numpy nor any library module; a name below
resolves to the object its module defines.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys([
        "CHI2", "KL", "ConvexGenerator", "FiniteMeasure", "MeasureFamily",
        "f_divergence", "furstenberg_entropy", "generator_from_string",
    ], "divergence"),
    **dict.fromkeys([
        "CylinderMeasure", "GeneratorMeasure", "QVector", "TailRule", "cylinder_entropy",
        "entropy_gradient_at_harmonic", "harmonic_measure", "minimality_scan",
        "pushforward", "rn_generator", "solve_q", "t_inverse", "t_map", "translate_mass",
        "uniform_generator_measure",
    ], "free_boundary"),
    **dict.fromkeys([
        "Majorant", "WeightedFunction", "combine", "concave_envelope",
        "rho_abs_continuity", "rho_norm", "split_integrable", "vallee_poussin",
    ], "majorant"),
    **dict.fromkeys([
        "AbelMeasure", "GroupSpec", "LevelFunction", "LeveledMeasure",
        "StochasticSequence", "WalkState", "abel_identity_residual", "abel_measure",
        "boundary_empirical", "check_harmonic", "constant_sequence", "exact_distribution",
        "folner_entropy_curve", "martingale_check", "sample_trajectory", "validate_sigma",
    ], "sigma_walk"),
    **dict.fromkeys(["ReducedWord", "inverse", "multiply", "word"], "words"),
}
_MODULES = ("divergence", "errors", "free_boundary", "majorant", "sigma_walk", "words")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    if name in _MODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULES})
