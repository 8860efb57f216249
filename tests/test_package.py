"""The package namespace resolves its names on first use (PEP 562)."""

import importlib
import json
import subprocess
import sys

import pytest

import fentropy

# every name `fentropy` exported when its __init__ imported each module eagerly
EXPORTS = {
    "divergence": ["CHI2", "KL", "ConvexGenerator", "FiniteMeasure", "MeasureFamily",
                   "f_divergence", "furstenberg_entropy", "generator_from_string"],
    "free_boundary": ["CylinderMeasure", "GeneratorMeasure", "QVector", "TailRule",
                      "cylinder_entropy", "entropy_gradient_at_harmonic",
                      "harmonic_measure", "minimality_scan", "pushforward", "rn_generator",
                      "solve_q", "t_inverse", "t_map", "translate_mass",
                      "uniform_generator_measure"],
    "majorant": ["Majorant", "WeightedFunction", "combine", "concave_envelope",
                 "rho_abs_continuity", "rho_norm", "split_integrable", "vallee_poussin"],
    "sigma_walk": ["AbelMeasure", "GroupSpec", "LevelFunction", "LeveledMeasure",
                   "StochasticSequence", "WalkState", "abel_identity_residual",
                   "abel_measure", "boundary_empirical", "check_harmonic",
                   "constant_sequence", "exact_distribution", "folner_entropy_curve",
                   "martingale_check", "sample_trajectory", "validate_sigma"],
    "words": ["ReducedWord", "inverse", "multiply", "word"],
}
NAMES = [(mod, name) for mod, names in EXPORTS.items() for name in names]


def test_export_count():
    assert len(NAMES) == 51


@pytest.mark.parametrize("mod, name", NAMES)
def test_name_is_the_defining_object(mod, name):
    module = importlib.import_module("fentropy." + mod)
    assert getattr(fentropy, name) is getattr(module, name)
    namespace = {}
    exec(f"from fentropy import {name}", namespace)
    assert namespace[name] is getattr(module, name)


def test_dir_lists_every_export():
    listed = set(dir(fentropy))
    assert {name for _, name in NAMES} <= listed
    assert set(EXPORTS) <= listed and "__version__" in listed


def test_star_import_gives_the_exports():
    namespace = {}
    exec("from fentropy import *", namespace)
    assert {name for _, name in NAMES} <= set(namespace)


def test_submodules_resolve():
    from fentropy import free_boundary as fb

    assert fb is sys.modules["fentropy.free_boundary"]
    assert fentropy.majorant is importlib.import_module("fentropy.majorant")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fentropy.no_such_name
    with pytest.raises(ImportError):
        exec("from fentropy import no_such_name", {})


@pytest.mark.parametrize("module", ["fentropy", "fentropy.cli"])
def test_import_loads_no_numpy(module):
    code = (f"import json, sys, {module}; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'fentropy'))))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded = json.loads(r.stdout)
    assert not [m for m in loaded if m.startswith("numpy")]
    # the CLI needs errors for its exit codes; every library module waits for a handler
    assert set(loaded) <= {"fentropy", "fentropy.cli", "fentropy.errors"}
