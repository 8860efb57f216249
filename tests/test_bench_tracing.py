"""bench/tracing.py wraps library functions by dotted name; a renamed or
removed function would only show when the benchmark runs with --trace 1."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("fentropy_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("path", [p for p, _ in tracing.SPANS]
                         + [p for p, _, _ in tracing.LEAVES])
def test_traced_name_resolves(path):
    owner, attr = tracing._resolve(path)
    assert callable(vars(owner)[attr])
