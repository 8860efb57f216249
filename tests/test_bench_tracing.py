"""bench/tracing.py wraps library functions by dotted name; a renamed or
removed function would only show when the benchmark runs with --trace 1."""

import importlib.util
import math
from pathlib import Path

import pytest

from fentropy import majorant
from fentropy.divergence import FiniteMeasure

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


@pytest.mark.parametrize("gauge", ["majorant_for_measure", "combine-max", "combine-compose",
                                   "vallee_poussin-tlog1p"])
def test_each_gauge_reaches_the_traced_envelope_once(gauge, monkeypatch):
    """The per-layer metric majorant.concave_envelope.calls counts the calls
    that reach the module attribute bench/tracing.py rebinds."""
    m = FiniteMeasure({"a": 0.2, "b": 0.3, "c": 0.5})
    nu = FiniteMeasure({"a": 0.5, "b": 0.25, "c": 0.25})
    rho = majorant.majorant_for_measure(m, nu)
    calls = []
    envelope = majorant.concave_envelope
    monkeypatch.setattr(majorant, "concave_envelope",
                        lambda samples: calls.append(gauge) or envelope(samples))
    if gauge == "majorant_for_measure":
        majorant.majorant_for_measure(m, nu)
    elif gauge.startswith("combine-"):
        majorant.combine(gauge[len("combine-"):], [rho, majorant.power_majorant(2.5)])
    else:
        majorant.vallee_poussin(lambda t: t * math.log1p(t), 2.0)
    assert calls == [gauge]
