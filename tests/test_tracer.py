"""The benchmark's span tracer (perfbench/spans.py) against this package.

The tracer wraps the methods it lists by name and rebinds every enumtc
module attribute that refers to a wrapped function.  Renaming or deleting
a listed name breaks its install; this test breaks first.  It only reads
perfbench/.
"""

import importlib
import sys
from pathlib import Path

from enumtc.claims import run_claims

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings(spans):
    """Every enumtc module attribute and every method the tracer lists."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "enumtc" or name.startswith("enumtc."):
            for attr, value in vars(module).items():
                out[name, attr] = value
    for layer, classes in spans.METHODS.items():
        module = importlib.import_module(f"enumtc.{layer}")
        for cls_name, methods in classes.items():
            for meth in methods:
                out[layer, cls_name, meth] = \
                    vars(getattr(module, cls_name))[meth]
    return out


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for layer in spans.LAYERS:
        importlib.import_module(f"enumtc.{layer}")
    before = _bindings(spans)
    tracer = spans.Tracer().install()
    try:
        during = _bindings(spans)
        report = run_claims(["regseq-pu4k", "regseq-pu3h"])
    finally:
        tracer.uninstall()
    after = _bindings(spans)
    assert report.claim("regseq-pu4k").status == "verified"
    assert report.claim("regseq-pu3h").status == "verified"
    assert sum(during[k] is not v for k, v in before.items()) > 0
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert calls["koszul.macaulay_rank"] > 0
    assert calls["koszul.KoszulComplex.boundary_matrix"] > 0
    # the benchmark's restriction.phi_star_generators.calls reads this span
    assert calls["restriction.phi_star_generators"] == 2
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
