"""The per-layer trace of perfbench wraps names of the package; each must exist,
and removing the trace must restore every one of them."""

import fractions
import importlib.util
import inspect
import sys
from pathlib import Path

import srgft.cli  # noqa: F401  (the trace patches every srgft module, cli included)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every namespace the trace may patch: the srgft modules, their
    classes and `Fraction`."""
    out = [fractions.Fraction]
    for name, mod in sorted(sys.modules.items()):
        if name == "srgft" or name.startswith("srgft."):
            out.append(mod)
            out += [cls for _, cls in inspect.getmembers(mod, inspect.isclass)
                    if cls.__module__ == name]
    return out


def _snapshot():
    return {id(ns): (ns, dict(vars(ns))) for ns in _namespaces()}


def test_install_then_remove_restores_every_patched_name():
    tracing = _load_tracing()
    from srgft import classes, series

    before = _snapshot()
    trace = tracing.LayerTrace(tracing.Spans())
    try:
        trace.install()
        patched = [(fractions.Fraction, "__add__"), (series.SliceSeries, "eval"),
                   (series.StarQuotient, "eval"), (classes.FunctionUnderTest, "derivative_value"),
                   (series, "star_mul"), (classes, "koebe")]
        for ns, attr in patched:
            assert vars(ns)[attr] is not before[id(ns)][1][attr], (ns, attr)
    finally:
        trace.remove()
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, (ns, names) in before.items():
        now = after[key][1]
        assert now.keys() == names.keys(), ns
        changed = [attr for attr, value in names.items() if now[attr] is not value]
        assert not changed, (ns, changed)
