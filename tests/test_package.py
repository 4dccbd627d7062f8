"""The package's public names."""

import importlib.util
import inspect
import sys
from pathlib import Path

import gravnet
from gravnet.netstats import TradeNetwork


def test_star_import_resolves_every_exported_name():
    # a stale name in __all__ makes the star import itself raise
    namespace = {}
    exec("from gravnet import *", namespace)
    assert len(set(gravnet.__all__)) == len(gravnet.__all__)
    for name in gravnet.__all__:
        assert namespace[name] is getattr(gravnet, name), name


def test_bench_trace_hooks_resolve_to_module_level_functions(monkeypatch):
    """The traced bench pass rebinds each function ``bench/layers.py``
    names in every gravnet namespace that holds it, and wraps
    ``TradeNetwork.__post_init__``; each must be found under that name."""
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ is only read
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for module, names in layers.LAYERS.items():
        defining = importlib.import_module(f"gravnet.{module}")
        for name in names:
            function = vars(defining).get(name)
            assert inspect.isfunction(function), f"{module}.{name}"
            assert function.__module__ == defining.__name__, f"{module}.{name}"
    assert inspect.isfunction(vars(TradeNetwork).get("__post_init__"))
