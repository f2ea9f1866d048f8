"""Each topolab module's ``__all__`` names only what the module defines,
and every method the benchmark tracer patches still exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import topolab
from topolab import spaces

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_exported_name_resolves():
    modules = [
        importlib.import_module("topolab." + info.name)
        for info in pkgutil.iter_modules(topolab.__path__)
    ]
    assert sum(hasattr(m, "__all__") for m in modules) >= 8
    missing = [
        (m.__name__, name)
        for m in modules
        for name in getattr(m, "__all__", ())
        if not hasattr(m, name)
    ]
    assert missing == []


def test_every_traced_method_is_defined_on_its_class():
    # the tracer patches each method through the class __dict__, so a
    # deleted or inherited method breaks a traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        (cls_name, name)
        for cls_name, methods in tracer.CLASS_METHODS.items()
        for name in methods
        if name not in vars(getattr(spaces, cls_name))
    ]
    assert missing == []
