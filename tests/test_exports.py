"""Each topolab module's ``__all__`` names only what the module defines."""

import importlib
import pkgutil

import topolab


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
