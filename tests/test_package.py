"""Every name a module exports through ``__all__`` exists in that module."""

import importlib
import pkgutil

import heishom


def test_every_exported_name_resolves():
    modules = [heishom] + [importlib.import_module(f"heishom.{m.name}")
                           for m in pkgutil.iter_modules(heishom.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert len(modules) > 5 and missing == []
