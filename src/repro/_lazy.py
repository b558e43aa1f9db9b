"""Lazy package exports (PEP 562): a name's submodule loads on first use.

A package ``__init__`` keeps its ``__all__`` and hands this helper a
map from each submodule to the names it exports::

    _EXPORTS = {
        "repro.runtime.store": ("ArtifactStore", "validate_key"),
    }
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

``repro.runtime.ArtifactStore`` then imports :mod:`repro.runtime.store`
on first access and caches the value in the package globals, so later
lookups never reach ``__getattr__``.  A process imports only the layers
it runs; ``tests/test_import_graph.py`` pins which ones.
"""

from __future__ import annotations

import importlib
from typing import Callable, Mapping


def lazy_exports(
    package: str, namespace: dict, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Return the ``__getattr__`` and ``__dir__`` that serve ``exports``."""
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__
