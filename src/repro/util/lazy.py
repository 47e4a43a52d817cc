"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists its re-exported names in one name -> module
table and installs the ``__getattr__``/``__dir__`` pair built here.  A
name's module is imported on its first access and the value is then
bound in the package namespace, so importing a package -- or any module
inside it -- loads none of its siblings, and a command that never
touches the thermal model or the deadlock checker never imports scipy
or networkx.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping


def lazy_exports(
    namespace: dict[str, Any], table: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` resolving
    ``table``'s names into ``namespace`` (the package's ``globals()``).

    Table modules may be relative to the package (``".cdor"``).
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__
