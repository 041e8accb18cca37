"""Lazy package exports: a package init is one table, read on first use.

A package ``__init__`` re-exports names from its submodules without
importing them: it hands :func:`lazy_exports` a table of defining module →
names, and each name is imported from its module the first time it is
read (PEP 562 module ``__getattr__``), then kept in the package's
namespace.  ``__all__`` and ``dir()`` come from the same table, so each
name is spelled once and ``import repro.service.http`` loads HTTP and the
journal, not numpy, the simulator or the analyzer.

This is the one module that imports by string (``repro check`` rule
ARC526), so every other import stays visible to the import rules.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Tuple[str, ...]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` of *package*, whose
    *table* maps each defining module to the names it exports."""
    home: Dict[str, str] = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(home[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return list(home), __getattr__, __dir__
