"""PEP 562 lazy re-exports shared by the package ``__init__`` modules.

A package namespace lists each public name with the submodule that
defines it; the submodule is imported on the name's first access, so
``import repro.serve`` (or ``from repro.signals import awgn``) loads
only the modules that define what it uses.  A resolved name is cached
in the package namespace, so it is the defining module's own object
and later lookups never reach ``__getattr__`` again.
"""

from __future__ import annotations

import sys
from importlib import import_module
from importlib.util import find_spec


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for *package*'s namespace.

    *table* maps a submodule, relative to *package* (``".scf"``), to
    the public names it defines.  Any other public attribute that
    names a submodule (``repro.core``) imports it, as an eager package
    ``__init__`` would have; ``__dir__`` adds the table's names to
    those already bound.
    """
    namespace = vars(sys.modules[package])
    owners = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = owners.get(name)
        if module is not None:
            value = getattr(import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("_") and find_spec(f"{package}.{name}"):
            return import_module(f"{package}.{name}")
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    return __getattr__, __dir__
