"""Lazy package exports (PEP 562).

Every ``repro`` package re-exports the public names of its submodules
(``from repro.core import hiltic``), but a run should only pay for the
submodules it executes: importing ``repro.core.values`` must not compile
the code generator.  A package therefore declares its exports as a table
and resolves each name on first access::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".toolchain": ("hilti_build", "hiltic", "run_source"),
        ".values": ("Addr", "Interval", "Network", "Port", "Time"),
    }, submodules=("types",))

A resolved name is stored in the package's namespace, so the second
access is a plain attribute lookup and the object is the one its
defining submodule holds.  This module imports nothing from ``repro``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    exports: Dict[str, Sequence[str]],
    submodules: Iterable[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The ``(__getattr__, __dir__, __all__)`` triple of *package*.

    *exports* maps a relative submodule name (``".values"``) to the
    names it exports through the package; *submodules* names
    submodules that are themselves exports (``repro.core.types``).
    """
    origin: Dict[str, str] = {}
    for module, names in exports.items():
        for name in names:
            origin[name] = module
    for name in submodules:
        origin[name] = "." + name
    public = sorted(origin)

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module, package)
        if module != "." + name:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return __getattr__, __dir__, public
