"""Stateful firewall exemplar: rule compiler plus reference implementation."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".compiler": ("HiltiFirewall", "compile_firewall",
                  "generate_hilti_source"),
    ".reference": ("ReferenceFirewall",),
    ".rules": ("Rule", "RuleError", "RuleSet"),
})
