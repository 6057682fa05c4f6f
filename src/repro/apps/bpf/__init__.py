"""BPF exemplar: filter language, classic VM baseline, HILTI compiler."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".compiler": ("HiltiFilter", "build_filter_module", "compile_to_hilti"),
    ".lang": ("FilterError", "parse_filter"),
    ".vm": ("BpfProgram", "compile_to_vm"),
})
