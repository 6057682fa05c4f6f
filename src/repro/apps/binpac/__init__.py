"""BinPAC++: a yacc for network protocols, targeting HILTI."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".codegen": ("GrammarCompiler", "ParseSession", "Parser",
                 "compile_grammar"),
    ".evt": ("AnalyzerSpec", "EventSpec", "EvtFile", "build_glue_module",
             "parse_evt"),
    ".parser": ("parse_grammar",),
    ".runtime": ("ParseError",),
}, submodules=("ast",))
