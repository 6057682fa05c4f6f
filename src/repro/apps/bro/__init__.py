"""mini-Bro: event engine, script language, interpreter, HILTI compiler."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core": ("BroCore",),
    ".interp": ("ScriptInterp",),
    ".lang": ("BroParseError", "Script", "parse_script"),
    ".logging": ("LogManager", "normalize_log"),
    ".main": ("Bro", "default_scripts"),
    ".parallel": ("ParallelBro",),
    ".val": ("RecordVal", "SetVal", "TableVal", "VectorVal"),
})
