"""The HILTI abstract machine: types, IR, compiler, and execution tiers."""

from .._lazy import lazy_exports

#: Every optimization level the toolchain accepts; the CLIs derive their
#: ``-O`` flags/choices from this so a new tier lands everywhere at once.
OPT_LEVELS = (0, 1, 2)

#: The level used when no ``-O`` flag is given.
DEFAULT_OPT_LEVEL = 1

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".builder": ("FunctionBuilder", "ModuleBuilder"),
    ".codegen": ("CompiledProgram", "compile_program"),
    ".interp": ("Interpreter",),
    ".ir": (
        "Block", "Const", "FieldRef", "FuncRef", "Function", "GlobalVar",
        "Instruction", "LabelRef", "Location", "Module", "Parameter",
        "TupleOp", "TypeRef", "Var",
    ),
    ".linker": ("LinkedProgram", "LinkError", "link"),
    ".optimize": ("OptStats", "optimize_module"),
    ".parser": ("ParseError", "parse_module", "parse_type"),
    ".printer": ("PrintError", "print_module"),
    ".stubs": ("Stub", "StubResult", "make_stub"),
    ".toolchain": ("HiltiExecutable", "hilti_build", "hiltic",
                   "run_source"),
    ".typecheck": ("TypeCheckError", "check_module"),
    ".values": ("Addr", "Interval", "Network", "Port", "Time"),
}, submodules=("types",))
__all__ = sorted(__all__ + ["DEFAULT_OPT_LEVEL", "OPT_LEVELS"])
