"""Parser for HILTI's textual syntax.

Parses the register-style language of the paper's examples (Figures 3-5)
into ``repro.core.ir`` modules::

    module Main

    import Hilti

    type Rule = struct { net src, net dst }

    global ref<set<tuple<addr, addr>>> dyn

    void run() {
        local bool b
        b = set.exists dyn (src, dst)
        if.else b yes no
    yes:
        return.void
    no:
        return.void
    }

Syntactic conveniences supported beyond bare instructions, mirroring the
paper's listings: ``call f(args)`` with parenthesized arguments, ``return
<op>``, ``try { } catch (ref<Hilti::IndexError> e) { }``, and ``for (x in
container) { }``.  The parser desugars all of them into plain blocks and
instructions, so downstream passes see only core IR.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..runtime.exceptions import builtin_exception_types
from . import types as ht
from .instructions import REGISTRY
from .ir import (
    Block,
    Const,
    FieldRef,
    FuncRef,
    Function,
    GlobalVar,
    Instruction,
    LabelRef,
    Location,
    Module,
    Operand,
    Parameter,
    TupleOp,
    TypeRef,
    Var,
)
from .values import Addr, Interval, Network, Port, Time

__all__ = ["parse_module", "parse_type", "ParseError"]


class ParseError(Exception):
    def __init__(self, message: str, location: Optional[Location] = None):
        where = f" at {location}" if location else ""
        super().__init__(f"{message}{where}")
        self.location = location


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t]+)
    | (?P<comment>\#[^\n]*)
    | (?P<newline>\n)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<rawbytes>b"(?:[^"\\]|\\.)*")
    | (?P<net>\d+\.\d+\.\d+\.\d+/\d+)
    | (?P<addr>\d+\.\d+\.\d+\.\d+)
    | (?P<port>\d+/(?:tcp|udp|icmp))
    | (?P<double>-?\d+\.\d+(?:[eE][-+]?\d+)?)
    | (?P<int>-?\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:(?:::|\.)%?[A-Za-z_][A-Za-z0-9_]*)*)
    | (?P<op><=|>=|==|!=|[{}()<>,=:*&\[\]])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


def _tokenize(source: str, filename: str) -> List[_Token]:
    tokens: List[_Token] = []
    line = 1
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(
                f"cannot tokenize near {source[pos:pos + 20]!r}",
                Location(filename, line),
            )
        pos = match.end()
        kind = match.lastgroup
        if kind in ("ws", "comment"):
            continue
        if kind == "newline":
            if tokens and tokens[-1].kind != "newline":
                tokens.append(_Token("newline", "\n", line))
            line += 1
            continue
        tokens.append(_Token(kind, match.group(), line))
    tokens.append(_Token("eof", "", line))
    return tokens


# --------------------------------------------------------------------------
# Type parsing
# --------------------------------------------------------------------------

_SIMPLE_TYPES = {
    "bool": ht.BOOL,
    "string": ht.STRING,
    "bytes": ht.BYTES,
    "double": ht.DOUBLE,
    "addr": ht.ADDR,
    "net": ht.NET,
    "port": ht.PORT,
    "time": ht.TIME,
    "interval": ht.INTERVAL,
    "void": ht.VOID,
    "any": ht.ANY,
    "regexp": ht.REGEXP,
    "timer": ht.TIMER,
    "timer_mgr": ht.TIMER_MGR,
    "file": ht.FILE,
    "iosrc": ht.IOSRC,
    "caddr": ht.CADDR,
    "match_token_state": ht.MATCH_STATE,
}


class _Parser:
    def __init__(self, source: str, filename: str = "<string>"):
        self.tokens = _tokenize(source, filename)
        self.pos = 0
        self.filename = filename
        self.module: Optional[Module] = None
        # Known type names (module-local plus builtin exceptions).
        self.named_types: Dict[str, ht.Type] = dict(builtin_exception_types())

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def location(self) -> Location:
        return Location(self.filename, self.peek().line)

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.location())

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self.next()
        if token.kind != kind or (text is not None and token.text != text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, got {token.text!r}",
                Location(self.filename, token.line),
            )
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.next()
        return None

    def skip_newlines(self) -> None:
        while self.peek().kind == "newline":
            self.next()

    def end_of_statement(self) -> None:
        token = self.peek()
        if token.kind in ("newline", "eof"):
            self.skip_newlines()
            return
        if token.kind == "op" and token.text == "}":
            return
        raise self.error(f"unexpected {token.text!r} at end of statement")

    # -- types ---------------------------------------------------------------

    def parse_type_expr(self) -> ht.Type:
        token = self.next()
        if token.kind != "ident":
            raise self.error(f"expected type, got {token.text!r}")
        name = token.text
        if name == "int":
            self.expect("op", "<")
            width = int(self.expect("int").text)
            self.expect("op", ">")
            return ht.int_type(width)
        if name in _SIMPLE_TYPES:
            return _SIMPLE_TYPES[name]
        if name in ("ref", "iterator", "list", "vector", "set", "channel",
                    "callable"):
            self.expect("op", "<")
            inner = self.parse_type_expr()
            self.expect("op", ">")
            wrapper = {
                "ref": ht.RefT,
                "iterator": ht.IteratorT,
                "list": ht.ListT,
                "vector": ht.VectorT,
                "set": ht.SetT,
                "channel": ht.ChannelT,
                "callable": ht.CallableT,
            }[name]
            return wrapper(inner)
        if name == "map":
            self.expect("op", "<")
            key = self.parse_type_expr()
            self.expect("op", ",")
            value = self.parse_type_expr()
            self.expect("op", ">")
            return ht.MapT(key, value)
        if name == "classifier":
            self.expect("op", "<")
            rule = self.parse_type_expr()
            self.expect("op", ",")
            value = self.parse_type_expr()
            self.expect("op", ">")
            return ht.ClassifierT(rule, value)
        if name == "tuple":
            self.expect("op", "<")
            elements = [self.parse_type_expr()]
            while self.accept("op", ","):
                elements.append(self.parse_type_expr())
            self.expect("op", ">")
            return ht.TupleT(elements)
        if name in self.named_types:
            return self.named_types[name]
        if self.module and name in self.module.types:
            return self.module.types[name]
        raise self.error(f"unknown type {name!r}")

    # -- module structure -----------------------------------------------------

    def parse_module(self) -> Module:
        self.skip_newlines()
        self.expect("ident", "module")
        name = self.expect("ident").text
        self.module = Module(name)
        self.skip_newlines()
        while self.peek().kind != "eof":
            token = self.peek()
            if token.kind != "ident":
                raise self.error(f"unexpected {token.text!r} at module level")
            keyword = token.text
            if keyword == "import":
                self.next()
                self.module.imports.append(self.expect("ident").text)
                self.end_of_statement()
            elif keyword == "type":
                self._parse_type_decl()
            elif keyword == "global":
                self._parse_global()
            elif keyword == "export":
                self.next()
                self.module.exports.append(self.expect("ident").text)
                self.end_of_statement()
            elif keyword == "hook":
                self._parse_function(is_hook=True)
            else:
                self._parse_function(is_hook=False)
            self.skip_newlines()
        return self.module

    def _parse_type_decl(self) -> None:
        self.expect("ident", "type")
        name = self.expect("ident").text
        self.expect("op", "=")
        kind = self.expect("ident").text
        if kind == "struct":
            declared = self._parse_struct_body(name)
        elif kind == "overlay":
            declared = self._parse_overlay_body(name)
        elif kind == "enum":
            declared = self._parse_enum_body(name)
        elif kind == "bitset":
            declared = self._parse_bitset_body(name)
        elif kind == "exception":
            base = builtin_exception_types()["Hilti::Exception"]
            if self.accept("op", ":"):
                base_name = self.expect("ident").text
                base_type = self.named_types.get(base_name) or (
                    self.module.types.get(base_name) if self.module else None
                )
                if not isinstance(base_type, ht.ExceptionT):
                    raise self.error(f"unknown exception base {base_name!r}")
                base = base_type
            declared = ht.ExceptionT(self.module.qualified(name), base)
        else:
            raise self.error(f"unknown type declaration kind {kind!r}")
        self.module.add_type(name, declared)
        self.named_types[name] = declared
        self.named_types[self.module.qualified(name)] = declared
        self.end_of_statement()

    def _parse_struct_body(self, name: str) -> ht.StructT:
        self.expect("op", "{")
        fields: List[ht.StructField] = []
        self.skip_newlines()
        while not self.accept("op", "}"):
            field_type = self.parse_type_expr()
            field_name = self.expect("ident").text
            default = None
            if self.accept("op", "="):
                default = self._literal_value()
            fields.append(ht.StructField(field_name, field_type, default))
            self.accept("op", ",")
            self.skip_newlines()
        return ht.StructT(self.module.qualified(name), fields)

    def _parse_overlay_body(self, name: str) -> ht.OverlayT:
        # Fields: <name>: <type> at <offset> unpack <format> [(low, high)]
        self.expect("op", "{")
        fields: List[ht.OverlayField] = []
        self.skip_newlines()
        while not self.accept("op", "}"):
            field_name = self.expect("ident").text
            self.expect("op", ":")
            field_type = self.parse_type_expr()
            self.expect("ident", "at")
            offset = int(self.expect("int").text)
            self.expect("ident", "unpack")
            fmt_name = self.expect("ident").text
            bits = None
            if self.accept("op", "("):
                low = int(self.expect("int").text)
                self.expect("op", ",")
                high = int(self.expect("int").text)
                self.expect("op", ")")
                bits = (low, high)
            fields.append(
                ht.OverlayField(field_name, field_type, offset,
                                ht.UnpackFormat(fmt_name, bits))
            )
            self.accept("op", ",")
            self.skip_newlines()
        return ht.OverlayT(self.module.qualified(name), fields)

    def _parse_enum_body(self, name: str) -> ht.EnumT:
        self.expect("op", "{")
        labels = []
        self.skip_newlines()
        while not self.accept("op", "}"):
            labels.append(self.expect("ident").text)
            self.accept("op", ",")
            self.skip_newlines()
        return ht.EnumT(self.module.qualified(name), labels)

    def _parse_bitset_body(self, name: str) -> ht.BitsetT:
        self.expect("op", "{")
        labels = []
        self.skip_newlines()
        while not self.accept("op", "}"):
            labels.append(self.expect("ident").text)
            self.accept("op", ",")
            self.skip_newlines()
        return ht.BitsetT(self.module.qualified(name), labels)

    def _parse_global(self) -> None:
        self.expect("ident", "global")
        var_type = self.parse_type_expr()
        name = self.expect("ident").text
        init = None
        if self.accept("op", "="):
            init = self._global_initializer(var_type)
        self.module.add_global(name, var_type, init)
        self.end_of_statement()

    def _global_initializer(self, var_type: ht.Type):
        # Either a literal or a constructor like set<addr>() / map<...>().
        token = self.peek()
        if token.kind == "ident" and token.text in (
            "set", "map", "list", "vector",
        ):
            ctor_type = self.parse_type_expr()
            self.expect("op", "(")
            self.expect("op", ")")
            return TypeRef(ctor_type)
        return Const(var_type, self._literal_value())

    # -- functions ----------------------------------------------------------

    def _parse_function(self, is_hook: bool) -> None:
        if is_hook:
            self.expect("ident", "hook")
        result = self.parse_type_expr()
        name = self.expect("ident").text
        self.expect("op", "(")
        params: List[Parameter] = []
        self.skip_newlines()
        if not self.accept("op", ")"):
            while True:
                self.skip_newlines()
                param_type = self.parse_type_expr()
                param_name = self.expect("ident").text
                params.append(Parameter(param_name, param_type))
                self.skip_newlines()
                if not self.accept("op", ","):
                    break
            self.skip_newlines()
            self.expect("op", ")")
        priority = 0
        group: Optional[str] = None
        while self.accept("op", "&"):
            attr = self.expect("ident").text
            if not is_hook:
                raise self.error(f"attribute &{attr} only applies to hooks")
            self.expect("op", "=")
            if attr == "priority":
                priority = int(self.expect("int").text)
            elif attr == "group":
                group = self.expect("ident").text
            else:
                raise self.error(f"unknown hook attribute &{attr}")
        qualified = self.module.qualified(name)
        if is_hook:
            # Hook names are global: an already-qualified name attaches a
            # body to another module's hook (merged at link time).
            hook_name = name if "::" in name else qualified
            function_name = f"{qualified}%{len(self.module.hooks)}"
        else:
            hook_name = None
            function_name = qualified
        function = Function(
            function_name,
            params,
            result,
            hook_name=hook_name,
            location=self.location(),
            hook_priority=priority,
            hook_group=group,
        )
        self.module.add_function(function)
        self.skip_newlines()
        self.expect("op", "{")
        self._parse_body(function)

    def _parse_body(self, function: Function) -> None:
        builder = _BodyBuilder(self, function)
        builder.parse_until_close()


# --------------------------------------------------------------------------
# Function-body parsing and desugaring
# --------------------------------------------------------------------------


class _BodyBuilder:
    """Parses statements into blocks, desugaring the conveniences."""

    def __init__(self, parser: _Parser, function: Function):
        self.p = parser
        self.function = function
        self.block = function.add_block("entry")
        self.temp_counter = 0

    def fresh_label(self, hint: str) -> str:
        self.temp_counter += 1
        return f"__{hint}_{self.temp_counter}"

    def fresh_temp(self, hint: str, temp_type: ht.Type) -> str:
        self.temp_counter += 1
        name = f"__t_{hint}_{self.temp_counter}"
        self.function.add_local(name, temp_type)
        return name

    def emit(self, mnemonic: str, operands=(), target: Optional[str] = None):
        instruction = Instruction(
            mnemonic,
            operands,
            Var(target) if target else None,
            self.p.location(),
        )
        self.block.append(instruction)
        return instruction

    def start_block(self, label: str) -> None:
        self.block = self.function.add_block(label)

    _TERMINATORS = frozenset(
        ["jump", "if.else", "switch", "return.void", "return.result"]
    )

    def block_terminated(self) -> bool:
        instructions = self.block.instructions
        return bool(instructions) and (
            instructions[-1].mnemonic in self._TERMINATORS
        )

    def emit_jump_if_open(self, label: str) -> None:
        """Emit a jump unless the current block already ended."""
        if not self.block_terminated():
            self.emit("jump", (LabelRef(label),))

    # -- statement loop -------------------------------------------------------

    def parse_until_close(self) -> None:
        p = self.p
        p.skip_newlines()
        while True:
            if p.accept("op", "}"):
                return
            if p.peek().kind == "eof":
                raise p.error("unexpected end of input in function body")
            self.parse_statement()
            p.skip_newlines()

    def parse_statement(self) -> None:
        p = self.p
        token = p.peek()
        if token.kind != "ident":
            raise p.error(f"expected statement, got {token.text!r}")
        # Block label: identifier followed by ':'.
        if p.peek(1).kind == "op" and p.peek(1).text == ":":
            label = p.next().text
            p.next()
            self.start_block(label)
            p.skip_newlines()
            return
        keyword = token.text
        if keyword == "local":
            p.next()
            local_type = p.parse_type_expr()
            name = p.expect("ident").text
            init = None
            if p.accept("op", "="):
                init = Const(local_type, self._statement_literal(local_type))
            self.function.add_local(name, local_type, init)
            p.end_of_statement()
            return
        if keyword == "return":
            p.next()
            if p.peek().kind in ("newline", "eof") or (
                p.peek().kind == "op" and p.peek().text == "}"
            ):
                self.emit("return.void")
            else:
                operand = self.parse_operand()
                self.emit("return.result", (operand,))
            p.end_of_statement()
            return
        if keyword == "try":
            p.next()
            self._parse_try()
            return
        if keyword == "for":
            p.next()
            self._parse_for()
            return
        self._parse_instruction_statement()

    def _statement_literal(self, expected_type: ht.Type):
        return self.p._literal_value()

    # -- plain instructions ------------------------------------------------

    def _parse_instruction_statement(self) -> None:
        p = self.p
        first = p.next().text
        target: Optional[str] = None
        mnemonic = first
        if p.peek().kind == "op" and p.peek().text == "=":
            p.next()
            target = first
            next_token = p.peek()
            is_mnemonic = (
                next_token.kind == "ident"
                and (next_token.text in REGISTRY
                     or next_token.text in ("call", "new"))
            )
            if not is_mnemonic:
                # Plain copy sugar: `x = <operand>` means `x = assign ...`.
                operand = self.parse_operand()
                self.emit("assign", (operand,), target)
                p.end_of_statement()
                return
            mnemonic = p.next().text
        if mnemonic == "call":
            self._parse_call(target)
            p.end_of_statement()
            return
        if mnemonic == "new":
            new_type = p.parse_type_expr()
            operands: List[Operand] = [TypeRef(new_type)]
            while not self._at_statement_end():
                operands.append(self.parse_operand())
            self.emit("new", operands, target)
            p.end_of_statement()
            return
        if mnemonic not in REGISTRY:
            raise p.error(f"unknown instruction {mnemonic!r}")
        definition = REGISTRY[mnemonic]
        operands = []
        spec_index = 0
        while not self._at_statement_end():
            spec = (
                definition.operands[spec_index]
                if spec_index < len(definition.operands)
                else "val"
            )
            kind = spec.rstrip("?*")
            if mnemonic == "switch" and kind == "tuple":
                # Switch cases are (constant, label) pairs; a plain tuple
                # parse would lose the label (it would come back a Var).
                kind = "case"
            operands.append(self.parse_operand(kind))
            if spec_index < len(definition.operands) - 1 or not spec.endswith("*"):
                spec_index += 1
        self.emit(mnemonic, operands, target)
        p.end_of_statement()

    def _at_statement_end(self) -> bool:
        token = self.p.peek()
        if token.kind in ("newline", "eof"):
            return True
        return token.kind == "op" and token.text == "}"

    def _parse_call(self, target: Optional[str]) -> None:
        p = self.p
        func_token = p.expect("ident")
        args: List[Operand] = []
        if p.accept("op", "("):
            if not p.accept("op", ")"):
                while True:
                    args.append(self.parse_operand())
                    if not p.accept("op", ","):
                        break
                p.expect("op", ")")
        else:
            while not self._at_statement_end():
                args.append(self.parse_operand())
        self.emit(
            "call", (FuncRef(func_token.text), TupleOp(args)), target
        )

    # -- try/catch -------------------------------------------------------------

    def _parse_try(self) -> None:
        p = self.p
        p.skip_newlines()
        p.expect("op", "{")
        handler_label = self.fresh_label("catch")
        after_label = self.fresh_label("after_try")
        # try.begin gets patched with the exception type once we see it.
        begin = self.emit("try.begin", (LabelRef(handler_label),))
        self.parse_until_close()
        if not self.block_terminated():
            self.emit("try.end")
            self.emit("jump", (LabelRef(after_label),))
        p.skip_newlines()
        p.expect("ident", "catch")
        p.expect("op", "(")
        catch_type = p.parse_type_expr()
        if isinstance(catch_type, ht.RefT):
            catch_type = catch_type.target
        if not isinstance(catch_type, ht.ExceptionT):
            raise p.error("catch clause requires an exception type")
        var_name = p.expect("ident").text
        p.expect("op", ")")
        if self.function.variable_type(var_name) is None:
            self.function.add_local(var_name, catch_type)
        begin.operands = (
            LabelRef(handler_label),
            TypeRef(catch_type),
            Var(var_name),
        )
        self.start_block(handler_label)
        p.skip_newlines()
        p.expect("op", "{")
        self.parse_until_close()
        self.emit_jump_if_open(after_label)
        self.start_block(after_label)
        p.skip_newlines()

    # -- for/in ------------------------------------------------------------------

    def _parse_for(self) -> None:
        """Desugar ``for (x in c) { body }`` into an iterator loop."""
        p = self.p
        p.expect("op", "(")
        var_name = p.expect("ident").text
        p.expect("ident", "in")
        container = self.parse_operand()
        p.expect("op", ")")
        p.skip_newlines()
        p.expect("op", "{")
        if self.function.variable_type(var_name) is None:
            self.function.add_local(var_name, ht.ANY)
        iter_temp = self.fresh_temp("iter", ht.ANY)
        pair_temp = self.fresh_temp("pair", ht.ANY)
        has_temp = self.fresh_temp("has", ht.BOOL)
        head_label = self.fresh_label("for_head")
        body_label = self.fresh_label("for_body")
        done_label = self.fresh_label("for_done")
        self.emit("container.iter", (container,), iter_temp)
        self.emit("jump", (LabelRef(head_label),))
        self.start_block(head_label)
        self.emit("container.next", (Var(iter_temp),), pair_temp)
        self.emit("tuple.index", (Var(pair_temp), Const(ht.INT64, 0)), has_temp)
        self.emit(
            "if.else",
            (Var(has_temp), LabelRef(body_label), LabelRef(done_label)),
        )
        self.start_block(body_label)
        self.emit("tuple.index", (Var(pair_temp), Const(ht.INT64, 1)), var_name)
        self.parse_until_close()
        self.emit_jump_if_open(head_label)
        self.start_block(done_label)
        p.skip_newlines()

    # -- operands ---------------------------------------------------------------

    def parse_operand(self, spec: str = "val") -> Operand:
        p = self.p
        token = p.peek()
        if spec == "case":
            # A switch case: (constant-or-var, label).
            p.expect("op", "(")
            value = self.parse_operand()
            p.expect("op", ",")
            label = self.parse_operand("label")
            p.expect("op", ")")
            return TupleOp((value, label))
        if token.kind == "op" and token.text == "(":
            p.next()
            elements: List[Operand] = []
            if not p.accept("op", ")"):
                while True:
                    elements.append(self.parse_operand())
                    if not p.accept("op", ","):
                        break
                p.expect("op", ")")
            return TupleOp(elements)
        if token.kind == "op" and token.text == "*":
            p.next()
            return Const(ht.ANY, None)
        if token.kind == "ident":
            # interval(300), time(13.5): literal constructors.
            if token.text in ("interval", "time") and (
                p.peek(1).kind == "op" and p.peek(1).text == "("
            ):
                ctor = p.next().text
                p.expect("op", "(")
                num_token = p.next()
                if num_token.kind not in ("int", "double"):
                    raise p.error(f"expected number in {ctor}(...)")
                value = float(num_token.text)
                p.expect("op", ")")
                if ctor == "interval":
                    return Const(ht.INTERVAL, Interval(value))
                return Const(ht.TIME, Time(value))
            # regexp("pat", ...): precompiled pattern-set literal.
            if token.text == "regexp" and (
                p.peek(1).kind == "op" and p.peek(1).text == "("
            ):
                from ..runtime.regexp import RegExp

                p.next()
                p.expect("op", "(")
                patterns = [_unescape(p.expect("string").text[1:-1])]
                while p.accept("op", ","):
                    patterns.append(_unescape(p.expect("string").text[1:-1]))
                p.expect("op", ")")
                return Const(ht.REGEXP, RegExp(patterns))
            name = p.next().text
            if name in ("True", "False"):
                return Const(ht.BOOL, name == "True")
            if name == "Null":
                return Const(ht.ANY, None)
            if spec == "label":
                return LabelRef(name)
            if spec == "func":
                return FuncRef(name)
            if spec == "field":
                return FieldRef(name)
            if spec == "type":
                named = self.p.named_types.get(name) or (
                    self.p.module.types.get(name) if self.p.module else None
                )
                if named is not None:
                    return TypeRef(named)
                raise p.error(f"unknown type {name!r}")
            if "::" in name:
                # Qualified name: enum label (Strategy::Access), overlay
                # type (IP::Header), or cross-module symbol.
                named = self.p.named_types.get(name)
                if named is not None:
                    return TypeRef(named)
                return FieldRef(name)
            return Var(name)
        token = p.next()
        if token.kind == "int":
            return Const(ht.INT64, int(token.text))
        if token.kind == "double":
            return Const(ht.DOUBLE, float(token.text))
        if token.kind == "string":
            return Const(ht.STRING, _unescape(token.text[1:-1]))
        if token.kind == "rawbytes":
            raw = _unescape(token.text[2:-1]).encode("latin-1")
            return Const(ht.BYTES, raw)
        if token.kind == "addr":
            return Const(ht.ADDR, Addr(token.text))
        if token.kind == "net":
            return Const(ht.NET, Network(token.text))
        if token.kind == "port":
            return Const(ht.PORT, Port(token.text))
        raise p.error(f"unexpected operand {token.text!r}")


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def _unescape(text: str) -> str:
    # Single pass: sequential str.replace would mis-read the 't' of an
    # escaped backslash followed by 't' ("\\t" -> backslash + TAB).
    if "\\" not in text:
        return text
    out: List[str] = []
    i = 0
    while i < len(text):
        char = text[i]
        if char == "\\" and i + 1 < len(text) and text[i + 1] in _ESCAPES:
            out.append(_ESCAPES[text[i + 1]])
            i += 2
        else:
            out.append(char)
            i += 1
    return "".join(out)


def _expose_literal_parser() -> None:
    """Attach literal parsing to _Parser (used by globals and defaults)."""

    def _literal_value(self: _Parser):
        builder = _BodyBuilder.__new__(_BodyBuilder)
        builder.p = self
        operand = _BodyBuilder.parse_operand(builder)
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, TupleOp):
            values = []
            for element in operand.elements:
                if not isinstance(element, Const):
                    raise self.error("literal tuple must contain constants")
                values.append(element.value)
            return tuple(values)
        raise self.error("expected a literal value")

    _Parser._literal_value = _literal_value


_expose_literal_parser()


def parse_module(source: str, filename: str = "<string>") -> Module:
    """Parse HILTI source text into an IR module."""
    return _Parser(source, filename).parse_module()


def parse_type(source: str) -> ht.Type:
    """Parse a standalone type expression, e.g. ``map<addr, int<64>>``."""
    parser = _Parser(source + "\n", "<type>")
    return parser.parse_type_expr()
