"""Code generation: HILTI IR to generated Python ("native" tier).

This is the reproduction's stand-in for the paper's LLVM backend.  Each
function's blocks are cut into *segments*: a straight-line run of
instructions closed by one control transfer (branch, call, hook
dispatch, exception scope, yield).  All operand addressing (frame slot
indices, thread-local global slots, constants) and instruction dispatch
is resolved at compile time and emitted as Python source, which CPython
compiles to bytecode — no per-instruction IR walking, no dict lookups.

A whole-program fixpoint first decides which functions can reach a
suspension point.  Every function that cannot — the common case, and
the whole of a BPF filter — lowers to *one* generated Python function:
its segments sit inline, branches and returns read frame slots
directly, exception scopes become a local handler stack, and calls to
other such functions are direct Python calls.  This is the analogue of
the real compiler giving non-yielding functions ordinary native frames.

Functions that can suspend keep a list of segments of step closures,
driven by a generator engine so that any point of the HILTI call stack
can *suspend*: ``yield`` instructions pop out to the host through
``repro.runtime.fibers.Fiber``, which is how incremental protocol
parsers freeze and resume (paper, sections 3.2 and 5).

Both forms charge the execution context identically: one
``segments_dispatched`` per segment entered, the segment's instruction
count once its steps complete (the instruction budget is checked right
after), and a partial charge up to the trapping instruction when a step
raises.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..runtime import overlay as rt_overlay
from ..runtime.bytes_buffer import Bytes
from ..runtime.context import ExecutionContext
from ..runtime.exceptions import (
    HiltiError,
    INDEX_ERROR as _INDEX_ERROR,
    INTERNAL_ERROR,
    PROCESSING_TIMEOUT,
    VALUE_ERROR,
)
from ..runtime.fibers import Fiber, FiberStats
from ..runtime.structs import Callable as HiltiCallable
from . import types as ht
from .instructions import REGISTRY, default_value, instantiate
from .ir import (
    Block,
    Const,
    FieldRef,
    FuncRef,
    Function,
    Instruction,
    LabelRef,
    Module,
    Operand,
    TupleOp,
    TypeRef,
    Var,
)
from .linker import LinkedProgram, LinkError

__all__ = ["CompiledFunction", "CompiledProgram", "compile_program"]


class _HookStop(Exception):
    """Internal: a hook body executed ``hook.stop``."""

    def __init__(self, value):
        self.value = value


class CompiledFunction:
    """One lowered function: frame layout plus its executable form.

    A non-suspending function is the generated Python function ``run``
    (``run(ctx, *args)``); a suspending one is ``segments``, run by the
    generator engine.
    """

    __slots__ = (
        "name",
        "result_type",
        "param_count",
        "n_slots",
        "segments",
        "run",
        "local_inits",
        "can_suspend",
        "hook_group",
        "_frame_template",
    )

    def __init__(self, name: str, result_type: ht.Type, param_count: int,
                 n_slots: int):
        self.name = name
        self.result_type = result_type
        self.param_count = param_count
        self.n_slots = n_slots
        # segments: list of (steps tuple, control tuple, instruction count)
        self.segments: List[Tuple[Tuple, Tuple, int]] = []
        self.run: Optional[Callable] = None
        # (slot, thunk) pairs evaluated at frame creation.
        self.local_inits: List[Tuple[int, Callable]] = []
        # Whether execution can reach a suspension point (yield, timers,
        # callables, or a call chain containing one).  Computed by the
        # whole-program pass in compile_program; conservative default.
        self.can_suspend = True
        # For hook bodies: the group this body belongs to (bodies of a
        # disabled group are skipped at dispatch).
        self.hook_group = None
        self._frame_template = None

    def arity_error(self, args: Sequence) -> HiltiError:
        return HiltiError(
            VALUE_ERROR,
            f"{self.name} expects {self.param_count} arguments, got "
            f"{len(args)}",
        )

    def invoke(self, ctx, args: Sequence):
        """Run a non-suspending function to completion."""
        if len(args) != self.param_count:
            raise self.arity_error(args)
        return self.run(ctx, *args)

    def frame_template(self) -> list:
        template = self._frame_template
        if template is None:
            # Built once: init values are immutable (ints, strings,
            # domain values) so sharing them across frames is safe.
            template = [None] * self.n_slots
            for slot, thunk in self.local_inits:
                template[slot] = thunk()
            self._frame_template = template
        return template

    def make_frame(self, args: Sequence) -> list:
        if len(args) != self.param_count:
            raise self.arity_error(args)
        frame = self.frame_template()[:]
        frame[: self.param_count] = args
        return frame

    def __repr__(self) -> str:
        if self.run is not None:
            return f"<compiled {self.name} lowered>"
        return f"<compiled {self.name} segments={len(self.segments)}>"


class CompiledProgram:
    """A fully lowered program ready for execution."""

    def __init__(self, linked: LinkedProgram):
        self.linked = linked
        self.functions: Dict[str, CompiledFunction] = {}
        self.hooks: Dict[str, List[CompiledFunction]] = {}
        self.natives = linked.natives
        self.fiber_stats = FiberStats()
        self._global_inits: List[Tuple[int, Operand, ht.Type]] = []
        # Host-selectable runtime backends ("transparent integration of
        # non-standard capabilities", §7): e.g. {"classifier": "trie"}.
        self.runtime_options: Dict[str, str] = {}
        # Optimization level the program was lowered at (one of
        # repro.core.OPT_LEVELS; -O2 differs from -O1 only in the IR the
        # toolchain hands this lowering — the codegen specializations
        # below apply identically at every level >= 1).
        self.opt_level = 1
        # IR-level optimization statistics, attached by the toolchain.
        self.opt_stats = None

    # -- host-facing API ------------------------------------------------------

    def make_context(self, **kwargs) -> ExecutionContext:
        """A fresh execution context with initialized thread-locals."""
        ctx = ExecutionContext(**kwargs)
        self.init_context(ctx)
        return ctx

    def init_context(self, ctx: ExecutionContext) -> None:
        ctx.program = self
        ctx.globals = [None] * len(self.linked.global_layout)
        for slot, init, var_type in self._global_inits:
            if init is None:
                ctx.globals[slot] = default_value(var_type)
            elif isinstance(init, TypeRef):
                ctx.globals[slot] = instantiate(ctx, init.type)
            elif isinstance(init, Const):
                ctx.globals[slot] = init.value
            else:
                ctx.globals[slot] = init

    def function(self, name: str) -> CompiledFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise LinkError(f"no compiled function {name!r}") from None

    def call(self, ctx: ExecutionContext, name: str, args: Sequence = ()):
        """Run a function to completion (ignoring suspension points)."""
        cf = self.function(name)
        if not cf.can_suspend:
            return cf.invoke(ctx, args)
        return _drive(_execute(self, ctx, cf, list(args)))

    def call_fiber(self, ctx: ExecutionContext, name: str,
                   args: Sequence = ()) -> Fiber:
        """Start a function inside a fiber; resume() drives it."""
        cf = self.function(name)
        if cf.can_suspend:
            gen = _execute(self, ctx, cf, list(args))
        else:
            # Non-suspending functions still get a fiber interface.
            gen = _never_yields(cf, ctx, list(args))
        return Fiber(gen, stats=self.fiber_stats)

    def run_hook(self, ctx: ExecutionContext, hook_name: str,
                 args: Sequence = ()):
        """Run all bodies of a hook to completion (host-driven events)."""
        for body in self.hooks.get(hook_name, ()):
            if body.hook_group is not None and \
                    body.hook_group in ctx.hook_groups_disabled:
                continue
            try:
                if body.can_suspend:
                    _drive(_execute(self, ctx, body, list(args)))
                else:
                    body.invoke(ctx, args)
            except _HookStop as stop:
                return stop.value
        return None

    def run(self, ctx: Optional[ExecutionContext] = None, args: Sequence = ()):
        """Execute the program's entry point (``Main::run`` by default)."""
        if self.linked.entry is None:
            raise LinkError("program has no entry point")
        if ctx is None:
            ctx = self.make_context()
        return self.call(ctx, self.linked.entry, args)

    def run_callable(self, ctx: ExecutionContext, bound):
        """Invoke a HILTI callable value to completion (host side)."""
        return _drive(_run_callable(self, ctx, bound))

    def check_watchpoints(self, ctx: ExecutionContext) -> int:
        """Evaluate pending watchpoints; returns how many fired."""
        fired = 0
        for entry in ctx.watchpoints:
            if entry[2]:
                continue
            if self.run_callable(ctx, entry[0]):
                entry[2] = True
                fired += 1
                self.run_callable(ctx, entry[1])
        ctx.watchpoints[:] = [e for e in ctx.watchpoints if not e[2]]
        return fired

    def __repr__(self) -> str:
        return f"<CompiledProgram {len(self.functions)} functions>"


# --------------------------------------------------------------------------
# Lowering
# --------------------------------------------------------------------------

_TERMINATORS = {"jump", "if.else", "switch", "return.void", "return.result"}

# Engine instructions that end a segment (beyond the block terminators).
# The _SPECIAL_STEPS among them stay plain steps inside the segment, but
# route through this set so the lowering looks at them before the batch
# compiler does.
_SEGMENT_BREAKERS = {
    "call",
    "yield",
    "try.begin",
    "try.end",
    "hook.run",
    "hook.stop",
    "callable.call",
    "callable.bind",
    "thread.schedule",
    "timer_mgr.advance",
    "timer_mgr.advance_global",
    "timer_mgr.expire_all",
    "watchpoint.check",
    "exception.throw",
}
_SPECIAL_STEPS = {"thread.schedule", "callable.bind", "exception.throw"}

# IR mnemonics that are themselves suspension points: yield, and any
# dispatch whose target is unknown until runtime (timer actions, bound
# callables, watchpoint conditions).
_SUSPENDING = {
    "yield",
    "timer_mgr.advance",
    "timer_mgr.advance_global",
    "timer_mgr.expire_all",
    "callable.call",
    "watchpoint.check",
}


def _live(block: Block):
    """A block's instructions up to its first terminator (the rest is
    dead and never lowered)."""
    for instruction in block.instructions:
        yield instruction
        if instruction.mnemonic in _TERMINATORS:
            return


def _bind(env: Dict, value) -> str:
    """Store *value* in a generated function's globals; its name there."""
    name = f"k{len(env)}"
    env[name] = value
    return name


def _value_source(value, env: Dict) -> str:
    """A Python expression for a compile-time constant."""
    kind = value.__class__
    if value is None or kind in (bool, int, str, bytes) or \
            (kind is float and math.isfinite(value)):
        return repr(value)
    return _bind(env, value)


def _hook_name(operand: Operand) -> str:
    return operand.name if isinstance(operand, (FieldRef, FuncRef)) \
        else str(operand)


def _call_args(instruction: Instruction) -> Tuple[Operand, ...]:
    """Argument operands of a ``call``/``hook.run``: a tuple operand's
    elements, or one non-tuple operand as the single argument."""
    if len(instruction.operands) < 2:
        return ()
    args_op = instruction.operands[1]
    if isinstance(args_op, TupleOp):
        return args_op.elements
    return (args_op,)


def _direct_entry(cf: CompiledFunction, n_args: int) -> Callable:
    """What a call site passing *n_args* arguments invokes directly: the
    callee's generated function, or an arity check that raises."""
    if n_args == cf.param_count:
        return cf.run
    return lambda ctx, *args: cf.invoke(ctx, args)


class _FunctionLowering:
    def __init__(self, program: CompiledProgram, module: Module,
                 function: Function, opt_level: int,
                 suspends: Dict[int, bool],
                 late: List[Tuple[Dict, str, Callable]]):
        self.program = program
        self.module = module
        self.function = function
        # At -O1, calls to provably non-suspending callees compile into
        # the straight-line batches instead of splitting the segment.
        self.opt_level = opt_level
        # id(IR function) -> may suspend (the _ir_can_suspend fixpoint).
        self.suspends = suspends
        # Deferred (env, name, thunk) bindings: call targets whose
        # generated code exists only once every function is lowered.
        self.late = late
        self.slots: Dict[str, int] = {}
        for param in function.params:
            self.slots[param.name] = len(self.slots)
        for local in function.locals:
            self.slots[local.name] = len(self.slots)
        self.cf = CompiledFunction(
            function.name,
            function.result,
            len(function.params),
            len(self.slots),
        )
        self.cf.hook_group = getattr(function, "hook_group", None)
        self.cf.can_suspend = suspends[id(function)]
        for local in function.locals:
            slot = self.slots[local.name]
            if local.init is not None:
                value = local.init.value if isinstance(local.init, Const) \
                    else local.init
                self.cf.local_inits.append((slot, (lambda v=value: v)))
            else:
                default = default_value(local.type)
                if default is not None:
                    self.cf.local_inits.append(
                        (slot, (lambda v=default: v))
                    )
        # label -> index of the block's first segment.
        self.block_entry: Dict[str, int] = {}

    def _late(self, env: Dict, thunk: Callable) -> str:
        name = _bind(env, None)
        self.late.append((env, name, thunk))
        return name

    def _segment_of(self, label: str) -> int:
        try:
            return self.block_entry[label]
        except KeyError:
            raise LinkError(
                f"branch to unknown block {label!r} in {self.function.name}"
            ) from None

    # -- operand compilation ------------------------------------------------

    def compile_read(self, operand: Operand) -> Callable:
        """Accessor closure (ctx, frame) -> value."""
        if isinstance(operand, Const):
            value = operand.value
            if isinstance(operand.type, ht.BytesT) and isinstance(value, bytes):
                shared = Bytes(value)
                shared.freeze()
                return lambda ctx, frame, v=shared: v
            return lambda ctx, frame, v=value: v
        if isinstance(operand, Var):
            name = operand.name
            if name in self.slots:
                slot = self.slots[name]
                return lambda ctx, frame, s=slot: frame[s]
            slot = self.program.linked.global_slot(name, self.module)
            return lambda ctx, frame, s=slot: ctx.globals[s]
        if isinstance(operand, TupleOp):
            accessors = tuple(self.compile_read(e) for e in operand.elements)
            return lambda ctx, frame, accs=accessors: tuple(
                a(ctx, frame) for a in accs
            )
        if isinstance(operand, FieldRef):
            name = operand.name
            return lambda ctx, frame, v=name: v
        if isinstance(operand, TypeRef):
            ref_type = operand.type
            return lambda ctx, frame, v=ref_type: v
        if isinstance(operand, FuncRef):
            name = operand.name
            return lambda ctx, frame, v=name: v
        raise LinkError(f"cannot compile operand {operand!r}")

    def compile_write(self, target: Var) -> Callable:
        """Store closure (ctx, frame, value)."""
        name = target.name
        if name in self.slots:
            slot = self.slots[name]

            def store_local(ctx, frame, value, s=slot):
                frame[s] = value

            return store_local
        slot = self.program.linked.global_slot(name, self.module)

        def store_global(ctx, frame, value, s=slot):
            ctx.globals[s] = value

        return store_global

    # -- instruction compilation ----------------------------------------------
    #
    # Plain (non-engine) instructions compile to *Python source*, one line
    # per instruction.  This is the reproduction's equivalent of emitting
    # LLVM IR — operand addressing is inlined (frame slots, thread-local
    # indices, constants) and common pure operators lower to native
    # Python operators instead of calls.

    _INLINE_BINOPS = {
        "int.add": "+", "int.sub": "-", "int.mul": "*",
        "int.eq": "==", "int.lt": "<", "int.le": "<=",
        "int.gt": ">", "int.ge": ">=",
        "int.and": "&", "int.or": "|", "int.xor": "^",
        "int.shl": "<<", "int.shr": ">>",
        "double.add": "+", "double.sub": "-", "double.mul": "*",
        "double.eq": "==", "double.lt": "<", "double.gt": ">",
        "string.concat": "+", "string.eq": "==", "string.lt": "<",
        "bool.xor": "!=",
    }

    def _expr_source(self, operand: Operand, env: Dict) -> str:
        """A Python expression for reading *operand*."""
        if isinstance(operand, Const):
            value = operand.value
            if isinstance(operand.type, ht.BytesT) and isinstance(value, bytes):
                shared = Bytes(value)
                shared.freeze()
                return _bind(env, shared)
            return _value_source(value, env)
        if isinstance(operand, Var):
            return self._target_source(operand)
        if isinstance(operand, TupleOp):
            return self._tuple_source(operand.elements, env)
        if isinstance(operand, FieldRef):
            return repr(operand.name)
        if isinstance(operand, TypeRef):
            return _bind(env, operand.type)
        if isinstance(operand, FuncRef):
            return repr(operand.name)
        raise LinkError(f"cannot compile operand {operand!r}")

    def _tuple_source(self, operands: Sequence[Operand], env: Dict) -> str:
        inner = ", ".join(self._expr_source(e, env) for e in operands)
        if len(operands) == 1:
            inner += ","
        return f"({inner})"

    def _target_source(self, target: Var) -> str:
        name = target.name
        if name in self.slots:
            return f"frame[{self.slots[name]}]"
        slot = self.program.linked.global_slot(name, self.module)
        return f"ctx.globals[{slot}]"

    def _assign_source(self, instruction: Instruction, expression: str) -> str:
        if instruction.target is None:
            return expression
        return f"{self._target_source(instruction.target)} = {expression}"

    def _call_source(self, instruction: Instruction, env: Dict) -> str:
        """A call's expression: native, or a direct call of the callee's
        generated function (-O0 looks the callee up per execution)."""
        arg_ops = _call_args(instruction)
        kind, target = self.program.linked.resolve_function(
            instruction.operands[0].name, self.module
        )
        if kind == "hilti" and self.opt_level < 1:
            env["_functions"] = self.program.functions
            return (
                f"_functions[{target.name!r}].invoke(ctx, "
                f"{self._tuple_source(arg_ops, env)})"
            )
        args = ", ".join(["ctx"] + [self._expr_source(e, env) for e in arg_ops])
        if kind == "native":
            return f"{_bind(env, target)}({args})"
        functions = self.program.functions
        name = self._late(env, lambda: _direct_entry(
            functions[target.name], len(arg_ops)))
        return f"{name}({args})"

    def _hook_source(self, instruction: Instruction, env: Dict) -> str:
        """A ``hook.run``'s expression over its non-suspending bodies
        (-O0 looks the bodies up per execution)."""
        hook_name = _hook_name(instruction.operands[0])
        args = self._tuple_source(_call_args(instruction), env)
        env["_run_hooks"] = _run_hooks
        if self.opt_level < 1:
            env["_hooks"] = self.program.hooks
            return f"_run_hooks(ctx, _hooks.get({hook_name!r}, ()), {args})"
        hooks = self.program.hooks
        bodies = self._late(env, lambda: tuple(hooks.get(hook_name, ())))
        return f"_run_hooks(ctx, {bodies}, {args})"

    def _specialized_memread(self, instruction: Instruction, env: Dict,
                             args: List[str]) -> Optional[str]:
        """-O1: resolve a constant-layout memory read at compile time.

        ``overlay.get`` with a constant overlay type and field, and
        ``unpack`` with a constant format, spend most of their time
        re-resolving the field spec (offset, format alias, struct code,
        bit range) on every execution; here that resolution happens once
        and the site compiles to a precompiled extraction closure.
        Returns the expression, or None to use the generic path.
        """
        operands = instruction.operands
        if instruction.mnemonic == "overlay.get":
            if len(operands) != 3 or not isinstance(operands[0], TypeRef) \
                    or not isinstance(operands[1], FieldRef):
                return None
            overlay_type = operands[0].type
            if isinstance(overlay_type, ht.RefT):
                overlay_type = overlay_type.target
            try:
                fld = overlay_type.field(operands[1].name)
                unpacker = rt_overlay.make_unpacker(fld.fmt)
            except Exception:
                return None  # let the generic path report it at runtime
            offset = fld.offset

            def get_field(ctx, data, _u=unpacker, _off=offset):
                return _u(data, data.begin_offset + _off)

            return f"{_bind(env, get_field)}(ctx, {args[2]})"
        # unpack <bytes> <offset> <Format> (no bit-range operand)
        if len(operands) != 3 or not isinstance(operands[2], FieldRef):
            return None
        try:
            unpacker = rt_overlay.make_unpacker(
                ht.UnpackFormat(operands[2].name, None)
            )
        except Exception:
            return None

        def unpack_at(ctx, data, offset, _u=unpacker):
            return _u(data, data.begin_offset + offset)

        return f"{_bind(env, unpack_at)}(ctx, {args[0]}, {args[1]})"

    def _call_inlinable(self, instruction: Instruction) -> bool:
        """Whether a ``call`` can compile into the enclosing batch."""
        if self.opt_level < 1:
            return False
        if len(instruction.operands) > 1 and \
                not isinstance(instruction.operands[1], TupleOp):
            return False
        try:
            kind, target = self.program.linked.resolve_function(
                instruction.operands[0].name, self.module
            )
        except (LinkError, KeyError):
            return False
        if kind == "native":
            return True  # natives are synchronous by construction
        return not self.suspends.get(id(target), True)

    def _hook_inlinable(self, instruction: Instruction) -> bool:
        """Whether a ``hook.run`` can compile into the enclosing batch."""
        if self.opt_level < 1:
            return False
        if len(instruction.operands) > 1 and \
                not isinstance(instruction.operands[1], TupleOp):
            return False
        bodies = self.program.linked.hooks.get(
            _hook_name(instruction.operands[0]), ())
        return not any(self.suspends[id(body)] for body in bodies)

    def _batchable(self, instruction: Instruction) -> bool:
        """Whether an instruction compiles into straight-line code."""
        mnemonic = instruction.mnemonic
        if mnemonic == "call":
            return self._call_inlinable(instruction)
        if mnemonic == "hook.run":
            return self._hook_inlinable(instruction)
        return mnemonic not in _SEGMENT_BREAKERS and \
            mnemonic not in _TERMINATORS

    def _batch_lines(self, batch: List[Instruction], env: Dict) -> List[str]:
        """One Python statement per instruction of a straight-line run."""
        lines: List[str] = []
        for instruction in batch:
            mnemonic = instruction.mnemonic
            if mnemonic == "call":
                lines.append(self._assign_source(
                    instruction, self._call_source(instruction, env)))
                continue
            if mnemonic == "hook.run":
                lines.append(self._assign_source(
                    instruction, self._hook_source(instruction, env)))
                continue
            args = [self._expr_source(op, env) for op in instruction.operands]
            expression = None
            if mnemonic == "assign":
                expression = args[0]
            elif (
                mnemonic == "tuple.index"
                and len(instruction.operands) == 2
                and isinstance(instruction.operands[1], Const)
            ):
                # Constant tuple indexing compiles to a plain subscript;
                # the engine converts a stray IndexError into
                # Hilti::IndexError, preserving the contained semantics.
                expression = f"{args[0]}[{instruction.operands[1].value}]"
            elif mnemonic in self._INLINE_BINOPS and len(args) == 2:
                expression = f"({args[0]} {self._INLINE_BINOPS[mnemonic]} {args[1]})"
            elif mnemonic == "int.incr":
                expression = f"({args[0]} + 1)"
            elif mnemonic == "int.decr":
                expression = f"({args[0]} - 1)"
            elif mnemonic in ("not", "bool.not"):
                expression = f"(not {args[0]})"
            elif mnemonic == "bool.and":
                expression = f"({args[0]} and {args[1]})"
            elif mnemonic == "bool.or":
                expression = f"({args[0]} or {args[1]})"
            elif self.opt_level >= 1 and \
                    mnemonic in ("overlay.get", "unpack"):
                expression = self._specialized_memread(
                    instruction, env, args
                )
            if expression is None:
                definition = REGISTRY[mnemonic]
                if definition.fn is None:
                    raise LinkError(
                        f"engine instruction {mnemonic} in step position"
                    )
                expression = (
                    f"{_bind(env, definition.fn)}"
                    f"({', '.join(['ctx'] + args)})"
                )
            lines.append(self._assign_source(instruction, expression))
        return lines

    def _compile_batch(self, batch: List[Instruction]) -> Callable:
        """Compile a straight-line run into one step closure."""
        env: Dict = {}
        lines = self._batch_lines(batch, env)
        # Line k + 2 holds instruction k: _charge_trap relies on it.
        source = "def _batch(ctx, frame):\n" + "".join(
            f"    {line}\n" for line in lines)
        exec(compile(source, f"<hilti:{self.function.name}>", "exec"), env)
        fn = env["_batch"]
        fn.hilti_instructions = len(batch)
        return fn

    def compile_special_step(self, instruction: Instruction) -> Callable:
        """Engine mnemonics that lower to plain (ctx, frame) steps."""
        mnemonic = instruction.mnemonic
        if mnemonic == "thread.schedule":
            func_name = instruction.operands[0].name
            args_acc = self.compile_read(instruction.operands[1])
            vid_acc = self.compile_read(instruction.operands[2])
            resolved = self._resolve_callee(func_name)

            def schedule(ctx, frame):
                if ctx.scheduler is None:
                    raise HiltiError(
                        INTERNAL_ERROR, "thread.schedule without a scheduler"
                    )
                ctx.scheduler.schedule(
                    vid_acc(ctx, frame), resolved, args_acc(ctx, frame)
                )

            return schedule
        if mnemonic == "callable.bind":
            func_name = instruction.operands[0].name
            args_acc = (
                self.compile_read(instruction.operands[1])
                if len(instruction.operands) > 1
                else None
            )
            store = self.compile_write(instruction.target)
            resolved = self._resolve_callee(func_name)

            def bind(ctx, frame):
                args = args_acc(ctx, frame) if args_acc is not None else ()
                store(ctx, frame, HiltiCallable(resolved, args))

            return bind
        if mnemonic == "exception.throw":
            acc = self.compile_read(instruction.operands[0])

            def throw(ctx, frame):
                error = acc(ctx, frame)
                if not isinstance(error, HiltiError):
                    error = HiltiError(VALUE_ERROR, str(error))
                raise error

            return throw
        raise LinkError(f"unhandled engine instruction {mnemonic}")

    def _resolve_callee(self, name: str) -> str:
        """Resolve a function reference to its qualified name at link time."""
        kind, target = self.program.linked.resolve_function(name, self.module)
        if kind == "hilti":
            return target.name
        return name  # native, resolved at execution

    # -- segmentation ---------------------------------------------------------

    def lower(self) -> CompiledFunction:
        plan = self._plan()
        if self.cf.can_suspend:
            self.cf.segments = [
                self._segment(index, parts, transfer)
                for index, (parts, transfer) in enumerate(plan)
            ]
        else:
            self.cf.run = self._generate(plan)
        return self.cf

    def _plan(self) -> List[Tuple[List, Instruction]]:
        """Cut the blocks into segments of (parts, transfer).

        *parts* are straight-line batches (lists of plain instructions)
        and special steps (single instructions); *transfer* is the control
        transfer closing the segment.  A block without a terminator gets
        a synthetic one: a jump to the next block, or a void return.
        """
        plan: List[Tuple[List, Instruction]] = []
        blocks = self.function.blocks
        for index, block in enumerate(blocks):
            self.block_entry[block.label] = len(plan)
            parts: List = []
            batch: List[Instruction] = []
            transfer = None
            for instruction in _live(block):
                mnemonic = instruction.mnemonic
                if self._batchable(instruction):
                    batch.append(instruction)
                    continue
                if batch:
                    parts.append(batch)
                    batch = []
                if mnemonic in _SPECIAL_STEPS:
                    parts.append(instruction)
                    continue
                plan.append((parts, instruction))
                parts = []
                transfer = instruction
            if transfer is not None and transfer.mnemonic in _TERMINATORS:
                continue
            if batch:
                parts.append(batch)
            if index + 1 < len(blocks):
                transfer = Instruction(
                    "jump", (LabelRef(blocks[index + 1].label),))
            else:
                transfer = Instruction("return.void")
            plan.append((parts, transfer))
        return plan

    # -- suspending functions: segments for the generator engine -------------

    def _segment(self, index: int, parts: List,
                 transfer: Instruction) -> Tuple[Tuple, Tuple, int]:
        steps = tuple(
            self._compile_batch(part) if isinstance(part, list)
            else self.compile_special_step(part)
            for part in parts
        )
        count = sum(
            len(part) if isinstance(part, list) else 1 for part in parts
        ) + 1  # +1 for the control transfer itself
        return steps, self._control(transfer, index + 1), count

    def _control(self, instruction: Instruction, nxt: int) -> Tuple:
        """The control tuple the engine loop runs to end a segment."""
        mnemonic = instruction.mnemonic
        operands = instruction.operands
        if mnemonic == "jump":
            return ("goto", self._segment_of(operands[0].label))
        if mnemonic == "if.else":
            return (
                "branch",
                self.compile_read(operands[0]),
                self._segment_of(operands[1].label),
                self._segment_of(operands[2].label),
            )
        if mnemonic == "switch":
            return ("switch", self.compile_read(operands[0]),
                    self._switch_table(instruction),
                    self._segment_of(operands[1].label))
        if mnemonic == "return.void":
            return ("ret",)
        if mnemonic == "return.result":
            return ("retv", self.compile_read(operands[0]))
        store = (
            self.compile_write(instruction.target)
            if instruction.target is not None
            else None
        )
        if mnemonic == "call":
            arg_accs = tuple(
                self.compile_read(e) for e in _call_args(instruction))
            kind, target = self.program.linked.resolve_function(
                operands[0].name, self.module
            )
            if kind == "native":
                return ("ncall", target, arg_accs, store, nxt)
            return ("call", target.name, arg_accs, store, nxt)
        if mnemonic == "yield":
            return ("yield", nxt)
        if mnemonic == "try.begin":
            return ("try_push", *self._handler(instruction), nxt)
        if mnemonic == "try.end":
            return ("try_pop", nxt)
        if mnemonic == "hook.run":
            arg_accs = tuple(
                self.compile_read(e) for e in _call_args(instruction))
            return ("hook", _hook_name(operands[0]), arg_accs, store, nxt)
        if mnemonic == "hook.stop":
            acc = self.compile_read(operands[0]) if operands else None
            return ("hook_stop", acc)
        if mnemonic == "callable.call":
            return ("call_callable", self.compile_read(operands[0]), store,
                    nxt)
        if mnemonic == "timer_mgr.advance":
            return ("advance", self.compile_read(operands[0]),
                    self.compile_read(operands[1]), nxt)
        if mnemonic == "timer_mgr.advance_global":
            return ("advance", None, self.compile_read(operands[0]), nxt)
        if mnemonic == "timer_mgr.expire_all":
            mgr_acc = self.compile_read(operands[0]) if operands else None
            return ("expire", mgr_acc, nxt)
        if mnemonic == "watchpoint.check":
            return ("wp_check", nxt)
        raise LinkError(f"unhandled engine instruction {mnemonic}")

    def _switch_table(self, instruction: Instruction) -> Dict:
        cases = {}
        for case in instruction.operands[2:]:
            if not isinstance(case, TupleOp) or len(case.elements) != 2:
                raise LinkError("switch cases must be (constant, label)")
            const, label = case.elements
            if not isinstance(const, Const) or not isinstance(label, LabelRef):
                raise LinkError("switch cases must be (constant, label)")
            cases[const.value] = self._segment_of(label.label)
        return cases

    def _handler(self, instruction: Instruction) -> Tuple:
        """A ``try.begin``'s (handler segment, catch type, error store)."""
        operands = instruction.operands
        catch_type = operands[1].type if len(operands) > 1 else None
        store = (
            self.compile_write(operands[2])
            if len(operands) > 2 and isinstance(operands[2], Var)
            else None
        )
        return self._segment_of(operands[0].label), catch_type, store

    # -- non-suspending functions: one generated Python function -------------

    def _successors(self, index: int, transfer: Instruction) -> List[int]:
        """Segments control can enter after *transfer* (handlers aside)."""
        mnemonic = transfer.mnemonic
        operands = transfer.operands
        if mnemonic == "jump":
            return [self._segment_of(operands[0].label)]
        if mnemonic == "if.else":
            return [self._segment_of(operands[1].label),
                    self._segment_of(operands[2].label)]
        if mnemonic == "switch":
            return [self._segment_of(operands[1].label),
                    *self._switch_table(transfer).values()]
        if mnemonic in ("return.void", "return.result", "hook.stop"):
            return []
        return [index + 1]

    def _generate(self, plan: List[Tuple[List, Instruction]]) -> Callable:
        """Emit the whole function as one Python function.

        Segments appear in order inside one ``while True`` loop, each
        under an ``if seg == k`` guard — except a segment entered only by
        falling out of the previous one, which just continues it.
        Forward transfers set ``seg`` and fall through the guards in
        between; backward ones ``continue``.  A trapping step charges
        through ``_charges``, the line -> instructions-so-far table of
        the segment it sits in, and unwinds to the local handler stack.
        """
        env: Dict = {
            "HiltiError": HiltiError,
            "_INDEX_ERROR": _INDEX_ERROR,
            "_HookStop": _HookStop,
            "_budget_exhausted": _budget_exhausted,
            "_dispatch_exception": _dispatch_exception,
        }
        lines: List[str] = []
        charges: Dict[int, int] = {}

        def emit(depth: int, text: str) -> None:
            lines.append("    " * depth + text)

        entered: Dict[int, int] = {}
        guarded = {0}
        for index, (__, transfer) in enumerate(plan):
            if transfer.mnemonic == "try.begin":
                guarded.add(self._segment_of(transfer.operands[0].label))
            successors = self._successors(index, transfer)
            for target in successors:
                entered[target] = entered.get(target, 0) + 1
            if successors != [index + 1]:
                guarded.add(index + 1)
        guarded.update(k for k, n in entered.items() if n > 1)

        def goto(depth: int, index: int, target: int) -> None:
            if target not in guarded:
                return  # the next segment continues this one
            emit(depth, f"seg = {target}")
            if target <= index:
                emit(depth, "continue")

        params = [f"p{i}" for i in range(self.cf.param_count)]
        emit(0, f"def _hilti({', '.join(['ctx'] + params)}):")
        inits = self.cf.frame_template()[len(params):]
        slots = params + [_value_source(value, env) for value in inits]
        emit(1, f"frame = [{', '.join(slots)}]")
        emit(1, "seg = 0")
        has_try = any(transfer.mnemonic in ("try.begin", "try.end")
                      for __, transfer in plan)
        if has_try:
            emit(1, "handlers = []")
        emit(1, "while True:")
        emit(2, "try:")
        for index, (parts, transfer) in enumerate(plan):
            if index in guarded:
                emit(3, f"if seg == {index}:")
            emit(4, "ctx.segments_dispatched += 1")
            count = 0
            for part in parts:
                if isinstance(part, list):
                    statements = self._batch_lines(part, env)
                else:
                    step = _bind(env, self.compile_special_step(part))
                    statements = [f"{step}(ctx, frame)"]
                for statement in statements:
                    emit(4, statement)
                    count += 1
                    charges[len(lines)] = count
            emit(4, f"ctx.instr_count += {count + 1}")
            emit(4, "if ctx.instr_budget is not None and "
                    "ctx.instr_count > ctx.instr_budget:")
            emit(5, "_budget_exhausted(ctx)")
            self._emit_transfer(emit, goto, index, transfer, env)
        for caught, convert in (("HiltiError as error", False),
                                ("IndexError as exc", True)):
            name = "exc" if convert else "error"
            reraise = "raise error from exc" if convert else "raise"
            emit(2, f"except {caught}:")
            emit(3, f"ctx.instr_count += "
                    f"_charges.get({name}.__traceback__.tb_lineno, 0)")
            if convert:
                emit(3, 'error = HiltiError(_INDEX_ERROR, '
                        'f"index out of range: {exc}")')
            if has_try:
                emit(3, "seg = _dispatch_exception(handlers, error, ctx, "
                        "frame)")
                emit(3, "if seg is None:")
                emit(4, reraise)
            else:
                emit(3, reraise)
        env["_charges"] = charges
        source = "\n".join(lines) + "\n"
        exec(compile(source, f"<hilti:{self.function.name}>", "exec"), env)
        return env["_hilti"]

    def _emit_transfer(self, emit: Callable, goto: Callable, index: int,
                       transfer: Instruction, env: Dict) -> None:
        mnemonic = transfer.mnemonic
        operands = transfer.operands
        if mnemonic == "jump":
            goto(4, index, self._segment_of(operands[0].label))
        elif mnemonic == "if.else":
            emit(4, f"if {self._expr_source(operands[0], env)}:")
            goto(5, index, self._segment_of(operands[1].label))
            emit(4, "else:")
            goto(5, index, self._segment_of(operands[2].label))
        elif mnemonic == "switch":
            table = _bind(env, self._switch_table(transfer))
            emit(4, f"seg = {table}.get("
                    f"{self._expr_source(operands[0], env)}, "
                    f"{self._segment_of(operands[1].label)})")
            if min(self._successors(index, transfer)) <= index:
                emit(4, "continue")
        elif mnemonic == "return.void":
            emit(4, "return None")
        elif mnemonic == "return.result":
            emit(4, f"return {self._expr_source(operands[0], env)}")
        elif mnemonic == "hook.stop":
            value = self._expr_source(operands[0], env) if operands \
                else "None"
            emit(4, f"raise _HookStop({value})")
        else:
            if mnemonic == "call":
                emit(4, self._assign_source(
                    transfer, self._call_source(transfer, env)))
            elif mnemonic == "hook.run":
                emit(4, self._assign_source(
                    transfer, self._hook_source(transfer, env)))
            elif mnemonic == "try.begin":
                handler = _bind(env, self._handler(transfer))
                emit(4, f"handlers.append({handler})")
            elif mnemonic == "try.end":
                emit(4, "if handlers:")
                emit(5, "handlers.pop()")
            else:
                raise LinkError(
                    f"suspending instruction {mnemonic} in non-suspending "
                    f"function {self.function.name}"
                )
            goto(4, index, index + 1)


def compile_program(linked: LinkedProgram,
                    opt_level: int = 1) -> CompiledProgram:
    """Lower every function of *linked* into a CompiledProgram.

    Functions that cannot suspend become one generated Python function
    each; the rest become segments for the generator engine.  At
    ``opt_level >= 1``, call/hook dispatch is optimized two ways: sites
    whose targets provably cannot suspend compile straight into the
    straight-line code as direct calls, and the remaining dispatch
    controls get their targets resolved to compiled objects at link time
    instead of per-execution name lookups.
    """
    program = CompiledProgram(linked)
    program.opt_level = opt_level
    module_of: Dict[int, Module] = {}
    for module in linked.modules:
        for function in module.all_functions():
            module_of[id(function)] = module
    suspends = _ir_can_suspend(linked, module_of)
    late: List[Tuple[Dict, str, Callable]] = []

    def lower(function: Function) -> CompiledFunction:
        return _FunctionLowering(
            program, module_of.get(id(function)), function, opt_level,
            suspends, late,
        ).lower()

    for name, function in linked.functions.items():
        program.functions[name] = lower(function)
    for hook_name, bodies in linked.hooks.items():
        program.hooks[hook_name] = [lower(body) for body in bodies]
    for env, name, thunk in late:
        env[name] = thunk()
    for index, var in enumerate(linked.global_layout):
        program._global_inits.append((index, var.init, var.type))
    if opt_level >= 1:
        _resolve_dispatch(program)
    return program


def _ir_can_suspend(linked: LinkedProgram,
                    module_of: Dict[int, Module]) -> Dict[int, bool]:
    """Whole-program fixpoint: id(function) -> may reach a suspension.

    Runs over the live IR before lowering, so the lowering knows up
    front which functions become plain generated functions and which
    call sites may compile into straight-line code.  Anything
    unresolvable stays conservatively suspending.
    """
    entries: List[Function] = list(linked.functions.values())
    for bodies in linked.hooks.values():
        entries.extend(bodies)
    suspend: Dict[int, bool] = {}
    callees: Dict[int, List[int]] = {}
    for function in entries:
        direct = False
        called: List[int] = []
        for block in function.blocks:
            for instruction in _live(block):
                mnemonic = instruction.mnemonic
                if mnemonic in _SUSPENDING:
                    direct = True
                elif mnemonic == "call":
                    try:
                        kind, target = linked.resolve_function(
                            instruction.operands[0].name,
                            module_of.get(id(function)),
                        )
                    except (LinkError, KeyError):
                        direct = True  # unresolvable: stay conservative
                        continue
                    if kind == "hilti":
                        called.append(id(target))
                elif mnemonic == "hook.run":
                    called.extend(
                        id(body) for body in linked.hooks.get(
                            _hook_name(instruction.operands[0]), ())
                    )
        suspend[id(function)] = direct
        callees[id(function)] = called
    changed = True
    while changed:
        changed = False
        for key, called in callees.items():
            if not suspend[key] and \
                    any(suspend.get(callee, True) for callee in called):
                suspend[key] = True
                changed = True
    return suspend


def _resolve_dispatch(program: CompiledProgram) -> None:
    """Resolve the generator engine's call/hook controls to objects.

    The engine accepts either form (name for -O0, object for -O1); this
    removes the per-execution ``program.functions[name]`` /
    ``program.hooks.get(name)`` lookups from suspending dispatch sites
    that could not be batched.
    """
    everything: List[CompiledFunction] = list(program.functions.values())
    for bodies in program.hooks.values():
        everything.extend(bodies)
    for cf in everything:
        resolved = []
        for steps, control, count in cf.segments:
            if control[0] == "call":
                control = ("call", program.functions[control[1]],
                           control[2], control[3], control[4])
            elif control[0] == "hook":
                control = ("hook", tuple(program.hooks.get(control[1], ())),
                           control[2], control[3], control[4])
            resolved.append((steps, control, count))
        cf.segments = resolved


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


def _budget_exhausted(ctx) -> None:
    """Trip the instruction budget; one-shot, so catch handlers can run."""
    ctx.instr_budget = None
    raise HiltiError(PROCESSING_TIMEOUT, "instruction budget exhausted")


def _run_hooks(ctx, bodies, args):
    """Run non-suspending hook bodies in order; the ``hook.stop`` value."""
    for body in bodies:
        if body.hook_group is not None and \
                body.hook_group in ctx.hook_groups_disabled:
            continue
        try:
            body.invoke(ctx, args)
        except _HookStop as stop:
            return stop.value
    return None


def _drive(gen):
    """Run a generator-engine activation to completion, stepping over
    its suspension points."""
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


def _never_yields(cf: CompiledFunction, ctx, args):
    """A non-suspending function behind the generator protocol."""
    return cf.invoke(ctx, args)
    yield  # pragma: no cover - makes this a generator


def _charge_trap(ctx, steps, executed, exc) -> None:
    """Charge a partially-executed segment after a trap.

    The success path adds the whole segment's count at once; when a step
    raises, that charge never lands, so the tiers' ``instr_count`` parity
    would break on any trapping program.  Completed steps charge their
    full batches; the raising step charges up to and including the
    trapping instruction — each batch instruction compiles to exactly
    one line of the generated ``_batch`` function, so the traceback's
    line number recovers how deep the batch got.  The trapping
    instruction itself counts, matching the interpreter's
    count-then-execute accounting.
    """
    if executed < 0:
        return
    charge = 0
    for step in steps[:executed]:
        charge += getattr(step, "hilti_instructions", 1)
    size = getattr(steps[executed], "hilti_instructions", 1)
    if size <= 1:
        charge += size
    else:
        depth = size
        tb = exc.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code.co_name == "_batch":
                depth = min(size, max(1, tb.tb_lineno - 1))
                break
            tb = tb.tb_next
        charge += depth
    ctx.instr_count += charge


def _execute(program: CompiledProgram, ctx, cf: CompiledFunction, args):
    """Run one suspending compiled function as a generator (engine loop)."""
    frame = cf.make_frame(args)
    handlers: List[Tuple[int, object, Optional[Callable]]] = []
    segments = cf.segments
    seg = 0
    while True:
        steps, control, instr_count = segments[seg]
        ctx.segments_dispatched += 1
        executed = -1
        charged = False
        try:
            for executed, step in enumerate(steps):
                step(ctx, frame)
            ctx.instr_count += instr_count
            charged = True
            if ctx.instr_budget is not None and \
                    ctx.instr_count > ctx.instr_budget:
                _budget_exhausted(ctx)
            kind = control[0]
            if kind == "goto":
                seg = control[1]
                continue
            if kind == "branch":
                seg = control[2] if control[1](ctx, frame) else control[3]
                continue
            if kind == "switch":
                value = control[1](ctx, frame)
                seg = control[2].get(value, control[3])
                continue
            if kind == "retv":
                return control[1](ctx, frame)
            if kind == "ret":
                return None
            if kind == "call":
                __, callee, arg_accs, store, nxt = control
                if callee.__class__ is str:  # -O0: resolve per execution
                    callee = program.functions[callee]
                call_args = [a(ctx, frame) for a in arg_accs]
                if callee.can_suspend:
                    result = yield from _execute(
                        program, ctx, callee, call_args)
                else:
                    result = callee.invoke(ctx, call_args)
                if store is not None:
                    store(ctx, frame, result)
                seg = nxt
                continue
            if kind == "ncall":
                __, native, arg_accs, store, nxt = control
                result = native(ctx, *[a(ctx, frame) for a in arg_accs])
                if store is not None:
                    store(ctx, frame, result)
                seg = nxt
                continue
            if kind == "yield":
                yield None
                seg = control[1]
                continue
            if kind == "try_push":
                __, handler_seg, catch_type, store, nxt = control
                handlers.append((handler_seg, catch_type, store))
                seg = nxt
                continue
            if kind == "try_pop":
                if handlers:
                    handlers.pop()
                seg = control[1]
                continue
            if kind == "hook":
                __, hook_ref, arg_accs, store, nxt = control
                bodies = program.hooks.get(hook_ref, ()) \
                    if hook_ref.__class__ is str else hook_ref
                hook_args = [a(ctx, frame) for a in arg_accs]
                hook_result = None
                for body in bodies:
                    if body.hook_group is not None and \
                            body.hook_group in ctx.hook_groups_disabled:
                        continue
                    try:
                        if body.can_suspend:
                            yield from _execute(program, ctx, body, hook_args)
                        else:
                            body.invoke(ctx, hook_args)
                    except _HookStop as stop:
                        hook_result = stop.value
                        break
                if store is not None:
                    store(ctx, frame, hook_result)
                seg = nxt
                continue
            if kind == "hook_stop":
                value = control[1](ctx, frame) if control[1] is not None else None
                raise _HookStop(value)
            if kind == "call_callable":
                __, acc, store, nxt = control
                bound = acc(ctx, frame)
                result = yield from _run_callable(program, ctx, bound)
                if store is not None:
                    store(ctx, frame, result)
                seg = nxt
                continue
            if kind == "advance":
                __, mgr_acc, time_acc, nxt = control
                mgr = mgr_acc(ctx, frame) if mgr_acc is not None else ctx.timer_mgr
                actions = mgr.advance(time_acc(ctx, frame))
                for action in actions:
                    yield from _run_callable(program, ctx, action)
                while ctx.pending_expirations:
                    action = ctx.pending_expirations.pop(0)
                    yield from _run_callable(program, ctx, action)
                seg = nxt
                continue
            if kind == "expire":
                __, mgr_acc, nxt = control
                mgr = mgr_acc(ctx, frame) if mgr_acc is not None else ctx.timer_mgr
                actions = mgr.expire_all()
                for action in actions:
                    yield from _run_callable(program, ctx, action)
                while ctx.pending_expirations:
                    action = ctx.pending_expirations.pop(0)
                    yield from _run_callable(program, ctx, action)
                seg = nxt
                continue
            if kind == "wp_check":
                for entry in ctx.watchpoints:
                    if entry[2]:
                        continue
                    due = yield from _run_callable(program, ctx, entry[0])
                    if due:
                        entry[2] = True
                        yield from _run_callable(program, ctx, entry[1])
                ctx.watchpoints[:] = [
                    e for e in ctx.watchpoints if not e[2]
                ]
                seg = control[1]
                continue
            raise HiltiError(INTERNAL_ERROR, f"bad control {kind!r}")
        except HiltiError as error:
            if not charged:
                _charge_trap(ctx, steps, executed, error)
            seg = _dispatch_exception(handlers, error, ctx, frame)
            if seg is None:
                raise
        except IndexError as exc:
            if not charged:
                _charge_trap(ctx, steps, executed, exc)
            error = HiltiError(_INDEX_ERROR, f"index out of range: {exc}")
            seg = _dispatch_exception(handlers, error, ctx, frame)
            if seg is None:
                raise error from exc


def _dispatch_exception(handlers, error: HiltiError, ctx, frame):
    """Find the innermost matching handler; None reraises to the caller."""
    while handlers:
        handler_seg, catch_type, store = handlers.pop()
        if catch_type is None or error.matches(catch_type):
            if store is not None:
                store(ctx, frame, error)
            return handler_seg
    return None


def _run_callable(program: CompiledProgram, ctx, bound):
    """Execute a HILTI callable (timers, scheduled jobs)."""
    if isinstance(bound, HiltiCallable):
        function = bound.function
        if isinstance(function, str):
            cf = program.functions.get(function)
            if cf is None:
                native = program.natives.get(function)
                if native is None:
                    raise HiltiError(
                        INTERNAL_ERROR, f"unresolved callable {function!r}"
                    )
                return native(ctx, *bound.args)
        else:
            cf = function
        if not cf.can_suspend:
            return cf.invoke(ctx, bound.args)
        result = yield from _execute(program, ctx, cf, list(bound.args))
        return result
    if callable(bound):
        return bound()
    raise HiltiError(INTERNAL_ERROR, f"cannot invoke {bound!r}")
