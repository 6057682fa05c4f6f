"""fuzz — the coverage-guided differential oracle for the optimizer.

The ``-O2`` tier rewrites programs aggressively (inlining,
specialization, superblock traces); the reference interpreter always
executes the *unoptimized* IR.  That pairing is a differential oracle:
for any program, every compiled level must produce byte-identical
observable behaviour to the interpreter.  This tool generates
random-but-well-typed programs and drives the oracle at scale::

    python -m repro.tools.fuzz --seed 1 --count 500
    python -m repro.tools.fuzz --replay tests/core/fuzz_corpus
    python -m repro.tools.fuzz --seed 7 --count 200 \
        --emit-corpus tests/core/fuzz_corpus
    python -m repro.tools.fuzz --seed 3 --count 2000 --lanes frames

Four default lanes, each a different program source:

* ``module`` — random HILTI modules built through ``core.builder``:
  integer dataflow, branches, bounded loops, switches, lexical
  fallthrough blocks, div/mod traps, and calls into small helper
  functions shaped to tickle the inliner and specializer.  Oracle:
  interpreter vs compiled ``-O0``/``-O1``/``-O2`` outcome (value or
  exception type), plus the ``ctx.instr_count`` parity invariant
  between the interpreter and ``-O0``.
* ``filter`` — random BPF expressions over well-formed and mutated
  frames; the classic VM, the interpreted tier, and every compiled
  level must agree on each accept/reject decision.
* ``script`` — random mini-Bro functions run on the tree-walking
  script interpreter and the HILTI script compiler at every level.
* ``pac`` — malformed HTTP byte streams through the BinPAC++-generated
  parser compiled at every level; unit events, parse errors, and
  completion state must match across levels.

One opt-in lane (name it in ``--lanes``) checks the packet substrate
instead of the optimizer:

* ``frames`` — generated and mutated Ethernet frames (valid IPv4/IPv6
  TCP/UDP, truncations, corrupted header fields, raw bytes); the
  byte-level :func:`~repro.net.flows.frame_flow_key` must accept and
  reject exactly the frames :func:`reference_flow_key` (built on the
  object parser ``parse_ethernet``) does, with the same key,
  orientation, payload length and flags.  Diverging frames are
  minimized (shortened, then bytes zeroed) before they are printed.

Coverage guidance: each module case's ``-O2`` ``OptStats`` counters
(which passes actually fired) plus its structural features form a
signature; cases with novel signatures enter a pool that seeds further
mutations, steering generation toward optimizer paths not yet hit.
Diverging cases are minimized greedily (drop statements, unwrap
control flow, shrink constants) before being reported or written to
the corpus, so a failure lands as a small reproducible ``.hlt`` file.
"""

from __future__ import annotations

import argparse
import copy
import json
import random
import re
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import types as ht
from ..core.builder import FunctionBuilder, ModuleBuilder
from ..core import OPT_LEVELS
from ..core.parser import parse_module
from ..core.printer import print_module
from ..core.toolchain import hiltic
from ..runtime.exceptions import HiltiError

__all__ = [
    "Fuzzer",
    "build_module",
    "gen_flow_frame",
    "gen_module_spec",
    "minimize_frame",
    "minimize_module_case",
    "module_case_source",
    "mutate_module_spec",
    "reference_flow_key",
    "run_corpus_text",
    "run_filter_case",
    "run_frame_case",
    "run_module_case",
    "run_script_case",
]

_N_VARS = 4
_ENTRY = "Main::f"

_BINOPS = ["int.add", "int.sub", "int.mul", "int.min", "int.max",
           "int.and", "int.or", "int.xor"]
_CMP_OPS = ["int.eq", "int.lt", "int.le", "int.gt", "int.ge"]
_DIV_OPS = ["int.div", "int.mod"]

# ---------------------------------------------------------------------------
# Module lane: spec -> IR
#
# A *spec* is a JSON-serializable description of one program: a list of
# helper functions plus a statement tree for ``Main::f``.  Everything
# the oracle runs is rebuilt from the spec (the optimizer mutates
# modules in place), and the corpus stores specs rendered to textual
# HILTI, so a case survives minimization, serialization, and replay.
#
# Operands are ``["v", i]`` (variable ``v<i>``) or ``["c", n]`` (an
# int<64> constant).  Statements:
#
#   ["op", mnemonic, target, a, b]          pure binary op
#   ["div", mnemonic, target, a, b]         int.div / int.mod (may trap)
#   ["if", cmp, a, b, then, else]           comparison + branch
#   ["loop", n, body]                       counted loop, 0..6 trips
#   ["switch", a, [[const, stmts]...], default_stmts]
#   ["fallthrough", stmts]                  stmts, then a lexical
#                                           fallthrough into a fresh block
#   ["call", helper_name, [operand...], target]
#
# Helpers are int<64> -> int<64> functions in one of four shapes:
# "leaf" (single pure block — an inline candidate), "init" (leaf plus
# an initialized local — exercises init seeding at the splice),
# "branchy" (two-armed — not inlinable, but specializable), and "big"
# (over the inline size cap).


def _operand(fb: FunctionBuilder, spec, names: Sequence[str]):
    kind, value = spec
    if kind == "v":
        return fb.var(names[value % len(names)])
    return fb.const(ht.INT64, int(value))


def _gen_operand(rng: random.Random, n_vars: int, lo=-50, hi=50):
    if rng.random() < 0.6:
        return ["v", rng.randrange(n_vars)]
    return ["c", rng.randint(lo, hi)]


def _gen_ops(rng: random.Random, n_vars: int, count: int) -> List:
    return [["op", rng.choice(_BINOPS), rng.randrange(n_vars),
             _gen_operand(rng, n_vars), _gen_operand(rng, n_vars)]
            for __ in range(count)]


def _gen_helper(rng: random.Random, index: int) -> Dict:
    kind = rng.choice(["leaf", "leaf", "init", "branchy", "big"])
    nparams = rng.randint(1, 3)
    n_vars = nparams + (1 if kind == "init" else 0)
    sizes = {"leaf": (1, 6), "init": (1, 5), "branchy": (1, 4),
             "big": (18, 22)}
    ops = _gen_ops(rng, n_vars, rng.randint(*sizes[kind]))
    helper = {
        "name": f"h{index}",
        "kind": kind,
        "params": nparams,
        "ops": ops,
        "ret": _gen_operand(rng, n_vars),
    }
    if kind == "init":
        helper["init"] = rng.randint(-20, 20)
    if kind == "branchy":
        helper["cmp"] = [rng.choice(_CMP_OPS),
                         _gen_operand(rng, nparams),
                         _gen_operand(rng, nparams)]
        helper["else_ops"] = _gen_ops(rng, n_vars,
                                      rng.randint(*sizes[kind]))
    return helper


def _gen_stmt(rng: random.Random, helpers: Sequence[Dict],
              depth: int) -> List:
    roll = rng.random()
    if depth >= 2 or roll < 0.45:
        return ["op", rng.choice(_BINOPS), rng.randrange(_N_VARS),
                _gen_operand(rng, _N_VARS), _gen_operand(rng, _N_VARS)]
    if roll < 0.52:
        return ["div", rng.choice(_DIV_OPS), rng.randrange(_N_VARS),
                _gen_operand(rng, _N_VARS), _gen_operand(rng, _N_VARS)]
    if roll < 0.67:
        return ["if", rng.choice(_CMP_OPS),
                _gen_operand(rng, _N_VARS), _gen_operand(rng, _N_VARS),
                _gen_stmts(rng, helpers, depth + 1, 1, 3),
                _gen_stmts(rng, helpers, depth + 1, 0, 3)]
    if roll < 0.78:
        return ["loop", rng.randint(0, 6),
                _gen_stmts(rng, helpers, depth + 1, 1, 3)]
    if roll < 0.85:
        cases, seen = [], set()
        for __ in range(rng.randint(1, 3)):
            const = rng.randint(-6, 6)
            if const in seen:
                continue
            seen.add(const)
            cases.append([const, _gen_stmts(rng, helpers, depth + 1, 1, 2)])
        return ["switch", _gen_operand(rng, _N_VARS, -6, 6), cases,
                _gen_stmts(rng, helpers, depth + 1, 0, 2)]
    if roll < 0.92 or not helpers:
        return ["fallthrough", _gen_stmts(rng, helpers, depth + 1, 1, 2)]
    helper = rng.choice(helpers)
    # Constant arguments (sometimes all of them) feed the specializer.
    arguments = [
        ["c", rng.randint(-9, 9)] if rng.random() < 0.5
        else _gen_operand(rng, _N_VARS)
        for __ in range(helper["params"])
    ]
    return ["call", helper["name"], arguments, rng.randrange(_N_VARS)]


def _gen_stmts(rng: random.Random, helpers: Sequence[Dict], depth: int,
               lo: int, hi: int) -> List:
    return [_gen_stmt(rng, helpers, depth)
            for __ in range(rng.randint(lo, hi))]


def gen_module_spec(rng: random.Random) -> Dict:
    helpers = [_gen_helper(rng, i) for i in range(rng.randint(0, 3))]
    return {
        "helpers": helpers,
        "body": _gen_stmts(rng, helpers, 0, 2, 7),
    }


def _build_helper(mb: ModuleBuilder, helper: Dict) -> None:
    nparams = helper["params"]
    names = [f"p{i}" for i in range(nparams)]
    fb = mb.function(helper["name"],
                     [(name, ht.INT64) for name in names], ht.INT64)
    if "init" in helper:
        fb.local("acc", ht.INT64, helper["init"])
        names.append("acc")

    def emit_ops(ops):
        for __, mnemonic, target, a, b in ops:
            fb.emit(mnemonic, _operand(fb, a, names),
                    _operand(fb, b, names),
                    target=fb.var(names[target % len(names)]))

    if helper["kind"] == "branchy":
        cmp_op, a, b = helper["cmp"]
        cond = fb.temp(ht.BOOL, "c")
        fb.emit(cmp_op, _operand(fb, a, names), _operand(fb, b, names),
                target=cond)
        fb.branch(cond, "then", "orelse")
        fb.block("then")
        emit_ops(helper["ops"])
        fb.jump("done")
        fb.block("orelse")
        emit_ops(helper["else_ops"])
        fb.jump("done")
        fb.block("done")
    else:
        emit_ops(helper["ops"])
    fb.ret(_operand(fb, helper["ret"], names))


def _emit_stmts(fb: FunctionBuilder, stmts: Sequence, names: List[str],
                helpers: Dict[str, Dict]) -> None:
    for stmt in stmts:
        tag = stmt[0]
        if tag == "op" or tag == "div":
            __, mnemonic, target, a, b = stmt
            fb.emit(mnemonic, _operand(fb, a, names),
                    _operand(fb, b, names),
                    target=fb.var(names[target % len(names)]))
        elif tag == "if":
            __, cmp_op, a, b, then_stmts, else_stmts = stmt
            cond = fb.temp(ht.BOOL, "c")
            fb.emit(cmp_op, _operand(fb, a, names),
                    _operand(fb, b, names), target=cond)
            then_l, else_l, join = (fb.fresh_label("t"),
                                    fb.fresh_label("e"),
                                    fb.fresh_label("j"))
            fb.branch(cond, then_l, else_l)
            fb.block(then_l)
            _emit_stmts(fb, then_stmts, names, helpers)
            fb.jump(join)
            fb.block(else_l)
            _emit_stmts(fb, else_stmts, names, helpers)
            fb.jump(join)
            fb.block(join)
        elif tag == "loop":
            __, trips, body = stmt
            counter = fb.temp(ht.INT64, "i")
            more = fb.temp(ht.BOOL, "m")
            head, body_l, out = (fb.fresh_label("h"),
                                 fb.fresh_label("b"),
                                 fb.fresh_label("o"))
            fb.emit("assign", fb.const(ht.INT64, 0), target=counter)
            fb.jump(head)
            fb.block(head)
            fb.emit("int.lt", counter, fb.const(ht.INT64, int(trips)),
                    target=more)
            fb.branch(more, body_l, out)
            fb.block(body_l)
            _emit_stmts(fb, body, names, helpers)
            fb.emit("int.incr", counter, target=counter)
            fb.jump(head)
            fb.block(out)
        elif tag == "switch":
            __, scrutinee, cases, default_stmts = stmt
            join = fb.fresh_label("j")
            default_l = fb.fresh_label("d")
            labels = [fb.fresh_label("s") for __ in cases]
            case_ops = [
                fb.args(fb.const(ht.INT64, int(const)), fb.label(label))
                for (const, __), label in zip(cases, labels)
            ]
            fb.emit("switch", _operand(fb, scrutinee, names),
                    fb.label(default_l), *case_ops)
            for (__, case_stmts), label in zip(cases, labels):
                fb.block(label)
                _emit_stmts(fb, case_stmts, names, helpers)
                fb.jump(join)
            fb.block(default_l)
            _emit_stmts(fb, default_stmts, names, helpers)
            fb.jump(join)
            fb.block(join)
        elif tag == "fallthrough":
            __, body = stmt
            _emit_stmts(fb, body, names, helpers)
            # No terminator: execution falls through lexically into the
            # next block — the shape merge_blocks' off-the-end repair
            # must keep honest in value-returning functions.
            fb.block(fb.fresh_label("ft"))
        elif tag == "call":
            __, name, arguments, target = stmt
            helper = helpers.get(name)
            if helper is None:
                continue
            ops = [_operand(fb, a, names)
                   for a in arguments[:helper["params"]]]
            while len(ops) < helper["params"]:
                ops.append(fb.const(ht.INT64, 0))
            fb.call(f"Main::{name}", ops,
                    target=fb.var(names[target % len(names)]))
        else:  # pragma: no cover - spec invariant
            raise ValueError(f"unknown fuzz statement {tag!r}")


def build_module(spec: Dict):
    """Build the spec's module fresh (callers compile it destructively)."""
    mb = ModuleBuilder("Main")
    helpers = {helper["name"]: helper for helper in spec["helpers"]}
    for helper in spec["helpers"]:
        _build_helper(mb, helper)
    names = [f"v{i}" for i in range(_N_VARS)]
    fb = mb.function("f", [(name, ht.INT64) for name in names], ht.INT64)
    _emit_stmts(fb, spec["body"], names, helpers)
    total = fb.temp(ht.INT64, "total")
    fb.emit("assign", fb.const(ht.INT64, 0), target=total)
    for name in names:
        fb.emit("int.add", total, fb.var(name), target=total)
    fb.ret(total)
    return mb.finish()


def mutate_module_spec(rng: random.Random, spec: Dict) -> Dict:
    """One random structural edit, for coverage-pool evolution."""
    mutant = copy.deepcopy(spec)
    body = mutant["body"]
    roll = rng.random()
    if roll < 0.3 and body:
        # Tweak one constant somewhere in the tree.
        def tweak(node):
            if isinstance(node, list):
                if len(node) == 2 and node[0] == "c" \
                        and isinstance(node[1], int):
                    node[1] = rng.randint(-50, 50)
                    return True
                for child in rng.sample(node, len(node)):
                    if tweak(child):
                        return True
            return False
        tweak(body)
    elif roll < 0.5 and len(body) > 1:
        body.pop(rng.randrange(len(body)))
    elif roll < 0.7 and body:
        body.insert(rng.randrange(len(body) + 1),
                    copy.deepcopy(rng.choice(body)))
    else:
        body.append(_gen_stmt(rng, mutant["helpers"], 0))
    return mutant


# ---------------------------------------------------------------------------
# Module lane: the oracle


def _outcome(call):
    try:
        return ("ok", call())
    except HiltiError as error:
        return ("raise", error.except_type.type_name)


_STMT_TAGS = ("op", "div", "if", "loop", "switch", "fallthrough", "call")


def _walk_stmts(node):
    """Yield every statement in a nested spec fragment."""
    if not isinstance(node, list):
        return
    if node and isinstance(node[0], str) and node[0] in _STMT_TAGS:
        yield node
    for child in node:
        yield from _walk_stmts(child)


def _spec_features(spec: Dict) -> List[str]:
    tags = {stmt[0] for stmt in _walk_stmts(spec["body"])}
    tags.update(helper["kind"] for helper in spec["helpers"])
    return sorted(tags)


def run_module_case(spec: Dict, args: Sequence[int],
                    levels: Sequence[int] = OPT_LEVELS) -> Dict:
    """Run one spec through the oracle; returns outcomes + divergences."""
    arguments = list(args)
    interp = hiltic([build_module(spec)], tier="interpreted",
                    optimize=False)
    interp_ctx = interp.make_context()
    expected = _outcome(
        lambda: interp.call(interp_ctx, _ENTRY, arguments))
    result = {
        "expected": expected,
        "levels": {},
        "divergences": [],
        "signature": [],
    }
    for level in levels:
        program = hiltic([build_module(spec)], opt_level=level)
        ctx = program.make_context()
        got = _outcome(lambda: program.call(ctx, _ENTRY, arguments))
        result["levels"][level] = got
        if got != expected:
            result["divergences"].append(
                f"-O{level}: {got!r} != interp {expected!r}")
        if level == 0 and ctx.instr_count != interp_ctx.instr_count:
            result["divergences"].append(
                f"-O0 instr_count {ctx.instr_count} != "
                f"interp {interp_ctx.instr_count}")
        if level == max(levels):
            stats = getattr(program, "opt_stats", None)
            fired = sorted(
                key for key, value in (stats.as_dict() if stats else
                                       {}).items() if value)
            result["signature"] = fired + _spec_features(spec)
    return result


def minimize_module_case(spec: Dict, args: Sequence[int],
                         levels: Sequence[int] = OPT_LEVELS,
                         budget: int = 200) -> Tuple[Dict, List[int]]:
    """Greedy shrink: keep any edit that preserves a divergence."""
    runs = [0]

    def diverges(candidate) -> bool:
        if runs[0] >= budget:
            return False
        runs[0] += 1
        try:
            return bool(run_module_case(candidate, args,
                                        levels)["divergences"])
        except Exception:
            # A candidate the toolchain rejects is not a reproduction.
            return False

    if not diverges(spec):
        return copy.deepcopy(spec), list(args)
    current = copy.deepcopy(spec)

    def _stmt_lists(stmt):
        """The nested statement lists inside one statement."""
        return [child for child in stmt[1:]
                if isinstance(child, list) and all(
                    isinstance(entry, list) and entry
                    and isinstance(entry[0], str)
                    for entry in child)]

    def shrink_list(stmts) -> bool:
        changed = False
        index = 0
        while index < len(stmts):
            trial = stmts[index]
            del stmts[index]
            if diverges(current):
                changed = True
                continue
            stmts.insert(index, trial)
            # Unwrap control flow: replace the statement with one of
            # its nested statement lists.
            unwrapped = False
            for child in _stmt_lists(trial):
                stmts[index:index + 1] = copy.deepcopy(child)
                if diverges(current):
                    changed = unwrapped = True
                    break
                stmts[index:index + len(child)] = [trial]
            if not unwrapped:
                # Recurse into nested lists in place (switch cases are
                # [const, stmts] pairs — descend through them too).
                for child in trial[1:]:
                    if isinstance(child, list):
                        for nested in _stmt_lists(["", child]):
                            changed |= shrink_list(nested)
                        for entry in child:
                            if isinstance(entry, list) and len(entry) == 2 \
                                    and isinstance(entry[1], list):
                                for nested in _stmt_lists(["", entry[1]]):
                                    changed |= shrink_list(nested)
                index += 1
            # After a successful unwrap, revisit the same index.
        return changed

    while shrink_list(current["body"]) and runs[0] < budget:
        pass
    # Drop helpers the (shrunken) body no longer calls.
    called = {stmt[1] for stmt in _walk_stmts(current["body"])
              if stmt[0] == "call"}
    trimmed = [helper for helper in current["helpers"]
               if helper["name"] in called]
    if len(trimmed) < len(current["helpers"]):
        trial = dict(current, helpers=trimmed)
        if diverges(trial):
            current = trial
    return current, list(args)


# ---------------------------------------------------------------------------
# Corpus serialization: spec -> .hlt text with replay headers


def module_case_source(spec: Dict, args: Sequence[int],
                       note: str = "") -> str:
    text = print_module(build_module(spec))
    header = [
        "# fuzz corpus case — repro.tools.fuzz (module lane)",
        f"# entry: {_ENTRY}",
        f"# args: {json.dumps(list(args))}",
    ]
    if note:
        header.append(f"# note: {note}")
    return "\n".join(header) + "\n\n" + text


def run_corpus_text(text: str,
                    levels: Sequence[int] = OPT_LEVELS) -> Dict:
    """Replay one corpus file's text through every tier."""
    match = re.search(r"#\s*args:\s*(\[[^\n]*\])", text)
    arguments = json.loads(match.group(1)) if match else [0] * _N_VARS
    match = re.search(r"#\s*entry:\s*(\S+)", text)
    entry = match.group(1) if match else _ENTRY

    interp = hiltic([parse_module(text)], tier="interpreted",
                    optimize=False)
    interp_ctx = interp.make_context()
    expected = _outcome(lambda: interp.call(interp_ctx, entry, arguments))
    divergences = []
    for level in levels:
        program = hiltic([parse_module(text)], opt_level=level)
        ctx = program.make_context()
        got = _outcome(lambda: program.call(ctx, entry, arguments))
        if got != expected:
            divergences.append(
                f"-O{level}: {got!r} != interp {expected!r}")
        if level == 0 and ctx.instr_count != interp_ctx.instr_count:
            divergences.append(
                f"-O0 instr_count {ctx.instr_count} != "
                f"interp {interp_ctx.instr_count}")
    return {"expected": expected, "divergences": divergences}


# ---------------------------------------------------------------------------
# Filter lane


_FILTER_PORTS = (21, 25, 53, 80, 443, 8080)
_FILTER_DIRS = ("", "src ", "dst ")


def gen_filter_text(rng: random.Random, depth: int = 0) -> str:
    if depth >= 3 or rng.random() < 0.45:
        roll = rng.random()
        if roll < 0.3:
            return rng.choice(("ip", "tcp", "udp"))
        if roll < 0.55:
            return (f"{rng.choice(_FILTER_DIRS)}port "
                    f"{rng.choice(_FILTER_PORTS)}")
        if roll < 0.8:
            return (f"{rng.choice(_FILTER_DIRS)}host "
                    f"172.16.{rng.randrange(4)}.{rng.randrange(1, 30)}")
        return (f"{rng.choice(_FILTER_DIRS)}net "
                f"172.16.{rng.randrange(4)}.0/"
                f"{rng.choice((16, 24))}")
    roll = rng.random()
    if roll < 0.45:
        return (f"{gen_filter_text(rng, depth + 1)} and "
                f"{gen_filter_text(rng, depth + 1)}")
    if roll < 0.9:
        return (f"{gen_filter_text(rng, depth + 1)} or "
                f"{gen_filter_text(rng, depth + 1)}")
    return f"not {gen_filter_text(rng, depth + 1)}"


def _mutate_frame(rng: random.Random, frame: bytes) -> bytes:
    data = bytearray(frame)
    roll = rng.random()
    if roll < 0.4 and data:
        return bytes(data[:rng.randrange(len(data))])
    if roll < 0.8 and data:
        for __ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    return bytes(rng.randrange(256) for __ in range(rng.randint(0, 60)))


def _filter_frames(rng: random.Random, count: int = 24) -> List[bytes]:
    from ..net.tracegen import HttpTraceConfig, generate_http_trace

    trace = generate_http_trace(
        HttpTraceConfig(sessions=6, seed=rng.randrange(1 << 16)))
    frames = [frame for __, frame in trace][:count]
    frames.extend(_mutate_frame(rng, rng.choice(frames))
                  for __ in range(count // 2))
    return frames


def run_filter_case(filter_text: str, frames: Sequence[bytes],
                    levels: Sequence[int] = OPT_LEVELS) -> Dict:
    from ..apps.bpf import compile_to_hilti, compile_to_vm, parse_filter

    node = parse_filter(filter_text)
    decisions = {}
    vm = compile_to_vm(node)
    decisions["vm"] = bytes(
        1 if vm.run(frame) else 0 for frame in frames)
    interp = compile_to_hilti(node, tier="interpreted")
    decisions["interp"] = bytes(
        1 if interp(frame) else 0 for frame in frames)
    for level in levels:
        hilti_filter = compile_to_hilti(node, opt_level=level)
        decisions[f"O{level}"] = bytes(
            1 if hilti_filter(frame) else 0 for frame in frames)
    expected = decisions["interp"]
    divergences = [
        f"filter {filter_text!r}: {key} decisions differ from interp"
        for key, got in decisions.items() if got != expected
    ]
    return {"decisions": decisions, "divergences": divergences}


# ---------------------------------------------------------------------------
# Frames lane: the byte-level flow-key extractor vs the object parser


def reference_flow_key(frame: bytes):
    """The oracle for :func:`~repro.net.flows.frame_flow_key`:
    ``(key, sender_is_first, payload_len, tcp_flags)`` derived from the
    object parser, or None wherever ``parse_ethernet`` fails or finds
    no TCP/UDP header.  The key order is computed here independently of
    ``orient``: the smaller ``(address, port)`` end first."""
    from ..net.packet import (
        PROTO_TCP, PROTO_UDP, TCPSegment, UDPDatagram, parse_ethernet)

    try:
        ip, transport = parse_ethernet(frame)
    except Exception:
        return None
    if isinstance(transport, TCPSegment):
        protocol, flags = PROTO_TCP, transport.flags
    elif isinstance(transport, UDPDatagram):
        protocol, flags = PROTO_UDP, 0
    else:
        return None
    this_end = (ip.src.value, transport.src_port)
    that_end = (ip.dst.value, transport.dst_port)
    if this_end <= that_end:
        key, first = this_end + that_end + (protocol,), True
    else:
        key, first = that_end + this_end + (protocol,), False
    return key, first, len(transport.payload), flags


#: Header fields the mutator corrupts: (name, frame offset, width in
#: bytes, IPv4 vs IPv6 frame or None for both).  Offsets assume the
#: builders' 20-byte IPv4 header.
_FRAME_FIELDS = (
    ("ethertype", 12, 2, None),
    ("version", 14, 1, None),
    ("total_length", 16, 2, 4),
    ("protocol", 23, 1, 4),
    ("payload_length", 18, 2, 6),
    ("next_header", 20, 1, 6),
    ("tcp_offset", 46, 1, 4),
    ("udp_length", 38, 2, 4),
    ("tcp_offset", 66, 1, 6),
    ("udp_length", 58, 2, 6),
)


def gen_flow_frame(rng: random.Random) -> bytes:
    """One frame for the frames lane: valid, truncated, field-mutated
    or raw random bytes."""
    from ..core.values import Addr
    from ..net.packet import (
        build_tcp6_packet, build_tcp_packet, build_udp6_packet,
        build_udp_packet)

    roll = rng.random()
    if roll < 0.1:
        raw = bytearray(rng.randrange(256)
                        for __ in range(rng.randint(0, 80)))
        if len(raw) >= 14 and rng.random() < 0.7:
            raw[12:14] = rng.choice((b"\x08\x00", b"\x86\xdd"))
        return bytes(raw)
    family = rng.choice((4, 6))
    if family == 4:
        src = Addr.from_v4_int(rng.getrandbits(32))
        dst = src if rng.random() < 0.1 else Addr.from_v4_int(
            rng.getrandbits(32))
    else:
        src = Addr(rng.getrandbits(128))
        dst = src if rng.random() < 0.1 else Addr(rng.getrandbits(128))
    sport, dport = rng.randrange(65536), rng.randrange(65536)
    if rng.random() < 0.1:
        dport = sport
    payload = bytes(rng.randrange(256) for __ in range(rng.randint(0, 40)))
    if rng.random() < 0.5:
        build = build_tcp_packet if family == 4 else build_tcp6_packet
        frame = bytearray(build(src, dst, sport, dport,
                                flags=rng.randrange(256), payload=payload))
    else:
        build = build_udp_packet if family == 4 else build_udp6_packet
        frame = bytearray(build(src, dst, sport, dport, payload=payload))
    if roll < 0.35:
        return bytes(frame)
    if roll < 0.6:
        return bytes(frame[:rng.randrange(len(frame) + 1)])
    for __ in range(rng.randint(1, 3)):
        __, offset, width, only = rng.choice(_FRAME_FIELDS)
        if only not in (None, family) or offset + width > len(frame):
            continue
        if width == 2:
            value = rng.choice((0, 7, 8, 20, rng.randrange(65536)))
            frame[offset:offset + 2] = value.to_bytes(2, "big")
        elif rng.random() < 0.5:
            # A nibble: version, IHL or data offset.
            nibble = rng.randrange(16)
            if rng.random() < 0.5:
                frame[offset] = (frame[offset] & 0x0F) | (nibble << 4)
            else:
                frame[offset] = (frame[offset] & 0xF0) | nibble
        else:
            frame[offset] = rng.choice((6, 17, rng.randrange(256)))
    if rng.random() < 0.3:
        frame = frame[:rng.randrange(len(frame) + 1)]
    return bytes(frame)


def _extract(frame: bytes):
    """``frame_flow_key(frame)``, with an exception as its result (the
    extractor must never raise)."""
    from ..net.flows import frame_flow_key

    try:
        return frame_flow_key(frame)
    except Exception as error:
        return f"raised {error!r}"


def _frame_diverges(frame: bytes) -> bool:
    return _extract(frame) != reference_flow_key(frame)


def minimize_frame(frame: bytes) -> bytes:
    """Greedily shrink a diverging frame: drop trailing bytes, then
    zero the bytes that do not matter, keeping the divergence."""
    data = bytearray(frame)
    while data and _frame_diverges(bytes(data[:-1])):
        del data[-1]
    for index in range(len(data)):
        if data[index]:
            saved = data[index]
            data[index] = 0
            if not _frame_diverges(bytes(data)):
                data[index] = saved
    return bytes(data)


def run_frame_case(frames: Sequence[bytes]) -> Dict:
    """Compare the extractor with the oracle on every frame."""
    divergences = []
    for frame in frames:
        got, want = _extract(frame), reference_flow_key(frame)
        if got != want:
            divergences.append(
                f"frame {frame.hex()}: frame_flow_key {got!r} != "
                f"reference {want!r}")
    return {"divergences": divergences}


# ---------------------------------------------------------------------------
# Script lane


def _gen_script_expr(rng: random.Random, names: Sequence[str],
                     depth: int = 0) -> str:
    if depth >= 2 or rng.random() < 0.5:
        if rng.random() < 0.4:
            return rng.choice(names)
        return str(rng.randint(0, 20))
    left = _gen_script_expr(rng, names, depth + 1)
    right = _gen_script_expr(rng, names, depth + 1)
    return f"({left} {rng.choice('+*')} {right})"


def gen_script_case(rng: random.Random) -> Tuple[str, List[int]]:
    cond_op = rng.choice(("<", "<=", ">", ">=", "=="))
    ab = ("a", "b")
    abx = ("a", "b", "x")
    source = f"""
function g(n: count): count {{
    return {_gen_script_expr(rng, ("n",))};
}}

function f(a: count, b: count): count {{
    local x: count = {_gen_script_expr(rng, ab)};
    if ( a {cond_op} {rng.randint(0, 40)} ) {{
        x = x + g({_gen_script_expr(rng, ab)});
    }} else {{
        x = {_gen_script_expr(rng, abx)};
    }}
    return x + a + b;
}}

event bro_init() {{
}}
"""
    return source, [rng.randint(0, 50), rng.randint(0, 50)]


def run_script_case(source: str, args: Sequence[int],
                    levels: Sequence[int] = OPT_LEVELS) -> Dict:
    import io

    from ..apps.bro import Bro

    def call(**kwargs):
        bro = Bro(scripts=[source], print_stream=io.StringIO(), **kwargs)
        return bro.call_function("f", list(args))

    expected = call(scripts_engine="interp")
    divergences = []
    outcomes = {"interp": expected}
    for level in levels:
        got = call(scripts_engine="hilti", opt_level=level)
        outcomes[f"O{level}"] = got
        if got != expected:
            divergences.append(
                f"script -O{level}: {got!r} != interp {expected!r}")
    return {"outcomes": outcomes, "divergences": divergences}


# ---------------------------------------------------------------------------
# Pac lane: malformed HTTP through the generated parser at every level


_HTTP_BASE = (b"GET /index.html HTTP/1.1\r\n"
              b"Host: example.org\r\n"
              b"User-Agent: fuzz/1.0\r\n"
              b"Content-Length: 5\r\n"
              b"\r\n"
              b"hello")


def gen_http_input(rng: random.Random) -> bytes:
    data = bytearray(_HTTP_BASE)
    for __ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.3 and data:
            data = data[:rng.randrange(len(data))]
        elif roll < 0.5 and data:
            data[rng.randrange(len(data))] = rng.randrange(256)
        elif roll < 0.7 and len(data) > 4:
            start = rng.randrange(len(data) - 2)
            del data[start:start + rng.randint(1, 8)]
        elif roll < 0.9:
            start = rng.randrange(len(data) + 1)
            data[start:start] = bytes(
                rng.randrange(256) for __ in range(rng.randint(1, 8)))
        else:
            data += rng.choice((b"\r\n", b"GET ", b"\xff\xfe",
                                b"Content-Length: 99\r\n"))
    return bytes(data)


class _PacOracle:
    """HTTP parsers compiled once per level, fed per-case sessions."""

    def __init__(self, levels: Sequence[int] = OPT_LEVELS):
        from ..apps.binpac.app import _render_unit
        from ..apps.binpac.codegen import Parser
        from ..apps.binpac.glue import unit_done_glue
        from ..apps.binpac.grammars import http_grammar

        self.levels = tuple(levels)
        self.events: List[Tuple[str, str]] = []
        self.parsers = {}

        def on_event(name, event_args):
            self.events.append((name, _render_unit(name, event_args[0])))

        for level in self.levels:
            self.parsers[level] = Parser(
                http_grammar(),
                extra_modules=[unit_done_glue("HTTP",
                                              ["Request", "Reply"])],
                optimize=True,
                opt_level=level,
                on_event=on_event,
            )

    def run_case(self, rng: random.Random, payload: bytes) -> Dict:
        # Identical chunking at every level so incremental resume
        # points line up.
        cuts = sorted(rng.randrange(len(payload) + 1)
                      for __ in range(rng.randint(0, 3)))
        chunks, start = [], 0
        for cut in cuts + [len(payload)]:
            chunks.append(payload[start:cut])
            start = cut
        results = {}
        for level in self.levels:
            self.events = []
            parser = self.parsers[level]
            error = None
            session = parser.start("Requests")
            try:
                for chunk in chunks:
                    session.feed(chunk)
                if not session.finished:
                    session.done()
            except HiltiError as exc:
                error = exc.except_type.type_name
            results[level] = (tuple(self.events), error,
                              session.finished)
        expected = results[self.levels[0]]
        divergences = [
            f"pac -O{level}: {results[level]!r} != "
            f"-O{self.levels[0]} {expected!r}"
            for level in self.levels[1:] if results[level] != expected
        ]
        return {"results": results, "divergences": divergences}


# ---------------------------------------------------------------------------
# The fuzzing loop


class Fuzzer:
    """Seeded, coverage-guided differential fuzzing across all lanes."""

    def __init__(self, seed: int = 0, levels: Sequence[int] = OPT_LEVELS,
                 lanes: Sequence[str] = ("module", "filter", "script",
                                         "pac")):
        self.rng = random.Random(seed)
        self.levels = tuple(levels)
        self.lanes = tuple(lanes)
        self.pool: List[Dict] = []
        self.signatures = set()
        self.divergences: List[Dict] = []
        self.cases = {lane: 0 for lane in self.lanes}
        self.interesting: List[Tuple[Dict, List[int], str]] = []
        self._pac: Optional[_PacOracle] = None
        self._frames: Optional[List[bytes]] = None

    # Lane weights: the module lane is where the optimizer lives.
    _WEIGHTS = {"module": 6, "filter": 2, "script": 1, "pac": 1,
                "frames": 1}

    def _pick_lane(self) -> str:
        weights = [self._WEIGHTS.get(lane, 1) for lane in self.lanes]
        return self.rng.choices(self.lanes, weights=weights, k=1)[0]

    def _module_case(self) -> Dict:
        rng = self.rng
        if self.pool and rng.random() < 0.5:
            spec = mutate_module_spec(rng, rng.choice(self.pool))
        else:
            spec = gen_module_spec(rng)
        args = [rng.randint(-100, 100) for __ in range(_N_VARS)]
        try:
            result = run_module_case(spec, args, self.levels)
        except Exception as error:
            # The generator only emits well-typed programs; anything the
            # toolchain rejects is itself a finding.
            return {"lane": "module", "spec": spec, "args": args,
                    "divergences": [f"toolchain error: {error!r}"]}
        signature = tuple(result["signature"])
        if signature and signature not in self.signatures:
            self.signatures.add(signature)
            self.pool.append(spec)
            self.interesting.append(
                (spec, args, ",".join(result["signature"])))
        return {"lane": "module", "spec": spec, "args": args,
                "divergences": result["divergences"]}

    def _filter_case(self) -> Dict:
        if self._frames is None:
            self._frames = _filter_frames(self.rng)
        text = gen_filter_text(self.rng)
        result = run_filter_case(text, self._frames, self.levels)
        return {"lane": "filter", "filter": text,
                "divergences": result["divergences"]}

    def _script_case(self) -> Dict:
        source, args = gen_script_case(self.rng)
        result = run_script_case(source, args, self.levels)
        return {"lane": "script", "source": source, "args": args,
                "divergences": result["divergences"]}

    def _pac_case(self) -> Dict:
        if self._pac is None:
            self._pac = _PacOracle(self.levels)
        payload = gen_http_input(self.rng)
        result = self._pac.run_case(self.rng, payload)
        return {"lane": "pac", "payload": payload.hex(),
                "divergences": result["divergences"]}

    def _frames_case(self) -> Dict:
        frames = [gen_flow_frame(self.rng) for __ in range(16)]
        result = run_frame_case(frames)
        return {"lane": "frames", "frames": frames,
                "divergences": result["divergences"]}

    def run_one(self) -> Dict:
        lane = self._pick_lane()
        case = {
            "module": self._module_case,
            "filter": self._filter_case,
            "script": self._script_case,
            "pac": self._pac_case,
            "frames": self._frames_case,
        }[lane]()
        self.cases[lane] += 1
        if case["divergences"]:
            if lane == "module" and "spec" in case:
                spec, args = minimize_module_case(
                    case["spec"], case["args"], self.levels)
                case["minimized"] = module_case_source(
                    spec, args, note="; ".join(case["divergences"]))
            elif lane == "frames":
                case["minimized"] = "\n".join(
                    f"frame {minimize_frame(frame).hex()}"
                    for frame in case["frames"] if _frame_diverges(frame))
            self.divergences.append(case)
        return case

    def run(self, count: int, max_seconds: float = 0,
            progress=None) -> Dict:
        started = time.monotonic()
        for index in range(count):
            if max_seconds and time.monotonic() - started > max_seconds:
                break
            self.run_one()
            if progress and (index + 1) % progress == 0:
                print(f"fuzz: {index + 1}/{count} cases, "
                      f"{len(self.signatures)} signatures, "
                      f"{len(self.divergences)} divergences",
                      file=sys.stderr)
        return self.summary()

    def summary(self) -> Dict:
        return {
            "cases": dict(self.cases),
            "total": sum(self.cases.values()),
            "signatures": len(self.signatures),
            "divergences": len(self.divergences),
        }

    # -- corpus -------------------------------------------------------------

    def emit_corpus(self, directory: str, limit: int = 8) -> List[str]:
        """Write the most interesting minimized module cases as .hlt."""
        import os

        os.makedirs(directory, exist_ok=True)
        written = []
        for index, (spec, args, note) in enumerate(
                self.interesting[:limit]):
            small, small_args = _shrink_interesting(spec, args,
                                                    self.levels)
            path = os.path.join(directory, f"case_{index:03d}.hlt")
            with open(path, "w") as stream:
                stream.write(module_case_source(small, small_args,
                                                note=note))
            written.append(path)
        return written


def _shrink_interesting(spec: Dict, args: Sequence[int],
                        levels: Sequence[int]) -> Tuple[Dict, List[int]]:
    """Shrink a (non-diverging) corpus case while keeping its coverage
    signature — smaller files, same optimizer paths exercised."""
    target = tuple(run_module_case(spec, args, levels)["signature"])
    current = copy.deepcopy(spec)

    def keeps_signature(candidate) -> bool:
        try:
            result = run_module_case(candidate, args, levels)
        except Exception:
            return False
        return tuple(result["signature"]) == target \
            and not result["divergences"]

    index = 0
    while index < len(current["body"]):
        trial = current["body"][index]
        del current["body"][index]
        if keeps_signature(current):
            continue
        current["body"].insert(index, trial)
        index += 1
    return current, list(args)


# ---------------------------------------------------------------------------
# CLI


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fuzz",
        description="coverage-guided differential fuzzing of the "
                    "optimizer tiers against the interpreter oracle")
    parser.add_argument("--seed", type=int, default=0,
                        help="PRNG seed (default 0; runs are "
                             "deterministic per seed)")
    parser.add_argument("--count", type=int, default=200,
                        help="number of cases to run (default 200)")
    parser.add_argument("--levels", default=",".join(
                            str(level) for level in OPT_LEVELS),
                        help="comma-separated opt levels to compare "
                             "(default all)")
    parser.add_argument("--lanes",
                        default="module,filter,script,pac",
                        help="comma-separated lanes to fuzz (the opt-in "
                             "'frames' lane is not in the default)")
    parser.add_argument("--max-seconds", type=float, default=0,
                        help="stop after this wall-clock budget "
                             "(0 = no limit)")
    parser.add_argument("--emit-corpus", metavar="DIR", default=None,
                        help="write minimized interesting module cases "
                             "into DIR as replayable .hlt files")
    parser.add_argument("--corpus-limit", type=int, default=8,
                        help="max corpus files to emit (default 8)")
    parser.add_argument("--replay", metavar="DIR", default=None,
                        help="replay every .hlt corpus case in DIR "
                             "instead of fuzzing")
    parser.add_argument("--progress", type=int, default=0, metavar="N",
                        help="print a progress line every N cases")
    args = parser.parse_args(argv)
    levels = tuple(int(part) for part in args.levels.split(","))

    if args.replay:
        import glob
        import os

        failures = 0
        paths = sorted(glob.glob(os.path.join(args.replay, "*.hlt")))
        for path in paths:
            with open(path) as stream:
                result = run_corpus_text(stream.read(), levels)
            status = "ok" if not result["divergences"] else "DIVERGED"
            print(f"{path}: {status}")
            for line in result["divergences"]:
                print(f"  {line}")
                failures += 1
        print(f"replayed {len(paths)} corpus cases, "
              f"{failures} divergences")
        return 1 if failures else 0

    lanes = tuple(part for part in args.lanes.split(",") if part)
    fuzzer = Fuzzer(seed=args.seed, levels=levels, lanes=lanes)
    summary = fuzzer.run(args.count, max_seconds=args.max_seconds,
                         progress=args.progress)
    print(f"fuzz: {summary['total']} cases "
          f"({', '.join(f'{lane}={n}' for lane, n in summary['cases'].items())}), "
          f"{summary['signatures']} coverage signatures, "
          f"{summary['divergences']} divergences")
    for case in fuzzer.divergences:
        print(f"DIVERGENCE in {case['lane']} lane:")
        for line in case["divergences"]:
            print(f"  {line}")
        if "minimized" in case:
            print("  minimized reproduction:")
            for line in case["minimized"].splitlines():
                print(f"    {line}")
    if args.emit_corpus:
        written = fuzzer.emit_corpus(args.emit_corpus,
                                     limit=args.corpus_limit)
        for path in written:
            print(f"wrote {path}")
    return 1 if fuzzer.divergences else 0


if __name__ == "__main__":
    sys.exit(main())
