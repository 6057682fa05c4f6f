"""Cross-tier accounting parity.

The interpreter and the compiled tier must charge the execution context
identically — the per-packet watchdog budget, the profiler instruction
deltas, and the Figures 9/10 attribution all read ``ctx.instr_count``,
so a tier that counts differently skews every downstream report.  The
compiled tier charges one unit per control transfer (including the
synthetic fall-off return of void functions); the interpreter mirrors
that at its fall-through point.
"""

import pytest

from repro.core import hiltic
from repro.runtime.exceptions import HiltiError

_FIB = """module Main
int<64> fib(int<64> n) {
    local bool small
    small = int.lt n 2
    if.else small base rec
base:
    return n
rec:
    local int<64> a
    local int<64> b
    a = int.sub n 1
    a = call fib(a)
    b = int.sub n 2
    b = call fib(b)
    a = int.add a b
    return a
}
"""

_FALL_THROUGH = """module Main
global int<64> seen

void touch() {
    seen = int.add seen 1
}

int<64> walk(int<64> n) {
    local bool done
loop:
    done = int.eq n 0
    if.else done out again
again:
    call touch()
    n = int.sub n 1
    jump loop
out:
    return seen
}
"""

_HOOKS = """module Main
global int<64> total

hook void observe(int<64> x) {
    total = int.add total x
}

hook void observe(int<64> x) &priority=5 {
    total = int.add total 1
}

int<64> fire(int<64> n) {
    local bool done
loop:
    done = int.eq n 0
    if.else done out again
again:
    hook.run observe (n)
    n = int.sub n 1
    jump loop
out:
    return total
}
"""


def _count(source: str, entry: str, args, tier: str):
    # opt_level=0 so both tiers execute the identical IR (the
    # interpreter always runs unoptimized modules).
    program = hiltic([source], tier=tier, opt_level=0)
    ctx = program.make_context()
    result = program.call(ctx, entry, list(args))
    return result, ctx.instr_count


@pytest.mark.parametrize("source,entry,args", [
    (_FIB, "Main::fib", [9]),
    (_FALL_THROUGH, "Main::walk", [13]),
    (_HOOKS, "Main::fire", [7]),
], ids=["recursion", "void-fall-off", "hook-bodies"])
class TestInstructionCountParity:
    def test_tiers_agree_on_result_and_count(self, source, entry, args):
        interp_result, interp_count = _count(
            source, entry, args, "interpreted")
        compiled_result, compiled_count = _count(
            source, entry, args, "compiled")
        assert interp_result == compiled_result
        assert interp_count == compiled_count
        assert interp_count > 0

    def test_counts_scale_with_work(self, source, entry, args):
        _, small = _count(source, entry, args, "interpreted")
        _, big = _count(source, entry, [a + 3 for a in args], "interpreted")
        assert big > small


class TestProfilerDeltasMatchAcrossTiers:
    def test_profiled_instruction_deltas_agree(self):
        """Totals are identical; profiler deltas may differ only by the
        segment-boundary skew (the compiled tier charges a segment after
        its steps run, so an in-flight segment is not yet in the
        baseline read by profiler.start/stop).  The skew is bounded by
        one segment, not proportional to the work measured."""
        counts = {}
        totals = {}
        for tier in ("interpreted", "compiled"):
            program = hiltic([_FIB], profile=True, tier=tier, opt_level=0)
            ctx = program.make_context()
            program.call(ctx, "Main::fib", [10])
            counts[tier] = ctx.profilers.get("func/Main::fib").instructions
            totals[tier] = ctx.instr_count
        assert totals["interpreted"] == totals["compiled"]
        assert counts["interpreted"] > 0
        assert abs(counts["interpreted"] - counts["compiled"]) <= 4


# A constant tuple index out of range, mid-way through a straight-line
# run: the trap charges the instructions up to and including it.
_UNCAUGHT_INDEX = """module Main
int<64> f(int<64> a) {
    local tuple<int<64>, int<64>> t
    local int<64> x
    x = int.add a 1
    t = assign (x, a)
    x = int.mul x 3
    x = tuple.index t 2
    return x
}
"""

# The same trap inside the function's own exception scope.
_CAUGHT_INDEX = """module Main
int<64> f(int<64> a) {
    local tuple<int<64>, int<64>> t
    local int<64> x
    x = int.add a 1
    try {
        t = assign (x, a)
        x = int.mul x 3
        x = tuple.index t 2
    } catch (ref<Hilti::IndexError> e) {
        x = int.sub x 100
    }
    x = int.add x 1
    return x
}
"""


def _run(source, entry, args, opt_level, tier="compiled", budget=None):
    program = hiltic([source], tier=tier, opt_level=opt_level)
    ctx = program.make_context()
    if budget is not None:
        ctx.arm_watchdog(budget)
    try:
        outcome = ("ok", program.call(ctx, entry, list(args)))
    except HiltiError as error:
        outcome = ("raise", error.except_type.type_name)
    return outcome, ctx.instr_count, ctx.segments_dispatched


class TestLoweredFunctionAccounting:
    """Non-suspending functions lower to one generated Python function.

    Their accounting must match the segment engine they replaced: the
    -O1/-O2 literals below (instr_count, segments_dispatched) are that
    engine's figures for the same programs, and the interpreter and -O0
    keep agreeing on results and counts, traps included.
    """

    @pytest.mark.parametrize("source,outcome,count,optimized", [
        (_UNCAUGHT_INDEX, ("raise", "Hilti::IndexError"), 4,
         {1: (4, 1), 2: (4, 1)}),
        (_CAUGHT_INDEX, ("ok", -84), 9, {1: (9, 4), 2: (8, 3)}),
    ], ids=["uncaught", "caught-by-own-scope"])
    def test_trap_mid_batch(self, source, outcome, count, optimized):
        interp = _run(source, "Main::f", [4], 0, tier="interpreted")
        compiled = _run(source, "Main::f", [4], 0)
        assert interp[:2] == compiled[:2] == (outcome, count)
        for level, (instrs, segments) in optimized.items():
            assert _run(source, "Main::f", [4], level) == \
                (outcome, instrs, segments)

    @pytest.mark.parametrize("source,entry,args,expected", [
        (_FIB, "Main::fib", [9],
         {0: (597, 326), 1: (597, 218), 2: (597, 218)}),
        (_FALL_THROUGH, "Main::walk", [13],
         {0: (95, 55), 1: (95, 42), 2: (81, 28)}),
        (_HOOKS, "Main::fire", [7],
         {0: (39, 24), 1: (39, 17), 2: (31, 9)}),
    ], ids=["recursion", "void-fall-off", "hook-bodies"])
    def test_segment_counts(self, source, entry, args, expected):
        for level, counts in expected.items():
            assert _run(source, entry, args, level)[1:] == counts

    @pytest.mark.parametrize("source,entry,args,expected", [
        (_FIB, "Main::fib", [9],
         {0: (51, 27), 1: (65, 28), 2: (65, 28)}),
        (_FALL_THROUGH, "Main::walk", [13],
         {0: (52, 30), 1: (52, 23), 2: (53, 19)}),
    ], ids=["recursion", "void-fall-off"])
    def test_watchdog_trip_point(self, source, entry, args, expected):
        # The budget is checked after each segment's charge, so the trip
        # lands at the same segment boundary as before.
        for level, (instrs, segments) in expected.items():
            assert _run(source, entry, args, level, budget=50) == (
                ("raise", "Hilti::ProcessingTimeout"), instrs, segments)
