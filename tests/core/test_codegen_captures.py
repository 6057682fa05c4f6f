"""Closure-capture regressions in the compiled tier's batch compiler.

The code generator compiles a straight-line run of instructions into one
batched closure.  Every per-instruction lambda must pin its operands via
default arguments at creation time — a late-binding capture would make
every instruction in the batch read the *last* instruction's operands.
These tests put several same-mnemonic instructions into a single batch
and check each one reads its own operands, at both opt levels.
"""

import pytest

from repro.core import hiltic

_SAME_MNEMONIC_SRC = """module Main

int<64> chain(int<64> a, int<64> b) {
    local int<64> x
    local int<64> y
    local int<64> z
    x = int.add a 10
    y = int.add b 20
    z = int.add x y
    return z
}
"""

_CALLS_SRC = """module Main

int<64> inc(int<64> v) {
    local int<64> r
    r = int.add v 1
    return r
}

int<64> dbl(int<64> v) {
    local int<64> r
    r = int.mul v 2
    return r
}

int<64> both(int<64> v) {
    local int<64> a
    local int<64> b
    local int<64> out
    a = call Main::inc(v)
    b = call Main::dbl(v)
    out = int.add a b
    return out
}
"""

_FIELDS_SRC = """module Main

type Pair = struct {
    int<64> first,
    int<64> second,
}

int<64> swaps(int<64> a, int<64> b) {
    local ref<Pair> p
    local int<64> x
    local int<64> y
    local int<64> out
    p = new Pair
    struct.set p first a
    struct.set p second b
    x = struct.get p second
    y = struct.get p first
    out = int.sub x y
    return out
}
"""


@pytest.mark.parametrize("opt_level", [0, 1])
class TestBatchCaptures:
    def _run(self, source, name, args, opt_level):
        program = hiltic([source], tier="compiled", opt_level=opt_level)
        return program.call(program.make_context(), name, args)

    def test_same_mnemonic_reads_own_operands(self, opt_level):
        # Three int.adds in one batch: a late-bound capture would
        # compute the last instruction's operands three times.
        result = self._run(_SAME_MNEMONIC_SRC, "Main::chain", [1, 2],
                           opt_level)
        assert result == (1 + 10) + (2 + 20)

    def test_inlined_calls_keep_own_callees(self, opt_level):
        # Two call sites in one batch: each must bind its own callee
        # and argument list.
        result = self._run(_CALLS_SRC, "Main::both", [5], opt_level)
        assert result == (5 + 1) + (5 * 2)

    def test_field_refs_keep_own_fields(self, opt_level):
        # Two struct.gets of different fields: the field name is part
        # of the pinned operands.
        result = self._run(_FIELDS_SRC, "Main::swaps", [3, 11], opt_level)
        assert result == 11 - 3
