"""ICI emulator: opcode semantics checked with hand-assembled programs."""

import pytest

from repro.terms import SymbolTable, tags
from repro.intcode.program import Builder
from repro.intcode import layout
from repro.emulator import CodegenEmulator, Emulator, EmulatorError


def build(body):
    """Assemble a tiny program: body(builder) then halt."""
    builder = Builder(SymbolTable())
    builder.label("$start")
    body(builder)
    builder.halt(0)
    return builder.finish()


def _step_all(program):
    """Final data memory after running *program* on both production
    loops: the reference loop and the compiled loop must leave the same
    memory, and the compiled run must not have fallen back."""
    reference = Emulator(program)
    reference.run()
    compiled = CodegenEmulator(program)
    assert compiled.run().backend == "codegen"
    assert compiled.memory == reference.memory
    return reference.memory


HEAP = layout.HEAP_BASE


def probe(body_ops):
    """Run body then return final memory (body stores results itself)."""
    def body(b):
        body_ops(b)
    return _step_all(build(body))


def test_ldi_st_roundtrip():
    def ops(b):
        r = b.fresh_reg()
        b.ldi_int(r, 77)
        b.st(r, "H", 0)
    mem = probe(ops)
    assert mem[HEAP] == tags.pack(77, tags.TINT)


def test_arith_ops_tag_result_as_int():
    def ops(b):
        x, y, r = b.fresh_reg(), b.fresh_reg(), b.fresh_reg()
        b.ldi_int(x, 10)
        b.ldi_int(y, 3)
        for index, op in enumerate(
                ["add", "sub", "mul", "div", "mod", "and", "or", "xor"]):
            b.alu(op, r, x, rb=y)
            b.st(r, "H", index)
    mem = probe(ops)
    values = [tags.value_of(mem[HEAP + i]) for i in range(8)]
    assert values == [13, 7, 30, 3, 1, 10 & 3, 10 | 3, 10 ^ 3]
    assert all(tags.tag_of(mem[HEAP + i]) == tags.TINT for i in range(8))


def test_division_truncates_toward_zero():
    def ops(b):
        x, y, r = b.fresh_reg(), b.fresh_reg(), b.fresh_reg()
        b.ldi_int(x, -7)
        b.ldi_int(y, 2)
        b.alu("div", r, x, rb=y)
        b.st(r, "H", 0)
        b.alu("mod", r, x, rb=y)
        b.st(r, "H", 1)
    mem = probe(ops)
    assert tags.value_of(mem[HEAP]) == -3
    assert tags.value_of(mem[HEAP + 1]) == -1


def test_lea_sets_tag_and_offsets_value():
    def ops(b):
        r = b.fresh_reg()
        b.lea(r, "H", 5, tags.TLST)
        b.st(r, "H", 0)
    mem = probe(ops)
    assert mem[HEAP] == tags.pack(HEAP + 5, tags.TLST)


def test_mktag_and_gettag():
    def ops(b):
        r, t = b.fresh_reg(), b.fresh_reg()
        b.ldi_int(r, 9)
        b.mktag(r, r, tags.TATM)
        b.st(r, "H", 0)
        b.emit("gettag", rd=t, ra=r)
        b.st(t, "H", 1)
    mem = probe(ops)
    assert tags.tag_of(mem[HEAP]) == tags.TATM
    assert tags.value_of(mem[HEAP]) == 9
    assert tags.value_of(mem[HEAP + 1]) == tags.TATM


def test_btag_taken_and_not_taken():
    def ops(b):
        r, out = b.fresh_reg(), b.fresh_reg()
        b.ldi_int(r, 1)
        taken = b.fresh_label("taken")
        done = b.fresh_label("done")
        b.btag(r, tags.TINT, taken)
        b.ldi_int(out, 0)
        b.jmp(done)
        b.label(taken)
        b.ldi_int(out, 1)
        b.label(done)
        b.st(out, "H", 0)
    mem = probe(ops)
    assert tags.value_of(mem[HEAP]) == 1


def test_value_compare_branches():
    def ops(b):
        x, y, out = b.fresh_reg(), b.fresh_reg(), b.fresh_reg()
        b.ldi_int(x, -5)
        b.ldi_int(y, 3)
        yes = b.fresh_label("yes")
        done = b.fresh_label("done")
        b.branch("bltv", x, y, yes)
        b.ldi_int(out, 0)
        b.jmp(done)
        b.label(yes)
        b.ldi_int(out, 1)
        b.label(done)
        b.st(out, "H", 0)
    mem = probe(ops)
    assert tags.value_of(mem[HEAP]) == 1


def test_beq_compares_whole_words_including_tag():
    def ops(b):
        x, y, out = b.fresh_reg(), b.fresh_reg(), b.fresh_reg()
        b.ldi(x, tags.pack(4, tags.TINT))
        b.ldi(y, tags.pack(4, tags.TATM))
        eq = b.fresh_label("eq")
        done = b.fresh_label("done")
        b.ldi_int(out, 0)
        b.branch("beq", x, y, eq)
        b.jmp(done)
        b.label(eq)
        b.ldi_int(out, 1)
        b.label(done)
        b.st(out, "H", 0)
    mem = probe(ops)
    assert tags.value_of(mem[HEAP]) == 0  # same value, different tag


def test_call_links_and_jmpr_returns():
    def ops(b):
        out = b.fresh_reg()
        sub = b.fresh_label("sub")
        after = b.fresh_label("after")
        b.jmp(after)
        b.label(sub)
        b.ldi_int(out, 42)
        b.jmpr("RL")
        b.label(after)
        b.call(sub, link="RL")
        b.st(out, "H", 0)
    mem = probe(ops)
    assert tags.value_of(mem[HEAP]) == 42


def test_halt_status_code():
    builder = Builder(SymbolTable())
    builder.label("$start")
    builder.halt(3)
    result = Emulator(builder.finish()).run()
    assert result.status == 3
    assert not result.succeeded


def test_step_limit_enforced():
    builder = Builder(SymbolTable())
    builder.label("$start")
    builder.label("loop")
    builder.jmp("loop")
    with pytest.raises(EmulatorError):
        Emulator(builder.finish(), max_steps=100).run()


def test_uninitialised_read_reports_pc():
    builder = Builder(SymbolTable())
    builder.label("$start")
    r = builder.fresh_reg()
    builder.ld(r, "H", 12345)
    builder.halt(0)
    with pytest.raises(EmulatorError) as info:
        Emulator(builder.finish()).run()
    assert "pc=" in str(info.value)


def test_counts_and_taken_statistics():
    builder = Builder(SymbolTable())
    builder.label("$start")
    i = builder.fresh_reg()
    limit = builder.fresh_reg()
    one = builder.fresh_reg()
    builder.ldi_int(i, 0)
    builder.ldi_int(limit, 5)
    builder.ldi_int(one, 1)
    builder.label("loop")
    builder.alu("add", i, i, rb=one)
    builder.branch("bltv", i, limit, "loop")
    builder.halt(0)
    program = builder.finish()
    result = Emulator(program).run()
    branch_pc = program.labels["loop"] + 1
    assert result.counts[branch_pc] == 5
    assert result.taken[branch_pc] == 4
    assert abs(result.branch_probability(branch_pc) - 0.8) < 1e-9


def test_functor_table_initialised():
    symbols = SymbolTable()
    index = symbols.functor("f", 3)
    builder = Builder(symbols)
    builder.label("$start")
    r = builder.fresh_reg()
    base = builder.fresh_reg()
    builder.ldi(base, tags.pack(layout.FTAB_BASE + index, tags.TRAW))
    builder.ld(r, base, 0)
    builder.st(r, "H", 0)
    builder.halt(0)
    mem = _step_all(builder.finish())
    assert tags.value_of(mem[HEAP]) == 3


def test_undefined_label_rejected_at_finish():
    builder = Builder(SymbolTable())
    builder.label("$start")
    builder.jmp("nowhere")
    with pytest.raises(ValueError):
        builder.finish()


def test_duplicate_label_rejected():
    builder = Builder(SymbolTable())
    builder.label("$start")
    with pytest.raises(ValueError):
        builder.label("$start")
