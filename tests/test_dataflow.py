"""Static dataflow facts: reachability, dead writes over the production
liveness, the region-level disambiguation/dead-write facts, and the
static ILP bound — on hand-built CFGs (including adversarial shapes:
dead code, irreducible loops, writes live across a call return, empty
regions, fallthrough-only blocks), differentially against the checker's
own liveness on the catalogue and a corpus slice, and property-based on
random compiled programs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cfg import Cfg
from repro.analysis.dataflow import (
    RegionMemoryFacts, _EFFECT_FREE, dataflow_limit_cycles, dead_writes,
    reachable_blocks, region_dead_writes, region_dependence_height,
    unreachable_blocks)
from repro.analysis.liveness import Liveness
from repro.analysis.verify import NameLiveness
from repro.bam import compile_source
from repro.benchmarks.suite import (
    compile_benchmark, compile_program, suite_catalogue)
from repro.compaction.machine_model import ideal, vliw
from repro.corpus import corpus_programs
from repro.emulator import Emulator
from repro.intcode import translate_module
from repro.intcode.ici import BRANCH_OPS, Ici
from repro.intcode.program import Program


def prog(instructions, labels=None, entry="$start"):
    labels = dict(labels or {})
    labels.setdefault(entry, 0)
    return Program(list(instructions), labels, None, entry=entry)


# -- reachability and liveness convergence -----------------------------------

def test_unreachable_blocks_after_halt():
    cfg = Cfg(prog([
        Ici("halt"),
        Ici("ldi", rd="r1", imm=1),
        Ici("halt"),
    ]))
    assert unreachable_blocks(cfg) == [(1, 3)]
    assert 0 in reachable_blocks(cfg)


def test_indirect_entries_are_reachable():
    # The block at "fn" has no static in-edge but its address is
    # materialised, so the analyses must treat it as live code.
    cfg = Cfg(prog([
        Ici("ldi", rd="r7", label="fn"),
        Ici("jmpr", ra="r7"),
        Ici("ldi", rd="r1", imm=1),
        Ici("halt"),
    ], labels={"fn": 2}))
    assert 2 in reachable_blocks(cfg)
    assert unreachable_blocks(cfg) == []


def test_liveness_converges_on_irreducible_loop():
    # Two branch entries into a two-block cycle: no reducible-loop
    # assumption holds, the solver must still reach the fixpoint, and
    # a1 (read only at A) must flow round the back edge into B.
    cfg = Cfg(prog([
        Ici("btag", ra="a0", tag=0, label="B"),
        Ici("ldi", rd="r1", imm=1),
        Ici("btag", ra="a1", tag=0, label="B"),  # A: falls into B too
        Ici("ldi", rd="r1", imm=2),
        Ici("btag", ra="a2", tag=0, label="A"),  # B: back edge to A
        Ici("halt"),
    ], labels={"A": 2, "B": 3}))
    liveness = Liveness(cfg)
    assert liveness.live_in[0] == liveness.mask_of(["a0", "a1", "a2"])
    assert liveness.live_in[2] == liveness.mask_of(["a1", "a2"])
    assert liveness.live_in[3] == liveness.mask_of(["a1", "a2"])
    assert liveness.live_in[5] == 0


def test_self_loop_converges():
    cfg = Cfg(prog([
        Ici("add", rd="r1", ra="a0", rb="a0"),
        Ici("btag", ra="a0", tag=0, label="L"),
        Ici("halt"),
    ], labels={"L": 0}))
    liveness = Liveness(cfg)
    assert liveness.live_in[0] == liveness.mask_of(["a0"])
    assert dead_writes(cfg) == [0]


# -- liveness and dead code --------------------------------------------------

def test_live_registers_across_branch():
    cfg = Cfg(prog([
        Ici("btag", ra="a0", tag=0, label="L"),
        Ici("add", rd="r2", ra="r1", rb="a0"),
        Ici("halt"),                              # L
    ], labels={"L": 2}))
    liveness = Liveness(cfg)
    assert liveness.live_in[0] & liveness.mask_of(["r1"])


def test_call_block_keeps_abi_live():
    cfg = Cfg(prog([
        Ici("ldi", rd="a0", imm=1),
        Ici("call", rd="RL", label="fn"),
        Ici("halt"),
        Ici("jmpr", ra="RL"),                     # fn
    ], labels={"fn": 3}))
    liveness = Liveness(cfg)
    assert liveness.live_out[0] & liveness.mask_of(["a0"])
    assert dead_writes(cfg) == []


def test_write_read_after_call_return_is_live():
    # Runtime routines ($unify, $equal) preserve the caller's
    # temporaries, so r5 written before the call and read at its return
    # point is live across the call; r6, never read, is still dead.
    cfg = Cfg(prog([
        Ici("mov", rd="r5", ra="a1"),
        Ici("ldi", rd="r6", imm=1),
        Ici("call", rd="RL", label="fn"),
        Ici("mov", rd="a1", ra="r5"),             # return point
        Ici("st", ra="a1", rb="H", imm=0),
        Ici("halt"),
        Ici("jmpr", ra="RL"),                     # fn
    ], labels={"fn": 6}))
    assert dead_writes(cfg) == [1]


def test_dead_write_detected_and_stores_exempt():
    cfg = Cfg(prog([
        Ici("ldi", rd="r1", imm=1),               # dead: never read
        Ici("st", ra="a0", rb="H", imm=0),        # a store is an effect
        Ici("halt"),
    ]))
    assert dead_writes(cfg) == [0]


def test_dead_writes_skip_unreachable_blocks():
    cfg = Cfg(prog([
        Ici("halt"),
        Ici("ldi", rd="r1", imm=1),               # unreachable, not dead
        Ici("halt"),
    ]))
    assert dead_writes(cfg) == []
    assert unreachable_blocks(cfg) == [(1, 3)]


def test_fallthrough_only_blocks():
    # An ldi-materialised label splits straight-line code into blocks
    # joined only by fallthrough; liveness must flow across the seam.
    cfg = Cfg(prog([
        Ici("ldi", rd="r7", label="M"),
        Ici("ldi", rd="r1", imm=3),
        Ici("add", rd="r2", ra="r1", rb="r7"),    # M
        Ici("st", ra="r2", rb="H", imm=0),
        Ici("halt"),
    ], labels={"M": 2}))
    assert len(cfg.blocks) > 1
    assert dead_writes(cfg) == []


def _checker_dead_writes(program):
    """Dead writes re-derived from the checker's independent
    :class:`~repro.analysis.verify.NameLiveness`, over its own leader
    scan, with the same reachability skip."""
    liveness = NameLiveness(program)
    cfg = Cfg(program)
    reachable = reachable_blocks(cfg)
    instructions = program.instructions
    n = len(instructions)
    leaders = liveness.block_start
    dead = []
    for index, start in enumerate(leaders):
        end = leaders[index + 1] if index + 1 < len(leaders) else n
        if cfg.blocks[cfg.block_of_pc[start]].start not in reachable:
            continue
        terminator = instructions[end - 1]
        op = terminator.op
        target = program.labels.get(terminator.label)
        live = set()
        if op in BRANCH_OPS or op == "jmp":
            if target is not None and target < n:
                live |= liveness.live_in_at(target)
        if op in ("call", "jmpr"):
            live |= liveness.abi
        if op not in ("jmp", "jmpr", "halt") and end < n:
            live |= liveness.live_in_at(end)   # fallthrough or return
        for pc in range(end - 1, start - 1, -1):
            instruction = instructions[pc]
            written = set(instruction.writes())
            if written and instruction.op in _EFFECT_FREE \
                    and not written & live:
                dead.append(pc)
            live -= written
            live.update(instruction.reads())
    return sorted(dead)


@pytest.mark.parametrize("name", sorted(suite_catalogue()))
def test_dead_writes_match_checker_liveness_on_catalogue(name):
    program = compile_benchmark(name)
    assert dead_writes(Cfg(program)) == _checker_dead_writes(program)


def test_dead_writes_match_checker_liveness_on_corpus_slice():
    for generated in corpus_programs(20):
        program = compile_program(generated.source)
        assert dead_writes(Cfg(program)) \
            == _checker_dead_writes(program), generated.name


# -- region memory facts -----------------------------------------------------

def test_bank_distinct_references_independent():
    facts = RegionMemoryFacts([
        Ici("ld", rd="r1", ra="H", imm=0),
        Ici("st", ra="r1", rb="E", imm=0),
    ])
    assert facts.classify(0, 1) == "independent"


def test_same_base_offsets_disambiguated():
    facts = RegionMemoryFacts([
        Ici("st", ra="a0", rb="r9", imm=0),
        Ici("st", ra="a1", rb="r9", imm=1),
        Ici("ld", rd="r2", ra="r9", imm=0),
    ])
    assert facts.classify(0, 1) == "independent"
    assert facts.classify(0, 2) == "must"


def test_redefined_base_is_may_alias():
    facts = RegionMemoryFacts([
        Ici("st", ra="a0", rb="r9", imm=0),
        Ici("add", rd="r9", ra="r9", rb="a0"),
        Ici("ld", rd="r2", ra="r9", imm=0),
    ])
    assert facts.classify(0, 2) == "may"


def test_copy_of_base_shares_its_value():
    facts = RegionMemoryFacts([
        Ici("st", ra="a0", rb="r9", imm=0),
        Ici("mov", rd="r8", ra="r9"),
        Ici("ld", rd="r2", ra="r8", imm=1),
    ])
    assert facts.classify(0, 2) == "independent"


def test_pair_census_skips_load_load():
    facts = RegionMemoryFacts([
        Ici("ld", rd="r1", ra="r9", imm=0),
        Ici("ld", rd="r2", ra="r9", imm=0),
        Ici("st", ra="r1", rb="r9", imm=2),
    ])
    census = facts.pair_census()
    assert sum(census.values()) == 2        # (0,2) and (1,2) only
    assert census["independent"] == 2


# -- region dead writes ------------------------------------------------------

def _mask_for(names):
    bits = {name: 1 << i for i, name in enumerate(sorted(names))}
    return lambda name: bits.get(name, 0), bits


def test_region_dead_write_before_halt():
    reg_mask, bits = _mask_for(["r1", "r2", "a0"])
    ops = [Ici("ldi", rd="r1", imm=1),
           Ici("add", rd="r2", ra="a0", rb="a0"),
           Ici("halt")]
    dead = region_dead_writes(ops, live_out_mask=0, reg_mask=reg_mask)
    assert dead == frozenset({0, 1})


def test_region_dead_writes_need_masks():
    ops = [Ici("ldi", rd="r1", imm=1), Ici("halt")]
    assert region_dead_writes(ops, live_out_mask=None,
                              reg_mask=None) == frozenset()


def test_live_out_keeps_write_alive():
    reg_mask, bits = _mask_for(["r1"])
    ops = [Ici("ldi", rd="r1", imm=1)]
    assert region_dead_writes(ops, live_out_mask=bits["r1"],
                              reg_mask=reg_mask) == frozenset()


def test_unknown_continuation_makes_everything_live():
    reg_mask, bits = _mask_for(["r1"])
    ops = [Ici("ldi", rd="r1", imm=1),
           Ici("jmp", label="out")]
    assert region_dead_writes(ops, live_out_mask=0,
                              reg_mask=reg_mask) == frozenset()


def test_branch_without_off_live_mask_is_conservative():
    reg_mask, bits = _mask_for(["r1", "a0"])
    ops = [Ici("ldi", rd="r1", imm=1),
           Ici("btag", ra="a0", tag=0, label="out"),
           Ici("halt")]
    # No off-live information for the branch: r1 must stay.
    assert region_dead_writes(ops, live_out_mask=0,
                              reg_mask=reg_mask) == frozenset()
    # With an off-live mask that excludes r1, the write is dead.
    dead = region_dead_writes(ops, live_out_mask=0,
                              off_live={1: 0}, reg_mask=reg_mask)
    assert dead == frozenset({0})


# -- static ILP bound --------------------------------------------------------

def test_empty_region_has_zero_height():
    schedule = region_dependence_height([], ideal("t"))
    assert list(schedule.cycles) == []


def test_asap_respects_raw_latency():
    config = vliw(4)
    ops = [Ici("ld", rd="r1", ra="H", imm=0),
           Ici("add", rd="r2", ra="r1", rb="r1"),
           Ici("add", rd="r3", ra="a0", rb="a0")]
    schedule = region_dependence_height(ops, config)
    assert schedule.cycles[1] == schedule.cycles[0] \
        + config.duration("ld")
    assert schedule.cycles[2] == 0   # independent: no resource limits


def test_disambiguated_stores_issue_together():
    config = vliw(4)
    ops = [Ici("st", ra="a0", rb="r9", imm=0),
           Ici("st", ra="a1", rb="r9", imm=1)]
    schedule = region_dependence_height(ops, config)
    assert schedule.cycles[0] == schedule.cycles[1] == 0


def test_dataflow_limit_bounds_benchmark():
    from repro.benchmarks.suite import compile_benchmark, run_program
    from repro.evaluation.pipeline import machine_cycles, \
        superblock_regions
    program = compile_benchmark("conc30")
    result = run_program(program)
    region_set = superblock_regions(program, result, 48)
    limit = dataflow_limit_cycles(region_set, ideal("dataflow"))
    achieved = machine_cycles(region_set, ideal("ideal_tr"))
    assert 0 < limit <= achieved


# -- property-based: random compiled programs --------------------------------

LIBRARY = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
rev([], A, A).
rev([H|T], A, R) :- rev(T, [H|A], R).
"""


def _plist(items):
    return "[%s]" % ",".join(str(i) for i in items)


@st.composite
def sources(draw):
    xs = draw(st.lists(st.integers(-5, 5), max_size=5))
    ys = draw(st.lists(st.integers(-5, 5), max_size=4))
    body = draw(st.sampled_from([
        "app({xs}, {ys}, R), write(R)",
        "rev({xs}, [], R), write(R)",
        "app(A, B, {xs}), write(A), write(B), nl, fail",
    ])).format(xs=_plist(xs), ys=_plist(ys))
    return (LIBRARY
            + "main :- %s, nl.\n" % body
            + "main :- write(none), nl.\n")


@settings(max_examples=25, deadline=None)
@given(sources())
def test_passes_converge_and_agree_on_compiled_programs(source):
    program = translate_module(compile_source(source))
    cfg = Cfg(program)
    reachable = reachable_blocks(cfg)
    unreachable = {start for start, _end in unreachable_blocks(cfg)}

    # Reachability partitions the blocks and covers every entry.
    assert reachable | unreachable == {block.start for block in cfg.blocks}
    assert not reachable & unreachable
    assert {pc for pc in cfg.indirect_entries if pc in cfg.block_at} \
        <= reachable
    # Dead writes are effect-free, reachable, and agree with the
    # checker's liveness.
    instructions = program.instructions
    dead = dead_writes(cfg)
    for pc in dead:
        assert cfg.blocks[cfg.block_of_pc[pc]].start in reachable
        assert instructions[pc].op not in ("st", "esc")
    assert dead == _checker_dead_writes(program)


@settings(max_examples=15, deadline=None)
@given(sources())
def test_region_facts_are_consistent_on_compiled_regions(source):
    program = translate_module(compile_source(source))
    result = Emulator(program, max_steps=2_000_000).run()
    cfg = Cfg(program)
    config = ideal("prop")
    for block in cfg.blocks:
        if result.counts[block.start] == 0:
            continue
        ops = program.instructions[block.start:block.end]
        facts = RegionMemoryFacts(ops)
        positions = sorted(facts._base)
        for a in range(len(positions)):
            for b in range(a + 1, len(positions)):
                i, j = positions[a], positions[b]
                kind = facts.classify(i, j)
                assert kind in ("must", "independent", "may")
                assert facts.classify(j, i) == kind
        schedule = region_dependence_height(ops, config)
        # ASAP is a lower bound on any legal schedule of the region.
        baseline = region_dependence_height(ops, config,
                                            facts=facts)
        assert max(schedule.cycles, default=0) \
            == max(baseline.cycles, default=0)
