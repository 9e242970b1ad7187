"""End-to-end evaluation pipeline: regions, cycles, speedups."""

import pytest

import repro
from repro.bam import compile_source
from repro.intcode import translate_module
from repro.emulator import run_program
from repro.evaluation.pipeline import (
    basic_block_regions, superblock_regions, machine_cycles)
from repro.compaction import sequential, bam_like, vliw, ideal, symbol3

SOURCE = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
main :- nrev([1,2,3,4,5,6,7,8], R), write(R), nl.
"""


@pytest.fixture(scope="module")
def pipeline():
    program = translate_module(compile_source(SOURCE))
    result = run_program(program)
    return program, result


def test_sequential_cycles_at_least_op_count(pipeline):
    program, result = pipeline
    regions = basic_block_regions(program, result)
    cycles = machine_cycles(regions, sequential())
    assert cycles >= result.steps


def test_parallel_machines_are_faster(pipeline):
    program, result = pipeline
    bb = basic_block_regions(program, result)
    tr = superblock_regions(program, result)
    seq = machine_cycles(bb, sequential())
    bam = machine_cycles(bb, bam_like())
    v3 = machine_cycles(tr, vliw(3))
    assert seq > bam > v3


def test_trace_beats_basic_blocks_on_same_machine(pipeline):
    program, result = pipeline
    bb = basic_block_regions(program, result)
    tr = superblock_regions(program, result)
    config = ideal()
    assert machine_cycles(tr, config) < machine_cycles(bb, config)


def test_unit_scaling_monotone(pipeline):
    program, result = pipeline
    tr = superblock_regions(program, result)
    cycles = [machine_cycles(tr, vliw(n)) for n in (1, 2, 3, 4, 5)]
    assert all(a >= b for a, b in zip(cycles, cycles[1:]))


def test_amdahl_bound_respected(pipeline):
    """No configuration may beat the single-memory-port bound."""
    program, result = pipeline
    from repro.intcode.ici import OP_CLASS, MEM
    mem_ops = sum(count for pc, count in enumerate(result.counts)
                  if count and OP_CLASS[program.instructions[pc].op] == MEM)
    tr = superblock_regions(program, result)
    assert machine_cycles(tr, ideal()) >= mem_ops


def test_prototype_slower_than_ideal_model(pipeline):
    program, result = pipeline
    tr = superblock_regions(program, result)
    assert machine_cycles(tr, symbol3()) >= machine_cycles(tr, vliw(3))


def test_superblock_transform_checked_against_original(pipeline):
    program, result = pipeline
    region_set = superblock_regions(program, result)
    assert region_set.counts[region_set.regions[0].start] >= 0
    entries = sum(region_set.counts[r.start] for r in region_set.regions)
    assert entries > 0


def test_measure_speedup_api():
    program = repro.compile_prolog(SOURCE)
    speedup = repro.measure_speedup(program, repro.vliw(3))
    assert 1.2 < speedup < 4.0
    bb_speedup = repro.measure_speedup(program, repro.ideal(),
                                       regioning="bb")
    assert 1.0 < bb_speedup < speedup + 1.5


def test_compile_and_emulate_api():
    program = repro.compile_prolog("main :- X = 1, write(X), nl.")
    result = repro.emulate(program)
    assert result.succeeded
    assert result.output == "1\n"


def test_analysis_prune_never_slows_and_verifies(pipeline):
    # The dataflow oracle only removes false dependences, so with the
    # hook on every machine is at least as fast — and every pruned edge
    # must survive the independent checker's re-proof (machine_cycles
    # reports a claim it cannot re-establish).
    program, result = pipeline
    tr = superblock_regions(program, result)
    for make in (lambda: vliw(3), lambda: ideal()):
        base_config = make()
        pruned_config = make()
        pruned_config.analysis_prune = True
        base = machine_cycles(tr, base_config)
        found = []
        pruned = machine_cycles(tr, pruned_config, diagnostics=found)
        assert found == []
        assert pruned <= base


def test_analysis_prune_off_is_byte_identical(pipeline):
    # Default configs never consult the oracle: same cycles as always.
    program, result = pipeline
    tr = superblock_regions(program, result)
    config = vliw(3)
    assert config.analysis_prune is False
    assert machine_cycles(tr, config) == machine_cycles(tr, vliw(3))
