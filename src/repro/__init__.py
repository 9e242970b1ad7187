"""SYMBOL: instruction-level parallelism in Prolog.

A from-scratch reproduction of De Gloria & Faraboschi, *Instruction-level
Parallelism in Prolog: Analysis and Architectural Support* (ISCA 1992):
a BAM-style Prolog compiler, an intermediate-code emulator, a trace-
scheduling / superblock VLIW back-end, machine models including the
SYMBOL-3 VLSI prototype, and the full evaluation suite.

Typical use::

    import repro

    program = repro.compile_prolog('''
        app([], L, L).
        app([H|T], L, [H|R]) :- app(T, L, R).
        main :- app([1,2], [3], X), write(X), nl.
    ''')
    result = repro.emulate(program)
    assert result.succeeded and result.output == "[1,2,3]\\n"

    speedup = repro.measure_speedup(program, repro.vliw(3))

The experiment harness lives in :mod:`repro.experiments` (one module per
paper table/figure) and the benchmark suite in :mod:`repro.benchmarks`.
"""

from repro.bam import compile_source, compile_database, CompileError, \
    CompilerOptions
from repro.intcode import translate_module, optimize_program
from repro.emulator import run_program, Emulator, EmulationResult, \
    DebugMachine
from repro.interp import Engine, Database
from repro.compaction import (
    MachineConfig, sequential, bam_like, vliw, ideal, symbol3,
    symbol3_sequential)
from repro.evaluation import (
    basic_block_regions, superblock_regions, machine_cycles,
    EvaluationEngine, EvaluationError)

__version__ = "1.0.0"


def compile_prolog(source, entry=("main", 0), optimize=False):
    """Compile Prolog source text to an executable ICI program.

    ``optimize=True`` runs the block-local clean-up passes (copy
    propagation, constant reuse, dead-move elimination).  The paper's
    evaluation numbers are measured on unoptimised code, so that is the
    default.
    """
    program = translate_module(compile_source(source, entry))
    if optimize:
        program, _ = optimize_program(program)
    return program


def emulate(program, max_steps=500_000_000):
    """Run an ICI program on the sequential emulator."""
    return run_program(program, max_steps=max_steps)


def measure_speedup(program, config, baseline=None, regioning="trace",
                    tail_dup_budget=48):
    """Speedup of *config* over the sequential baseline for *program*.

    Profiles the program, forms regions (``"trace"`` superblocks or
    ``"bb"`` basic blocks), schedules, and replays the profile through
    both schedules.
    """
    baseline = baseline if baseline is not None else sequential()
    result = emulate(program)
    base_regions = basic_block_regions(program, result)
    if regioning == "trace":
        target_regions = superblock_regions(program, result,
                                            tail_dup_budget)
    else:
        target_regions = base_regions
    base_cycles = machine_cycles(base_regions, baseline)
    target_cycles = machine_cycles(target_regions, config)
    return base_cycles / target_cycles


__all__ = [
    "compile_prolog",
    "emulate",
    "measure_speedup",
    "compile_source",
    "compile_database",
    "CompileError",
    "CompilerOptions",
    "DebugMachine",
    "translate_module",
    "optimize_program",
    "run_program",
    "Emulator",
    "EmulationResult",
    "Engine",
    "Database",
    "MachineConfig",
    "sequential",
    "bam_like",
    "vliw",
    "ideal",
    "symbol3",
    "symbol3_sequential",
    "basic_block_regions",
    "superblock_regions",
    "machine_cycles",
    "EvaluationEngine",
    "EvaluationError",
    "__version__",
]
