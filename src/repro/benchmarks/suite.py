"""Benchmark suite driver: compile, emulate, validate, cache.

:func:`compile_program` compiles each distinct source once per
process (a bounded, least-recently-used memo), and every caller shares
the resulting ``Program``.

Emulating the larger benchmarks costs seconds of host CPU, and the
evaluation pipeline needs each dynamic profile several times (instruction
mix, branch statistics, compaction input).  ``run_benchmark`` therefore
memoises :class:`~repro.emulator.machine.EmulationResult` data as
``emulation`` entries of the artefact store, keyed by a hash of the
compiled program, so a profile is computed once per compiled program
ever.
"""

import hashlib
import os
from collections import OrderedDict

from repro.benchmarks.programs import PROGRAMS, TABLE_BENCHMARKS
from repro.bam import CompilerOptions, compile_source
from repro.intcode import translate_module
from repro.emulator import EmulationResult, run_program
from repro.interp import Engine
from repro.observability import tracing as observe

_CACHE_ENV = "REPRO_CACHE_DIR"


def cache_dir():
    path = os.environ.get(_CACHE_ENV)
    if path is None:
        path = os.path.join(os.path.expanduser("~"), ".cache",
                            "repro-symbol")
    os.makedirs(path, exist_ok=True)
    return path


def program_fingerprint(program):
    """Stable hash of a compiled ICI program: instructions, labels and
    the symbol table (``write(foo)`` and ``write(bar)`` compile to the
    same instructions; only the atom names differ).

    Computed once per ``Program`` and kept in its ``_fingerprint``
    slot: programs are never altered once built.
    """
    fingerprint = getattr(program, "_fingerprint", None)
    if fingerprint is None:
        fingerprint = program._fingerprint = _digest(program)
    return fingerprint


def _digest(program):
    digest = hashlib.sha256()
    for instruction in program.instructions:
        digest.update(repr(instruction).encode())
    for name in sorted(program.labels):
        digest.update(("%s=%d" % (name, program.labels[name])).encode())
    symbols = program.symbols
    for index in range(symbols.atom_count):
        digest.update(("atom %r" % symbols.atom_name(index)).encode())
    for index in range(symbols.functor_count):
        digest.update(("functor %r" % (symbols.functor_key(index),))
                      .encode())
    return digest.hexdigest()[:24]


def suite_catalogue():
    """Every registered program: the paper suite, the extended set and
    the DCG application workloads.

    Built lazily — the corpus package imports the suite for its cache
    and fingerprints, so importing it at module scope would be a cycle.
    """
    from repro.benchmarks.extended import EXTENDED_PROGRAMS
    from repro.corpus.workloads import DCG_PROGRAMS
    catalogue = dict(PROGRAMS)
    catalogue.update(EXTENDED_PROGRAMS)
    catalogue.update(DCG_PROGRAMS)
    return catalogue


def resolve_program(name):
    """Look up *name* across the whole catalogue (paper suite first)."""
    if name in PROGRAMS:
        return PROGRAMS[name]
    catalogue = suite_catalogue()
    if name not in catalogue:
        raise KeyError("unknown benchmark %r; available: %s"
                       % (name, ", ".join(sorted(catalogue))))
    return catalogue[name]


#: programs the front-end memo keeps: the whole catalogue (25) plus
#: the Warren-style variants ``wam_baseline`` compiles, with room over
#: for a few ad hoc sources
FRONT_END_LIMIT = 64

#: (source text, entry, indexing, lco) -> Program, least recently used
#: first.  ``CompilerOptions`` has no value equality, so the key spells
#: out its fields.
_front_end = OrderedDict()


def compile_program(source, entry=("main", 0), options=None):
    """Compile Prolog *source* to an ICI program, once per process
    while it stays among the :data:`FRONT_END_LIMIT` most recently
    used.

    The result is shared by every caller: treat it as immutable
    (``optimize_program`` builds a new one).
    """
    options = options or CompilerOptions()
    key = (source, tuple(entry), options.indexing, options.lco)
    program = _front_end.get(key)
    if program is not None:
        _front_end.move_to_end(key)
        return program
    with observe.span("pipeline.translate") as sp:
        program = translate_module(
            compile_source(source, entry, options=options))
        sp.set(instructions=len(program.instructions))
    _front_end[key] = program
    if len(_front_end) > FRONT_END_LIMIT:
        _front_end.popitem(last=False)
    return program


def clear_front_end_memo():
    """Forget every compiled program, so the next compile is fresh."""
    _front_end.clear()


def compile_benchmark(name):
    """Compile benchmark *name* to an ICI program (memoised)."""
    return compile_program(resolve_program(name).source)


def run_program_cached(program, key_hint="", expected_steps=None):
    """Emulate *program*, memoised as an ``emulation`` entry of the
    :func:`~repro.evaluation.cache.current_store` keyed on its
    fingerprint.  *key_hint* only labels the span of a miss, and
    *expected_steps* only reaches :func:`run_program`'s choice of loop:
    neither is part of the key.  The payload records the loop that
    produced it (short runs are answered on the reference loop, long
    ones compiled).
    """
    from repro.evaluation.cache import current_store
    from repro.evaluation.parallel import artefact_key
    store = current_store()
    key = artefact_key(store, "emulation",
                       {"fingerprint": program_fingerprint(program)})
    data = store.get(key)
    if data is not None:
        return EmulationResult(program, data["status"], data["steps"],
                               data["output"], data["counts"],
                               data["taken"], backend=data["backend"])
    with observe.span("pipeline.profile", hint=key_hint) as sp:
        result = run_program(program, expected_steps=expected_steps)
        sp.set(steps=result.steps, status=result.status)
    store.put(key, {"status": result.status, "steps": result.steps,
                    "output": result.output, "counts": result.counts,
                    "taken": result.taken, "backend": result.backend})
    return result


def run_benchmark(name):
    """Compile and emulate benchmark *name* (cached)."""
    return run_program_cached(compile_benchmark(name), name + "-")


def interpret_benchmark(name):
    """Run benchmark *name* on the reference interpreter.

    Returns ``(succeeded, output_text)``.
    """
    engine = Engine()
    engine.consult(resolve_program(name).source)
    return engine.run_query("main"), engine.output_text()


def validate_benchmark(name):
    """Check compiled execution against the reference interpreter."""
    result = run_benchmark(name)
    ok, text = interpret_benchmark(name)
    return (result.succeeded == ok) and (result.output == text)


__all__ = [
    "PROGRAMS",
    "TABLE_BENCHMARKS",
    "suite_catalogue",
    "resolve_program",
    "compile_program",
    "clear_front_end_memo",
    "compile_benchmark",
    "run_benchmark",
    "run_program_cached",
    "interpret_benchmark",
    "validate_benchmark",
    "program_fingerprint",
    "cache_dir",
]
