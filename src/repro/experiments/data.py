"""Shared evaluation data for all experiments.

Every table pulls from one master configuration set so each benchmark is
compiled, transformed and scheduled exactly once per configuration.  All
work is submitted through the shared
:class:`~repro.evaluation.parallel.EvaluationEngine` — experiments ask
for *batches* (:func:`get_evaluations`, :func:`get_profiles`) so the
engine can fan the independent benchmark x configuration cells out
across worker processes, with every artefact memoised in the
content-addressed cache.
"""

from repro.compaction import (
    sequential, bam_like, vliw, ideal, symbol3, symbol3_sequential)
from repro.evaluation.parallel import shared_engine
from repro.benchmarks import PROGRAMS, TABLE_BENCHMARKS, run_benchmark, \
    compile_benchmark


def master_configs():
    """Result key -> (MachineConfig, regioning) for the whole evaluation."""
    configs = {
        "seq": (sequential(), "bb"),
        "bam": (bam_like(), "bb"),
        "bb_ideal": (ideal("ideal_bb"), "bb"),
        "tr_ideal": (ideal("ideal_tr"), "trace"),
        "symbol3": (symbol3(), "trace"),
        "symbol_seq": (symbol3_sequential(), "bb"),
    }
    for n_units in range(1, 6):
        configs["vliw%d" % n_units] = (vliw(n_units), "trace")
    return configs


_evaluations = {}


def get_evaluations(names):
    """Evaluate *names* under the master configuration set, as a batch.

    Missing benchmarks are submitted to the shared engine in one task
    DAG — with ``--jobs N`` every cell runs in parallel — and memoised
    for the rest of the process.  Returns ``{name: evaluation}``.
    """
    missing = [name for name in names if name not in _evaluations]
    if missing:
        configs = master_configs()
        evaluations = shared_engine().evaluate_many(
            [{"name": name, "configs": configs} for name in missing])
        for name, evaluation in zip(missing, evaluations):
            _evaluations[name] = evaluation
    return {name: _evaluations[name] for name in names}


def get_evaluation(name):
    """Evaluate benchmark *name* under the master configuration set."""
    return get_evaluations([name])[name]


def profile_backends():
    """benchmark -> emulator loop that produced its profile artefact.

    Covers the benchmarks evaluated so far in this process; a cached
    profile reports the loop that originally computed it.
    """
    return {name: evaluation.data.get("backend", "reference")
            for name, evaluation in sorted(_evaluations.items())
            if evaluation is not None}


def get_profile(name):
    """(program, emulation result) for benchmark *name*."""
    return compile_benchmark(name), run_benchmark(name)


def get_profiles(names):
    """Profiles for *names*, emulating cold ones in parallel."""
    shared_engine().prewarm_profiles(names)
    return {name: get_profile(name) for name in names}


def table_benchmarks():
    """The benchmarks of the paper's Tables 1/3/4/5."""
    return list(TABLE_BENCHMARKS)


def all_benchmarks():
    return list(PROGRAMS)
