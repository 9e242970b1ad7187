"""The front-end memo: each program is compiled once per process, the
shared ``Program`` is never altered, and the pool worker still compiles
for itself so its fingerprint check compares two independent compiles.
"""

import sys

import pytest

from repro.bam import CompilerOptions, compile_source
from repro.benchmarks import suite
from repro.benchmarks.programs import PROGRAMS, BenchmarkProgram
from repro.benchmarks.suite import (
    compile_benchmark, compile_program, program_fingerprint)
from repro.compaction import sequential, vliw
from repro.evaluation import parallel
from repro.evaluation.cache import CacheStore
from repro.evaluation.parallel import EvaluationEngine, EvaluationError
from repro.evaluation.supervisor import SupervisorPolicy
from repro.experiments import data
from repro.intcode import optimize_program, translate
from repro.testing import faults
from tests.conftest import fresh_memos

SOURCE = "p(1). p(2). main :- p(X), write(X), nl."


def spy_translate(monkeypatch):
    """Count every ``translate_module`` call, wherever ``repro`` bound
    the function; returns the list the calls are appended to."""
    calls = []
    original = translate.translate_module

    def spy(module):
        calls.append(module)
        return original(module)

    for name, loaded in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                monkeypatch.setattr(loaded, key, spy)
    return calls


def same_program(left, right):
    return ([repr(ins) for ins in left.instructions]
            == [repr(ins) for ins in right.instructions]
            and left.labels == right.labels and left.entry == right.entry
            and suite._digest(left) == suite._digest(right))


# --------------------------------------------------------------------------
# The memo key.

def test_one_compile_per_source_entry_and_options(monkeypatch):
    fresh_memos(monkeypatch)
    calls = spy_translate(monkeypatch)
    program = compile_program(SOURCE)
    assert compile_program(SOURCE) is program
    # CompilerOptions has no value equality: equal fields share a key
    assert compile_program(SOURCE, options=CompilerOptions()) is program
    assert len(calls) == 1
    warren = CompilerOptions(indexing=False, lco=False)
    assert compile_program(SOURCE, options=warren) is not program
    assert compile_program(SOURCE, ("p", 1)) is not program
    assert compile_program(SOURCE + " ") is not program
    assert len(calls) == 4


def test_memo_keeps_the_most_recently_used_up_to_its_bound(monkeypatch):
    fresh_memos(monkeypatch)
    calls = spy_translate(monkeypatch)
    sources = ["p(%d). main :- p(X), write(X), nl." % index
               for index in range(suite.FRONT_END_LIMIT + 3)]
    first = compile_program(sources[0])
    for source in sources[1:]:
        compile_program(sources[0])     # keep the first one in use
        compile_program(source)
    assert len(suite._front_end) == suite.FRONT_END_LIMIT
    assert len(calls) == len(sources)
    assert compile_program(sources[0]) is first
    compile_program(sources[1])         # evicted: compiled again
    assert len(calls) == len(sources) + 1
    assert len(suite._front_end) == suite.FRONT_END_LIMIT


def test_swapped_source_under_one_name_compiles_afresh(monkeypatch):
    fresh_memos(monkeypatch)
    calls = spy_translate(monkeypatch)
    before = compile_benchmark("conc30")
    original = PROGRAMS["conc30"]
    monkeypatch.setitem(
        PROGRAMS, "conc30",
        BenchmarkProgram(original.name, original.description,
                         original.source + "\nunused_probe(probe).\n",
                         in_table1=original.in_table1))
    after = compile_benchmark("conc30")
    assert len(calls) == 2
    assert program_fingerprint(after) != program_fingerprint(before)


def test_fingerprint_is_kept_on_the_program(monkeypatch):
    fresh_memos(monkeypatch)
    program = compile_program(SOURCE)
    assert program._fingerprint is None
    fingerprint = program_fingerprint(program)
    assert program._fingerprint == fingerprint
    monkeypatch.setattr(suite, "_digest", lambda program: "recomputed")
    assert program_fingerprint(program) == fingerprint


def test_optimizing_leaves_the_shared_program_alone(monkeypatch):
    fresh_memos(monkeypatch)
    program = compile_benchmark("nreverse")
    fingerprint = program_fingerprint(program)
    optimized, _ = optimize_program(program)
    assert optimized is not program
    assert compile_benchmark("nreverse") is program
    assert suite._digest(program) == fingerprint


# --------------------------------------------------------------------------
# The worker's compile check.

def _expect_fingerprint(monkeypatch):
    """conc30's true fingerprint; afterwards every compile appends one
    instruction, as a non-deterministic compiler might."""
    expected = program_fingerprint(compile_benchmark("conc30"))
    real = suite.translate_module

    def perturbed(module):
        program = real(module)
        program.instructions.append(program.instructions[-1])
        return program

    monkeypatch.setattr(suite, "translate_module", perturbed)
    return expected


def test_worker_check_fires_on_a_different_compile(monkeypatch):
    fresh_memos(monkeypatch)
    expected = _expect_fingerprint(monkeypatch)
    suite.clear_front_end_memo()
    with pytest.raises(RuntimeError, match="non-deterministic"):
        parallel._worker_program("conc30", expected)


def test_worker_init_empties_the_inherited_memo(monkeypatch):
    fresh_memos(monkeypatch)
    monkeypatch.setattr(faults, "_worker", False)
    compile_benchmark("conc30")
    parallel._worker_init()
    assert faults.in_worker()
    assert suite._front_end == {}


def test_pooled_worker_compiles_for_itself(monkeypatch, tmp_path):
    """The coordinator holds the true program; the forked workers
    inherit the perturbed compiler but not the memo, so their check
    fails the profile node."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    fresh_memos(monkeypatch)
    _expect_fingerprint(monkeypatch)
    policy = SupervisorPolicy(max_attempts=1, deadline=60.0,
                              backoff_base=0.01, backoff_cap=0.05,
                              seed=1992, poll=0.02)
    with EvaluationEngine(jobs=2, store=CacheStore(),
                          policy=policy) as engine:
        with pytest.raises(EvaluationError,
                           match="non-deterministic compilation"):
            engine.evaluate_many([
                {"name": "conc30",
                 "configs": {"seq": (sequential(), "bb"),
                             "vliw3": (vliw(3), "trace")}}])


# --------------------------------------------------------------------------
# A warm paper-suite run.

@pytest.fixture(scope="module")
def warm_run_all(tmp_path_factory):
    """A cold then a warm ``run_all(jobs=1)`` in a private cache: their
    texts, the memo after each, and the warm run's translate calls."""
    from repro import experiments
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("cache")))
        patch.setattr(parallel, "_shared", None)
        patch.setattr(data, "_evaluations", {})
        fresh_memos(patch)
        cold = experiments.run_all(jobs=1)
        cold_memo = dict(suite._front_end)
        patch.setattr(data, "_evaluations", {})
        fresh_memos(patch)
        calls = spy_translate(patch)
        warm = experiments.run_all(jobs=1)
        parallel.shared_engine().close()
        yield {"cold": cold, "warm": warm, "calls": len(calls),
               "cold_memo": cold_memo, "memo": dict(suite._front_end)}


def test_warm_run_all_compiles_each_program_once(warm_run_all):
    memo = warm_run_all["memo"]
    sources = {key[0] for key in memo}
    assert len(sources) >= len(data.table_benchmarks())
    assert len(memo) <= suite.FRONT_END_LIMIT
    assert warm_run_all["calls"] == len(memo)
    assert warm_run_all["warm"] == warm_run_all["cold"]


@pytest.mark.parametrize("memo", ["cold_memo", "memo"])
def test_shared_programs_are_never_altered(warm_run_all, memo):
    """Every shared program still matches its fingerprint and a fresh
    compile of its source, after the runs that emulated and scheduled
    it."""
    for (source, entry, indexing, lco), program in \
            warm_run_all[memo].items():
        assert program._fingerprint == suite._digest(program)
        fresh = translate.translate_module(compile_source(
            source, entry,
            options=CompilerOptions(indexing=indexing, lco=lco)))
        assert same_program(program, fresh)
