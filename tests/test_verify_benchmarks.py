"""The independent checker over the paper's benchmark suite: every table
benchmark must lint clean (after translation and after the optimiser) and
the whole evaluation pipeline — transform, schedules, register bindings —
must verify clean under the master machine configurations."""

import pytest

from repro.analysis import format_diagnostics, lint_program
from repro.benchmarks import TABLE_BENCHMARKS
from repro.benchmarks.suite import compile_benchmark, run_program_cached
from repro.evaluation.pipeline import (
    verify_evaluation, superblock_regions, machine_cycles)
from repro.intcode import optimize_program

from tests.conftest import assert_lint_clean


@pytest.mark.parametrize("name", TABLE_BENCHMARKS)
def test_benchmark_lints_clean(name):
    program = compile_benchmark(name)
    assert_lint_clean(program)
    optimized, _ = optimize_program(program)
    assert_lint_clean(optimized, stage="optimize")


@pytest.mark.parametrize("name", TABLE_BENCHMARKS)
def test_benchmark_pipeline_verifies(name, verifier_configs):
    program = compile_benchmark(name)
    result = run_program_cached(program, name + "-")
    diagnostics = verify_evaluation(program, result, verifier_configs,
                                    cache_hint=name + "-")
    assert diagnostics == [], format_diagnostics(diagnostics)


def test_machine_cycles_verify_matches_unverified(verifier_configs):
    name = "nreverse"
    program = compile_benchmark(name)
    result = run_program_cached(program, name + "-")
    region_set = superblock_regions(program, result,
                                    cache_hint=name + "-")
    config, _ = verifier_configs["vliw3"]
    found = []
    assert machine_cycles(region_set, config, diagnostics=found) \
        == machine_cycles(region_set, config)
    assert found == []


def test_corrupted_schedule_is_a_finding_not_an_exception(
        monkeypatch, verifier_configs):
    from repro.compaction.scheduler import Schedule
    from repro.evaluation import pipeline

    def collapsed(instructions, config, *args, **kwargs):
        # every operation issued in cycle 0, consumers with producers
        return Schedule(instructions, [0] * len(instructions), config)

    monkeypatch.setattr(pipeline, "schedule_region", collapsed)
    name = "conc30"
    program = compile_benchmark(name)
    result = run_program_cached(program, name + "-")
    diagnostics = verify_evaluation(
        program, result, {"vliw3": verifier_configs["vliw3"]},
        cache_hint=name + "-")
    assert "raw-latency" in {diag.rule for diag in diagnostics
                             if diag.stage == "schedule"}


def test_transformed_benchmarks_lint_clean(verifier_configs):
    for name in ("qsort", "tak", "conc30"):
        program = compile_benchmark(name)
        result = run_program_cached(program, name + "-")
        region_set = superblock_regions(program, result,
                                        cache_hint=name + "-")
        assert lint_program(region_set.program) == []
