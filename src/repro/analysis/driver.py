"""The ``repro analyze`` driver: run every dataflow pass over a
benchmark and price the static ILP bound against the achieved schedule.

One :func:`analyze_benchmark` call produces the per-benchmark record of
the analyze document (see :mod:`repro.analysis.report`): pass
statistics, analyze-stage diagnostics (unreachable blocks, dead
writes), the memory-disambiguation census over the executed trace
regions, and the ILP triple

* ``sequential_cycles`` — the Table 1 reference machine,
* ``achieved_cycles`` — trace scheduling on the ideal machine
  (``tr_ideal``, the paper's concurrency limit),
* ``dataflow_limit_cycles`` — the ASAP dependence-height replay of
  :func:`repro.analysis.dataflow.dataflow_limit_cycles`,

so the gap between achieved and dataflow-limit speedup quantifies what
the memory port, the branch-order rule and scheduling heuristics cost
(ROADMAP item 4).  The cycle cells are memoised through the same
content-addressed store the evaluation engine uses — a warm ``repro
evaluate`` run makes ``repro analyze`` nearly free.

Every pass runs under an observability span (``analyze.<pass>``) and
:func:`analyze_bench_document` turns the measured wall-clock of the
whole sweep into the ``BENCH_analyze.json`` perf record tracked next to
``BENCH_emulator.json``.
"""

import time

from repro.analysis import dataflow
from repro.analysis.cfg import Cfg
from repro.analysis.lint import Diagnostic, _abi_registers
from repro.benchmarks.suite import (
    compile_benchmark, program_fingerprint, run_program_cached)
from repro.compaction.machine_model import ideal, sequential
from repro.observability import tracing as observe
from repro.records import check_header, header, require

__all__ = [
    "ANALYZE_BENCH_SCHEMA",
    "analyze_benchmark",
    "analyze_bench_document",
    "ilp_bound",
    "validate_analyze_bench",
]

#: tail-duplication budget of the trace regions (the evaluation default)
DEFAULT_BUDGET = 48


def _pass_span(name, benchmark):
    return observe.span("analyze.%s" % name, benchmark=benchmark)


def _cycles_cell(fingerprint, regioning, budget, config, region_set):
    """One machine's cycle count, memoised compatibly with the
    evaluation engine's ``cell`` artefacts (same key components)."""
    from repro.evaluation.parallel import config_signature, memoised
    from repro.evaluation.pipeline import machine_cycles

    def compute():
        return {"cycles": machine_cycles(region_set, config)}

    payload = memoised(
        "cell",
        {"fingerprint": fingerprint, "regioning": regioning,
         "budget": budget, "config": config_signature(config)},
        compute)
    return payload["cycles"]


def _limit_cell(fingerprint, budget, config, region_set):
    """The dataflow-limit cycle count (its own artefact kind)."""
    from repro.evaluation.parallel import config_signature, memoised

    def compute():
        return {"cycles": dataflow.dataflow_limit_cycles(region_set,
                                                         config)}

    payload = memoised(
        "static_ilp",
        {"fingerprint": fingerprint, "regioning": "trace",
         "budget": budget, "config": config_signature(config)},
        compute)
    return payload["cycles"]


def ilp_bound(fingerprint, budget, bb_set, trace_set):
    """The static ILP triple of one program and the speedups it implies.

    *bb_set* and *trace_set* are the program's basic-block and trace
    region sets; the three cycle counts are memoised cells.
    """
    seq_cycles = _cycles_cell(fingerprint, "bb", None, sequential(),
                              bb_set)
    achieved_cycles = _cycles_cell(fingerprint, "trace", budget,
                                   ideal("ideal_tr"), trace_set)
    limit_cycles = _limit_cell(fingerprint, budget, ideal("dataflow"),
                               trace_set)
    achieved = seq_cycles / achieved_cycles
    bound = seq_cycles / limit_cycles
    return {
        "sequential_cycles": seq_cycles,
        "achieved_cycles": achieved_cycles,
        "dataflow_limit_cycles": limit_cycles,
        "achieved_speedup": achieved,
        "dataflow_limit_speedup": bound,
        # headroom factor: how much faster the pure dataflow limit is
        # than what trace scheduling + BUG achieved
        "gap": bound / achieved,
    }


def analyze_benchmark(name, budget=DEFAULT_BUDGET):
    """Analyze one suite benchmark; returns the per-target record of
    the analyze document (see :func:`repro.analysis.report
    .validate_analysis`)."""
    from repro.evaluation.pipeline import (
        basic_block_regions, superblock_regions)

    with observe.span("analyze.benchmark", benchmark=name):
        program = compile_benchmark(name)
        fingerprint = program_fingerprint(program)
        result = run_program_cached(program, name + "-")
        cfg = Cfg(program)
        abi = _abi_registers()
        passes = {}
        diagnostics = []

        with _pass_span("reaching_definitions", name):
            analysis = dataflow.ReachingDefinitions(cfg, abi)
            solution = dataflow.solve(cfg, analysis)
            passes["reaching_definitions"] = {
                "blocks": len(solution.in_of),
                "sites": len(analysis.site_of),
                "visits": solution.visits,
            }

        with _pass_span("copy_constants", name):
            solution = dataflow.solve(cfg, dataflow.CopyConstants(cfg))
            constants = copies = 0
            for value in solution.in_of.values():
                for fact in value.values():
                    if fact[0] == "const":
                        constants += 1
                    elif fact[0] == "copy":
                        copies += 1
            passes["copy_constants"] = {
                "entry_constants": constants, "entry_copies": copies,
            }

        with _pass_span("available_expressions", name):
            analysis = dataflow.AvailableExpressions(cfg)
            solution = dataflow.solve(cfg, analysis)
            available = sum(len(value)
                            for value in solution.in_of.values())
            passes["available_expressions"] = {
                "universe": len(analysis.universe),
                "entry_available": available,
            }

        with _pass_span("live_registers", name):
            liveness = dataflow.solve(
                cfg, dataflow.LiveRegisters(cfg, abi))
            passes["live_registers"] = {
                "max_live_in": max(
                    (len(value) for value in liveness.in_of.values()),
                    default=0),
            }

        with _pass_span("unreachable", name):
            unreachable = dataflow.unreachable_blocks(cfg)
            passes["unreachable"] = {"blocks": len(unreachable)}
            observe.add("analyze.unreachable_blocks", len(unreachable))
            for start, end in unreachable:
                diagnostics.append(Diagnostic(
                    "analyze", "unreachable-block",
                    "block [%d,%d) is unreachable from every entry"
                    % (start, end), region=(start, end)))

        with _pass_span("dead_code", name):
            dead = dataflow.dead_writes(cfg, liveness, abi)
            passes["dead_code"] = {"writes": len(dead)}
            observe.add("analyze.dead_writes", len(dead))
            for pc in dead:
                diagnostics.append(Diagnostic(
                    "analyze", "dead-write",
                    "%r: result is never read" % program.instructions[pc],
                    pos=pc))

        with _pass_span("regions", name):
            trace_set = superblock_regions(program, result, budget,
                                           name + "-")
            bb_set = basic_block_regions(program, result)

        with _pass_span("disambiguation", name):
            census = {"must": 0, "independent": 0, "may": 0}
            for region in trace_set.executed_regions():
                instructions = trace_set.program.instructions[
                    region.start:region.end]
                facts = dataflow.RegionMemoryFacts(instructions)
                for key, count in facts.pair_census().items():
                    census[key] += count
            passes["disambiguation"] = census
            observe.add("analyze.independent_pairs",
                        census["independent"])

        with _pass_span("ilp_bound", name):
            ilp = ilp_bound(fingerprint, budget, bb_set, trace_set)

        from repro.analysis.report import target_entry
        return target_entry(name, diagnostics, ops=len(program),
                            passes=passes, ilp=ilp)


# --------------------------------------------------------------------------
# The BENCH_analyze.json perf record (overhead budget of the analyzer).

ANALYZE_BENCH_SCHEMA = 2

ANALYZE_BENCH_KIND = "analyze-perf"


def analyze_bench_document(entries, elapsed_seconds):
    """The perf record of one analyze sweep.

    *entries* are per-benchmark ``{"target", "ops", "seconds"}``
    timings; *elapsed_seconds* is the whole sweep's wall clock
    (including the memoised scheduling cells, so a warm cache shows up
    as a lower total).
    """
    total_ops = sum(entry["ops"] for entry in entries)
    return dict(
        header(ANALYZE_BENCH_KIND, ANALYZE_BENCH_SCHEMA),
        benchmarks=list(entries),
        summary={
            "benchmarks": len(entries),
            "total_ops": total_ops,
            "total_seconds": round(elapsed_seconds, 4),
            "ops_per_second": round(total_ops / elapsed_seconds, 1)
            if elapsed_seconds > 0 else 0.0,
        },
    )


def validate_analyze_bench(document):
    """Schema problems of a BENCH_analyze.json document (empty=valid)."""
    problems = []
    if not check_header(document, ANALYZE_BENCH_KIND,
                        ANALYZE_BENCH_SCHEMA, problems):
        return problems
    benchmarks = document.get("benchmarks")
    if require(problems, isinstance(benchmarks, list) and benchmarks,
               "'benchmarks' is not a non-empty list"):
        for index, entry in enumerate(benchmarks):
            where = "benchmarks[%d]" % index
            if not require(problems, isinstance(entry, dict),
                           "%s is not an object" % where):
                continue
            require(problems, isinstance(entry.get("target"), str),
                    "%s: 'target' is not a string" % where)
            require(problems, isinstance(entry.get("ops"), int)
                    and entry.get("ops", 0) > 0,
                    "%s: 'ops' is not a positive int" % where)
            require(problems, isinstance(entry.get("seconds"), (int, float))
                    and entry.get("seconds", -1) >= 0,
                    "%s: 'seconds' is not a non-negative number" % where)
    summary = document.get("summary")
    if require(problems, isinstance(summary, dict),
               "'summary' is not an object"):
        require(problems, summary.get("benchmarks") == len(benchmarks or []),
                "'summary.benchmarks' does not count the entries")
        for key in ("total_ops", "total_seconds", "ops_per_second"):
            require(problems, isinstance(summary.get(key), (int, float)),
                    "'summary.%s' is not a number" % key)
    return problems


def timed_analyze(name, budget=DEFAULT_BUDGET):
    """(record, seconds) of one benchmark's analysis (perf helper)."""
    started = time.perf_counter()
    record = analyze_benchmark(name, budget)
    return record, time.perf_counter() - started
