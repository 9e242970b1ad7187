"""Emulator performance measurement: the ``repro bench`` harness.

Times both emulator loops (``codegen`` and ``reference``) over (a
subset of) the paper suite and emits ``BENCH_emulator.json``, the
repository's perf-trajectory record: per-benchmark wall time and ICI
throughput for each loop, the codegen-vs-reference speedups, and
enough provenance (the :mod:`repro.records` header, repeat count,
producing loop per row) to compare runs across commits.  ``repro
bench`` publishes the document only when :func:`validate_bench`
passes; no timing gate is applied — the file is a trajectory, not a
pass/fail check.

Every timed run also cross-checks both loops' results field by
field, so a perf run doubles as a differential test.  Each loop's row
additionally records ``produced_by`` — the loop that actually
produced the profile (:attr:`EmulationResult.backend`) — which is how
a silent codegen fallback to the reference loop becomes visible in
the record.

Timing is *interleaved*: rather than timing loop A's repeats and
then loop B's, each repeat round times every loop once and the best
round per loop wins.  Thermal throttling drifts wall time by tens of
percent over a bench run; interleaving puts every loop under the same
drift instead of charging it all to whichever ran last.
"""

import sys
import timeit

from repro.benchmarks.programs import TABLE_BENCHMARKS
from repro.benchmarks.suite import compile_benchmark
from repro.emulator import BACKENDS, CodegenEmulator, Emulator
from repro.records import check_header, header, require

__all__ = [
    "BENCH_SCHEMA",
    "QUICK_BENCHMARKS",
    "bench_document",
    "format_bench",
    "time_backends",
    "validate_bench",
]

#: bump when the BENCH_emulator.json layout changes
BENCH_SCHEMA = 4

BENCH_KIND = "emulator-bench"

#: the two cheapest suite members — the CI smoke subset
QUICK_BENCHMARKS = ("conc30", "divide10")

_RUNNERS = {
    "reference": Emulator,
    "codegen": CodegenEmulator,
}

_ABBREV = {"reference": "ref", "codegen": "cg"}


def _identical(left, right):
    """Field-by-field equality of two EmulationResults."""
    return (left.status == right.status and left.steps == right.steps
            and left.output == right.output
            and left.counts == right.counts
            and left.taken == right.taken)


def _speedups(seconds):
    """Reference time over each other loop's time."""
    return {backend: seconds["reference"] / seconds[backend]
            for backend in BACKENDS
            if backend != "reference" and seconds[backend] > 0}


def time_backends(program, repeats=3):
    """Best-of-*repeats* wall time of each emulator loop for one program.

    Returns ``(results, seconds)``: backend name -> EmulationResult and
    backend name -> best wall-clock seconds for a full run.  Each
    emulator is built (codegen compiles) and run once untimed, so the
    timings are steady-state runs of the compiled code.
    """
    emulators = {}
    results = {}
    seconds = {backend: float("inf") for backend in BACKENDS}
    for backend in BACKENDS:
        emulator = _RUNNERS[backend](program)
        emulators[backend] = emulator
        results[backend] = emulator.run()
    for _ in range(repeats):
        for backend in BACKENDS:
            elapsed = timeit.timeit(emulators[backend].run, number=1)
            if elapsed < seconds[backend]:
                seconds[backend] = elapsed
    return results, seconds


def bench_document(names=None, repeats=3, progress=None):
    """Time both emulator loops over *names* (default: the paper suite).

    Returns the ``BENCH_emulator.json`` document.  *progress*, when
    given, is called with each finished per-benchmark entry.
    """
    names = list(names) if names is not None else list(TABLE_BENCHMARKS)
    entries = []
    totals = {backend: 0.0 for backend in BACKENDS}
    for name in names:
        program = compile_benchmark(name)
        results, seconds = time_backends(program, repeats=repeats)
        baseline = results[BACKENDS[0]]
        steps = baseline.steps
        entry = {
            "name": name,
            "steps": steps,
            "identical": all(_identical(baseline, results[backend])
                             for backend in BACKENDS[1:]),
            "backends": {
                backend: {
                    "seconds": seconds[backend],
                    "icis_per_sec": steps / seconds[backend]
                    if seconds[backend] > 0 else 0.0,
                    "produced_by": results[backend].backend,
                }
                for backend in BACKENDS
            },
            "speedups": _speedups(seconds),
        }
        for backend in BACKENDS:
            totals[backend] += seconds[backend]
        entries.append(entry)
        if progress is not None:
            progress(entry)
    return dict(
        header(BENCH_KIND, BENCH_SCHEMA),
        implementation=sys.implementation.name,
        repeats=repeats,
        benchmarks=entries,
        summary={
            "benchmarks": len(entries),
            "total_seconds": totals,
            "speedups": _speedups(totals),
            "all_identical": all(entry["identical"]
                                 for entry in entries),
        },
    )


def validate_bench(document):
    """Schema problems of a BENCH_emulator.json document (empty = valid)."""
    problems = []
    if not check_header(document, BENCH_KIND, BENCH_SCHEMA, problems):
        return problems
    require(problems, isinstance(document.get("repeats"), int)
            and document.get("repeats", 0) >= 1,
            "repeats is not a positive integer")
    entries = document.get("benchmarks")
    require(problems, isinstance(entries, list) and entries,
            "benchmarks is not a non-empty list")
    for index, entry in enumerate(entries or []):
        where = "benchmarks[%d]" % index
        if not require(problems, isinstance(entry, dict),
                       "%s is not an object" % where):
            continue
        require(problems, isinstance(entry.get("name"), str),
                "%s.name is not a string" % where)
        require(problems, isinstance(entry.get("steps"), int)
                and entry.get("steps", -1) >= 0,
                "%s.steps is not a non-negative integer" % where)
        require(problems, entry.get("identical") is True,
                "%s.identical is not true" % where)
        backends = entry.get("backends")
        if not require(problems, isinstance(backends, dict),
                       "%s.backends is not an object" % where):
            continue
        require(problems, sorted(backends) == sorted(BACKENDS),
                "%s.backends keys are not %s" % (where, sorted(BACKENDS)))
        for backend, timing in backends.items():
            if not require(problems, isinstance(timing, dict),
                           "%s.backends.%s is not an object"
                           % (where, backend)):
                continue
            for field in ("seconds", "icis_per_sec"):
                value = timing.get(field)
                require(problems, isinstance(value, (int, float))
                        and value >= 0,
                        "%s.backends.%s.%s is not a non-negative "
                        "number" % (where, backend, field))
            require(problems, timing.get("produced_by") in BACKENDS,
                    "%s.backends.%s.produced_by is not one of %s"
                    % (where, backend, sorted(BACKENDS)))
        speedups = entry.get("speedups")
        require(problems, isinstance(speedups, dict)
                and all(isinstance(value, (int, float))
                        for value in (speedups or {}).values()),
                "%s.speedups is not an object of numbers" % where)
    summary = document.get("summary")
    if require(problems, isinstance(summary, dict),
               "summary is not an object"):
        require(problems, summary.get("benchmarks") == len(entries or []),
                "summary.benchmarks does not match the entry count")
        require(problems, isinstance(summary.get("speedups"), dict),
                "summary.speedups is not an object")
        totals = summary.get("total_seconds")
        require(problems, isinstance(totals, dict)
                and sorted(totals or {}) == sorted(BACKENDS),
                "summary.total_seconds keys are not %s"
                % (sorted(BACKENDS),))
    return problems


def format_bench(entry):
    """One human-readable progress line for a per-benchmark entry."""
    parts = ["%-12s steps=%-9d" % (entry["name"], entry["steps"])]
    for backend, timing in entry["backends"].items():
        parts.append("%s=%8.4fs" % (_ABBREV.get(backend, backend),
                                    timing["seconds"]))
    for backend, speedup in entry.get("speedups", {}).items():
        parts.append("%s %5.2fx" % (_ABBREV.get(backend, backend),
                                    speedup))
    parts.append("ok" if entry["identical"] else "MISMATCH")
    return " ".join(parts)
