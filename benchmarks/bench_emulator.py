"""Emulator backend shoot-out: reference loop against codegen.

Regenerates ``BENCH_emulator.json`` (the perf-trajectory record also
produced by ``repro bench``) into ``results/`` and times one
representative program per backend under pytest-benchmark.  The paper
suite sweep doubles as a differential check: the document's
``identical`` fields assert both backends returned bit-identical
results everywhere.
"""

import os

from repro.benchmarks.perf import (
    bench_document, format_bench, validate_bench, write_bench)
from repro.benchmarks.suite import compile_benchmark
from repro.emulator import CodegenEmulator, Emulator

from benchmarks.conftest import save_result


def test_backend_throughput_reference(benchmark):
    program = compile_benchmark("nreverse")
    emulator = Emulator(program)
    result = benchmark(emulator.run)
    assert result.succeeded
    benchmark.extra_info["ici_per_second"] = (
        result.steps / benchmark.stats["mean"])


def test_backend_throughput_codegen(benchmark):
    program = compile_benchmark("nreverse")
    emulator = CodegenEmulator(program)
    result = benchmark(emulator.run)
    assert result.succeeded
    assert result.backend == "codegen"
    benchmark.extra_info["ici_per_second"] = (
        result.steps / benchmark.stats["mean"])


def test_emit_bench_emulator_json(results_dir):
    document = bench_document(repeats=3)
    problems = validate_bench(document)
    assert not problems, problems
    assert document["summary"]["all_identical"]
    path = write_bench(document,
                       os.path.join(results_dir, "BENCH_emulator.json"))
    assert os.path.exists(path)
    speedups = document["summary"]["speedups"]
    save_result("bench_emulator", "\n".join(
        format_bench(entry) for entry in document["benchmarks"])
        + "\ntotal speedup: " + " ".join(
            "%s %.2fx" % (backend, speedup)
            for backend, speedup in speedups.items()))
