"""Tests of the benchmark's own code.

Run from the repository root:
    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/tests
"""

import math
import os
import shutil
import time

import pytest

import checks
import inputs
import passes
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RESULTS = os.path.join(ROOT, "results")


# -- seeded inputs ---------------------------------------------------------

def test_same_seed_gives_same_program_list_and_request_sequence():
    plan = inputs.serve_plan(7)
    assert plan == inputs.serve_plan(7)
    assert plan["programs"] == list(inputs.SERVE_PROGRAMS)
    assert plan["sequence"] != inputs.serve_plan(8)["sequence"]


def test_cold_keys_are_a_fixed_share_and_never_seen():
    plan = inputs.serve_plan(3)
    count = len(plan["sequence"])
    assert count == inputs.SERVE_REQUESTS
    assert len(plan["cold"]) == round(count * inputs.SERVE_COLD_SHARE)
    keys = [passes.request_key(template) for template in plan["cold"]]
    warm = {passes.request_key(template) for template in plan["warm"]}
    assert len(set(keys)) == len(keys)
    assert not set(keys) & warm
    assert {template["op"] for template in plan["cold"]} \
        == {"evaluate", "query"}
    assert {template["body"]["benchmark"] for template in plan["cold"]} \
        <= set(inputs.SERVE_PROGRAMS)


def test_warm_templates_appear_equally_often():
    plan = inputs.serve_plan(5)
    counts = {}
    for template in plan["sequence"]:
        if template in plan["warm"]:
            key = passes.request_key(template)
            counts[key] = counts.get(key, 0) + 1
    assert len(counts) == len(plan["warm"])
    assert max(counts.values()) - min(counts.values()) <= 1


# -- correctness gates -----------------------------------------------------

def _committed_texts():
    texts = {}
    for name, filename in checks.RENDERED_FILES.items():
        with open(os.path.join(RESULTS, filename)) as handle:
            texts[name] = handle.read()[:-1]
    return texts


def test_committed_tables_pass_and_a_corrupted_one_is_counted():
    texts = _committed_texts()
    assert checks.rendered_wrong(texts, RESULTS) == 0
    texts["table1"] = texts["table1"].replace("1", "2", 1)
    assert checks.rendered_wrong(texts, RESULTS) == 1
    del texts["figure2"]
    assert checks.rendered_wrong(texts, RESULTS) == 2


def test_wrong_served_payload_is_counted_and_a_failure_is_not():
    key = passes.request_key({"op": "compile",
                              "body": {"benchmark": "qsort"}})
    references = {key: '{"a":1}'}
    responses = [
        {"key": key, "status": 200, "result": '{"a":1}'},
        {"key": key, "status": 200, "result": '{"a":2}'},
        {"key": key, "status": 500, "result": None},
    ]
    assert checks.serve_wrong(responses, references) == 1


def test_oracle_mismatches_and_checker_findings_are_counted():
    import run
    pairs = {"a": {"compiled": [True, "x"], "interpreted": [True, "x"]},
             "b": {"compiled": [True, "x"], "interpreted": [True, "y"]}}
    assert checks.oracle_wrong(pairs) == 1
    findings = {"a": 0, "b": 0, "c": 3}
    assert checks.checker_wrong(findings) == 1
    assert run._checked_wrong({"pairs": pairs, "findings": findings}) == 2


def test_failed_passes_count_as_failed_not_wrong():
    import run
    good = {"texts": _committed_texts(), "engine": {"failed": 0}}
    broken = {"texts": None, "engine": {"failed": 2}}
    assert run._rendered_wrong([good, broken], RESULTS) == 0
    assert run._failed([good, broken]) == 2


# -- run structure ---------------------------------------------------------

def test_cycles_repeat_while_the_run_lasts(tmp_path):
    import run
    bench = run.Bench(str(tmp_path), "suite", 1, 0)
    calls = []
    assert bench.cycles(calls.append) == run.MIN_CYCLES
    assert calls == list(range(run.MIN_CYCLES))
    bench.seconds = 0.3
    calls.clear()

    def cycle(number):
        calls.append(number)
        time.sleep(0.05)

    cycles = bench.cycles(cycle)
    # a cycle starts only while one more, as long as the longest so
    # far, fits in the run
    assert run.MIN_CYCLES <= cycles <= 6
    assert cycles > run.MIN_CYCLES
    bench.close()


# -- spans and reconciliation ----------------------------------------------

def _span(span_id, layer, parent, start, end, request=1):
    return {"id": span_id, "name": layer, "layer": layer,
            "parent": parent, "request": request, "start": start,
            "end": end}


def test_self_times_subtract_direct_children():
    records = [_span(1, "bench", None, 0.0, 10.0),
               _span(2, "engine", 1, 1.0, 9.0),
               _span(3, "emulator.run", 2, 2.0, 6.0),
               _span(4, "emulator.codegen", 3, 2.5, 4.0),
               _span(5, "cache.put", 2, 7.0, 8.0)]
    selves = spans.self_times(records)
    assert selves == {1: 2.0, 2: 3.0, 3: 2.5, 4: 1.5, 5: 1.0}
    layers = spans.layer_self_times(records)
    assert math.isclose(sum(layers.values()), 10.0)
    assert math.isclose(spans.stage_seconds(layers), 2.5 + 1.5 + 1.0)
    assert math.isclose(spans.unattributed(12.0, layers), 12.0 - 5.0)


def test_reconciliation_fails_when_stages_outgrow_the_wall():
    tolerance = spans.RECONCILE_TOLERANCE
    layers = {"emulator.run": 4.0, "cache.get": 1.0, "engine": 30.0}
    assert spans.reconciles(6.0, layers)
    # within the tolerance: tracing inflated the stages a little
    assert spans.reconciles(5.0 / (1 + tolerance / 2), layers)
    # the stages claim more time than the untraced run took
    assert not spans.reconciles(5.0 / (1 + 2 * tolerance), layers)
    layers["emulator.codegen"] = 6.0 * tolerance + 1.5
    assert not spans.reconciles(6.0, layers)


PROGRAM = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
main :- nrev([1,2,3,4,5,6,7,8], X), write(X), nl.
"""


def _pipeline():
    from repro.bam import compile_source
    from repro.emulator import run_program
    from repro.intcode import translate_module
    from repro.interp import Engine
    program = translate_module(compile_source(PROGRAM))
    result = run_program(program)
    engine = Engine()
    engine.consult(PROGRAM)
    assert engine.run_query("main")
    return result.output, engine.output_text()


def test_traced_layers_and_unattributed_reconcile_with_untraced_wall(
        tmp_path, monkeypatch):
    import repro.bam
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    original = repro.bam.compile_source
    untraced_output = _pipeline()   # imports and in-process memos
    # Each pass takes about 0.1 s, where the host's speed swings by a
    # fifth: compare the fastest of several untraced and traced passes.
    untraced_walls = []
    for _ in range(5):
        started = time.perf_counter()
        _pipeline()
        untraced_walls.append(time.perf_counter() - started)

    traced = []
    for _ in range(5):
        tracing = passes.Tracing()
        with tracing:
            assert repro.bam.compile_source is not original
            started = time.perf_counter()
            with tracing.request("pipeline"):
                traced_output = _pipeline()
            wall = time.perf_counter() - started
        assert repro.bam.compile_source is original
        assert traced_output == untraced_output
        traced.append((wall, tracing))
    wall, tracing = min(traced, key=lambda pair: pair[0])
    records = tracing.recorder.to_json()

    layers = spans.layer_self_times(records)
    for layer in ("bam.compile", "intcode.translate", "emulator.run",
                  "interp.oracle"):
        assert layers[layer] > 0
    assert len({record["request"] for record in records}) == 1
    assert spans.stage_seconds(layers) <= wall
    assert spans.reconciles(min(untraced_walls), layers)
    assert tracing.counts["emulator.runs"] == 1
    assert tracing.counts["translate.icis"] > 0


def test_missing_source_tree_exits_nonzero_without_a_result(tmp_path,
                                                            capsys):
    import run
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = run.main(["--workload", "suite", "--seed", "1",
                         "--seconds", "1", "--trace", "0"])
    finally:
        os.chdir(cwd)
    assert code != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("values, fraction, expected", [
    ([5.0], 0.99, 5.0),
    ([1.0, 2.0, 3.0], 0.5, 2.0),
    ([0.0, 10.0], 0.99, 9.9),
])
def test_percentile_interpolates(values, fraction, expected):
    import run
    assert math.isclose(run.percentile(values, fraction), expected)


def test_layer_metrics_are_the_ones_benchmark_json_names():
    import run
    traced = {"trace": {"layers": {"emulator.run": 1.0, "engine": 0.25},
                        "counts": {"emulator.runs": 2, "programs": 1}},
              "engine": {"tasks": 4, "cached": 1, "retries": 0,
                         "failed": 0}}
    metrics, reconciled = run.layer_metrics(2.0, 2.5, [traced])
    assert reconciled
    assert set(metrics) == set(run.metric_units(ROOT)[1])
    assert metrics["engine.unattributed_s"] == 1.0
    assert metrics["trace.overhead_s"] == 0.5
    assert metrics["engine.cached_ratio"] == 0.25
