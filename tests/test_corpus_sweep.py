"""Corpus sweep tests: spec building, the per-program worker, the
document schema and the ``repro corpus`` CLI."""

import io
import json

import pytest

from repro.evaluation.parallel import EvaluationEngine
from repro.experiments.corpus_sweep import (
    CORPUS_BENCH_SCHEMA, CORPUS_CONFIG_KEYS, SATURATION_WIDTHS,
    build_corpus_specs, run_corpus_sweep, sweep_target,
    validate_corpus_bench)


def test_build_corpus_specs():
    specs = build_corpus_specs(4, 1992)
    assert len(specs) == 7  # 3 workloads + 4 generated
    kinds = [spec["kind"] for spec in specs]
    assert kinds == ["dcg"] * 3 + ["generated"] * 4
    names = [spec["name"] for spec in specs]
    assert names[:3] == ["dcg_calc", "dcg_grammar", "dcg_json"]
    assert names[3:] == ["gen01992", "gen01993", "gen01994", "gen01995"]
    without = build_corpus_specs(4, 1992, include_workloads=False)
    assert len(without) == 4


def test_sweep_target_record_shape():
    spec = build_corpus_specs(1, 1992,
                              include_workloads=False)[0]
    record = sweep_target(spec)
    assert record["name"] == "gen01992"
    assert record["kind"] == "generated"
    assert record["seed"] == 1992
    assert record["oracle"]["match"] is True
    assert record["verify_findings"] == 0
    assert record["ops"] > 0 and record["steps"] > 0
    assert sum(record["mix"].values()) == pytest.approx(1.0)
    assert 0.0 <= record["branch"]["avg_p_fp"] <= 0.5
    ilp = record["ilp"]
    # limit >= achieved >= 1: the dataflow bound dominates trace
    # scheduling, which dominates the sequential machine
    assert ilp["dataflow_limit_speedup"] >= ilp["achieved_speedup"] >= 1.0
    assert ilp["gap"] >= 1.0


def test_sweep_target_saturation_curve():
    spec = build_corpus_specs(1, 1992, include_workloads=False,
                              saturation=True)[0]
    assert spec["saturation"] is True
    record = sweep_target(spec)
    curve = record["saturation"]
    assert sorted(curve) == sorted("vliw%d" % w
                                   for w in SATURATION_WIDTHS)
    # more units never slow the trace schedule down: the curve is
    # monotone in width, and it saturates rather than scaling linearly
    speedups = [curve["vliw%d" % w] for w in SATURATION_WIDTHS]
    assert all(b >= a for a, b in zip(speedups, speedups[1:]))
    assert speedups[-1] < len(SATURATION_WIDTHS)
    # without the flag the record has no curve
    plain = sweep_target(build_corpus_specs(
        1, 1992, include_workloads=False)[0])
    assert "saturation" not in plain


@pytest.fixture(scope="module")
def small_document():
    engine = EvaluationEngine(jobs=1)
    try:
        return run_corpus_sweep(3, 1992, engine=engine)
    finally:
        engine.close()


def test_small_sweep_is_clean(small_document):
    summary = small_document["summary"]
    assert summary["programs"] == 6
    assert summary["generated"] == 3
    assert summary["dcg_workloads"] == 3
    assert summary["oracle_mismatches"] == []
    assert summary["verify_finding_programs"] == []


def test_document_validates(small_document):
    assert validate_corpus_bench(small_document) == []


def test_document_claim_report(small_document):
    claim = small_document["summary"]["claim"]
    assert claim["programs_with_branches"] == 6
    assert (claim["predictable"] + len(claim["worst"])
            == claim["programs_with_branches"])
    assert sum(claim["p_fp_histogram"].values()) == 6
    # the DCG application workloads break the paper's threshold; the
    # generated list-crunchers do not — the corpus-scale finding
    worst_names = {entry["name"] for entry in claim["worst"]}
    assert worst_names == {"dcg_calc", "dcg_grammar", "dcg_json"}


def test_document_parameters(small_document):
    parameters = small_document["parameters"]
    assert parameters["count"] == 3
    assert parameters["base_seed"] == 1992
    assert parameters["machine_configs"] == list(CORPUS_CONFIG_KEYS)
    assert small_document["schema"] == CORPUS_BENCH_SCHEMA


def test_validator_catches_tampering(small_document):
    broken = json.loads(json.dumps(small_document))
    broken["summary"]["programs"] = 99
    assert validate_corpus_bench(broken)
    broken = json.loads(json.dumps(small_document))
    broken["programs"][0]["mix"]["mem"] += 0.5
    assert validate_corpus_bench(broken)
    broken = json.loads(json.dumps(small_document))
    del broken["summary"]["claim"]
    assert validate_corpus_bench(broken)
    assert validate_corpus_bench({"schema": 0})
    assert validate_corpus_bench([])


def test_write_corpus_bench_round_trips(small_document, tmp_path):
    from repro.records import publish
    path = str(tmp_path / "sub" / "BENCH.json")
    assert publish(small_document, path, validate_corpus_bench) == []
    with open(path) as handle:
        loaded = json.load(handle)
    assert validate_corpus_bench(loaded) == []
    assert loaded["summary"] == json.loads(
        json.dumps(small_document["summary"]))


def test_documents_are_deterministic(small_document):
    """Same seeds, same cache → identical records (timing aside)."""
    engine = EvaluationEngine(jobs=1)
    try:
        again = run_corpus_sweep(3, 1992, engine=engine)
    finally:
        engine.close()
    first = json.loads(json.dumps(small_document["programs"]))
    second = json.loads(json.dumps(again["programs"]))
    assert first == second


def test_corpus_cli_quick(tmp_path):
    from repro.cli import main
    output = tmp_path / "BENCH_corpus.json"
    out, err = io.StringIO(), io.StringIO()
    status = main(["corpus", "--count", "2", "--jobs", "1",
                   "--output", str(output)], out=out, err=err)
    assert status == 0, err.getvalue()
    text = out.getvalue()
    assert "oracle: 0 mismatch(es)" in text
    assert "branch claim" in text
    assert "static ILP gap" in text
    with open(output) as handle:
        document = json.load(handle)
    assert validate_corpus_bench(document) == []
    assert document["summary"]["programs"] == 5


def test_corpus_sweep_saturation_summary():
    engine = EvaluationEngine(jobs=1)
    try:
        document = run_corpus_sweep(2, 1992, engine=engine,
                                    include_workloads=False,
                                    saturation=True)
    finally:
        engine.close()
    assert validate_corpus_bench(document) == []
    curve = document["summary"]["saturation"]
    assert sorted(curve) == sorted("vliw%d" % w
                                   for w in SATURATION_WIDTHS)
    means = [curve["vliw%d" % w]["mean"] for w in SATURATION_WIDTHS]
    assert all(b >= a for a, b in zip(means, means[1:]))
    # tampering with the curve is caught
    broken = json.loads(json.dumps(document))
    del broken["summary"]["saturation"]["vliw3"]
    assert validate_corpus_bench(broken)
    broken = json.loads(json.dumps(document))
    broken["programs"][0]["saturation"]["vliw2"] = "fast"
    assert validate_corpus_bench(broken)


def test_corpus_cli_saturation_output(tmp_path):
    from repro.cli import main
    output = tmp_path / "BENCH_corpus.json"
    out, err = io.StringIO(), io.StringIO()
    status = main(["corpus", "--count", "2", "--jobs", "1",
                   "--saturation", "--output", str(output)],
                  out=out, err=err)
    assert status == 0, err.getvalue()
    assert "saturation (mean speedup): vliw1" in out.getvalue()
    with open(output) as handle:
        document = json.load(handle)
    assert validate_corpus_bench(document) == []
    assert "saturation" in document["summary"]


def test_corpus_cli_rejects_count_with_quick():
    from repro.cli import main
    out, err = io.StringIO(), io.StringIO()
    status = main(["corpus", "--count", "3", "--quick"],
                  out=out, err=err)
    assert status == 2
    assert "not both" in err.getvalue()


def test_corpus_document_empty_quantiles():
    """The distribution helpers stay defined on degenerate sweeps."""
    from repro.experiments.corpus_sweep import _quantiles
    empty = _quantiles([])
    assert empty["median"] == 0.0 and empty["mean"] == 0.0
    single = _quantiles([2.0])
    assert single["min"] == single["max"] == single["median"] == 2.0
