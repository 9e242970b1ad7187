"""Command-line interface."""

import io

import pytest

from repro.cli import main, build_parser
from tests.conftest import fresh_memos

SOURCE = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
main :- app([1,2], [3], X), write(X), nl.
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.pl"
    path.write_text(SOURCE)
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    status = main(argv, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


def test_run_prints_program_output(program_file):
    status, text, errors = run_cli(["run", program_file])
    assert status == 0
    assert text == "[1,2,3]\n"


def test_run_stats_flag(program_file):
    status, text, errors = run_cli(["run", program_file, "--stats"])
    assert "steps=" in text and "status=0" in text


def test_run_failing_program_reports_status(tmp_path):
    path = tmp_path / "f.pl"
    path.write_text("p(a). main :- p(b).")
    status, text, errors = run_cli(["run", str(path)])
    assert status == 1


def test_run_with_optimize(program_file):
    status, text, errors = run_cli(["run", program_file, "--optimize"])
    assert status == 0 and text == "[1,2,3]\n"


def test_run_custom_entry(tmp_path):
    path = tmp_path / "g.pl"
    path.write_text("go :- write(hi), nl. main :- fail.")
    status, text, errors = run_cli(["run", str(path), "--entry", "go"])
    assert status == 0 and text == "hi\n"


def test_listing_shows_both_levels(program_file):
    status, text, errors = run_cli(["listing", program_file])
    assert "P:app/3" in text        # BAM level
    assert "jmpr" in text           # ICI level


def test_listing_bam_only(program_file):
    status, text, errors = run_cli(["listing", program_file, "--level", "bam"])
    assert "Proceed" in text and "jmpr" not in text


def test_speedup_default_machine(program_file):
    status, text, errors = run_cli(["speedup", program_file])
    assert status == 0
    assert text.startswith("vliw3")
    value = float(text.split()[1].rstrip("x"))
    assert 1.0 < value < 5.0


def test_speedup_multiple_machines(program_file):
    status, text, errors = run_cli(["speedup", program_file, "-m", "seq",
                            "-m", "tr_ideal"])
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert abs(float(lines[0].split()[1].rstrip("x")) - 1.0) < 1e-9


def test_speedup_accepts_every_master_key(program_file):
    """``speedup -m KEY`` measures each key of the one machine table
    under that key's own regioning."""
    import repro
    from repro.experiments.data import master_configs
    configs = master_configs()
    status, text, errors = run_cli(
        ["speedup", program_file]
        + [arg for key in configs for arg in ("-m", key)])
    assert status == 0, errors
    program = repro.compile_prolog(SOURCE)
    assert text.splitlines() == [
        "%-8s %.2fx" % (key, repro.measure_speedup(
            program, config, regioning=regioning))
        for key, (config, regioning) in configs.items()]


def test_unknown_machine_key_is_a_usage_error(program_file):
    """``speedup`` and ``verify`` answer an unknown key alike: exit 2
    and the same list of the 11 master keys."""
    from repro.experiments.data import master_configs
    keys = sorted(master_configs())
    assert len(keys) == 11
    listed = []
    for argv in (["speedup", program_file, "-m", "warp9"],
                 ["verify", "-m", "warp9"]):
        status, text, errors = run_cli(argv)
        assert status == 2
        assert "warp9" in errors
        (line,) = errors.splitlines()
        listed.append(line.split("available: ")[1])
    assert listed == [", ".join(keys)] * 2


@pytest.mark.parametrize("argv", [
    ["run"], ["listing"], ["speedup"], ["analyze"], ["lint"],
    ["verify", "--jobs", "1", "--file"],
    ["verify", "--jobs", "2", "--file"],
    ["query", "--file"],
], ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv))
def test_unreadable_file_is_a_usage_error(argv, tmp_path, monkeypatch):
    """A FILE that cannot be read is named on one line and exits 2,
    before anything is compiled or any worker pool starts."""
    from repro import cli
    from repro.evaluation import parallel

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before FILE was read")

    monkeypatch.setattr(cli, "compile_program", forbidden)
    monkeypatch.setattr(parallel, "configure", forbidden)
    path = str(tmp_path / "missing.pl")
    status, text, errors = run_cli(argv + [path])
    assert status == 2
    (line,) = errors.splitlines()
    assert "%s: cannot read %s: " % (argv[0], path) in line
    assert text == ""


FILE_COMMANDS = [
    ["run"], ["listing"], ["listing", "--level", "bam"], ["speedup"],
    ["analyze"], ["lint"], ["verify", "--jobs", "1", "--file"],
    ["verify", "--jobs", "2", "--file"], ["query", "--file"],
]


def _bad_files():
    """(argv, source, message) for every FILE command: a syntax error
    and a token error for all of them, a compile error for those that
    compile (query runs the interpreter, for which an undefined goal is
    the query's own failure, not a usage error)."""
    for argv in FILE_COMMANDS:
        name = "-".join(arg.lstrip("-") for arg in argv)
        yield pytest.param(argv, "main :- foo(.\n", "unexpected token",
                           id=name + "-syntax")
        yield pytest.param(argv, "main :- write('abc).\n",
                           "unterminated quoted item", id=name + "-token")
        if argv[0] != "query":
            yield pytest.param(argv, "foo :- true.\n",
                               "undefined predicates: main/0",
                               id=name + "-compile")


@pytest.mark.parametrize("argv, source, message", list(_bad_files()))
def test_prolog_error_in_file_is_a_usage_error(argv, source, message,
                                               tmp_path, monkeypatch):
    """A FILE that does not parse or compile is named on one line and
    exits 2, before any worker pool starts."""
    from repro.evaluation import parallel

    def forbidden(*args, **kwargs):
        raise AssertionError("a pool started for a bad FILE")

    monkeypatch.setattr(parallel, "configure", forbidden)
    path = tmp_path / "bad.pl"
    path.write_text(source)
    status, text, errors = run_cli(argv + [str(path)])
    assert status == 2
    (line,) = errors.splitlines()
    assert line.startswith("repro %s: %s: %s" % (argv[0], path, message))
    assert text == ""


@pytest.mark.parametrize("target", [["--file"], ["conc30"]],
                         ids=["file", "benchmark"])
@pytest.mark.parametrize("goal, message", [
    ("foo(", "unexpected token"),
    ("'abc", "unterminated quoted item"),
    ("foo(", "unexpected token at line 1 (end of input)"),
], ids=["syntax", "token", "eof"])
def test_goal_that_does_not_parse_is_a_usage_error(
        target, goal, message, program_file, monkeypatch):
    """``query --goal`` is read like a FILE: one line naming the
    option, exit 2, before any worker pool starts."""
    from repro.evaluation import parallel

    def forbidden(*args, **kwargs):
        raise AssertionError("a pool started for a bad goal")

    monkeypatch.setattr(parallel, "configure", forbidden)
    if target == ["--file"]:
        target = target + [program_file]
    status, text, errors = run_cli(["query"] + target + ["--goal", goal])
    assert status == 2
    (line,) = errors.splitlines()
    assert line.startswith("repro query: --goal: %s" % message)
    assert text == ""


@pytest.mark.parametrize("flags, named", [
    (["--format", "json", "--output", "a.json"], "--format, --output"),
    (["--perf", "p.json"], "--perf"),
    (["--bench", "tak", "--jobs", "2"], "--bench, --jobs"),
    (["--cell-timeout", "3", "--max-attempts", "2", "--report", "r.json"],
     "--cell-timeout, --max-attempts, --report"),
], ids=["format-output", "perf", "bench-jobs", "supervisor"])
def test_analyze_file_refuses_sweep_flags(flags, named, program_file,
                                          tmp_path, monkeypatch):
    """``analyze FILE`` names the suite-sweep flags it was given and
    exits 2 before anything is compiled or written."""
    from repro import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("compiled despite sweep-only flags")

    monkeypatch.setattr(cli, "compile_program", forbidden)
    monkeypatch.chdir(tmp_path)
    status, text, errors = run_cli(["analyze", program_file] + flags)
    assert status == 2
    (line,) = errors.splitlines()
    assert line == ("repro analyze: FILE takes none of the suite-sweep "
                    "flags: " + named)
    assert text == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["prog.pl"]


def test_analyze_reports_mix_and_branches(program_file):
    status, text, errors = run_cli(["analyze", program_file])
    assert "dynamic operations:" in text
    assert "P_fp" in text
    assert "mem" in text


def test_bench_known_name(tmp_path):
    output = str(tmp_path / "BENCH_emulator.json")
    status, text, errors = run_cli(
        ["bench", "conc30", "--repeat", "1", "--output", output])
    assert status == 0
    assert "steps=" in text
    assert "cg" in text and "ref=" in text
    assert " ok" in text


def test_bench_unknown_name(tmp_path):
    status, text, errors = run_cli(
        ["bench", "nonesuch",
         "--output", str(tmp_path / "BENCH_emulator.json")])
    assert status == 2
    assert "available" in errors


def test_bench_quick_writes_schema_valid_record(tmp_path):
    import json
    from repro.benchmarks.perf import QUICK_BENCHMARKS, validate_bench
    output = str(tmp_path / "BENCH_emulator.json")
    status, text, errors = run_cli(
        ["bench", "--quick", "--repeat", "1", "--output", output])
    assert status == 0, errors
    with open(output) as handle:
        document = json.load(handle)
    assert validate_bench(document) == []
    assert [entry["name"] for entry in document["benchmarks"]] \
        == list(QUICK_BENCHMARKS)
    assert document["summary"]["all_identical"] is True


def test_bench_backend_subset(tmp_path):
    import json
    from repro.benchmarks.perf import validate_bench
    output = str(tmp_path / "BENCH_emulator.json")
    status, text, errors = run_cli(
        ["bench", "conc30", "--repeat", "1", "--output", output])
    assert status == 0, errors
    with open(output) as handle:
        document = json.load(handle)
    assert validate_bench(document) == []
    # a named subset still times both loops; the document names no backend
    assert "backend" not in document
    assert "backends_timed" not in document
    assert [entry["name"] for entry in document["benchmarks"]] == ["conc30"]
    entry = document["benchmarks"][0]
    assert sorted(entry["backends"]) == ["codegen", "reference"]
    # each row names the loop that actually produced its profile
    assert entry["backends"]["reference"]["produced_by"] == "reference"
    assert entry["backends"]["codegen"]["produced_by"] == "codegen"
    assert "codegen" in entry["speedups"]


def test_published_bench_document_validates():
    """Every committed record passes its own validator and carries the
    one provenance header."""
    import json
    import os
    from repro.analysis.driver import validate_analyze_bench
    from repro.benchmarks.perf import validate_bench
    from repro.experiments.corpus_sweep import validate_corpus_bench
    from repro.experiments.orparallel_bench import (
        validate_orparallel_bench)
    from repro.serve.loadtest import validate_serve_bench
    records = {
        "BENCH_emulator.json": validate_bench,
        "BENCH_analyze.json": validate_analyze_bench,
        "BENCH_corpus.json": validate_corpus_bench,
        "BENCH_orparallel.json": validate_orparallel_bench,
        "BENCH_serve.json": validate_serve_bench,
    }
    results = os.path.join(os.path.dirname(__file__), os.pardir,
                           "results")
    committed = sorted(name for name in os.listdir(results)
                       if name.startswith("BENCH_"))
    assert committed == sorted(records)
    kinds = set()
    for name, validate in records.items():
        with open(os.path.join(results, name)) as handle:
            document = json.load(handle)
        assert validate(document) == [], name
        kinds.add(document["kind"])
    assert len(kinds) == len(records)
    with open(os.path.join(results, "BENCH_emulator.json")) as handle:
        assert json.load(handle)["summary"]["all_identical"] is True


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_bench_rejects_nonpositive_repeat(tmp_path, monkeypatch, repeat):
    """A repeat count below 1 is a usage error found before any
    emulator is built."""
    from repro.benchmarks import perf

    def no_emulation(*args, **kwargs):
        raise AssertionError("bench ran with --repeat %s" % repeat)

    monkeypatch.setattr(perf, "bench_document", no_emulation)
    output = tmp_path / "BENCH_emulator.json"
    status, text, errors = run_cli(
        ["bench", "--quick", "--repeat", repeat, "--output", str(output)])
    assert status == 2
    assert "--repeat" in errors
    assert not output.exists()


def test_bench_rejects_names_with_quick(tmp_path):
    status, text, errors = run_cli(
        ["bench", "conc30", "--quick",
         "--output", str(tmp_path / "b.json")])
    assert status == 2
    assert "not both" in errors


def test_lint_clean_program(program_file):
    status, text, errors = run_cli(["lint", program_file])
    assert status == 0
    assert "clean" in text and errors == ""


def test_lint_optimized_program(program_file):
    status, text, errors = run_cli(["lint", program_file, "--optimize"])
    assert status == 0


def test_verify_single_benchmark_single_machine():
    status, text, errors = run_cli(
        ["verify", "--bench", "conc30", "-m", "vliw3", "-m", "seq"])
    assert status == 0
    assert "conc30" in text and "clean" in text


def test_verify_reports_findings_and_exits_1():
    """A bank too small for the pinned interface registers: every
    finding is a structured diagnostic on stderr, one FAIL line and
    exit 1 (the checker reports, it never raises)."""
    status, text, errors = run_cli(
        ["verify", "--bench", "conc30", "-m", "seq", "--bank-size", "0",
         "--jobs", "1"])
    assert status == 1
    assert text.splitlines()[0].split() == ["conc30", "FAIL", "62",
                                            "finding(s)"]
    assert "regalloc:phys-out-of-bank region[" in errors
    assert errors.splitlines()[-1] == \
        "verify: 62 finding(s) across 1 target(s)"


def test_verify_unknown_benchmark():
    status, text, errors = run_cli(["verify", "--bench", "nonesuch"])
    assert status == 2
    assert "available" in errors


def test_verify_unknown_machine():
    status, text, errors = run_cli(["verify", "-m", "warp9"])
    assert status == 2
    assert "warp9" in errors


def test_verify_source_file(program_file):
    status, text, errors = run_cli(
        ["verify", "--file", program_file, "-m", "vliw3"])
    assert status == 0
    assert "clean" in text


def test_warren_flags(program_file):
    status, text, errors = run_cli(["run", program_file, "--no-indexing",
                            "--no-lco"])
    assert status == 0 and text == "[1,2,3]\n"


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# --------------------------------------------------------------------------
# The supervised sweep surface: --report / --max-attempts /
# --cell-timeout and the outcome summary line.

def test_evaluate_smoke_writes_supervisor_report(tmp_path, monkeypatch):
    import json
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    report_path = str(tmp_path / "report.json")
    status, text, errors = run_cli(
        ["evaluate", "--jobs", "1", "--bench", "conc30",
         "--max-attempts", "2", "--cell-timeout", "0",
         "--report", report_path])
    assert status == 0
    assert "supervisor:" in text and "ok" in text
    document = json.load(open(report_path))
    assert document["tasks"]
    assert all(task["status"] in ("ok", "cached")
               for task in document["tasks"])
    assert document["degraded"] is False
    assert document["pool_restarts"] == 0
    assert document["interrupted"] is None


@pytest.mark.parametrize("argv, deadline", [
    ([], 300.0),
    (["--cell-timeout", "7.5"], 7.5),
    (["--cell-timeout", "0"], None),
])
def test_serve_cell_timeout_matches_evaluate(argv, deadline):
    """``--cell-timeout 0`` disables the watchdog for serve as it does
    for evaluate."""
    from repro.cli import _serve_config, _supervisor_policy
    parser = build_parser()
    served = _serve_config(parser.parse_args(["serve"] + argv)).policy()
    evaluated = _supervisor_policy(parser.parse_args(["evaluate"] + argv))
    assert served.deadline == evaluated.deadline == deadline


def test_report_is_offered_only_where_it_is_written(tmp_path):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--report", "r.json"])
    report = tmp_path / "r.json"
    status, text, errors = run_cli(
        ["query", "--sweep", "--quick", "--report", str(report)])
    assert status == 2
    assert "--report" in errors
    assert not report.exists()


def test_failed_full_evaluate_exits_1_with_summary(tmp_path, monkeypatch):
    """Every task failing still ends the full sweep in the supervisor
    summary, the --report file and exit 1, not a traceback."""
    import json
    from repro.testing import faults
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    report_path = tmp_path / "report.json"
    with faults.injected("parallel.task=error:1000"):
        status, text, errors = run_cli(
            ["evaluate", "--jobs", "1", "--max-attempts", "1",
             "--report", str(report_path)])
    assert status == 1
    assert "supervisor:" in text and "failed" in text
    assert "evaluation task(s) failed" in errors
    assert "Traceback" not in errors
    report = json.loads(report_path.read_text())
    assert report["tasks"]
    assert all(task["status"] == "failed" for task in report["tasks"])


def test_serve_load_test_writes_no_invalid_record(tmp_path, monkeypatch):
    """A load-test record that fails validation is not written and the
    command exits 1."""
    import json
    import os
    from repro.serve import loadtest
    committed = os.path.join(os.path.dirname(__file__), os.pardir,
                             "results", "BENCH_serve.json")
    with open(committed) as handle:
        document = json.load(handle)
    document["wrong_answers"] = 1
    monkeypatch.setattr(loadtest, "run_load_test",
                        lambda **kwargs: document)
    output = tmp_path / "BENCH_serve.json"
    status, text, errors = run_cli(
        ["serve", "--load-test", "10", "--output", str(output)])
    assert status == 1
    assert "wrong_answers" in errors
    assert not output.exists()


def test_evaluate_survives_an_injected_transient_fault(
        tmp_path, monkeypatch):
    from repro.testing import faults
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    with faults.injected("parallel.task=error:1"):
        status, text, errors = run_cli(
            ["evaluate", "--jobs", "1", "--bench", "conc30"])
    assert status == 0
    assert "retried" in text


# --------------------------------------------------------------------------
# evaluate --output: the one way results/ is regenerated.

@pytest.mark.parametrize("extras", [False, True])
def test_evaluate_output_writes_each_committed_file(tmp_path, extras):
    from repro.experiments import (
        ALL_EXPERIMENTS, EXTRA_EXPERIMENTS, RESULT_FILES)
    status, text, errors = run_cli(
        ["evaluate", "--jobs", "1", "--output", str(tmp_path)]
        + ["--extras"] * extras)
    assert status == 0, errors
    modules = dict(ALL_EXPERIMENTS, **(EXTRA_EXPERIMENTS if extras
                                       else {}))
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(RESULT_FILES[name] for name in modules)
    assert text.count("wrote ") == len(modules)
    for name, module in modules.items():
        render = getattr(module, "render", None) or module.render_all
        assert (tmp_path / RESULT_FILES[name]).read_text() \
            == render() + "\n", name


def test_evaluate_output_refuses_the_smoke_table(tmp_path):
    target = tmp_path / "results"
    status, text, errors = run_cli(
        ["evaluate", "--bench", "conc30", "--output", str(target)])
    assert status == 2
    assert "--output" in errors
    assert not target.exists()


# --------------------------------------------------------------------------
# evaluate's profile column is provenance: the loop that produced the
# cached profile artefact.

def _profile_column(text, benchmark):
    row = next(line for line in text.splitlines()
               if line.startswith(benchmark))
    return row.split()[-1]


def test_evaluate_profile_column_names_the_producing_loop(
        tmp_path, monkeypatch):
    """A profile computed on the compiled loop reports ``codegen``,
    also when a later sweep reads it back from the cache."""
    from repro.emulator import machine
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    # a budget of 0 compiles every run; the default budget would answer
    # conc30 on the reference loop, but the second sweep is a cache hit
    for per_ici in (0, machine._COMPILE_STEPS_PER_ICI):
        monkeypatch.setattr(machine, "_COMPILE_STEPS_PER_ICI", per_ici)
        fresh_memos(monkeypatch)
        status, text, errors = run_cli(
            ["evaluate", "--jobs", "1", "--bench", "conc30"])
        assert status == 0, errors
        assert _profile_column(text, "conc30") == "codegen"


# -- machine-readable diagnostics --------------------------------------------

def test_lint_json_document(program_file):
    import json
    from repro.analysis.report import validate_diagnostics
    status, text, errors = run_cli(["lint", program_file,
                                    "--format", "json"])
    assert status == 0
    document = json.loads(text)
    assert validate_diagnostics(document) == []
    assert document["tool"] == "lint"
    assert document["count"] == 0
    (entry,) = document["targets"]
    assert entry["target"] == program_file and entry["ops"] > 0


def test_verify_json_document(program_file):
    import json
    from repro.analysis.report import validate_diagnostics
    status, text, errors = run_cli(["verify", "--file", program_file,
                                    "-m", "vliw3", "--format", "json"])
    assert status == 0
    document = json.loads(text)
    assert validate_diagnostics(document) == []
    assert document["tool"] == "verify"
    (entry,) = document["targets"]
    assert entry["machine_configs"] == ["vliw3"]


def test_analyze_suite_json_document(tmp_path):
    import json
    from repro.analysis.report import validate_analysis
    out_path = tmp_path / "analyze.json"
    perf_path = tmp_path / "BENCH_analyze.json"
    status, text, errors = run_cli([
        "analyze", "--bench", "conc30", "--format", "json",
        "--output", str(out_path), "--perf", str(perf_path)])
    assert status == 0, errors
    document = json.loads(text)
    assert validate_analysis(document) == []
    assert json.loads(out_path.read_text()) == document
    (entry,) = document["targets"]
    assert entry["target"] == "conc30"
    ilp = entry["ilp"]
    assert ilp["dataflow_limit_cycles"] <= ilp["achieved_cycles"]
    assert ilp["gap"] >= 1.0
    perf = json.loads(perf_path.read_text())
    assert perf["kind"] == "analyze-perf"
    assert perf["benchmarks"][0]["target"] == "conc30"


def test_analyze_suite_text_table():
    status, text, errors = run_cli(["analyze", "--bench", "conc30"])
    assert status == 0, errors
    assert "conc30" in text
    assert "dfl" in text and "gap" in text


def test_analyze_unknown_benchmark():
    status, text, errors = run_cli(["analyze", "--bench", "nonesuch"])
    assert status == 2
    assert "available" in errors


def test_analyze_single_file_still_reports_mix(program_file):
    status, text, errors = run_cli(["analyze", program_file])
    assert status == 0
    assert "mix" in text.lower() or "branch" in text.lower()


# --------------------------------------------------------------------------
# Cache maintenance commands and eager fault-spec validation.

def test_cache_stats_on_fresh_directory(tmp_path):
    status, text, errors = run_cli(
        ["cache", "stats", "--dir", str(tmp_path / "nothing")])
    assert status == 0, errors
    assert "0 entr" in text


def test_cache_stats_lists_kinds_after_cold_evaluate(tmp_path,
                                                      monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    fresh_memos(monkeypatch)
    status, _text, errors = run_cli(
        ["evaluate", "--jobs", "1", "--bench", "conc30"])
    assert status == 0, errors
    status, text, errors = run_cli(["cache", "stats"])
    assert status == 0, errors
    kinds = {line.split(":")[0].strip() for line in text.splitlines()
             if line.startswith("  ")}
    assert {"emulation", "profile", "regions", "cell"} <= kinds
    assert "codegen" not in kinds


def test_cache_gc_evicts_to_budget(tmp_path):
    from repro.evaluation.cache import CacheStore
    store = CacheStore(str(tmp_path / "cas"))
    for n in range(4):
        store.put(store.key("cell", {"n": n}), {"pad": "x" * 128})
    status, text, errors = run_cli(
        ["cache", "gc", "--dir", str(tmp_path / "cas"), "--budget", "1"])
    assert status == 0, errors
    assert "removed 4" in text
    assert store.usage()["entries"] == 0


def test_typoed_fault_spec_fails_fast_with_site_menu(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECT", "serve.request=bogus:1")
    status, text, errors = run_cli(["cache", "stats"])
    assert status == 2
    assert "invalid REPRO_FAULT_INJECT" in errors
    assert "known fault sites:" in errors
    assert "serve.request: error | shed | hang" in errors
