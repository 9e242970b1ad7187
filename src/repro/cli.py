"""Command-line interface.

::

    python -m repro run program.pl            # compile + emulate
    python -m repro listing program.pl        # BAM and ICI listings
    python -m repro speedup program.pl -m vliw3
    python -m repro analyze program.pl        # mix + branch statistics
    python -m repro analyze --jobs 2          # dead code, disambiguation
                                              # + static ILP bound over
                                              # the suite
    python -m repro analyze --format json --output analyze.json
    python -m repro bench [--quick]           # time both emulator loops
    python -m repro bench mu                  # ... on one benchmark
    python -m repro evaluate [--extras]       # the paper's tables/figures
    python -m repro evaluate --extras --output results  # regenerate
    python -m repro evaluate --jobs 4 --bench qsort --bench nreverse
    python -m repro evaluate --bench conc30 --trace trace.jsonl
    python -m repro trace summary trace.jsonl # inspect a recorded trace
    python -m repro lint program.pl           # ICI well-formedness lint
    python -m repro verify [--bench qsort]    # independent checker sweep
    python -m repro corpus --quick --jobs 2   # generated-corpus sweep
    python -m repro serve --port 8080         # HTTP/JSON evaluation service
    python -m repro serve --load-test 200     # ... or drive one with load
    python -m repro query qsort --or-jobs 2   # or-parallel goal enumeration
    python -m repro query --file program.pl --compare
    python -m repro cache stats               # artefact cache occupancy

``evaluate`` and ``verify`` fan their benchmark x machine-configuration
cells out across ``--jobs`` worker processes (default: all cores)
through :mod:`repro.evaluation.parallel`; results are memoised in the
content-addressed cache, so warm re-runs are served without
re-emulation.  ``--jobs 1`` runs everything in-process (pdb-friendly).

Evaluation sweeps run under the fault-tolerant supervisor
(:mod:`repro.evaluation.supervisor`): per-cell deadlines, bounded
retry with deterministic backoff, pool resurrection, and graceful
degradation to in-process execution.  ``--cell-timeout`` /
``--max-attempts`` tune the policy, a per-task outcome summary is
printed after each sweep, and ``--report PATH`` writes the structured
:class:`EvaluationReport` as JSON.

The ``BENCH_*.json`` records (``bench``, ``analyze --perf``,
``corpus``, ``query --sweep``, ``serve --load-test``) are published
through :mod:`repro.records`: a record that fails its validator is not
written and the command exits 1.

Exit codes: 0 = success/clean, 1 = violations found (lint/verify), a
failing program status, a sweep task that failed every attempt or an
invalid record, 2 = usage error (argparse's, or a :class:`UsageError`
named as ``repro <command>: <message>``: an unreadable FILE, a Prolog
syntax or compile error in it, an unknown benchmark or machine key,
conflicting flags), 130 =
interrupted (SIGINT).  Diagnostics go to stderr.
"""

import argparse
import contextlib
import os
import sys

from repro.bam import compile_source, CompilerOptions, CompileError
from repro.benchmarks.suite import (
    compile_benchmark, compile_program, run_program_cached)
from repro.intcode import optimize_program
from repro.emulator import run_program
from repro.intcode.ici import instruction_mix
from repro.reader import LexError, ParseError, parse_program, parse_term


class UsageError(Exception):
    """A command-line mistake, found before any work starts:
    :func:`main` names it as ``repro <command>: <message>`` and exits
    2."""


def _source(path):
    """The text of the Prolog FILE at *path*; an unreadable one is a
    usage error."""
    try:
        with open(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as error:
        raise UsageError("cannot read %s: %s" % (
            path, getattr(error, "strerror", None) or error)) from None


def _options(args):
    return CompilerOptions(indexing=not args.no_indexing,
                           lco=not args.no_lco)


@contextlib.contextmanager
def _diagnosed(path):
    """A Prolog syntax or compile error in *path* (a FILE, or an
    option such as ``--goal``) is a usage error: one line naming it."""
    try:
        yield
    except (LexError, ParseError, CompileError) as error:
        raise UsageError("%s: %s" % (path, error)) from None


def _compile(source, entry="main", options=None, optimize=False,
             path=None):
    """The one way the CLI turns Prolog text (of FILE *path*) into a
    program: the memoised front end, then (with *optimize*) the
    block-local ICI optimiser."""
    with _diagnosed(path):
        program = compile_program(source, (entry, 0), options)
    if optimize:
        program, _ = optimize_program(program)
    return program


def _load(args):
    return _compile(_source(args.file), args.entry, _options(args),
                    args.optimize, args.file)


def _machines(keys=None):
    """Machine key -> ``(MachineConfig, regioning)`` from the one
    machine table, :func:`~repro.experiments.data.master_configs`: the
    whole table, or just *keys*.  An unknown key is a usage error."""
    from repro.experiments.data import master_configs
    configs = master_configs()
    if keys is None:
        return configs
    unknown = [key for key in keys if key not in configs]
    if unknown:
        raise UsageError("unknown machine key(s) %s; available: %s"
                         % (", ".join(sorted(unknown)),
                            ", ".join(sorted(configs))))
    return {key: configs[key] for key in keys}


def _check_benchmarks(names):
    """A name in *names* that is no suite benchmark is a usage
    error."""
    from repro.benchmarks import PROGRAMS
    unknown = [name for name in names if name not in PROGRAMS]
    if unknown:
        raise UsageError("unknown benchmark(s) %s; available: %s"
                         % (", ".join(sorted(unknown)),
                            ", ".join(sorted(PROGRAMS))))


def _add_compile_flags(parser, optional=False):
    """FILE and the flags that compile it; an *optional* FILE (analyze)
    may be omitted."""
    parser.add_argument(
        "file", nargs="?" if optional else None,
        help="Prolog source file"
             + (" (omit for the suite sweep)" if optional else ""))
    parser.add_argument("--entry", default="main",
                        help="entry predicate (arity 0; default main)")
    parser.add_argument("--optimize", action="store_true",
                        help="run the block-local ICI optimiser")
    parser.add_argument("--no-indexing", action="store_true",
                        help="disable first-argument indexing")
    parser.add_argument("--no-lco", action="store_true",
                        help="disable last-call optimisation")


def cmd_run(args, out, err):
    program = _load(args)
    result = run_program(program, max_steps=args.max_steps)
    out.write(result.output)
    if args.stats:
        out.write("%% status=%d steps=%d code=%d ops\n"
                  % (result.status, result.steps, len(program)))
    return result.status


def cmd_listing(args, out, err):
    source = _source(args.file)
    if args.level in ("bam", "both"):
        with _diagnosed(args.file):
            module = compile_source(source, (args.entry, 0),
                                    options=_options(args))
        out.write(module.listing() + "\n")
    if args.level in ("ici", "both"):
        program = _compile(source, args.entry, _options(args),
                           args.optimize, args.file)
        out.write(program.listing() + "\n")
    return 0


def cmd_speedup(args, out, err):
    import repro
    keys = args.machine or ["vliw3"]
    configs = _machines(keys)
    program = _load(args)
    for key in keys:
        config, regioning = configs[key]
        value = repro.measure_speedup(program, config,
                                      regioning=regioning)
        out.write("%-8s %.2fx\n" % (key, value))
    return 0


#: (attribute, flag) of the analyze flags only the suite sweep reads
_SWEEP_ONLY = (("bench", "--bench"), ("format", "--format"),
               ("output", "--output"), ("perf", "--perf"),
               ("jobs", "--jobs"), ("cell_timeout", "--cell-timeout"),
               ("max_attempts", "--max-attempts"), ("report", "--report"))


def cmd_analyze(args, out, err):
    if args.file:
        given = [flag for name, flag in _SWEEP_ONLY
                 if getattr(args, name) is not None]
        if given:
            raise UsageError("FILE takes none of the suite-sweep flags: "
                             + ", ".join(given))
        return _analyze_file(args, out, err)
    return _analyze_suite(args, out, err)


def _analyze_file(args, out, err):
    """Per-file analysis: instruction mix + branch statistics."""
    from repro.analysis.branch_stats import branch_records, average_p_fp
    program = _load(args)
    result = run_program(program, max_steps=args.max_steps)
    mix = instruction_mix(program, result.counts)
    out.write("dynamic operations: %d\n" % sum(result.counts))
    for cls, fraction in mix.items():
        out.write("  %-5s %5.1f%%\n" % (cls, 100 * fraction))
    records = branch_records(program, result.counts, result.taken)
    out.write("branches: %d static, %d dynamic, average P_fp %.3f\n"
              % (len(records), sum(r.executed for r in records),
                 average_p_fp(records)))
    return 0


def _analyze_target(spec):
    """Analyze one suite benchmark (pool worker)."""
    from repro.analysis.driver import timed_analyze
    record, seconds = timed_analyze(spec["bench"], spec["budget"])
    return record, seconds


def _analyze_suite(args, out, err):
    """Dataflow-pass sweep + static ILP bound over suite benchmarks."""
    import time
    from repro.analysis.report import validate_analysis
    from repro.benchmarks import TABLE_BENCHMARKS
    from repro.evaluation.parallel import configure

    names = args.bench or list(TABLE_BENCHMARKS)
    _check_benchmarks(names)
    engine = configure(jobs=_resolve_jobs(args),
                       policy=_supervisor_policy(args))
    specs = [{"bench": name, "budget": args.tail_dup_budget}
             for name in names]
    started = time.perf_counter()
    results = engine.map(_analyze_target, specs)
    elapsed = time.perf_counter() - started

    records = [record for record, _seconds in results]
    # Keep stdout pure JSON in --format json; notices go to stderr.
    json_format = args.format == "json"
    document, problems = _emit_diagnostics_json(
        "analyze", records, out if json_format else None, err,
        validate_analysis)
    notice = err if json_format else out
    published = True
    if args.perf:
        from repro.analysis.driver import (
            analyze_bench_document, validate_analyze_bench)
        entries = [{"target": record["target"], "ops": record["ops"],
                    "seconds": round(seconds, 4)}
                   for record, seconds in results]
        published = _publish(
            "analyze", analyze_bench_document(entries, elapsed),
            args.perf, validate_analyze_bench, notice, err)
    if args.output and not problems:
        published &= _publish("analyze", document, args.output,
                              validate_analysis, notice, err)
    if not json_format:
        out.write("%-12s %9s %9s %9s %8s %8s %6s %6s\n"
                  % ("benchmark", "seq", "achieved", "dfl-limit",
                     "ach-ilp", "dfl-ilp", "gap", "diags"))
        for record in records:
            ilp = record["ilp"]
            out.write("%-12s %9d %9d %9d %8.2f %8.2f %6.2f %6d\n"
                      % (record["target"], ilp["sequential_cycles"],
                         ilp["achieved_cycles"],
                         ilp["dataflow_limit_cycles"],
                         ilp["achieved_speedup"],
                         ilp["dataflow_limit_speedup"], ilp["gap"],
                         record["count"]))
        total = document["count"]
        out.write("analyze: %d benchmark(s), %d diagnostic(s), %.1fs\n"
                  % (len(records), total, elapsed))
    _write_supervisor_report(args, engine, out)
    return 1 if problems or not published else 0


def cmd_bench(args, out, err):
    from repro.benchmarks import TABLE_BENCHMARKS
    from repro.benchmarks.perf import (
        QUICK_BENCHMARKS, bench_document, format_bench, validate_bench)
    if args.name and args.quick:
        raise UsageError("give benchmark names or --quick, not both")
    if args.repeat < 1:
        raise UsageError("--repeat must be at least 1")
    if args.quick:
        names = list(QUICK_BENCHMARKS)
    elif args.name:
        names = args.name
    else:
        names = list(TABLE_BENCHMARKS)
    _check_benchmarks(names)
    document = bench_document(
        names, repeats=args.repeat,
        progress=lambda entry: out.write(format_bench(entry) + "\n"))
    summary = document["summary"]
    totals = " ".join(
        "%s=%.4fs" % (backend, seconds)
        for backend, seconds in summary["total_seconds"].items())
    speedups = " ".join(
        "%s %.2fx" % (backend, speedup)
        for backend, speedup in summary["speedups"].items())
    out.write("total: %s%s over %d benchmark(s)\n"
              % (totals, (" " + speedups if speedups else ""),
                 summary["benchmarks"]))
    if not _publish("bench", document, args.output, validate_bench,
                    out, err):
        return 1
    return 0


def _publish(tool, document, path, validate, out, err):
    """Publish a record at *path* through :func:`repro.records.publish`:
    on *out* a ``wrote`` notice, or on *err* each schema problem (and
    nothing written).  Returns whether the record was written."""
    from repro.records import publish
    problems = publish(document, path, validate)
    for problem in problems:
        err.write("%s: schema problem: %s\n" % (tool, problem))
    if problems:
        err.write("%s: %s not written\n" % (tool, path))
        return False
    out.write("wrote %s\n" % path)
    return True


def _resolve_jobs(args):
    return args.jobs if args.jobs else (os.cpu_count() or 1)


def _supervisor_policy(args):
    """A SupervisorPolicy reflecting the --cell-timeout/--max-attempts
    flags (defaults where the flags are absent)."""
    from repro.evaluation.supervisor import SupervisorPolicy
    policy = SupervisorPolicy()
    if getattr(args, "max_attempts", None):
        policy.max_attempts = max(1, args.max_attempts)
    timeout = getattr(args, "cell_timeout", None)
    if timeout is not None:
        # 0 (or negative) disables the watchdog entirely.
        policy.deadline = timeout if timeout > 0 else None
    return policy


def _write_supervisor_report(args, engine, out):
    """Print the supervised sweep's outcome summary; with --report,
    also publish the structured JSON form (atomically)."""
    report = engine.report
    if report.records or report.interrupted:
        out.write(report.summary() + "\n")
    path = getattr(args, "report", None)
    if path:
        from repro.atomicio import atomic_write_json
        atomic_write_json(path, report.to_json(), indent=2,
                          sort_keys=True)
        out.write("wrote %s\n" % path)


def _add_supervisor_flags(parser, jobs=True, report=True):
    """-j/--jobs (*jobs*; query sizes its pool by --or-jobs instead),
    --cell-timeout and --max-attempts; *report* adds --report, for the
    sub-commands that write the sweep's EvaluationReport."""
    if jobs:
        parser.add_argument("-j", "--jobs", type=int, metavar="N",
                            help="worker processes (default: all "
                                 "cores; 1 = in-process)")
    parser.add_argument("--cell-timeout", type=float, metavar="SECONDS",
                        help="watchdog deadline per evaluation task "
                             "(default 300; 0 disables)")
    parser.add_argument("--max-attempts", type=int, metavar="N",
                        help="executions per task before it is marked "
                             "failed (default 3)")
    if report:
        parser.add_argument("--report", metavar="PATH",
                            help="write the structured EvaluationReport "
                                 "(per-task status/attempts/timings) "
                                 "as JSON")


def _trace_seed():
    """The CLI tracer's seed: ``REPRO_TRACE_SEED`` (default 0), as an
    int when it parses as one (any string seeds the run id too)."""
    from repro.observability.tracing import SEED_ENV
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        return raw


def _traced(path, body, out, err):
    """Run *body* under an active tracer rooted at an ``evaluate`` span
    and publish the trace at *path* (validated first).

    ``REPRO_TRACE_DETERMINISTIC=1`` drops wall-clock timings so reruns
    at the same seed render byte-identical documents.
    """
    from repro.observability import (
        activation, trace_lines, validate_trace, write_trace)
    timings = os.environ.get("REPRO_TRACE_DETERMINISTIC",
                             "") in ("", "0")
    with activation(seed=_trace_seed()) as tracer:
        try:
            with tracer.span("evaluate"):
                status = body()
        except BaseException:
            # Cancellation/crash: span contexts closed on unwind and
            # the supervisor abandoned its task spans, so publish the
            # partial trace before the exception surfaces.
            write_trace(path, tracer, timings=timings)
            raise
    problems = validate_trace(trace_lines(tracer, timings=timings))
    for problem in problems:
        err.write("trace: invariant violated: %s\n" % problem)
    write_trace(path, tracer, timings=timings)
    out.write("wrote trace %s (%d span(s), run %s)\n"
              % (path, len(tracer.spans), tracer.run_id))
    return 1 if problems else status


def cmd_evaluate(args, out, err):
    if args.bench and args.output:
        raise UsageError("--output writes the paper's artefacts; the "
                         "--bench smoke table is not one")
    _check_benchmarks(args.bench or [])
    if args.trace:
        body = lambda: _cmd_evaluate(args, out, err)
        return _traced(args.trace, body, out, err)
    return _cmd_evaluate(args, out, err)


def _cmd_evaluate(args, out, err):
    from repro.evaluation.parallel import configure
    from repro.experiments import run_all, write_results
    engine = configure(jobs=_resolve_jobs(args),
                       policy=_supervisor_policy(args))
    if args.bench:
        return _evaluate_smoke(args, engine, out, err)
    texts = run_all(extras=args.extras)
    if args.output:
        for path in write_results(texts, args.output):
            out.write("wrote %s\n" % path)
    else:
        for text in texts.values():
            out.write(text + "\n\n")
    _report_profile_backends(out)
    _write_supervisor_report(args, engine, out)
    return 0


def _report_profile_backends(out):
    """Summarise which emulator loop produced each profile artefact:
    a program whose run outlived the compile budget reports
    ``codegen``, every other one ``reference``."""
    from repro.experiments.data import profile_backends
    backends = profile_backends()
    if not backends:
        return
    by_backend = {}
    for name, backend in backends.items():
        by_backend.setdefault(backend, []).append(name)
    parts = ["%s x%d" % (backend, len(names))
             for backend, names in sorted(by_backend.items())]
    out.write("profiles: %s\n" % ", ".join(parts))
    if len(by_backend) > 1:
        for backend, names in sorted(by_backend.items()):
            out.write("  %s: %s\n" % (backend, ", ".join(sorted(names))))


def _evaluate_smoke(args, engine, out, err):
    """Evaluate a named subset of benchmarks (the CI smoke sweep)."""
    configs = _machines()
    evaluations = engine.evaluate_many(
        [{"name": name, "configs": configs} for name in args.bench])
    keys = sorted(configs)
    out.write("%-12s %s %10s\n" % ("benchmark", " ".join(
        "%10s" % key for key in keys), "profile"))
    for evaluation in evaluations:
        out.write("%-12s %s %10s\n" % (evaluation.name, " ".join(
            "%10d" % evaluation.cycles(key) for key in keys),
            evaluation.data.get("backend", "?")))
    stats = engine.store.stats()
    out.write("cache: %d hit(s), %d miss(es), %d corrupt entr%s "
              "recomputed\n" % (stats["hits"], stats["misses"],
                                stats["corrupt"],
                                "y" if stats["corrupt"] == 1 else "ies"))
    _write_supervisor_report(args, engine, out)
    return 0


def cmd_trace(args, out, err):
    from repro.observability import (
        load_trace, summarize_trace, validate_trace)
    try:
        lines = load_trace(args.trace_file)
    except OSError as error:
        raise UsageError("cannot read %s: %s" % (
            args.trace_file, error.strerror or error)) from None
    except ValueError as error:
        err.write("trace: %s is not JSONL: %s\n"
                  % (args.trace_file, error))
        return 1
    problems = validate_trace(lines)
    if problems:
        for problem in problems:
            err.write("trace: %s\n" % problem)
        err.write("trace: %d problem(s) in %s\n"
                  % (len(problems), args.trace_file))
        return 1
    if args.action == "validate":
        out.write("%s: valid (%d span(s))\n"
                  % (args.trace_file, lines[0]["spans"]))
        return 0
    info = summarize_trace(lines)
    out.write("run %s  %d span(s)%s\n"
              % (info["run_id"], info["spans"],
                 "  [deterministic]" if info["deterministic"] else ""))
    for name, entry in info["by_name"].items():
        elapsed = "" if entry["elapsed"] is None \
            else "  %8.4fs" % entry["elapsed"]
        errors = "" if not entry["errors"] \
            else "  %d error(s)" % entry["errors"]
        out.write("  %-24s x%-5d%s%s\n"
                  % (name, entry["count"], elapsed, errors))
    if info["counters"]:
        out.write("counters:\n")
        for name, value in info["counters"].items():
            out.write("  %-32s %d\n" % (name, value))
    if info["gauges"]:
        out.write("gauges:\n")
        for name, value in info["gauges"].items():
            out.write("  %-32s %r\n" % (name, value))
    return 0


def _emit_diagnostics_json(tool, entries, out, err, validate=None):
    """Build the shared JSON document over per-target *entries*, name
    each problem *validate* (default: ``validate_diagnostics``) finds
    on *err*, and print the document on *out* (unless it is None).
    Returns ``(document, problems)``."""
    import json
    from repro.analysis.report import (
        diagnostics_document, validate_diagnostics)
    document = diagnostics_document(tool, entries)
    problems = (validate or validate_diagnostics)(document)
    for problem in problems:
        err.write("%s: schema problem: %s\n" % (tool, problem))
    if out is not None:
        out.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document, problems


def cmd_lint(args, out, err):
    from repro.analysis import lint_program, format_diagnostics
    from repro.analysis.report import target_entry
    program = _load(args)
    diagnostics = lint_program(program)
    if args.format == "json":
        _, problems = _emit_diagnostics_json(
            "lint",
            [target_entry(args.file, diagnostics, ops=len(program))],
            out, err)
        return 1 if (diagnostics or problems) else 0
    if diagnostics:
        err.write(format_diagnostics(diagnostics) + "\n")
        err.write("%s: %d lint finding(s)\n"
                  % (args.file, len(diagnostics)))
        return 1
    out.write("%s: clean (%d ops)\n" % (args.file, len(program)))
    return 0


def cmd_corpus(args, out, err):
    from repro.evaluation.parallel import configure
    from repro.experiments.corpus_sweep import (
        run_corpus_sweep, validate_corpus_bench)

    if args.quick and args.count is not None:
        raise UsageError("give --count or --quick, not both")
    count = 10 if args.quick else (args.count
                                   if args.count is not None else 200)
    engine = configure(jobs=_resolve_jobs(args),
                       policy=_supervisor_policy(args))
    document = run_corpus_sweep(count, args.base_seed, engine=engine,
                                budget=args.tail_dup_budget,
                                saturation=args.quick or args.saturation)

    summary = document["summary"]
    claim = summary["claim"]
    out.write("corpus: %d program(s) = %d generated + %d DCG "
              "workload(s), %d steps in %.1fs\n"
              % (summary["programs"], summary["generated"],
                 summary["dcg_workloads"], summary["total_steps"],
                 summary["total_seconds"]))
    out.write("oracle: %d mismatch(es); verifier: %d program(s) with "
              "findings\n"
              % (len(summary["oracle_mismatches"]),
                 len(summary["verify_finding_programs"])))
    out.write("branch claim (P_fp <= %.2f): holds for %d/%d "
              "(median %.3f, worst %.3f)\n"
              % (claim["threshold_p_fp"], claim["predictable"],
                 claim["programs_with_branches"],
                 claim["p_fp_distribution"]["median"],
                 claim["p_fp_distribution"]["max"]))
    for outlier in claim["worst"][:3]:
        out.write("  breaks on %-12s P_fp=%.3f %s\n"
                  % (outlier["name"], outlier["avg_p_fp"],
                     ",".join(outlier["schemes"]) or "dcg workload"))
    gap = summary["ilp"]["gap"]
    out.write("static ILP gap: median %.2fx (p25 %.2fx, p75 %.2fx, "
              "max %.2fx)\n"
              % (gap["median"], gap["p25"], gap["p75"], gap["max"]))
    if "saturation" in summary:
        curve = summary["saturation"]
        out.write("saturation (mean speedup): %s\n"
                  % "  ".join("%s %.2fx" % (key, curve[key]["mean"])
                              for key in sorted(curve)))

    if not _publish("corpus", document, args.output,
                    validate_corpus_bench, out, err):
        return 1
    _write_supervisor_report(args, engine, out)
    if summary["oracle_mismatches"]:
        err.write("corpus: differential oracle mismatches: %s\n"
                  % ", ".join(summary["oracle_mismatches"]))
        return 1
    if summary["verify_finding_programs"]:
        err.write("corpus: checker findings on: %s\n"
                  % ", ".join(summary["verify_finding_programs"]))
        return 1
    return 0


def _verify_target(spec):
    """Run the independent checker over one target (pool worker)."""
    from repro.evaluation.pipeline import verify_evaluation

    if "source" in spec:
        program = _compile(spec["source"], spec["entry"],
                           optimize=spec["optimize"], path=spec["file"])
    else:
        program = compile_benchmark(spec["bench"])
    hint = os.path.basename(spec.get("file") or spec["bench"]) + "-"
    result = run_program_cached(program, hint)
    diagnostics = verify_evaluation(
        program, result, spec["configs"],
        tail_dup_budget=spec["tail_dup_budget"],
        cache_hint=hint, bank_size=spec["bank_size"])
    return len(program), diagnostics


def cmd_verify(args, out, err):
    from repro.analysis import format_diagnostics
    from repro.benchmarks import TABLE_BENCHMARKS
    from repro.evaluation.parallel import configure

    configs = _machines(args.machine)
    common = {"configs": configs, "tail_dup_budget": args.tail_dup_budget,
              "bank_size": args.bank_size}
    specs = []
    if args.file:
        # Read and compiled here, so a bad FILE is a usage error and the
        # pool worker never touches the file system.
        source = _source(args.file)
        _compile(source, args.entry, optimize=args.optimize,
                 path=args.file)
        specs.append(dict(common, file=args.file, source=source,
                          entry=args.entry, optimize=args.optimize))
    names = args.bench or ([] if args.file else list(TABLE_BENCHMARKS))
    _check_benchmarks(names)
    specs.extend(dict(common, bench=name) for name in names)

    # The checker sweep is one independent task per target; fan the
    # targets over the shared engine's worker pool (supervised:
    # deadlines, bounded retry, pool resurrection).
    engine = configure(jobs=_resolve_jobs(args),
                       policy=_supervisor_policy(args))
    results = engine.map(_verify_target, specs)

    if args.format == "json":
        from repro.analysis.report import target_entry
        entries = []
        any_findings = False
        for spec, (n_ops, diagnostics) in zip(specs, results):
            name = spec.get("file") or spec["bench"]
            any_findings = any_findings or bool(diagnostics)
            entries.append(target_entry(
                name, diagnostics, ops=n_ops,
                machine_configs=sorted(configs)))
        _, problems = _emit_diagnostics_json("verify", entries, out, err)
        _write_supervisor_report(args, engine, out)
        return 1 if (any_findings or problems) else 0

    status = 0
    total = 0
    for spec, (n_ops, diagnostics) in zip(specs, results):
        name = spec.get("file") or spec["bench"]
        if diagnostics:
            status = 1
            total += len(diagnostics)
            err.write("== %s ==\n" % name)
            err.write(format_diagnostics(diagnostics) + "\n")
            out.write("%-12s FAIL  %d finding(s)\n"
                      % (name, len(diagnostics)))
        else:
            out.write("%-12s ok    %d ops, %d machine config(s)\n"
                      % (name, n_ops, len(configs)))
    if status:
        err.write("verify: %d finding(s) across %d target(s)\n"
                  % (total, len(specs)))
    else:
        out.write("verify: all %d target(s) clean\n" % len(specs))
    _write_supervisor_report(args, engine, out)
    return status


def _serve_config(args):
    from repro.serve.service import ServiceConfig
    policy = _supervisor_policy(args)
    return ServiceConfig(
        host=args.host, port=args.port, jobs=_resolve_jobs(args),
        cache_root=args.cache_dir,
        queue_limit=args.queue_limit,
        default_deadline=args.deadline,
        breaker_threshold=args.breaker_threshold,
        cell_timeout=policy.deadline, max_attempts=policy.max_attempts)


async def _serve_async(config, out):
    import asyncio
    import signal as signals

    from repro.serve.service import EvaluationService
    service = EvaluationService(config)
    port = await service.start()
    out.write("repro-serve: listening on http://%s:%d "
              "(%d worker(s), queue limit %d)\n"
              % (config.host, port, config.jobs, config.queue_limit))
    out.flush()
    loop = asyncio.get_running_loop()
    for signum in (signals.SIGTERM, signals.SIGINT):
        try:
            loop.add_signal_handler(signum, service.begin_drain)
        except (NotImplementedError, ValueError, RuntimeError):
            pass
    await service.wait_closed()
    out.write("repro-serve: drained after %d request(s)\n"
              % service.metrics.count("serve.requests"))
    out.flush()


def cmd_serve(args, out, err):
    if args.load_test:
        from repro.serve.loadtest import (
            run_load_test, validate_serve_bench)
        document = run_load_test(
            requests=args.load_test, concurrency=args.concurrency,
            jobs=_resolve_jobs(args), url=args.url,
            queue_limit=args.queue_limit,
            progress=lambda text: out.write("serve: %s\n" % text))
        latency = document["latency_ms"]
        out.write("serve: %d request(s), p50 %.1fms p99 %.1fms, "
                  "ok %d shed %d failed %d, degraded %d retried %d, "
                  "warm hit rate %s, wrong answers %d\n"
                  % (document["requests"], latency["p50"],
                     latency["p99"], document["outcomes"]["ok"],
                     document["outcomes"]["shed"],
                     document["outcomes"]["failed"],
                     document["responses"]["degraded"],
                     document["responses"]["retried"],
                     "n/a" if document["warm_hit_rate"] is None
                     else "%.1f%%" % (100 * document["warm_hit_rate"]),
                     document["wrong_answers"]))
        return 0 if _publish("serve", document, args.output,
                             validate_serve_bench, out, err) else 1
    import asyncio
    asyncio.run(_serve_async(_serve_config(args), out))
    return 0


def cmd_query(args, out, err):
    if args.sweep:
        if args.report:
            raise UsageError("--report applies to one query, not to "
                             "--sweep")
        return _query_sweep(args, out, err)
    if bool(args.benchmark) == bool(args.file):
        raise UsageError("give a suite benchmark name or --file (one of "
                         "them, not both)")
    if args.file:
        source = _source(args.file)
        with _diagnosed(args.file):
            parse_program(source)
    else:
        from repro.benchmarks.suite import resolve_program
        try:
            source = resolve_program(args.benchmark).source
        except KeyError as error:
            raise UsageError(error.args[0]) from None
    with _diagnosed("--goal"):
        parse_term(args.goal)

    from repro.evaluation.parallel import configure
    from repro.interp.engine import PrologError
    from repro.interp.orparallel import or_solutions, sequential_answers
    engine = configure(jobs=max(1, args.or_jobs),
                       policy=_supervisor_policy(args))
    try:
        result = or_solutions(source, args.goal, engine=engine,
                              use_memo=not args.no_memo,
                              limit=args.limit)
    except PrologError as error:
        err.write("query: %s\n" % error)
        return 1

    if result["output"]:
        out.write(result["output"])
        if not result["output"].endswith("\n"):
            out.write("\n")
    for answer in result["answers"]:
        out.write(answer + "\n")
    summary = ("query: mode=%s branches=%d answers=%d or-jobs=%d"
               % (result["mode"], result["branches"], result["count"],
                  engine.jobs))
    if result.get("fallback"):
        summary += " (fallback: %s)" % result["fallback"]
    if result["truncated"]:
        summary += " [truncated at %d]" % args.limit
    out.write(summary + "\n")

    status = 0
    if args.compare:
        oracle = sequential_answers(source, args.goal,
                                    limit=args.limit)
        if (result["answers"] == oracle["answers"]
                and result["output"] == oracle["output"]):
            out.write("differential: answers and output match the "
                      "sequential engine\n")
        else:
            err.write("differential: MISMATCH against the sequential "
                      "engine (%d vs %d answer(s))\n"
                      % (result["count"], oracle["count"]))
            status = 1
    _write_supervisor_report(args, engine, out)
    return status


def _query_sweep(args, out, err):
    from repro.experiments.orparallel_bench import (
        run_orparallel_bench, validate_orparallel_bench)
    document = run_orparallel_bench(
        quick=args.quick, policy=_supervisor_policy(args),
        progress=lambda name: out.write("query: %s\n" % name))

    differential = document["differential"]
    out.write("differential: %d program(s) x or-jobs %s: "
              "%d mismatch(es), %d split / %d fallback run(s)\n"
              % (differential["checked"],
                 ",".join(str(level)
                          for level in differential["jobs_levels"]),
                 len(differential["mismatches"]),
                 differential["splits"], differential["fallbacks"]))
    for workload in document["search"]["workloads"]:
        speedups = workload["or_speedup_by_jobs"]
        out.write("search %-13s %d branch(es), %d answer(s): %s, "
                  "memo hit rate %.0f%%\n"
                  % (workload["name"], workload["branches"],
                     workload["answers"],
                     "  ".join("j%s %.2fx" % (jobs, speedups[jobs])
                               for jobs in sorted(speedups, key=int)),
                     100 * workload["memo"]["hit_rate"]))
    for entry in document["stacking"]["benchmarks"]:
        out.write("stacking %-10s ilp %.2fx x or %.2fx = %.2fx\n"
                  % (entry["name"], entry["ilp_speedup"],
                     entry["or_speedup"], entry["stacked_speedup"]))

    if not _publish("query", document,
                    args.output or "results/BENCH_orparallel.json",
                    validate_orparallel_bench, out, err):
        return 1
    if differential["mismatches"]:
        err.write("query: differential mismatches: %s\n"
                  % ", ".join(differential["mismatches"]))
        return 1
    if differential["fallback_violations"]:
        err.write("query: fallback expectation violated: %s\n"
                  % ", ".join(differential["fallback_violations"]))
        return 1
    return 0


def cmd_cache(args, out, err):
    from repro.evaluation.cache import open_store
    store = open_store(args.dir)
    if args.action == "stats":
        usage = store.usage()
        out.write("cache %s: %d entr(ies), %d byte(s), "
                  "%d quarantined (%d byte(s))\n"
                  % (usage["root"], usage["entries"], usage["bytes"],
                     usage["quarantined_files"],
                     usage["quarantined_bytes"]))
        for kind, occupancy in usage["kinds"].items():
            out.write("  %s: %d entr(ies), %d byte(s)\n"
                      % (kind, occupancy["entries"], occupancy["bytes"]))
        return 0
    # gc: size-budgeted LRU eviction + quarantine purge
    result = store.gc(args.budget)
    out.write("cache gc: removed %d entr(ies) (%d byte(s) freed), "
              "kept %d (%d byte(s)) within budget %d\n"
              % (result["removed"], result["freed_bytes"],
                 result["kept"], result["kept_bytes"],
                 result["budget_bytes"]))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SYMBOL: instruction-level parallelism in Prolog")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="compile and emulate a program")
    _add_compile_flags(p)
    p.add_argument("--stats", action="store_true")
    p.add_argument("--max-steps", type=int, default=500_000_000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("listing", help="show compiled code")
    _add_compile_flags(p)
    p.add_argument("--level", choices=("bam", "ici", "both"),
                   default="both")
    p.set_defaults(func=cmd_listing)

    p = sub.add_parser("speedup", help="measure machine speedups")
    _add_compile_flags(p)
    p.add_argument("-m", "--machine", action="append", metavar="KEY",
                   help="machine config key (repeatable; default "
                        "vliw3)")
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser("analyze",
                       help="per-file: instruction mix + branch stats; "
                            "without a file: dead code, memory "
                            "disambiguation + static ILP bound over "
                            "suite benchmarks")
    _add_compile_flags(p, optional=True)
    p.add_argument("--max-steps", type=int, default=500_000_000)
    p.add_argument("--bench", action="append", metavar="NAME",
                   help="suite benchmark to analyze (repeatable; "
                        "default: the paper's table benchmarks)")
    p.add_argument("--format", choices=("text", "json"),
                   help="suite-sweep output format (default text)")
    p.add_argument("--output", metavar="PATH",
                   help="also write the JSON analyze document to PATH")
    p.add_argument("--perf", metavar="PATH",
                   help="write the analysis overhead record "
                        "(BENCH_analyze.json layout) to PATH")
    p.add_argument("--tail-dup-budget", type=int, default=48)
    _add_supervisor_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench",
                       help="time both emulator loops over the "
                            "paper suite")
    p.add_argument("name", nargs="*",
                   help="suite benchmark(s) to time (default: the "
                        "paper's table benchmarks)")
    p.add_argument("--quick", action="store_true",
                   help="time only the two cheapest benchmarks (the "
                        "CI smoke subset)")
    p.add_argument("--repeat", type=int, default=3, metavar="N",
                   help="timing repeats per emulator loop; best-of-N is "
                        "recorded (default 3)")
    p.add_argument("--output", default="BENCH_emulator.json",
                   metavar="PATH",
                   help="where to write the perf record (default "
                        "BENCH_emulator.json)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("evaluate", help="regenerate the paper's tables")
    p.add_argument("--extras", action="store_true",
                   help="include ablations / future-work studies")
    p.add_argument("--bench", action="append", metavar="NAME",
                   help="smoke-sweep only these benchmarks under the "
                        "master configs (repeatable)")
    p.add_argument("--trace", metavar="PATH",
                   help="record a structured trace of the sweep "
                        "(spans + metrics) as JSONL at PATH; see "
                        "'repro trace summary'")
    p.add_argument("--output", metavar="DIR",
                   help="write each table/figure to its committed "
                        "file name under DIR (e.g. results) instead "
                        "of printing it")
    _add_supervisor_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("trace",
                       help="inspect a trace written by evaluate "
                            "--trace")
    p.add_argument("action", choices=("summary", "validate"),
                   help="summary: aggregate spans/metrics; validate: "
                        "schema + invariant check only")
    p.add_argument("trace_file", metavar="FILE",
                   help="JSONL trace file")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("lint",
                       help="check a compiled program's ICI for "
                            "well-formedness")
    _add_compile_flags(p)
    p.add_argument("--format", choices=("text", "json"),
                   default="text",
                   help="diagnostics as human text (default) or the "
                        "shared JSON document")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("corpus",
                       help="sweep the generated corpus + DCG workloads "
                            "through the differential oracle, the "
                            "checker and the static ILP bound")
    p.add_argument("--count", type=int, metavar="N",
                   help="generated programs to sweep (default 200)")
    p.add_argument("--quick", action="store_true",
                   help="small fixed seed set (10 programs; CI smoke); "
                        "implies --saturation")
    p.add_argument("--saturation", action="store_true",
                   help="also sweep the vliw1..vliw5 issue-width "
                        "saturation curve per program")
    p.add_argument("--base-seed", type=int, default=1992, metavar="SEED",
                   help="first generator seed (default 1992)")
    p.add_argument("--tail-dup-budget", type=int, default=48)
    p.add_argument("--output", default="results/BENCH_corpus.json",
                   metavar="PATH",
                   help="corpus document path (default "
                        "results/BENCH_corpus.json)")
    _add_supervisor_flags(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("verify",
                       help="run the independent checker over the "
                            "evaluation pipeline")
    p.add_argument("--bench", action="append", metavar="NAME",
                   help="suite benchmark to verify (repeatable; "
                        "default: the paper's table benchmarks)")
    p.add_argument("--file", help="verify a Prolog source file instead")
    p.add_argument("--entry", default="main",
                   help="entry predicate for --file (default main)")
    p.add_argument("--optimize", action="store_true",
                   help="optimise the --file program before verifying")
    p.add_argument("-m", "--machine", action="append", metavar="KEY",
                   help="machine config key (repeatable; default: all "
                        "master configs)")
    p.add_argument("--tail-dup-budget", type=int, default=48)
    p.add_argument("--bank-size", type=int, default=16,
                   help="register bank size for allocation checking")
    p.add_argument("--format", choices=("text", "json"),
                   default="text",
                   help="diagnostics as human text (default) or the "
                        "shared JSON document")
    _add_supervisor_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("serve",
                       help="run the evaluation service (HTTP/JSON); "
                            "--load-test drives it instead")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (default 0 = ephemeral, printed "
                        "at startup)")
    p.add_argument("--cache-dir", metavar="PATH",
                   help="cache root (default: REPRO_CACHE_DIR)")
    p.add_argument("--queue-limit", type=int, default=64, metavar="N",
                   help="requests that may wait behind the one "
                        "executing; beyond it requests are shed with "
                        "429 (default 64)")
    p.add_argument("--deadline", type=float, default=120.0,
                   metavar="SECONDS",
                   help="default per-request deadline (default 120)")
    p.add_argument("--breaker-threshold", type=int, default=2,
                   metavar="N",
                   help="pool deaths before the circuit breaker "
                        "opens (default 2)")
    p.add_argument("--load-test", type=int, metavar="N",
                   help="run the load test (N mixed requests) instead "
                        "of serving")
    p.add_argument("--concurrency", type=int, default=64, metavar="N",
                   help="load-test client concurrency (default 64)")
    p.add_argument("--url", metavar="URL",
                   help="load-test an already running service instead "
                        "of self-hosting one")
    p.add_argument("--output", default="BENCH_serve.json",
                   metavar="PATH",
                   help="load-test document path (default "
                        "BENCH_serve.json)")
    _add_supervisor_flags(p, report=False)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query",
                       help="enumerate a goal with the or-parallel "
                            "search engine (answers memoized; "
                            "--sweep measures ILP x or stacking)")
    p.add_argument("benchmark", nargs="?",
                   help="suite benchmark whose program to query "
                        "(or use --file)")
    p.add_argument("--file", metavar="PATH",
                   help="query a Prolog source file instead of a "
                        "suite benchmark")
    p.add_argument("--goal", default="main", metavar="GOAL",
                   help="goal to enumerate (default main)")
    p.add_argument("--or-jobs", type=int, default=1, metavar="N",
                   help="or-parallel branch workers (default 1 = "
                        "sequential)")
    p.add_argument("--limit", type=int, metavar="N",
                   help="stop after N answers")
    p.add_argument("--no-memo", action="store_true",
                   help="bypass the answer-memo table")
    p.add_argument("--compare", action="store_true",
                   help="differentially check answers + output "
                        "against the sequential engine (exit 1 on "
                        "mismatch)")
    p.add_argument("--sweep", action="store_true",
                   help="run the differential + stacking bench and "
                        "write results/BENCH_orparallel.json")
    p.add_argument("--quick", action="store_true",
                   help="with --sweep: the CI smoke subset (or-jobs "
                        "1,2; fewer programs)")
    p.add_argument("--output", metavar="PATH",
                   help="with --sweep: bench document path (default "
                        "results/BENCH_orparallel.json)")
    _add_supervisor_flags(p, jobs=False)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("cache",
                       help="inspect or garbage-collect the "
                            "content-addressed artefact cache")
    p.add_argument("action", choices=("stats", "gc"))
    p.add_argument("--dir", metavar="PATH",
                   help="cache root (default: REPRO_CACHE_DIR)")
    p.add_argument("--budget", type=int, default=256 * 1024 * 1024,
                   metavar="BYTES",
                   help="gc: evict least-recently-used entries until "
                        "the cache fits (default 256 MiB)")
    p.set_defaults(func=cmd_cache)
    return parser


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    args = build_parser().parse_args(argv)
    # Fail fast on a typo'd fault-injection spec: an armed fault that
    # can never fire is itself a bug, not a no-op.
    from repro.testing import faults
    try:
        faults.validate_environment()
    except ValueError as error:
        err.write("repro: %s\n" % error)
        return 2
    from repro.evaluation.parallel import EvaluationError, shared_engine
    try:
        return args.func(args, out, err)
    except UsageError as error:
        err.write("repro %s: %s\n" % (args.command, error))
        return 2
    except EvaluationError as error:
        # Some sweep task still failed after its retries; the rest of
        # the sweep ran.  Name the failures, then the supervisor's
        # summary (and --report) as after any sweep.
        err.write(str(error) + "\n")
        _write_supervisor_report(args, shared_engine(), out)
        return 1
    except KeyboardInterrupt:
        # Cooperative cancellation (the supervisor converts
        # SIGINT/SIGTERM into this): completed artefacts are already
        # atomically published, so a re-run resumes from the cache.
        err.write("repro: interrupted — partial results are in the "
                  "cache; re-run to resume\n")
        return 130


if __name__ == "__main__":
    sys.exit(main())
