"""The or-parallel bench: differential lockdown + ILP x or stacking.

``repro query --sweep`` produces ``results/BENCH_orparallel.json``,
which records two things about the or-parallel search engine
(:mod:`repro.interp.orparallel`):

1. **Differential correctness** — every target program (the paper's
   table suite, the three DCG application workloads, a slice of the
   generated corpus, the pure search workloads below, and the
   cut/negation/if-then-else adversarial programs) is enumerated at
   every or-jobs level and the answers + output are compared, byte
   for byte, against the sequential reference engine.  The memo is
   disabled here — a cache hit would make the comparison vacuous.
   Adversarial targets additionally assert that the conservative
   splitter *refused* to split them.

2. **Speedup stacking** — the paper mines instruction-level
   parallelism (its VLIW speedups); or-parallelism is an orthogonal
   source-level axis.  The bench times the pure search workloads at
   each jobs level (``or_speedup``), measures the answer-memo hit
   rate on a repeated query, takes the ILP speedup (``seq`` vs
   ``vliw3`` cycles) for a couple of table benchmarks from the
   evaluation pipeline, and reports the modelled product
   ``stacked = ilp x or`` — the two levels multiply because one
   lives inside a branch's instruction stream and the other across
   branches.

The search workloads are *designed* to split: their top predicate has
one clause per branch of the first real choice point, each branch
carrying an equal share of pure, recursion-heavy work (naive fib,
permutation enumeration, an all-solutions 7-queens).  Paper-suite
``main`` goals are deterministic drivers with side-effecting output,
so they exercise the sequential-fallback path instead — both paths
are part of the contract.
"""

import os
import time

from repro.records import check_header, header, require

__all__ = [
    "ADVERSARIAL_PROGRAMS",
    "DIFFERENTIAL_JOBS",
    "ORPARALLEL_BENCH_SCHEMA",
    "SEARCH_WORKLOADS",
    "run_orparallel_bench",
    "validate_orparallel_bench",
]

ORPARALLEL_BENCH_SCHEMA = 2

ORPARALLEL_BENCH_KIND = "orparallel-bench"

#: or-jobs levels the differential section checks
DIFFERENTIAL_JOBS = (1, 2, 4)

#: generated-corpus programs included in the differential section
CORPUS_SLICE = 50

#: answer cap for differential targets (deterministic ``main`` goals
#: yield one answer; corpus goals may enumerate)
DIFFERENTIAL_LIMIT = 32

#: table benchmarks whose seq/vliw3 cycle ratio anchors the stacking
STACKING_BENCHMARKS = ("qsort", "queens_8")

_FIB = """
fib(N, F) :- N < 2, F = N.
fib(N, F) :- N >= 2, N1 is N - 1, N2 is N - 2,
             fib(N1, F1), fib(N2, F2), F is F1 + F2.
"""

_PERM = """
select(X, [X|T], T).
select(X, [H|T], [H|R]) :- select(X, T, R).
perm([], []).
perm(L, [X|P]) :- select(X, L, R), perm(R, P).
"""

#: pure, branch-balanced workloads whose first choice point fans out
SEARCH_WORKLOADS = {
    # eight equal branches of naive double-recursive fib: the
    # embarrassingly parallel end of the spectrum
    "fanout_fib": {
        "goal": "probe(K, F)",
        "source": _FIB + "".join(
            "probe(%d, F) :- fib(16, G), F is G + %d.\n" % (k, k)
            for k in range(1, 9)),
    },
    # all 5040 permutations of [1..7], split seven ways on the first
    # element: a large ordered answer set reassembled across branches
    "perm_split": {
        "goal": "route(K, P)",
        "source": _PERM + "".join(
            "route(%d, [%d|P]) :- perm([%s], P).\n"
            % (k, k, ",".join(str(j) for j in range(1, 8) if j != k))
            for k in range(1, 8)),
    },
    # all-solutions 7-queens via permute-and-check, split on the
    # first queen's column; arithmetic guards keep it cut-free
    "queens_split": {
        "goal": "queens(K, Qs)",
        "source": _PERM + """
no_attack(_, [], _).
no_attack(Q, [Q2|Qs], D) :-
    Q2 =\\= Q + D, Q2 =\\= Q - D, D1 is D + 1, no_attack(Q, Qs, D1).
safe([]).
safe([Q|Qs]) :- no_attack(Q, Qs, 1), safe(Qs).
""" + "".join(
            "queens(%d, [%d|Qs]) :- perm([%s], Qs), safe([%d|Qs]).\n"
            % (k, k, ",".join(str(j) for j in range(1, 8) if j != k), k)
            for k in range(1, 8)),
    },
}

#: programs the splitter must *refuse*: each enumerates several
#: answers whose multiset/order depends on the impure construct, so a
#: naive split would corrupt them
ADVERSARIAL_PROGRAMS = {
    "adversarial_cut": {
        "goal": "picked(X)",
        "source": """
item(a). item(b). item(c).
pick(X) :- item(X), !.
picked(X) :- pick(X).
picked(X) :- item(X).
""",
    },
    "adversarial_negation": {
        "goal": "odd_one(X)",
        "source": """
item(a). item(b). item(c).
chosen(b).
odd_one(X) :- item(X), \\+ chosen(X).
odd_one(none) :- \\+ item(d).
""",
    },
    "adversarial_ite": {
        "goal": "classify(X, C)",
        "source": """
item(1). item(2). item(3).
classify(X, C) :- item(X), (X > 2 -> C = big ; C = small).
classify(0, zero).
""",
    },
}


def _warm(item):
    """Pool warm-up no-op (spawn cost must not pollute timings)."""
    return item


def _differential_targets(quick):
    """(name, kind, source, goal, expect_fallback) tuples to check."""
    from repro.benchmarks import TABLE_BENCHMARKS
    from repro.benchmarks.suite import resolve_program
    from repro.corpus.generate import corpus_programs

    suite = [name for name in TABLE_BENCHMARKS
             if not (quick and name == "tak")]
    if quick:
        suite = suite[:4]
    targets = [(name, "suite", resolve_program(name).source, "main",
                None) for name in suite]
    targets += [(name, "dcg", resolve_program(name).source, "main",
                 None)
                for name in ("dcg_calc", "dcg_grammar", "dcg_json")]
    count = 10 if quick else CORPUS_SLICE
    targets += [(program.name, "corpus", program.source, "main", None)
                for program in corpus_programs(count)]
    targets += [(name, "search", workload["source"], workload["goal"],
                 False)
                for name, workload in sorted(SEARCH_WORKLOADS.items())]
    targets += [(name, "adversarial", program["source"],
                 program["goal"], True)
                for name, program in sorted(ADVERSARIAL_PROGRAMS.items())]
    return targets


def _run_differential(engines, quick, progress):
    from repro.interp.orparallel import or_solutions, sequential_answers

    records = []
    splits = fallbacks = 0
    for name, kind, source, goal, expect_fallback in \
            _differential_targets(quick):
        oracle = sequential_answers(source, goal,
                                    limit=DIFFERENTIAL_LIMIT)
        record = {"name": name, "kind": kind, "goal": goal,
                  "limit": DIFFERENTIAL_LIMIT,
                  "answers": oracle["count"],
                  "mode_by_jobs": {}, "match_by_jobs": {}}
        for jobs, engine in engines.items():
            result = or_solutions(source, goal, engine=engine,
                                  use_memo=False,
                                  limit=DIFFERENTIAL_LIMIT)
            match = (result["answers"] == oracle["answers"]
                     and result["output"] == oracle["output"])
            record["mode_by_jobs"][str(jobs)] = result["mode"]
            record["match_by_jobs"][str(jobs)] = match
            if result["mode"] == "parallel":
                splits += 1
            else:
                fallbacks += 1
        if expect_fallback is not None:
            modes = set(record["mode_by_jobs"].values())
            record["fallback_enforced"] = (
                modes == {"sequential"} if expect_fallback
                else "parallel" in modes)
        records.append(record)
        if progress is not None:
            progress(name)
    mismatches = sorted(r["name"] for r in records
                        if not all(r["match_by_jobs"].values()))
    broken = sorted(r["name"] for r in records
                    if not r.get("fallback_enforced", True))
    return {
        "jobs_levels": sorted(engines),
        "programs": records,
        "checked": len(records),
        "mismatches": mismatches,
        "fallback_violations": broken,
        "splits": splits,
        "fallbacks": fallbacks,
    }


def _run_search(engines, store_factory, progress):
    from repro.interp.orparallel import or_solutions, sequential_answers

    workloads = []
    for name, workload in sorted(SEARCH_WORKLOADS.items()):
        source, goal = workload["source"], workload["goal"]
        start = time.perf_counter()
        oracle = sequential_answers(source, goal)
        seq_seconds = time.perf_counter() - start
        record = {"name": name, "answers": oracle["count"],
                  "seq_seconds": round(seq_seconds, 4),
                  "seconds_by_jobs": {}, "or_speedup_by_jobs": {},
                  "branches": None}
        for jobs, engine in sorted(engines.items()):
            start = time.perf_counter()
            result = or_solutions(source, goal, engine=engine,
                                  use_memo=False)
            elapsed = time.perf_counter() - start
            assert result["answers"] == oracle["answers"], name
            record["branches"] = max(record["branches"] or 0,
                                     result["branches"])
            record["seconds_by_jobs"][str(jobs)] = round(elapsed, 4)
            record["or_speedup_by_jobs"][str(jobs)] = round(
                seq_seconds / elapsed, 3) if elapsed > 0 else None
        # memo behaviour on a repeated query: cold computes, warm is
        # served; the hit rate comes from the store's per-kind counts
        store = store_factory()
        engine = engines[max(engines)]
        cold = or_solutions(source, goal, engine=engine, store=store)
        warm = or_solutions(source, goal, engine=engine, store=store)
        assert warm["answers"] == oracle["answers"], name
        stats = store.kind_stats("orparallel")
        total = stats["hits"] + stats["misses"]
        record["memo"] = {
            "cold_mode": cold["mode"],
            "warm_mode": warm["mode"],
            "hits": stats["hits"],
            "misses": stats["misses"],
            "hit_rate": round(stats["hits"] / total, 3) if total else 0.0,
        }
        workloads.append(record)
        if progress is not None:
            progress(name)
    return {"workloads": workloads}


def _run_stacking(search, engine, quick):
    """Model the ILP x or-parallel product for the stacking claim."""
    from repro.experiments.data import master_configs

    names = STACKING_BENCHMARKS[:1] if quick else STACKING_BENCHMARKS
    configs = {key: value for key, value in master_configs().items()
               if key in ("seq", "vliw3")}
    top_jobs = None
    best_or = 1.0
    for workload in search["workloads"]:
        for jobs, speedup in workload["or_speedup_by_jobs"].items():
            if speedup is not None and speedup > best_or:
                best_or, top_jobs = speedup, int(jobs)
    entries = []
    for name in names:
        evaluation = engine.evaluate(name, configs)
        ilp = evaluation.cycles("seq") / evaluation.cycles("vliw3")
        entries.append({
            "name": name,
            "ilp_speedup": round(ilp, 3),
            "or_speedup": round(best_or, 3),
            "stacked_speedup": round(ilp * best_or, 3),
        })
    return {
        "benchmarks": entries,
        "or_jobs": top_jobs,
        "note": "stacked = (seq/vliw3 cycle ratio) x (best measured "
                "or-parallel wall-clock speedup); the two levels are "
                "orthogonal, so the product models a machine running "
                "stolen branches on ILP cores",
    }


def run_orparallel_bench(quick=False, policy=None, progress=None):
    """Run the whole bench; returns the document (not yet written)."""
    import tempfile

    from repro.evaluation.cache import CacheStore
    from repro.evaluation.parallel import EvaluationEngine

    levels = DIFFERENTIAL_JOBS[:2] if quick else DIFFERENTIAL_JOBS
    scratch = tempfile.mkdtemp(prefix="orparallel-bench-")
    stores = iter(range(1000000))

    def store_factory():
        return CacheStore(os.path.join(scratch,
                                       "store-%d" % next(stores)))

    started = time.perf_counter()
    engines = {jobs: EvaluationEngine(jobs=jobs, store=store_factory(),
                                      policy=policy)
               for jobs in levels}
    try:
        for jobs, engine in engines.items():
            if jobs > 1:
                engine.map(_warm, list(range(jobs * 2)))
        differential = _run_differential(engines, quick, progress)
        search = _run_search(engines, store_factory, progress)
        stacking = _run_stacking(search, engines[max(engines)], quick)
    finally:
        for engine in engines.values():
            engine.close()
    # The header's cpu_count bounds every wall-clock or-speedup: on a
    # 1-CPU host ~1.0x at any jobs level is the honest reading and the
    # differential oracle is the point.
    return dict(
        header(ORPARALLEL_BENCH_KIND, ORPARALLEL_BENCH_SCHEMA),
        parameters={
            "jobs_levels": list(levels),
            "quick": bool(quick),
            "corpus_slice": 10 if quick else CORPUS_SLICE,
            "differential_limit": DIFFERENTIAL_LIMIT,
        },
        differential=differential,
        search=search,
        stacking=stacking,
        total_seconds=round(time.perf_counter() - started, 3),
    )


def validate_orparallel_bench(document):
    """Schema problems of a BENCH_orparallel.json doc (empty=valid)."""
    problems = []
    if not check_header(document, ORPARALLEL_BENCH_KIND,
                        ORPARALLEL_BENCH_SCHEMA, problems):
        return problems
    parameters = document.get("parameters")
    levels = []
    if require(problems, isinstance(parameters, dict),
               "'parameters' is not an object"):
        levels = parameters.get("jobs_levels")
        require(problems, isinstance(levels, list) and levels
                and all(isinstance(level, int) and level >= 1
                        for level in levels),
                "'parameters.jobs_levels' is not a list of ints >= 1")
    differential = document.get("differential")
    if require(problems, isinstance(differential, dict),
               "'differential' is not an object"):
        programs = differential.get("programs")
        if require(problems, isinstance(programs, list) and programs,
                   "'differential.programs' is not a non-empty list"):
            keys = [str(level) for level in (levels or [])]
            for index, record in enumerate(programs):
                where = "differential.programs[%d]" % index
                if not require(problems, isinstance(record, dict),
                               "%s is not an object" % where):
                    continue
                require(problems, isinstance(record.get("name"), str),
                        "%s: 'name' is not a string" % where)
                require(problems, record.get("kind") in
                        ("suite", "dcg", "corpus", "search",
                         "adversarial"),
                        "%s: unknown 'kind'" % where)
                for field in ("mode_by_jobs", "match_by_jobs"):
                    table = record.get(field)
                    require(problems, isinstance(table, dict)
                            and (not keys or sorted(table) ==
                                 sorted(keys)),
                            "%s: '%s' does not cover every jobs "
                            "level" % (where, field))
        require(problems, differential.get("checked") == len(programs or []),
                "'differential.checked' does not count the records")
        require(problems, isinstance(differential.get("mismatches"), list),
                "'differential.mismatches' is not a list")
        require(problems, isinstance(differential.get("fallback_violations"),
                           list),
                "'differential.fallback_violations' is not a list")
        require(problems, isinstance(differential.get("splits"), int)
                and differential.get("splits", 0) > 0,
                "'differential.splits' is not a positive int (no "
                "goal actually split)")
    search = document.get("search")
    if require(problems, isinstance(search, dict),
               "'search' is not an object"):
        workloads = search.get("workloads")
        if require(problems, isinstance(workloads, list)
                   and len(workloads or []) == len(SEARCH_WORKLOADS),
                   "'search.workloads' does not cover every workload"):
            for record in workloads:
                where = "search.workloads[%s]" % record.get("name")
                require(problems, isinstance(record.get("branches"), int)
                        and record["branches"] >= 2,
                        "%s: 'branches' is not an int >= 2" % where)
                memo = record.get("memo")
                if require(problems, isinstance(memo, dict),
                           "%s: 'memo' is not an object" % where):
                    require(problems, memo.get("warm_mode") == "memo",
                            "%s: warm query was not served from the "
                            "memo" % where)
                    require(problems, isinstance(memo.get("hit_rate"),
                                       (int, float))
                            and memo["hit_rate"] > 0,
                            "%s: 'memo.hit_rate' is not positive"
                            % where)
    stacking = document.get("stacking")
    if require(problems, isinstance(stacking, dict),
               "'stacking' is not an object"):
        entries = stacking.get("benchmarks")
        if require(problems, isinstance(entries, list) and entries,
                   "'stacking.benchmarks' is not a non-empty list"):
            for entry in entries:
                where = "stacking.benchmarks[%s]" % entry.get("name")
                for field in ("ilp_speedup", "or_speedup",
                              "stacked_speedup"):
                    require(problems,
                            isinstance(entry.get(field), (int, float))
                            and entry.get(field, 0) > 0,
                            "%s: '%s' is not a positive number"
                            % (where, field))
    return problems
