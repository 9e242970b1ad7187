"""Differential harness for the or-parallel search engine.

:mod:`repro.interp.orparallel` promises one thing above all: for every
goal, at every or-jobs width, faults or not, the answer **multiset and
order** (and the output stream) match the sequential reference engine
exactly.  This suite pins that promise three ways:

* *differential equality* over the paper suite, the DCG application
  workloads and a generated-corpus slice at or-jobs 1, 2 and 4 (the
  full corpus slice is ``slow``; a representative subset stays in
  tier 1);
* *split-path coverage* on handcrafted pure programs whose first
  choice point genuinely fans out — including empty branches,
  recursive enumeration, conjunction prefixes and answer limits;
* *fallback enforcement* on adversarial cut/negation/if-then-else
  programs, which must be refused with a precise reason and answered
  on the sequential path.

The answer-memo table is covered here at the engine level (call-scope
hits, variant call patterns, the limit in the key);
its storage contract lives in ``tests/test_cache_store.py`` and the
crash/hang/error recovery in ``tests/test_chaos.py``.
"""

import pytest

from repro.evaluation.cache import CacheStore
from repro.evaluation.parallel import EvaluationEngine
from repro.evaluation.supervisor import SupervisorPolicy
from repro.interp import Engine
from repro.interp.orparallel import (
    canonical_term, or_solutions, program_digest, sequential_answers,
    split_plan)
from repro.reader import parse_term

JOBS_LEVELS = (1, 2, 4)

#: enough to cover every handcrafted answer set, small enough that the
#: truncation tests bite
LIMIT = 64

#: three equal colour branches — the smallest genuine fan-out
COLORS = """
color(red). color(green). color(blue).
pair(X, Y) :- color(X), color(Y).
"""

#: the choice point hides behind two single-clause wrappers
WRAPPED = COLORS + """
layer(X) :- color(X).
wrap(X) :- layer(X).
"""

#: recursive enumeration; the first clause's branch yields nothing
PERM = """
select(X, [X|T], T).
select(X, [H|T], [H|R]) :- select(X, T, R).
perm([], []).
perm(L, [X|P]) :- select(X, L, R), perm(R, P).
"""


def _fast_policy():
    return SupervisorPolicy(max_attempts=2, deadline=60.0,
                            backoff_base=0.01, backoff_cap=0.05,
                            seed=1992, poll=0.02)


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    """One supervised engine per or-jobs level, on private stores."""
    root = tmp_path_factory.mktemp("orparallel")
    pool = {}
    for jobs in JOBS_LEVELS:
        store = CacheStore(str(root / ("store-%d" % jobs)))
        pool[jobs] = EvaluationEngine(jobs=jobs, store=store,
                                      policy=_fast_policy())
    yield pool
    for engine in pool.values():
        engine.close()


def _check(engines, source, goal, limit=LIMIT, expect_parallel=None):
    """Assert or-parallel answers match the oracle at every level.

    Returns ``{jobs: result}`` so callers can inspect provenance."""
    oracle = sequential_answers(source, goal, limit=limit)
    results = {}
    for jobs, engine in engines.items():
        result = or_solutions(source, goal, engine=engine,
                              use_memo=False, limit=limit)
        assert result["answers"] == oracle["answers"], (
            "answer mismatch for %r at or-jobs %d" % (goal, jobs))
        assert result["output"] == oracle["output"], (
            "output mismatch for %r at or-jobs %d" % (goal, jobs))
        assert result["count"] == oracle["count"]
        assert result["truncated"] == oracle["truncated"]
        if expect_parallel is not None and jobs > 1:
            expected = "parallel" if expect_parallel else "sequential"
            assert result["mode"] == expected, (
                "%r at or-jobs %d ran %s, expected %s"
                % (goal, jobs, result["mode"], expected))
        results[jobs] = result
    return results


def _db(source):
    engine = Engine()
    engine.consult(source)
    return engine.db


# --------------------------------------------------------------------------
# Canonical renderings: memo keys and answers.

def test_canonical_term_renames_by_first_occurrence():
    assert canonical_term(parse_term("p(X, b, Y, X)")) \
        == "p(_0,b,_1,_0)"


def test_variant_goals_share_a_canonical_pattern():
    assert canonical_term(parse_term("p(X, b, X)")) \
        == canonical_term(parse_term("p(Q, b, Q)"))
    # ...but a different sharing pattern is a different call.
    assert canonical_term(parse_term("p(X, b, X)")) \
        != canonical_term(parse_term("p(X, b, Y)"))


def test_program_digest_is_content_addressed():
    assert program_digest(COLORS) == program_digest(COLORS)
    assert program_digest(COLORS) != program_digest(PERM)


# --------------------------------------------------------------------------
# The split planner.

def test_split_plan_fans_out_a_multi_clause_predicate():
    branches, reason = split_plan(_db(COLORS), parse_term("pair(X, Y)"))
    assert branches == [0, 1, 2] and reason is None


def test_split_plan_unfolds_single_clause_wrappers():
    branches, reason = split_plan(_db(WRAPPED), parse_term("wrap(X)"))
    assert branches == [0, 1, 2] and reason is None


def test_split_plan_steps_over_deterministic_builtins():
    branches, reason = split_plan(
        _db(COLORS), parse_term("Z is 1 + 1, color(X)"))
    assert branches == [0, 1, 2] and reason is None


def test_split_plan_reports_deterministic_goals():
    source = "only(a).\n"
    branches, reason = split_plan(_db(source), parse_term("only(X)"))
    assert branches is None
    assert reason == "goal is deterministic (no choice point)"


@pytest.mark.parametrize("body, fragment", [
    ("item(X), !", "cut in"),
    ("\\+ item(X)", "negation in"),
    ("(item(X) -> X = a ; X = b)", "if-then-else in"),
    ("item(X), write(X)", "side effect write/1"),
    ("missing(X)", "undefined predicate missing/1"),
])
def test_split_plan_rejects_impure_reachable_predicates(body, fragment):
    source = "item(a). item(b).\nq(X) :- %s.\n" % body
    branches, reason = split_plan(_db(source), parse_term("q(X)"))
    assert branches is None
    assert fragment in reason


def test_split_plan_rejects_variable_goals():
    branches, reason = split_plan(_db(COLORS), parse_term("Goal"))
    assert branches is None
    assert "variable goal" in reason


# --------------------------------------------------------------------------
# Genuine splits: handcrafted pure fan-outs at or-jobs 1/2/4.

def test_flat_fanout_matches_sequential_order(engines):
    results = _check(engines, COLORS, "pair(X, Y)",
                     expect_parallel=True)
    oracle = sequential_answers(COLORS, "pair(X, Y)")
    assert oracle["count"] == 9
    assert oracle["answers"][0] == "pair(red,red)"
    assert results[4]["branches"] == 3


def test_split_behind_single_clause_wrappers(engines):
    _check(engines, WRAPPED, "wrap(X)", expect_parallel=True)


def test_recursive_enumeration_with_an_empty_branch(engines):
    # perm/2 has two clauses; the base-case branch fails against a
    # non-empty list, so one branch contributes zero answers.
    results = _check(engines, PERM, "perm([1,2,3], P)",
                     expect_parallel=True)
    assert results[2]["branches"] == 2
    oracle = sequential_answers(PERM, "perm([1,2,3], P)")
    assert oracle["count"] == 6
    assert oracle["answers"][0] == "perm([1,2,3],[1,2,3])"


def test_conjunction_goal_with_deterministic_prefix(engines):
    _check(engines, COLORS, "Z is 1 + 1, pair(X, Y)",
           expect_parallel=True)


def test_answer_limit_truncates_in_sequential_order(engines):
    oracle = sequential_answers(COLORS, "pair(X, Y)", limit=4)
    assert oracle["count"] == 4 and oracle["truncated"]
    results = _check(engines, COLORS, "pair(X, Y)", limit=4,
                     expect_parallel=True)
    full = sequential_answers(COLORS, "pair(X, Y)")
    assert results[4]["answers"] == full["answers"][:4]


def test_or_jobs_one_runs_sequentially_without_fallback(engines):
    result = or_solutions(COLORS, "pair(X, Y)", engine=engines[1],
                          use_memo=False)
    assert result["mode"] == "sequential"
    assert "fallback" not in result


def test_jobs_argument_caps_below_the_pool(engines):
    result = or_solutions(COLORS, "pair(X, Y)", engine=engines[4],
                          jobs=1, use_memo=False)
    assert result["mode"] == "sequential"


# --------------------------------------------------------------------------
# Adversarial programs: the splitter must refuse, exactly.

@pytest.mark.parametrize("name, fragment", [
    ("adversarial_cut", "cut in"),
    ("adversarial_negation", "negation in"),
    ("adversarial_ite", "if-then-else in"),
])
def test_adversarial_programs_fall_back_sequentially(engines, name,
                                                     fragment):
    from repro.experiments.orparallel_bench import ADVERSARIAL_PROGRAMS
    program = ADVERSARIAL_PROGRAMS[name]
    results = _check(engines, program["source"], program["goal"],
                     expect_parallel=False)
    for jobs in JOBS_LEVELS:
        if jobs > 1:
            assert fragment in results[jobs]["fallback"]


# --------------------------------------------------------------------------
# The answer-memo table at the engine level.

def test_memo_serves_the_second_identical_call(engines, tmp_path):
    store = CacheStore(str(tmp_path / "memo"))
    cold = or_solutions(COLORS, "pair(X, Y)", engine=engines[2],
                        store=store)
    warm = or_solutions(COLORS, "pair(X, Y)", engine=engines[2],
                        store=store)
    assert cold["mode"] == "parallel"
    assert warm["mode"] == "memo"
    for field in ("answers", "output", "count", "truncated"):
        assert warm[field] == cold[field]


def test_memo_serves_variant_call_patterns(engines, tmp_path):
    store = CacheStore(str(tmp_path / "memo"))
    or_solutions(COLORS, "pair(X, Y)", engine=engines[2], store=store)
    variant = or_solutions(COLORS, "pair(A, B)", engine=engines[2],
                           store=store)
    assert variant["mode"] == "memo"
    # A different sharing pattern is a different query with different
    # answers — it must not be served from the variant's entry.
    shared = or_solutions(COLORS, "pair(X, X)", engine=engines[2],
                          store=store)
    assert shared["mode"] != "memo"
    assert shared["count"] == 3


def test_memo_key_includes_the_answer_limit(engines, tmp_path):
    store = CacheStore(str(tmp_path / "memo"))
    truncated = or_solutions(COLORS, "pair(X, Y)", engine=engines[2],
                             store=store, limit=2)
    assert truncated["count"] == 2 and truncated["truncated"]
    unbounded = or_solutions(COLORS, "pair(X, Y)", engine=engines[2],
                             store=store)
    assert unbounded["mode"] != "memo"
    assert unbounded["count"] == 9 and not unbounded["truncated"]


def test_memo_serves_fallback_queries_too(engines, tmp_path):
    from repro.experiments.orparallel_bench import ADVERSARIAL_PROGRAMS
    program = ADVERSARIAL_PROGRAMS["adversarial_cut"]
    store = CacheStore(str(tmp_path / "memo"))
    cold = or_solutions(program["source"], program["goal"],
                        engine=engines[2], store=store)
    warm = or_solutions(program["source"], program["goal"],
                        engine=engines[2], store=store)
    assert cold["mode"] == "sequential"
    assert warm["mode"] == "memo"
    assert warm["answers"] == cold["answers"]


def test_use_memo_false_bypasses_the_table(engines, tmp_path):
    store = CacheStore(str(tmp_path / "memo"))
    for _ in range(2):
        result = or_solutions(COLORS, "pair(X, Y)", engine=engines[2],
                              store=store, use_memo=False)
        assert result["mode"] == "parallel"


def test_memo_spans_and_counters_are_emitted(engines, tmp_path,
                                             traced_run):
    store = CacheStore(str(tmp_path / "memo"))
    or_solutions(COLORS, "pair(X, Y)", engine=engines[2], store=store)
    or_solutions(COLORS, "pair(X, Y)", engine=engines[2], store=store)
    queries = traced_run.find("orparallel.query")
    assert [span.attrs["mode"] for span in queries] \
        == ["parallel", "memo"]
    counters = traced_run.metrics.counters
    assert counters["orparallel.memo.misses"] == 1
    assert counters["orparallel.memo.hits"] == 1
    assert counters["orparallel.splits"] == 1
    assert counters["orparallel.branches"] == 3
    assert len(traced_run.find("orparallel.fanout")) == 1


# --------------------------------------------------------------------------
# Differential equality over the repo's real workloads.

def _suite_targets(names):
    from repro.benchmarks.suite import resolve_program
    return [(name, resolve_program(name).source, "main")
            for name in names]


FAST_SUITE = ("divide10", "log10", "mu", "nreverse", "qsort")
DCG_SUITE = ("dcg_calc", "dcg_grammar", "dcg_json")


@pytest.mark.parametrize("name", FAST_SUITE)
def test_differential_paper_suite(engines, name):
    source, goal = _suite_targets([name])[0][1:]
    _check(engines, source, goal, limit=32)


@pytest.mark.parametrize("name", DCG_SUITE)
def test_differential_dcg_workloads(engines, name):
    source, goal = _suite_targets([name])[0][1:]
    _check(engines, source, goal, limit=32)


def test_differential_corpus_sample(engines):
    from repro.corpus.generate import corpus_programs
    for program in corpus_programs(5):
        _check(engines, program.source, "main", limit=32)


@pytest.mark.slow
def test_differential_full_table_and_corpus_slice(engines):
    """The ISSUE-mandated sweep: every paper-table benchmark plus a
    50-program corpus slice, at or-jobs 1, 2 and 4."""
    from repro.benchmarks import TABLE_BENCHMARKS
    from repro.corpus.generate import corpus_programs
    for name, source, goal in _suite_targets(TABLE_BENCHMARKS):
        _check(engines, source, goal, limit=32)
    for program in corpus_programs(50):
        _check(engines, program.source, "main", limit=32)


@pytest.mark.slow
def test_differential_search_workloads(engines):
    """The bench's pure fan-out workloads split and still agree."""
    from repro.experiments.orparallel_bench import SEARCH_WORKLOADS
    for workload in SEARCH_WORKLOADS.values():
        _check(engines, workload["source"], workload["goal"],
               limit=32, expect_parallel=True)
