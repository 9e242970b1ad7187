"""Or-parallel search with memoized answers.

The paper mines *instruction-level* parallelism inside one Prolog
execution; this module opens the next axis up (ROADMAP item 2, after
Santos & Rocha's or-parallel Prolog for clusters and Chico de Guzmán
et al.'s answer memoing): the alternatives of a choice point are
explored as independent search tasks fanned out over the supervised
process pool, and complete answer sets are memoized in the
content-addressed cache so a repeated subgoal is *served*, not
recomputed.

Execution model
---------------

The engine splits the query's **first choice point**: the leftmost
multi-clause predicate reached from the goal by unfolding
single-clause predicates and stepping over deterministic builtins
(every builtin in this interpreter yields at most one solution, so
nothing to the left of the split point multiplies answers).  A call
``p(Args)`` whose choice predicate has clauses ``C1..Cn`` becomes *n*
branch tasks: branch *i* replays the deterministic prefix and then
resolves the choice predicate against clause *i* alone
(:meth:`Engine.solve_clause`), enumerating that branch's solutions
sequentially — continuation goals included.  Because a predicate call
tries its clauses strictly in order and the prefix is deterministic,
every solution reached through ``Ci`` precedes every solution reached
through ``Ci+1`` in the sequential engine — so concatenating the
branch answer streams **in clause order** reproduces the sequential
answer multiset *and order* exactly, however the branches were
scheduled.

Scheduling is work stealing in the deterministic form this codebase
uses everywhere: branch tasks are queued in clause order, idle pool
workers pull the next pending branch, and determinism comes from
order-preserving reassembly (plus fuse-file fault accounting), not
from pinning branches to workers.  The fan-out runs through
:meth:`EvaluationEngine.map`, so branches inherit the supervisor's
resilience policy — per-task deadlines, bounded retry, pool
resurrection after a SIGKILL — and the ``orparallel.task`` fault site
lets the chaos suite kill, hang or fail stolen branches on exact
ordinals.

Sequential fallback
-------------------

Splitting is only claimed for goals it provably cannot change:

* every predicate transitively reachable from the goal must be
  **pure**: no cut (a cut prunes *sibling* branches; a nested cut
  would be safe, but the conservative rule is one line and provable),
  no negation-as-failure, no if-then-else, no output builtins
  (``write``/``print``/``nl``), no variable or ``call/1``-mediated
  dynamic goals;
* the leftmost descent must actually find a multi-clause **defined
  user predicate** within bounded unfolding depth — a goal whose
  choices hide behind disjunctions or recursion deeper than the fuel
  bound simply runs sequentially.

Everything else — cut, negation, if-then-else, side effects, the
unknown — runs on the sequential reference engine unchanged, which
makes the fallback path byte-identical by construction.  The
differential harness (``tests/test_orparallel.py``) pins the split
path against the sequential engine at or-jobs 1/2/4 over the paper
suite, the DCG workloads and a corpus slice.

Answer memo table
-----------------

Answers are memoized under the ``orparallel`` cache kind through the
content-addressed :class:`~repro.evaluation.cache.CacheStore`.  The memo key
is a canonical **(program, call-pattern) fingerprint**: the program's
source digest plus the goal with its variables renamed to ``_0, _1,
...`` in order of first occurrence — ``p(X, b, X)`` and ``p(Q, b,
Q)`` share an entry, ``p(X, b, Y)`` does not, because the sharing
pattern is part of what the answers mean.  There is one entry per
query pattern, for the whole call; a cold call dispatches every
branch.  Memoisation is sound for *every* goal — the reference
engine is deterministic, and rendered answers plus captured output
are the whole observable result — so the memo also serves fallback
queries.  The answer limit is part of the key: a truncated answer
set must never serve an unbounded request.
"""

import hashlib

from repro.interp.database import Database
from repro.interp.engine import Engine, _BUILTINS, _rename
from repro.interp.unify import unify, undo_to
from repro.observability import tracing as obs
from repro.terms import Int, Struct, Var, deref, term_to_string
from repro.testing import faults

__all__ = [
    "MEMO_KIND",
    "canonical_term",
    "or_solutions",
    "program_digest",
    "sequential_answers",
    "split_plan",
]

#: the cache kind answer-memo entries are stored under
MEMO_KIND = "orparallel"

#: control constructs the goal scanner interprets structurally
_CONTROL = {(",", 2), (";", 2), ("->", 2), ("!", 0), ("\\+", 1),
            ("not", 1), ("call", 1), ("true", 0), ("fail", 0),
            ("false", 0)}

#: builtins whose execution is observable outside the answer bindings
_SIDE_EFFECTS = {("write", 1), ("print", 1), ("nl", 0)}


# --------------------------------------------------------------------------
# Canonical renderings: the memo key and the answer format.

def _canonical_copy(term, mapping):
    term = deref(term)
    if isinstance(term, Var):
        renamed = mapping.get(id(term))
        if renamed is None:
            renamed = Var("_%d" % len(mapping))
            mapping[id(term)] = renamed
        return renamed
    if isinstance(term, Struct):
        return Struct(term.name,
                      [_canonical_copy(arg, mapping) for arg in term.args])
    return term


def canonical_term(term):
    """Render *term* with variables renamed ``_0, _1, ...`` by first
    occurrence.

    Used both for memo-key call patterns (two goals that are variants
    of each other share an entry) and for answers (the rendering is
    independent of the live ``Var`` counter, so workers in different
    processes — and the sequential oracle — render identically).
    """
    return term_to_string(_canonical_copy(term, {}))


def program_digest(source):
    """Stable fingerprint of a Prolog source text."""
    return hashlib.sha256(source.encode()).hexdigest()[:24]


# --------------------------------------------------------------------------
# The split-safety analysis.

def _scan_body(term, reasons, calls, indicator):
    """Collect purity violations and outgoing calls of one body goal."""
    term = deref(term)
    if isinstance(term, Var):
        reasons.append("variable goal in %s/%d" % indicator)
        return
    if isinstance(term, Int):
        reasons.append("integer goal in %s/%d" % indicator)
        return
    name = term.name
    args = term.args if isinstance(term, Struct) else []
    key = (name, len(args))
    if key == (",", 2) or key == (";", 2):
        left = deref(args[0])
        if (key == (";", 2) and isinstance(left, Struct)
                and left.indicator == ("->", 2)):
            reasons.append("if-then-else in %s/%d" % indicator)
            return
        _scan_body(args[0], reasons, calls, indicator)
        _scan_body(args[1], reasons, calls, indicator)
        return
    if key == ("->", 2):
        reasons.append("if-then-else in %s/%d" % indicator)
        return
    if key == ("!", 0):
        reasons.append("cut in %s/%d" % indicator)
        return
    if key in (("\\+", 1), ("not", 1)):
        reasons.append("negation in %s/%d" % indicator)
        return
    if key == ("call", 1):
        inner = deref(args[0])
        if isinstance(inner, Var):
            reasons.append("dynamic call in %s/%d" % indicator)
            return
        _scan_body(inner, reasons, calls, indicator)
        return
    if key in _CONTROL:
        return
    if key in _SIDE_EFFECTS:
        reasons.append("side effect %s/%d in %s/%d"
                       % (key + indicator))
        return
    if key in _BUILTINS:
        return
    calls.add(key)


def _purity_reasons(db, indicator):
    """Why predicates reachable from *indicator* are unsafe to steal.

    Walks the static call graph from *indicator*; returns a sorted,
    de-duplicated list of human-readable reasons (empty = pure)."""
    reasons = []
    seen = set()
    worklist = [indicator]
    while worklist:
        current = worklist.pop()
        if current in seen:
            continue
        seen.add(current)
        if current not in db.predicates:
            reasons.append("undefined predicate %s/%d" % current)
            continue
        for clause in db.clauses(*current):
            calls = set()
            _scan_body(clause.body, reasons, calls, current)
            worklist.extend(call for call in calls if call not in seen)
    return sorted(set(reasons))


#: unfolding depth bound for the leftmost-descent choice search; deep
#: enough for any realistic driver-predicate chain, finite so mutually
#: recursive single-clause predicates cannot loop the planner
_DESCENT_FUEL = 32

#: control atoms that yield at most one solution (``true`` once,
#: ``fail``/``false`` never) — safe to step over when hunting the
#: first choice point, exactly like the deterministic builtins
_DET_CONTROL = {("true", 0), ("fail", 0), ("false", 0)}


def _find_choice(db, term, fuel):
    """Locate the first choice point on *term*'s leftmost call chain.

    Returns ``("split", indicator, clause_count)`` for the leftmost
    multi-clause user predicate, ``("det",)`` when the whole chain is
    provably deterministic (at most one solution), or ``None`` when no
    splittable choice point can be established (disjunctions, dynamic
    goals, fuel exhaustion).  Mirrored dynamically by
    :func:`_branch_solutions` — the two must agree on where the choice
    point sits, which they do because the descent depends only on
    predicate identity, never on bindings (purity rejects variable
    goals before this runs).
    """
    if fuel <= 0:
        return None
    term = deref(term)
    if isinstance(term, (Var, Int)):
        return None
    name = term.name
    args = term.args if isinstance(term, Struct) else []
    key = (name, len(args))
    if key == (",", 2):
        first = _find_choice(db, args[0], fuel - 1)
        if first == ("det",):
            return _find_choice(db, args[1], fuel - 1)
        return first
    if key in _DET_CONTROL:
        return ("det",)
    if key in _CONTROL:
        return None
    if key in _BUILTINS:
        return ("det",)
    if key not in db.predicates:
        return None
    clauses = db.clauses(name, len(args))
    if len(clauses) >= 2:
        return ("split", key, len(clauses))
    if not clauses:
        return None
    return _find_choice(db, clauses[0].body, fuel - 1)


def split_plan(db, goal):
    """Decide whether *goal* may be split across the pool.

    Returns ``(branches, reason)``: *branches* is the list of clause
    indices of the choice predicate to explore in parallel (``None``
    when the goal must run sequentially), *reason* the first fallback
    justification (``None`` when splitting is safe)."""
    goal = deref(goal)
    reasons = []
    calls = set()
    _scan_body(goal, reasons, calls, ("query", 0))
    for call in sorted(calls):
        reasons.extend(_purity_reasons(db, call))
    if reasons:
        return None, sorted(set(reasons))[0]
    choice = _find_choice(db, goal, _DESCENT_FUEL)
    if choice == ("det",):
        return None, "goal is deterministic (no choice point)"
    if choice is None:
        return None, "no splittable choice point on the leftmost chain"
    return list(range(choice[2])), None


# --------------------------------------------------------------------------
# Branch execution (pool-worker side; module-level for pickling).

def _consulted_engine(source):
    """A fresh engine with *source* loaded; returns (engine, output)."""
    engine = Engine(Database())
    engine.consult(source)
    prefix = engine.output_text()
    del engine.output[:]
    return engine, prefix


def _branch_solutions(engine, term, index, fuel=_DESCENT_FUEL):
    """Yield once per solution of *term* restricted to clause *index*
    of its first choice point.

    The dynamic mirror of :func:`_find_choice`: deterministic
    prefixes are executed in place (they contribute at most one
    solution, so they never multiply or reorder answers), single-
    clause predicates are unfolded, and the multi-clause predicate
    the planner counted branches from is resolved against clause
    *index* alone.  Only runs on goals :func:`split_plan` accepted —
    pure, so cut barriers are never tripped."""
    term = deref(term)
    name = term.name
    args = term.args if isinstance(term, Struct) else []
    key = (name, len(args))
    if key == (",", 2):
        if _find_choice(engine.db, args[0], fuel - 1) == ("det",):
            for _ in engine.solve(args[0], engine._new_barrier()):
                yield from _branch_solutions(engine, args[1], index,
                                             fuel - 1)
            return
        for _ in _branch_solutions(engine, args[0], index, fuel - 1):
            yield from engine.solve(args[1], engine._new_barrier())
        return
    if key in _DET_CONTROL or key in _BUILTINS:
        yield from engine.solve(term, engine._new_barrier())
        return
    clauses = engine.db.clauses(name, len(args))
    if len(clauses) >= 2:
        yield from engine.solve_clause(term, clauses[index])
        return
    mark = len(engine.trail)
    head, body = _rename(clauses[0])
    if unify(term, head, engine.trail):
        yield from _branch_solutions(engine, body, index, fuel - 1)
    undo_to(engine.trail, mark)


def _branch_task(spec):
    """Explore one stolen branch: the goal restricted to one clause of
    its first choice point, sequentially.

    Runs in a pool worker (or inline at or-jobs 1).  The fault site
    fires first so the chaos suite can kill/hang/fail a branch before
    it does any work — the supervisor must retry it to byte-identical
    answers."""
    faults.fire("orparallel.task")
    from repro.reader import parse_term
    engine, _ = _consulted_engine(spec["source"])
    goal = parse_term(spec["goal"])
    limit = spec.get("limit")
    answers = []
    for _ in _branch_solutions(engine, goal, spec["clause"]):
        answers.append(canonical_term(goal))
        if limit is not None and len(answers) >= limit:
            break
    return {"answers": answers, "output": engine.output_text()}


# --------------------------------------------------------------------------
# The sequential oracle.

def sequential_answers(source, goal="main", limit=None):
    """Enumerate *goal* on the reference engine; the differential
    ground truth every or-parallel execution must reproduce.

    Returns ``{"answers": [...], "output": str, "count": int,
    "truncated": bool}`` with answers in canonical rendering
    (:func:`canonical_term`) and *output* the program's whole write
    stream, directives included."""
    from repro.reader import parse_term
    engine, prefix = _consulted_engine(source)
    parsed = parse_term(goal)
    answers = []
    for _ in engine.solutions(parsed, limit=limit):
        answers.append(canonical_term(parsed))
    return {"answers": answers,
            "output": prefix + engine.output_text(),
            "count": len(answers),
            "truncated": limit is not None and len(answers) >= limit}


# --------------------------------------------------------------------------
# The or-parallel driver.

def _parallel_answers(source, goal_text, branches, engine, limit,
                      prefix):
    """Fan one task per branch out over the pool; reassemble in clause
    order."""
    specs = [{"source": source, "goal": goal_text, "clause": index,
              "limit": limit} for index in branches]
    with obs.span("orparallel.fanout", branches=len(specs),
                  jobs=engine.jobs):
        payloads = engine.map(_branch_task, specs)
    answers = []
    output = [prefix]
    for payload in payloads:
        answers.extend(payload["answers"])
        output.append(payload["output"])
    if limit is not None:
        answers = answers[:limit]
    return {"answers": answers, "output": "".join(output),
            "count": len(answers),
            "truncated": limit is not None and len(answers) >= limit}


def or_solutions(source, goal="main", engine=None, store=None,
                 use_memo=True, limit=None, jobs=None):
    """Answer *goal* over *source* with or-parallel search + memo.

    *engine* is the :class:`~repro.evaluation.parallel
    .EvaluationEngine` whose pool (and supervisor policy) the stolen
    branches run on — default the shared engine; its ``jobs`` count is
    the or-parallelism width unless *jobs* caps it lower (the service
    uses this to honour a request's ``or_jobs`` without resizing its
    pool).  *store* is the answer-memo :class:`CacheStore` (default:
    the engine's).  The result is the
    sequential payload (``answers``/``output``/``count``/
    ``truncated``) plus provenance: ``mode`` (``memo`` /
    ``parallel`` / ``sequential``), ``branches``, and the
    ``fallback`` reason when the goal was not split.  The answers
    are guaranteed — and differentially tested — to match
    :func:`sequential_answers` in order and multiplicity at every
    jobs count, faults armed or not.
    """
    from repro.evaluation.parallel import memoised, shared_engine
    from repro.reader import parse_term
    engine = engine if engine is not None else shared_engine()
    store = store if store is not None else engine.store
    width = engine.jobs if jobs is None else min(jobs, engine.jobs)
    with obs.span("orparallel.query", goal=goal) as span:
        parsed = parse_term(goal)
        pattern = canonical_term(parsed)
        provenance = {}

        def compute():
            local_engine, prefix = _consulted_engine(source)
            branches, reason = split_plan(local_engine.db, parsed)
            if branches is not None and width > 1:
                provenance.update(mode="parallel",
                                  branches=len(branches))
                obs.add("orparallel.splits")
                obs.add("orparallel.branches", len(branches))
                return _parallel_answers(source, goal, branches, engine,
                                         limit, prefix)
            provenance.update(
                mode="sequential",
                branches=0 if branches is None else len(branches))
            if branches is None:
                provenance["fallback"] = reason
                obs.add("orparallel.fallbacks")
            return sequential_answers(source, goal, limit=limit)

        components = {"fingerprint": program_digest(source),
                      "pattern": pattern, "limit": limit}
        payload = memoised(MEMO_KIND, components, compute, store=store,
                           use_cache=use_memo)
        if provenance:
            obs.add("orparallel.memo.misses")
        else:
            provenance = {"mode": "memo", "branches": 0}
            obs.add("orparallel.memo.hits")
        result = dict(payload)
        result.update(provenance)
        span.set(mode=result["mode"], answers=result["count"],
                 branches=result["branches"])
        return result
