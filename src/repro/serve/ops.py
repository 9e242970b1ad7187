"""Request validation and canonical result computation.

The service and the load-test client share this module so both sides
agree, byte for byte, on what a request *means*: :func:`parse_request`
reduces a JSON body to a canonical spec (sorted configs, defaulted
budget, deadline split out — the deadline shapes scheduling, never the
answer), and :func:`compute_result` maps a spec to a deterministic
result payload.  Results deliberately exclude run provenance (which
emulator loop produced the profile, timings): a degraded request
served by the in-process fallback engine must be **byte-identical** to
the same request served by the process pool, which is the invariant
the chaos suite pins.
"""

import json

from repro.analysis.report import target_entry
from repro.benchmarks.suite import (
    compile_benchmark, program_fingerprint, run_program_cached,
    suite_catalogue)
from repro.experiments.data import master_configs

__all__ = [
    "OPS",
    "RequestError",
    "canonical_json",
    "compute_result",
    "parse_request",
    "request_label",
]

#: the operations the service accepts, as POST /v1/<op>
OPS = ("compile", "evaluate", "verify", "analyze", "query")

#: configs evaluated when a request names none
DEFAULT_CONFIG_KEYS = ("seq", "vliw3")


class RequestError(ValueError):
    """A request that can never succeed (HTTP 400, not retried)."""


def _normalise(value):
    """JSON round-trip: coerce *value* to what a client receives.

    Non-string dict keys (the analyzer's per-block tables are
    int-keyed) become strings here, deterministically, *before* the
    payload is checksummed into the cache or compared byte-for-byte —
    ``sort_keys`` orders int keys numerically but their post-transport
    string forms lexicographically, so skipping this step would make a
    payload disagree with its own round-tripped self.
    """
    return json.loads(json.dumps(value))


def canonical_json(value):
    """Deterministic encoding used for byte-identity comparison."""
    return json.dumps(_normalise(value), sort_keys=True,
                      separators=(",", ":"))


def parse_request(op, body):
    """Validate one request body into ``(spec, deadline)``.

    The spec is canonical — config keys sorted and de-duplicated, the
    tail-duplication budget defaulted — so equal requests hash to the
    same service-level cache key however the client spelt them.  The
    per-request *deadline* (seconds, optional) is returned separately:
    it bounds execution but must not split the result cache.
    """
    if op not in OPS:
        raise RequestError("unknown operation %r (expected one of %s)"
                           % (op, ", ".join(OPS)))
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    benchmark = body.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        raise RequestError("'benchmark' must be a non-empty string")
    if benchmark not in suite_catalogue():
        raise RequestError("unknown benchmark %r" % benchmark)
    if op == "query":
        return _parse_query_request(body, benchmark)
    config_keys = body.get("configs", list(DEFAULT_CONFIG_KEYS))
    if (not isinstance(config_keys, (list, tuple)) or not config_keys
            or not all(isinstance(key, str) for key in config_keys)):
        raise RequestError("'configs' must be a non-empty list of "
                           "configuration names")
    known = master_configs()
    unknown = sorted(set(config_keys) - set(known))
    if unknown:
        raise RequestError(
            "unknown machine configuration(s) %s (expected a subset "
            "of %s)" % (", ".join(unknown), ", ".join(sorted(known))))
    budget = body.get("tail_dup_budget", 48)
    if not isinstance(budget, int) or isinstance(budget, bool) \
            or budget < 0:
        raise RequestError("'tail_dup_budget' must be a non-negative "
                           "integer")
    deadline = body.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) \
                or isinstance(deadline, bool) or deadline <= 0:
            raise RequestError("'deadline' must be a positive number "
                               "of seconds")
        deadline = float(deadline)
    unknown_fields = sorted(set(body)
                            - {"benchmark", "configs",
                               "tail_dup_budget", "deadline", "op"})
    if unknown_fields:
        raise RequestError("unknown request field(s): %s"
                           % ", ".join(unknown_fields))
    spec = {
        "op": op,
        "benchmark": benchmark,
        "configs": sorted(set(config_keys)),
        "tail_dup_budget": budget,
    }
    return spec, deadline


def _parse_query_request(body, benchmark):
    """The ``query`` op: enumerate a goal with the or-parallel engine.

    ``or_jobs`` is part of the spec — it is what the client asked the
    service to *do* — but the result payload carries no execution
    provenance, so the same query at any ``or_jobs`` is byte-identical
    (the invariant the serve suite pins)."""
    goal = body.get("goal", "main")
    if not isinstance(goal, str) or not goal.strip():
        raise RequestError("'goal' must be a non-empty string")
    limit = body.get("limit", 64)
    if not isinstance(limit, int) or isinstance(limit, bool) \
            or not 1 <= limit <= 10000:
        raise RequestError("'limit' must be an integer in 1..10000")
    or_jobs = body.get("or_jobs", 1)
    if not isinstance(or_jobs, int) or isinstance(or_jobs, bool) \
            or not 1 <= or_jobs <= 64:
        raise RequestError("'or_jobs' must be an integer in 1..64")
    deadline = body.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) \
                or isinstance(deadline, bool) or deadline <= 0:
            raise RequestError("'deadline' must be a positive number "
                               "of seconds")
        deadline = float(deadline)
    unknown_fields = sorted(set(body)
                            - {"benchmark", "goal", "limit", "or_jobs",
                               "deadline", "op"})
    if unknown_fields:
        raise RequestError("unknown request field(s): %s"
                           % ", ".join(unknown_fields))
    spec = {
        "op": "query",
        "benchmark": benchmark,
        "goal": goal.strip(),
        "limit": limit,
        "or_jobs": or_jobs,
    }
    return spec, deadline


def request_label(spec):
    """A stable human-readable label (retry backoff is seeded by it)."""
    return "serve/%s/%s" % (spec["op"], spec["benchmark"])


def _selected_configs(spec):
    known = master_configs()
    return {key: known[key] for key in spec["configs"]}


def compute_result(spec, engine):
    """The deterministic result payload for *spec*.

    ``compile`` needs no engine; the other operations fan their cells
    out through *engine* (and therefore inherit its supervisor policy,
    cache store and — via the service — clamped deadlines).  The
    payload is normalised to its transport form (see
    :func:`_normalise`) so serving it from the result cache is
    byte-identical to computing it fresh.
    """
    return _normalise(_compute_result(spec, engine))


def _compute_result(spec, engine):
    op = spec["op"]
    name = spec["benchmark"]
    if op == "compile":
        program = compile_benchmark(name)
        return {
            "op": op,
            "benchmark": name,
            "fingerprint": program_fingerprint(program),
            "instructions": len(program.instructions),
            "labels": len(program.labels),
        }
    if op == "evaluate":
        evaluation = engine.evaluate(
            name, _selected_configs(spec),
            tail_dup_budget=spec["tail_dup_budget"])
        return {
            "op": op,
            "benchmark": name,
            "cycles": dict(evaluation.data["cycles"]),
            "region_stats": evaluation.data["region_stats"],
            "steps": evaluation.data["steps"],
        }
    if op == "verify":
        from repro.evaluation.pipeline import verify_evaluation
        program = compile_benchmark(name)
        result = run_program_cached(program, name + "-")
        diagnostics = verify_evaluation(
            program, result, _selected_configs(spec),
            tail_dup_budget=spec["tail_dup_budget"],
            cache_hint=name + "-")
        entry = target_entry(name, diagnostics,
                             machine_configs=spec["configs"])
        entry["op"] = op
        return entry
    if op == "analyze":
        from repro.analysis.driver import analyze_benchmark
        record = analyze_benchmark(name,
                                   budget=spec["tail_dup_budget"])
        return {"op": op, "benchmark": name, "record": record}
    if op == "query":
        from repro.benchmarks.suite import resolve_program
        from repro.interp.orparallel import or_solutions
        source = resolve_program(name).source
        result = or_solutions(source, spec["goal"], engine=engine,
                              jobs=spec["or_jobs"],
                              limit=spec["limit"])
        # Execution provenance (mode, branch count, memo hits) is
        # deliberately dropped: the answers at or_jobs=4 must be
        # byte-identical to the answers at or_jobs=1.
        return {"op": op, "benchmark": name, "goal": spec["goal"],
                "answers": result["answers"],
                "output": result["output"],
                "count": result["count"],
                "truncated": result["truncated"]}
    raise RequestError("unknown operation %r" % op)
