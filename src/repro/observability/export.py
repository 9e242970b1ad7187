"""Trace export: schema-validated JSONL, loading, summarising.

A trace document is JSON Lines with exactly three record shapes::

    {"type": "run", "schema": 1, "run_id": ..., "seed": ...,
     "deterministic": ..., "spans": N}          # first line
    {"type": "span", "id": 7, "parent": 3, "name": "...",
     "seq": [13, 18], "status": "ok", "attrs": {...},
     "elapsed": 0.0123}                          # one per span
    {"type": "metrics", "counters": {...}, "gauges": {...}}  # last line

``seq`` is the tracer's logical clock at open/close: every open and
close ticks the clock exactly once, so over a complete trace the 2N
seq values are a permutation of 1..2N, and a child's interval is
strictly inside its parent's.  :func:`validate_trace` checks all of
that — it is the machine-checkable form of the tracer's invariants
(spans balance, ids unique, nesting sound), which is why the
trace-invariant suite funnels every exported trace through it.

**Deterministic mode** (``timings=False``) omits the wall-clock
``elapsed`` field, leaving only seeded ids, logical clocks, names,
attrs and metrics — two runs of the same work at the same seed render
byte-identical documents, which the invariant suite asserts.
"""

import json

from repro.atomicio import atomic_write_text
from repro.records import require

__all__ = [
    "TRACE_SCHEMA",
    "load_trace",
    "render_trace",
    "summarize_trace",
    "trace_lines",
    "validate_trace",
    "write_trace",
]

#: bump when the JSONL layout changes
TRACE_SCHEMA = 1


def trace_lines(tracer, timings=True):
    """*tracer*'s trace as a list of JSON-ready records."""
    spans = sorted(tracer.spans, key=lambda span: span.seq_start)
    lines = [{
        "type": "run",
        "schema": TRACE_SCHEMA,
        "run_id": tracer.run_id,
        "seed": tracer.seed,
        "deterministic": not timings,
        "spans": len(spans),
    }]
    for span in spans:
        record = {
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "seq": [span.seq_start, span.seq_end],
            "status": span.status,
            "attrs": dict(span.attrs),
        }
        if span.error is not None:
            record["error"] = span.error
        if timings:
            record["elapsed"] = None if span.elapsed is None \
                else round(span.elapsed, 9)
        lines.append(record)
    lines.append(dict(tracer.metrics.snapshot(), type="metrics"))
    return lines


def render_trace(tracer, timings=True):
    """The JSONL text of *tracer*'s trace (sorted keys, stable)."""
    return "".join(
        json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
        for line in trace_lines(tracer, timings=timings))


def write_trace(path, tracer, timings=True):
    """Atomically publish *tracer*'s trace as JSONL at *path*."""
    return atomic_write_text(path, render_trace(tracer, timings=timings))


def load_trace(path):
    """Parse a JSONL trace file into a list of records."""
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def validate_trace(lines):
    """Schema/invariant problems of a trace document (empty = valid)."""
    problems = []
    if not isinstance(lines, list) or not lines:
        return ["trace is not a non-empty list of records"]
    header = lines[0]
    if not isinstance(header, dict) or header.get("type") != "run":
        problems.append("first record is not the run header")
        header = {}
    require(problems, header.get("schema") == TRACE_SCHEMA,
            "run.schema is not %d" % TRACE_SCHEMA)
    require(problems,
            isinstance(header.get("run_id"), str) and header.get("run_id"),
            "run.run_id is not a non-empty string")
    require(problems, isinstance(header.get("deterministic"), bool),
            "run.deterministic is not a boolean")

    footer = lines[-1]
    if not isinstance(footer, dict) or footer.get("type") != "metrics":
        problems.append("last record is not the metrics footer")
        footer = {}
    counters = footer.get("counters")
    require(problems, isinstance(counters, dict),
            "metrics.counters is not an object")
    for name, value in (counters or {}).items():
        require(problems, isinstance(value, int) and value >= 0,
                "counter %s is not a non-negative integer" % name)
    require(problems, isinstance(footer.get("gauges"), dict),
            "metrics.gauges is not an object")

    spans = {}
    seqs = []
    for index, record in enumerate(lines[1:-1]):
        where = "record %d" % (index + 1)
        if not isinstance(record, dict) or record.get("type") != "span":
            problems.append("%s is not a span record" % where)
            continue
        span_id = record.get("id")
        where = "span %r" % (span_id,)
        if not isinstance(span_id, int):
            problems.append("%s has a non-integer id" % where)
            continue
        if span_id in spans:
            problems.append("%s: duplicate span id" % where)
            continue
        spans[span_id] = record
        require(problems,
                isinstance(record.get("name"), str) and record.get("name"),
                "%s has no name" % where)
        require(problems, record.get("status") in ("ok", "error"),
                "%s status %r is not ok/error" % (where,
                                                  record.get("status")))
        require(problems, isinstance(record.get("attrs"), dict),
                "%s attrs is not an object" % where)
        seq = record.get("seq")
        if (not isinstance(seq, list) or len(seq) != 2
                or not all(isinstance(tick, int) for tick in seq)):
            problems.append("%s seq is not an [open, close] integer pair "
                            "— an unclosed span?" % where)
            continue
        require(problems, seq[0] < seq[1],
                "%s closed before it opened" % where)
        seqs.extend(seq)

    require(problems, header.get("spans") == len(spans),
            "run.spans does not match the span record count")
    if not problems:
        # Complete traces tick the clock once per open and once per
        # close: the seq values are exactly 1..2N.
        require(problems, sorted(seqs) == list(range(1, 2 * len(spans) + 1)),
                "span seq values are not a permutation of 1..2N "
                "(lost or unclosed spans)")
        for span_id, record in spans.items():
            parent_id = record.get("parent")
            if parent_id is None:
                continue
            parent = spans.get(parent_id)
            if parent is None:
                problems.append("span %r references missing parent %r"
                                % (span_id, parent_id))
                continue
            require(problems, parent["seq"][0] < record["seq"][0]
                    and record["seq"][1] < parent["seq"][1],
                    "span %r is not enclosed by its parent %r"
                    % (span_id, parent_id))
    return problems


def summarize_trace(lines):
    """Aggregate a trace document for human display.

    Returns ``{"run_id", "deterministic", "spans", "by_name",
    "counters", "gauges"}`` where ``by_name`` maps span name to
    ``{"count", "errors", "elapsed"}`` (elapsed is None for
    deterministic traces).
    """
    header = lines[0] if lines else {}
    footer = lines[-1] if len(lines) > 1 else {}
    by_name = {}
    for record in lines[1:-1]:
        if record.get("type") != "span":
            continue
        entry = by_name.setdefault(record.get("name", "?"),
                                   {"count": 0, "errors": 0,
                                    "elapsed": None})
        entry["count"] += 1
        if record.get("status") == "error":
            entry["errors"] += 1
        elapsed = record.get("elapsed")
        if isinstance(elapsed, (int, float)):
            entry["elapsed"] = (entry["elapsed"] or 0.0) + elapsed
    return {
        "run_id": header.get("run_id"),
        "deterministic": header.get("deterministic"),
        "spans": header.get("spans"),
        "by_name": {name: by_name[name] for name in sorted(by_name)},
        "counters": dict(footer.get("counters") or {}),
        "gauges": dict(footer.get("gauges") or {}),
    }
