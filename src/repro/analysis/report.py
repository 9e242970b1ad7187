"""Machine-readable diagnostics: one JSON schema for every checker.

``repro lint``, ``repro verify`` and ``repro analyze`` all emit
:class:`~repro.analysis.lint.Diagnostic` findings; this module is their
shared serializer.  The document layout (schema version 2)::

    {"schema": 2, "tool": "lint" | "verify" | "analyze",
     "targets": [
        {"target": "qsort", "count": 2,
         "diagnostics": [{"stage": ..., "rule": ..., "message": ...,
                          "pos": int | null,
                          "region": [start, end] | null}, ...],
         ...tool-specific fields...},
     ],
     "count": 2}

Validation is hand-rolled (:func:`validate_diagnostics`,
:func:`validate_analysis`) with the :func:`repro.records.require`
helper the BENCH record validators use — the repository deliberately
has no external schema dependency.  Each command validates its
document before it prints or writes it and exits 1 on any problem.
"""

from repro.records import require

__all__ = [
    "DIAGNOSTICS_SCHEMA",
    "diagnostic_to_json",
    "diagnostics_document",
    "target_entry",
    "validate_diagnostics",
    "validate_analysis",
]

#: bump when the document layout changes incompatibly (2: an analyze
#: target's ``passes`` holds only ``unreachable``, ``dead_code`` and
#: ``disambiguation``)
DIAGNOSTICS_SCHEMA = 2

_TOOLS = ("lint", "verify", "analyze")


def diagnostic_to_json(diagnostic):
    """One :class:`~repro.analysis.lint.Diagnostic` as a JSON value."""
    region = diagnostic.region
    return {
        "stage": diagnostic.stage,
        "rule": diagnostic.rule,
        "message": diagnostic.message,
        "pos": diagnostic.pos,
        "region": list(region) if region is not None else None,
    }


def target_entry(target, diagnostics, **extra):
    """The per-target record of a diagnostics document."""
    entry = {
        "target": target,
        "count": len(diagnostics),
        "diagnostics": [diagnostic_to_json(d) for d in diagnostics],
    }
    entry.update(extra)
    return entry


def diagnostics_document(tool, targets):
    """The complete document for *tool* over per-target entries (see
    :func:`target_entry`)."""
    return {
        "schema": DIAGNOSTICS_SCHEMA,
        "tool": tool,
        "targets": list(targets),
        "count": sum(entry["count"] for entry in targets),
    }


# --------------------------------------------------------------------------
# Validation (hand-rolled; no external schema library).

def _validate_diagnostic(problems, where, value):
    if not require(problems, isinstance(value, dict),
                   "%s: diagnostic is not an object" % where):
        return
    for key in ("stage", "rule", "message"):
        require(problems, isinstance(value.get(key), str),
                "%s: %r is not a string" % (where, key))
    pos = value.get("pos")
    require(problems, pos is None or isinstance(pos, int),
            "%s: 'pos' is neither null nor an int" % where)
    region = value.get("region")
    require(problems,
            region is None
            or (isinstance(region, list) and len(region) == 2
                and all(isinstance(item, int) for item in region)),
            "%s: 'region' is neither null nor [start, end]" % where)


def _validate_target(problems, where, entry):
    if not require(problems, isinstance(entry, dict),
                   "%s: target entry is not an object" % where):
        return
    require(problems, isinstance(entry.get("target"), str),
            "%s: 'target' is not a string" % where)
    diagnostics = entry.get("diagnostics")
    if require(problems, isinstance(diagnostics, list),
               "%s: 'diagnostics' is not a list" % where):
        require(problems, entry.get("count") == len(diagnostics),
                "%s: 'count' does not match the diagnostics list"
                % where)
        for index, value in enumerate(diagnostics):
            _validate_diagnostic(
                problems, "%s.diagnostics[%d]" % (where, index), value)


def validate_diagnostics(document):
    """Schema problems of a diagnostics document (empty = valid)."""
    problems = []
    if not require(problems, isinstance(document, dict),
                   "document is not an object"):
        return problems
    require(problems, document.get("schema") == DIAGNOSTICS_SCHEMA,
            "'schema' is not %d" % DIAGNOSTICS_SCHEMA)
    require(problems, document.get("tool") in _TOOLS,
            "'tool' is not one of %s" % (_TOOLS,))
    targets = document.get("targets")
    if require(problems, isinstance(targets, list),
               "'targets' is not a list"):
        total = 0
        for index, entry in enumerate(targets):
            _validate_target(problems, "targets[%d]" % index, entry)
            if isinstance(entry, dict) \
                    and isinstance(entry.get("count"), int):
                total += entry["count"]
        require(problems, document.get("count") == total,
                "'count' does not sum the per-target counts")
    return problems


_PASS_KEYS = ("unreachable", "dead_code", "disambiguation")
_ILP_KEYS = ("sequential_cycles", "achieved_cycles",
             "dataflow_limit_cycles", "achieved_speedup",
             "dataflow_limit_speedup", "gap")


def validate_analysis(document):
    """Schema problems of a ``repro analyze`` document: the diagnostics
    layout plus the per-target pass statistics and ILP-bound record."""
    problems = validate_diagnostics(document)
    if problems and not isinstance(document, dict):
        return problems
    require(problems, document.get("tool") == "analyze",
            "'tool' is not 'analyze'")
    targets = document.get("targets")
    if not isinstance(targets, list):
        return problems
    for index, entry in enumerate(targets):
        where = "targets[%d]" % index
        if not isinstance(entry, dict):
            continue
        require(problems, isinstance(entry.get("ops"), int),
                "%s: 'ops' is not an int" % where)
        passes = entry.get("passes")
        if require(problems, isinstance(passes, dict),
                   "%s: 'passes' is not an object" % where):
            for key in _PASS_KEYS:
                require(problems, isinstance(passes.get(key), dict),
                        "%s.passes: %r is missing" % (where, key))
        ilp = entry.get("ilp")
        if require(problems, isinstance(ilp, dict),
                   "%s: 'ilp' is not an object" % where):
            for key in _ILP_KEYS:
                require(problems,
                        isinstance(ilp.get(key), (int, float)),
                        "%s.ilp: %r is not a number" % (where, key))
    return problems
