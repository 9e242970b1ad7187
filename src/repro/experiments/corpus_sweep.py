"""The corpus sweep: every generated program is a differential test.

``repro corpus`` pushes the whole generated corpus (plus the three DCG
application workloads) through the full paper pipeline:

1. **Differential oracle** — the compiled ICI emulation must agree with
   the reference interpreter on status and (variable-normalised)
   output.
2. **Independent checker** — :func:`repro.evaluation.pipeline
   .verify_evaluation` re-proves lint, transform bisimulation, schedule
   legality and register allocation over a config slice (``seq``,
   ``vliw3``, ``tr_ideal``).
3. **Paper statistics** — the executed instruction mix (Table 3
   classes), branch predictability (Table 2's execution-weighted
   ``P_fp`` and the 90/50 taken-rule split) and the static ILP triple
   (sequential / achieved / dataflow-limit cycles, PR 6's gap).

Every program fans out as one supervised task on the shared evaluation
engine; profiles and cycle cells land in the same content-addressed
cache as ``repro evaluate``/``analyze``, so re-sweeps are incremental.

The sweep's product is ``results/BENCH_corpus.json`` — per-program
records plus corpus-level distributions asking where the paper's
"Prolog branches are predictable" claim (average ``P_fp`` ≈ 0.15,
section 4.4) holds or breaks at corpus scale.
"""

import time

from repro.analysis.branch_stats import (
    average_p_fp, branch_records, taken_rule_stats)
# the Figure 5 mix under the name the golden-number tests import
from repro.intcode.ici import instruction_mix as _instruction_mix
from repro.records import check_header, header, require

__all__ = [
    "CORPUS_BENCH_SCHEMA",
    "CORPUS_CONFIG_KEYS",
    "PREDICTABLE_P_FP",
    "SATURATION_WIDTHS",
    "build_corpus_specs",
    "corpus_document",
    "run_corpus_sweep",
    "sweep_target",
    "validate_corpus_bench",
]

CORPUS_BENCH_SCHEMA = 2

CORPUS_BENCH_KIND = "corpus-sweep"

#: the master-config slice every corpus program is verified under —
#: the sequential reference, a realistic 3-unit VLIW and the paper's
#: ideal trace machine (one per regioning/speculation shape)
CORPUS_CONFIG_KEYS = ("seq", "vliw3", "tr_ideal")

#: the paper's section 4.4 yardstick: an execution-weighted average
#: faulty-prediction probability at or below this is "predictable"
#: (the suite-wide figure reproduced in Table 2 is ~0.15)
PREDICTABLE_P_FP = 0.15

#: tail-duplication budget (the evaluation default)
DEFAULT_BUDGET = 48

#: the VLIW issue widths of the saturation curve (Figure 2's sweep):
#: how per-program speedup grows — and flattens — as units are added
SATURATION_WIDTHS = (1, 2, 3, 4, 5)


def _corpus_configs():
    from repro.experiments.data import master_configs
    full = master_configs()
    return {key: full[key] for key in CORPUS_CONFIG_KEYS}


def sweep_target(spec):
    """Process one corpus program end to end (pool worker).

    *spec* is a plain dict (picklable): ``name``, ``source``, ``kind``
    (``generated``/``dcg``), ``seed`` (or None), ``schemes``, ``budget``
    and ``max_steps``.  Returns the per-program record of the corpus
    document.
    """
    import re

    from repro.analysis.driver import _cycles_cell, ilp_bound
    from repro.benchmarks.suite import (
        compile_program, program_fingerprint, run_program_cached)
    from repro.evaluation.pipeline import (
        basic_block_regions, superblock_regions, verify_evaluation)
    from repro.interp import Engine

    name = spec["name"]
    budget = spec["budget"]
    program = compile_program(spec["source"])
    fingerprint = program_fingerprint(program)
    hint = name + "-"

    # 1. Differential oracle: reference interpreter vs compiled
    # emulation.  The profile is cached; the interpreter run is cheap
    # (corpus programs are small by construction).
    result = run_program_cached(program, hint)
    if result.steps > spec["max_steps"]:
        # cached profiles bypass the emulator's own ceiling
        raise AssertionError("%s: %d steps exceeds the corpus ceiling %d"
                             % (name, result.steps, spec["max_steps"]))
    engine = Engine()
    engine.consult(spec["source"])
    interp_ok = engine.run_query("main")
    normalise = lambda text: re.sub(r"_[A-Za-z0-9]+", "_", text)
    oracle_match = (interp_ok == result.succeeded
                    and normalise(engine.output_text())
                    == normalise(result.output))

    # 2. The independent checker over the config slice.
    configs = _corpus_configs()
    diagnostics = verify_evaluation(program, result, configs,
                                    tail_dup_budget=budget,
                                    cache_hint=hint)

    # 3. Paper statistics: mix, branches, static ILP triple.
    mix = _instruction_mix(program, result.counts)
    records = branch_records(program, result.counts, result.taken)
    taken = taken_rule_stats(records)
    branch = {
        "static_branches": len(records),
        "dynamic_branches": sum(r.executed for r in records),
        "avg_p_fp": average_p_fp(records),
        "backward_taken": taken["backward"]["mean_taken"],
        "forward_taken": taken["forward"]["mean_taken"],
    }

    bb_set = basic_block_regions(program, result)
    trace_set = superblock_regions(program, result, budget, hint)
    ilp = ilp_bound(fingerprint, budget, bb_set, trace_set)

    record = {
        "name": name,
        "kind": spec["kind"],
        "seed": spec["seed"],
        "schemes": spec["schemes"],
        "ops": len(program),
        "steps": result.steps,
        "oracle": {
            "match": oracle_match,
            "interpreter_succeeded": interp_ok,
            "emulator_succeeded": result.succeeded,
        },
        "verify_findings": len(diagnostics),
        "mix": mix,
        "branch": branch,
        "ilp": ilp,
    }

    if spec.get("saturation"):
        # ILP saturation: speedup over the sequential machine as the
        # VLIW issue width grows (the corpus-scale twin of Figure 2's
        # width sweep).  Cells land in the same memoised cache as the
        # master evaluation, so the curve is incremental too.
        from repro.experiments.data import master_configs
        widths = master_configs()
        curve = {}
        for width in SATURATION_WIDTHS:
            config, _regioning = widths["vliw%d" % width]
            cycles = _cycles_cell(fingerprint, "trace", budget, config,
                                  trace_set, True)
            curve["vliw%d" % width] = (ilp["sequential_cycles"] / cycles
                                       if cycles else 0.0)
        record["saturation"] = curve

    return record


def build_corpus_specs(count, base_seed, budget=DEFAULT_BUDGET,
                       include_workloads=True, saturation=False):
    """The sweep's task list: *count* generated programs (+ workloads)."""
    from repro.corpus.generate import (
        GENERATOR_MAX_STEPS, corpus_programs)
    from repro.corpus.workloads import DCG_WORKLOADS

    specs = []
    if include_workloads:
        for name in sorted(DCG_WORKLOADS):
            workload = DCG_WORKLOADS[name]
            specs.append({
                "name": name, "source": workload.source, "kind": "dcg",
                "seed": None, "schemes": [], "budget": budget,
                "max_steps": GENERATOR_MAX_STEPS,
                "saturation": saturation,
            })
    for generated in corpus_programs(count, base_seed):
        specs.append({
            "name": generated.name, "source": generated.source,
            "kind": "generated", "seed": generated.seed,
            "schemes": generated.schemes, "budget": budget,
            "max_steps": GENERATOR_MAX_STEPS,
            "saturation": saturation,
        })
    return specs


# --------------------------------------------------------------------------
# Corpus-level distributions and the paper-claim report.

def _quantiles(values):
    """min / quartiles / max of a value list (empty-safe)."""
    if not values:
        return {"min": 0.0, "p25": 0.0, "median": 0.0, "p75": 0.0,
                "max": 0.0, "mean": 0.0}
    ordered = sorted(values)

    def at(fraction):
        index = min(len(ordered) - 1,
                    int(round(fraction * (len(ordered) - 1))))
        return ordered[index]

    return {
        "min": ordered[0],
        "p25": at(0.25),
        "median": at(0.5),
        "p75": at(0.75),
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
    }


def _p_fp_bins(values):
    """Histogram of per-program average P_fp over [0, 0.5]."""
    edges = [0.05, 0.10, 0.15, 0.25, 0.50]
    labels = ["<0.05", "0.05-0.10", "0.10-0.15", "0.15-0.25", ">=0.25"]
    counts = [0] * len(labels)
    for value in values:
        for index, edge in enumerate(edges):
            if value < edge or index == len(edges) - 1:
                counts[index] += 1
                break
    return dict(zip(labels, counts))


def _claim_report(records):
    """Where the paper's predictability claim holds or breaks.

    Section 4.4 claims Prolog branches are predictable (suite average
    ``P_fp`` ≈ 0.15) *and* that the numeric-code 90/50 taken rule does
    not transfer.  We score both per program and name the outliers.
    """
    with_branches = [r for r in records
                     if r["branch"]["dynamic_branches"] > 0]
    p_fps = [r["branch"]["avg_p_fp"] for r in with_branches]
    predictable = [r for r in with_branches
                   if r["branch"]["avg_p_fp"] <= PREDICTABLE_P_FP]
    breakers = sorted(
        (r for r in with_branches
         if r["branch"]["avg_p_fp"] > PREDICTABLE_P_FP),
        key=lambda r: r["branch"]["avg_p_fp"], reverse=True)
    ninety_fifty = [
        r for r in with_branches
        if r["branch"]["backward_taken"] >= 0.85
        and abs(r["branch"]["forward_taken"] - 0.5) <= 0.15]
    return {
        "threshold_p_fp": PREDICTABLE_P_FP,
        "programs_with_branches": len(with_branches),
        "predictable": len(predictable),
        "predictable_fraction": (len(predictable) / len(with_branches)
                                 if with_branches else 0.0),
        "p_fp_distribution": _quantiles(p_fps),
        "p_fp_histogram": _p_fp_bins(p_fps),
        "worst": [{"name": r["name"],
                   "avg_p_fp": r["branch"]["avg_p_fp"],
                   "schemes": r["schemes"]}
                  for r in breakers[:10]],
        # how many programs *do* follow numeric code's 90/50 rule
        # (the paper says the suite doesn't; does the corpus?)
        "ninety_fifty_rule_holds": len(ninety_fifty),
    }


def corpus_document(records, elapsed_seconds, count, base_seed):
    """The ``BENCH_corpus.json`` document for one sweep."""
    mismatches = [r["name"] for r in records if not r["oracle"]["match"]]
    findings = [r["name"] for r in records if r["verify_findings"]]
    gaps = [r["ilp"]["gap"] for r in records]
    achieved = [r["ilp"]["achieved_speedup"] for r in records]
    limits = [r["ilp"]["dataflow_limit_speedup"] for r in records]
    generated = [r for r in records if r["kind"] == "generated"]
    dcg = [r for r in records if r["kind"] == "dcg"]
    with_curve = [r for r in records if "saturation" in r]
    saturation = {
        "vliw%d" % width: _quantiles(
            [r["saturation"]["vliw%d" % width] for r in with_curve])
        for width in SATURATION_WIDTHS
    } if with_curve else None
    document = dict(
        header(CORPUS_BENCH_KIND, CORPUS_BENCH_SCHEMA),
        parameters={
            "count": count,
            "base_seed": base_seed,
            "machine_configs": list(CORPUS_CONFIG_KEYS),
        },
        programs=list(records),
        summary={
            "programs": len(records),
            "generated": len(generated),
            "dcg_workloads": len(dcg),
            "total_steps": sum(r["steps"] for r in records),
            "total_seconds": round(elapsed_seconds, 4),
            "oracle_mismatches": mismatches,
            "verify_finding_programs": findings,
            "ilp": {
                "achieved_speedup": _quantiles(achieved),
                "dataflow_limit_speedup": _quantiles(limits),
                "gap": _quantiles(gaps),
            },
            "claim": _claim_report(records),
        },
    )
    if saturation is not None:
        document["summary"]["saturation"] = saturation
    return document


def validate_corpus_bench(document):
    """Schema problems of a BENCH_corpus.json document (empty=valid)."""
    problems = []
    if not check_header(document, CORPUS_BENCH_KIND, CORPUS_BENCH_SCHEMA,
                        problems):
        return problems
    parameters = document.get("parameters")
    if require(problems, isinstance(parameters, dict),
               "'parameters' is not an object"):
        require(problems, isinstance(parameters.get("count"), int),
                "'parameters.count' is not an int")
        require(problems, isinstance(parameters.get("base_seed"), int),
                "'parameters.base_seed' is not an int")
    programs = document.get("programs")
    if require(problems, isinstance(programs, list) and programs,
               "'programs' is not a non-empty list"):
        for index, record in enumerate(programs):
            where = "programs[%d]" % index
            if not require(problems, isinstance(record, dict),
                           "%s is not an object" % where):
                continue
            require(problems, isinstance(record.get("name"), str),
                    "%s: 'name' is not a string" % where)
            require(problems, record.get("kind") in ("generated", "dcg"),
                    "%s: 'kind' is not generated/dcg" % where)
            oracle = record.get("oracle")
            require(problems, isinstance(oracle, dict)
                    and isinstance(oracle.get("match"), bool),
                    "%s: 'oracle.match' is not a bool" % where)
            require(problems, isinstance(record.get("verify_findings"), int),
                    "%s: 'verify_findings' is not an int" % where)
            branch = record.get("branch")
            require(problems, isinstance(branch, dict)
                    and isinstance(branch.get("avg_p_fp"),
                                   (int, float)),
                    "%s: 'branch.avg_p_fp' is not a number" % where)
            ilp = record.get("ilp")
            require(problems, isinstance(ilp, dict)
                    and isinstance(ilp.get("gap"), (int, float)),
                    "%s: 'ilp.gap' is not a number" % where)
            if "saturation" in record:
                curve = record["saturation"]
                require(problems, isinstance(curve, dict)
                        and sorted(curve) == sorted(
                            "vliw%d" % w for w in SATURATION_WIDTHS)
                        and all(isinstance(v, (int, float))
                                for v in curve.values()),
                        "%s: 'saturation' is not a full vliw1..vliw%d "
                        "number curve" % (where, SATURATION_WIDTHS[-1]))
            mix = record.get("mix")
            if require(problems, isinstance(mix, dict),
                       "%s: 'mix' is not an object" % where):
                require(problems, abs(sum(mix.values()) - 1.0) < 1e-6,
                        "%s: 'mix' does not sum to 1" % where)
    summary = document.get("summary")
    if require(problems, isinstance(summary, dict),
               "'summary' is not an object"):
        require(problems, summary.get("programs") == len(programs or []),
                "'summary.programs' does not count the records")
        require(problems, isinstance(summary.get("oracle_mismatches"), list),
                "'summary.oracle_mismatches' is not a list")
        require(problems,
                isinstance(summary.get("verify_finding_programs"), list),
                "'summary.verify_finding_programs' is not a list")
        claim = summary.get("claim")
        if require(problems, isinstance(claim, dict),
                   "'summary.claim' is not an object"):
            require(problems,
                    isinstance(claim.get("predictable_fraction"),
                               (int, float)),
                    "'claim.predictable_fraction' is not a number")
            require(problems, isinstance(claim.get("p_fp_histogram"), dict),
                    "'claim.p_fp_histogram' is not an object")
        ilp = summary.get("ilp")
        if require(problems, isinstance(ilp, dict),
                   "'summary.ilp' is not an object"):
            for key in ("achieved_speedup", "dataflow_limit_speedup",
                        "gap"):
                require(problems, isinstance(ilp.get(key), dict),
                        "'summary.ilp.%s' is not an object" % key)
        if "saturation" in summary:
            curve = summary["saturation"]
            require(problems, isinstance(curve, dict)
                    and sorted(curve) == sorted(
                        "vliw%d" % w for w in SATURATION_WIDTHS)
                    and all(isinstance(v, dict)
                            for v in (curve or {}).values()),
                    "'summary.saturation' is not a full vliw1..vliw%d "
                    "quantile curve" % SATURATION_WIDTHS[-1])
    return problems


def run_corpus_sweep(count, base_seed, engine=None,
                     budget=DEFAULT_BUDGET, include_workloads=True,
                     progress=None, saturation=False):
    """Sweep the corpus through :func:`sweep_target`; returns the
    BENCH document.  Tasks fan out over *engine* (or the shared one),
    supervised and cache-backed.  With *saturation*, every program
    also sweeps the vliw1..vliw5 width curve."""
    from repro.evaluation.parallel import shared_engine

    engine = engine or shared_engine()
    specs = build_corpus_specs(count, base_seed, budget,
                               include_workloads, saturation)
    started = time.perf_counter()
    records = engine.map(sweep_target, specs)
    elapsed = time.perf_counter() - started
    if progress is not None:
        for record in records:
            progress(record)
    return corpus_document(records, elapsed, count, base_seed)
