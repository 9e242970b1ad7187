"""Static ILP bound — the dataflow limit versus the achieved schedule.

The paper measures how much instruction-level parallelism Prolog
exposes (Tables 1/3) with a *scheduler in the loop*: the reported
speedups include the shared memory port, the branch-order rule and the
greedy scheduler's decisions.  The static dataflow facts
(:mod:`repro.analysis.dataflow`) let us price the pure dependence
height of the same regions — every operation issued as soon as its
true dependences allow, memory references disambiguated by the
must/may-alias pass — which is the classic *dataflow limit* on ILP.

This table reports, per benchmark, the achieved ideal-machine speedup
(``tr_ideal``, the Table 1 concurrency limit) next to the dataflow
limit, and the gap between them: the price of the memory port and the
scheduling heuristics that ROADMAP item 4 (optimal scheduling via SMT)
wants to quantify further.
"""

from repro.experiments.data import get_evaluations, table_benchmarks
from repro.experiments.render import render_table, fmt

#: the evaluation's tail-duplication budget (shared cache keys)
BUDGET = 48


def _dataflow_limit(name):
    """Dataflow-limit cycles of *name*'s trace regions: the analyze
    driver's memoised cell, whose region set is built only on a miss."""
    from repro.analysis.driver import _limit_cell
    from repro.benchmarks.suite import (
        compile_benchmark, program_fingerprint, run_program_cached)
    from repro.compaction.machine_model import ideal
    from repro.evaluation.pipeline import superblock_regions

    program = compile_benchmark(name)

    def trace_regions():
        result = run_program_cached(program, name + "-")
        return superblock_regions(program, result, BUDGET, name + "-")

    return _limit_cell(program_fingerprint(program), BUDGET,
                       ideal("dataflow"), trace_regions)


def compute(benchmarks=None):
    benchmarks = benchmarks or table_benchmarks()
    evaluations = get_evaluations(benchmarks)
    rows = {}
    for name in benchmarks:
        evaluation = evaluations[name]
        seq = evaluation.cycles("seq")
        achieved_cycles = evaluation.cycles("tr_ideal")
        limit_cycles = _dataflow_limit(name)
        achieved = seq / achieved_cycles
        bound = seq / limit_cycles
        rows[name] = {
            "achieved_cycles": achieved_cycles,
            "limit_cycles": limit_cycles,
            "achieved_speedup": achieved,
            "limit_speedup": bound,
            "gap": bound / achieved,
        }
    count = len(benchmarks)
    average = {key: sum(r[key] for r in rows.values()) / count
               for key in next(iter(rows.values()))}
    return {"benchmarks": rows, "average": average}


def render(data=None):
    data = data or compute()
    rows = []
    for name in sorted(data["benchmarks"]):
        entry = data["benchmarks"][name]
        rows.append([name,
                     "%d" % entry["achieved_cycles"],
                     "%d" % entry["limit_cycles"],
                     fmt(entry["achieved_speedup"]),
                     fmt(entry["limit_speedup"]),
                     fmt(entry["gap"])])
    average = data["average"]
    rows.append(["AVERAGE", "", "",
                 fmt(average["achieved_speedup"]),
                 fmt(average["limit_speedup"]),
                 fmt(average["gap"])])
    return render_table(
        "Static ILP bound -- dataflow limit vs achieved schedule "
        "(ideal machine, trace regions)",
        ["benchmark", "sched cyc", "limit cyc",
         "achieved", "dfl limit", "gap"],
        rows,
        note="The dataflow limit replays ASAP issue times under true "
             "dependences only (memory pairs disambiguated "
             "must/may-alias, branch order kept).  'gap' = limit "
             "speedup / achieved speedup: what the shared memory "
             "port, speculation limits and greedy scheduling cost.")


if __name__ == "__main__":
    print(render())
