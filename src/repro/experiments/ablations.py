"""Ablation studies on the design choices DESIGN.md calls out.

These go beyond the paper's tables and quantify its central assumptions:

* ``memory_ports`` — relax the single shared-memory port.  The paper's
  whole Amdahl argument (section 4.2) rests on this resource; extra ports
  should lift the saturation ceiling.
* ``speculation`` — disable upward code motion past branches.  Global
  compaction without speculation degenerates towards basic-block quality.
* ``inter_unit_moves`` — charge a cycle for operands produced on another
  unit (the prototype's bus reality; section 3.2's "register movement
  insertion").
* ``tail_dup_budget`` — sweep the compensation-code budget: the
  trace-length / code-growth trade-off of section 4.4.
* ``optimizer`` — run the block-local ICI optimiser (copy propagation,
  constant reuse, dead moves) before scheduling.  The paper's pipeline
  defers such clean-ups to the back-end; this measures how much the
  naive expansion leaves on the table.
"""

from repro.benchmarks import compile_benchmark, run_program_cached
from repro.compaction import sequential, vliw
from repro.evaluation.parallel import shared_engine
from repro.evaluation.pipeline import machine_cycles, superblock_regions
from repro.intcode import optimize_program
from repro.experiments.render import render_table, fmt

#: representative subset (full sweep would multiply evaluation time)
DEFAULT_BENCHMARKS = ["nreverse", "qsort", "serialise", "queens_8"]


def _average_speedup(benchmarks, configs, **kwargs):
    evaluations = shared_engine().evaluate_many(
        [dict(name=name, configs=configs, **kwargs)
         for name in benchmarks])
    speedups = {key: [] for key in configs if key != "seq"}
    for evaluation in evaluations:
        for key in speedups:
            speedups[key].append(evaluation.speedup(key))
    return {key: sum(values) / len(values)
            for key, values in speedups.items()}


def memory_ports(benchmarks=None, ports=(1, 2, 4)):
    """Average speedup of a 4-unit machine as memory ports increase."""
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    configs = {"seq": (sequential(), "bb")}
    for n_ports in ports:
        configs["ports%d" % n_ports] = (
            vliw(4, name="vliw4p%d" % n_ports, mem_ports=n_ports),
            "trace")
    averages = _average_speedup(benchmarks, configs)
    return {"ports": list(ports),
            "speedup": [averages["ports%d" % p] for p in ports]}


def speculation(benchmarks=None):
    """Average 3-unit speedup with and without branch speculation."""
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    configs = {
        "seq": (sequential(), "bb"),
        "spec_on": (vliw(3, name="vliw3s1"), "trace"),
        "spec_off": (vliw(3, name="vliw3s0", speculation=False), "trace"),
    }
    return _average_speedup(benchmarks, configs)


def inter_unit_moves(benchmarks=None):
    """Average 3-unit speedup with free versus 1-cycle cross-unit reads."""
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    configs = {
        "seq": (sequential(), "bb"),
        "free": (vliw(3, name="vliw3m0"), "trace"),
        "penalty": (vliw(3, name="vliw3m1", inter_unit_penalty=1),
                    "trace"),
    }
    return _average_speedup(benchmarks, configs)


def tail_dup_budget(benchmarks=None, budgets=(0, 16, 48, 128)):
    """Speedup and region length as the duplication budget grows."""
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    # One DAG across the whole budget x benchmark grid: the sequential
    # baseline cells are shared between budgets (basic-block artefacts
    # do not depend on the duplication budget), everything else fans
    # out in parallel.
    configs = {"seq": (sequential(), "bb"),
               "ideal_tr": (vliw(64, name="ideal_budget"), "trace")}
    requests = [dict(name=name, configs=configs, tail_dup_budget=budget)
                for budget in budgets for name in benchmarks]
    evaluations = iter(shared_engine().evaluate_many(requests))
    rows = []
    for budget in budgets:
        speedups = []
        lengths = []
        for _ in benchmarks:
            evaluation = next(evaluations)
            speedups.append(evaluation.speedup("ideal_tr"))
            lengths.append(
                evaluation.region_stats["trace"]["mean_length"])
        rows.append({"budget": budget,
                     "speedup": sum(speedups) / len(speedups),
                     "length": sum(lengths) / len(lengths)})
    return rows


def optimizer(benchmarks=None):
    """Per benchmark: static and dynamic ICI counts before and after
    the optimiser, the 3-unit cycle gain it buys, and whether the
    optimised program still prints the same output."""
    rows = {}
    for name in benchmarks or DEFAULT_BENCHMARKS:
        program = compile_benchmark(name)
        optimized, stats = optimize_program(program)
        base = run_program_cached(program, name + "-")
        opt = run_program_cached(optimized, name + "-opt-")
        base_cycles = machine_cycles(
            superblock_regions(program, base, cache_hint=name + "-"),
            vliw(3))
        opt_cycles = machine_cycles(
            superblock_regions(optimized, opt, cache_hint=name + "-opt-"),
            vliw(3))
        rows[name] = {"static": (len(program), len(optimized)),
                      "dynamic": (base.steps, opt.steps),
                      "ratio": base_cycles / opt_cycles,
                      "same_output": ((opt.status, opt.output)
                                      == (base.status, base.output)),
                      "stats": stats}
    return rows


def render_all():
    """Render every ablation as one text report."""
    ports = memory_ports()
    spec = speculation()
    moves = inter_unit_moves()
    budgets = tail_dup_budget()
    optimized = optimizer()
    sections = [
        render_table(
            "Ablation -- shared-memory ports (4-unit machine)",
            ["memory ports", "avg speedup"],
            [[p, fmt(s)] for p, s in zip(ports["ports"],
                                         ports["speedup"])],
            note="One port is the paper's model; more ports lift the "
                 "Amdahl ceiling."),
        render_table(
            "Ablation -- speculation above branches (3 units)",
            ["configuration", "avg speedup"],
            [["speculation on", fmt(spec["spec_on"])],
             ["speculation off", fmt(spec["spec_off"])]]),
        render_table(
            "Ablation -- inter-unit communication cost (3 units)",
            ["configuration", "avg speedup"],
            [["free cross-unit reads", fmt(moves["free"])],
             ["1-cycle cross-unit reads", fmt(moves["penalty"])]]),
        render_table(
            "Ablation -- tail-duplication budget (ideal machine)",
            ["budget (ops)", "avg speedup", "avg region length"],
            [[row["budget"], fmt(row["speedup"]), fmt(row["length"], 1)]
             for row in budgets]),
        render_table(
            "Ablation -- block-local ICI optimiser (3 units)",
            ["benchmark", "static ops", "dynamic ops", "cycle gain",
             "propagated", "reused", "removed"],
            [[name, "%d->%d" % row["static"], "%d->%d" % row["dynamic"],
              fmt(row["ratio"]) + "x", row["stats"].copies_propagated,
              row["stats"].constants_reused, row["stats"].dead_removed]
             for name, row in optimized.items()]),
    ]
    return "\n\n".join(sections)
