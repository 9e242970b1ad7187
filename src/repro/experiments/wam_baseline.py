"""Section 2's claim: the BAM's "model improvement ... and more
sophisticated compiler optimizations" are worth roughly a factor of three
over Warren-machine implementations.

We rebuild the comparison on our own substrate: each benchmark compiled
twice — once with the full BAM-style feature set (first-argument
indexing, determinism extraction, last-call optimisation) and once as a
naive Warren-style baseline (plain try/retry/trust chains, every call
returns through an environment) — and executed on the same sequential
machine.  The ratio of cycle counts is the reproducible part of the
paper's "factor of three" (the rest came from clock technology).
"""

from repro.bam import CompilerOptions
from repro.compaction import sequential
from repro.evaluation.parallel import memoised, shared_engine
from repro.evaluation.pipeline import basic_block_regions, machine_cycles
from repro.benchmarks import PROGRAMS, run_program_cached
from repro.benchmarks.suite import compile_program, program_fingerprint
from repro.experiments.render import render_table, fmt

DEFAULT_BENCHMARKS = ["conc30", "nreverse", "qsort", "serialise",
                      "queens_8", "divide10", "times10", "mu"]


def _compiled_pair(name):
    """*name* compiled BAM-style and Warren-style."""
    source = PROGRAMS[name].source
    return (compile_program(source),
            compile_program(source, options=CompilerOptions(
                indexing=False, lco=False)))


def _seq_cycles(program, hint):
    result = run_program_cached(program, hint)
    return machine_cycles(basic_block_regions(program, result),
                          sequential()), result


def benchmark_ratio(name):
    """(BAM-style cycles, Warren-style cycles, output check) for one
    benchmark."""
    bam_program, wam_program = _compiled_pair(name)
    bam_cycles, bam_result = _seq_cycles(bam_program, name + "-")
    wam_cycles, wam_result = _seq_cycles(wam_program, name + "-wam-")
    if (wam_result.status, wam_result.output) != (bam_result.status,
                                                  bam_result.output):
        raise AssertionError(
            "Warren-style compilation changed %s's behaviour" % name)
    return bam_cycles, wam_cycles


def _ratio_cell(name):
    """Content-cached :func:`benchmark_ratio` for one benchmark."""
    bam_program, wam_program = _compiled_pair(name)

    def compute_cell():
        bam_cycles, wam_cycles = benchmark_ratio(name)
        return {"bam_cycles": bam_cycles, "wam_cycles": wam_cycles}

    return memoised("wam",
                    {"bam_fingerprint": program_fingerprint(bam_program),
                     "wam_fingerprint": program_fingerprint(wam_program)},
                    compute_cell)


def compute(benchmarks=None):
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    cells = shared_engine().map(_ratio_cell, benchmarks)
    rows = {}
    for name, cell in zip(benchmarks, cells):
        bam_cycles, wam_cycles = cell["bam_cycles"], cell["wam_cycles"]
        rows[name] = {
            "bam_cycles": bam_cycles,
            "wam_cycles": wam_cycles,
            "ratio": wam_cycles / bam_cycles,
        }
    average = sum(r["ratio"] for r in rows.values()) / len(rows)
    return {"benchmarks": rows, "average_ratio": average}


def render(data=None):
    data = data or compute()
    rows = []
    for name in sorted(data["benchmarks"]):
        entry = data["benchmarks"][name]
        rows.append([name, entry["wam_cycles"], entry["bam_cycles"],
                     fmt(entry["ratio"])])
    rows.append(["AVERAGE", "", "", fmt(data["average_ratio"])])
    return render_table(
        "Section 2 -- Warren-style vs BAM-style compilation "
        "(sequential cycles)",
        ["benchmark", "warren cycles", "bam cycles", "ratio"],
        rows,
        note="Paper: model + compiler improvements give 'roughly a "
             "factor of three' of the BAM's 10x over the PLM.")


if __name__ == "__main__":
    print(render())
