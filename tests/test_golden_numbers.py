"""Golden-number regression suite.

Pins the headline quantities of the reproduction (EXPERIMENTS.md) to the
paper's published values with tolerances wide enough to survive
refactors of the pipeline, scheduler or cache — but tight enough that a
change which *moves the results* fails loudly instead of drifting.

Everything here flows through the shared parallel evaluation engine, so
this suite also locks the engine's aggregation: a caching bug that
served a stale or mismatched artefact would show up as a golden-number
violation.

CI runs this file as a separate gate (see .github/workflows/ci.yml).
"""

import pytest

from repro.experiments import figure2, figure3, table1, table3
from repro.intcode.ici import MEM

# Paper / EXPERIMENTS.md headline values.
GOLDEN_MEMORY_FRACTION = 0.330    # Figure 2: memory ops ~33% of mix
GOLDEN_AMDAHL_BOUND = 3.03        # Figure 3: asymptotic speedup bound
GOLDEN_BB_SPEEDUP = 1.65          # Table 1: basic-block-limit speedup
GOLDEN_TRACE_SPEEDUP = 2.39       # Table 1: global-compaction speedup
GOLDEN_BAM_SPEEDUP = 1.59         # Table 3: BAM-like restricted machine


@pytest.fixture(scope="module")
def fig2():
    return figure2.compute()


@pytest.fixture(scope="module")
def t1():
    return table1.compute()


@pytest.fixture(scope="module")
def t3():
    return table3.compute()


def test_memory_fraction_is_one_third(fig2):
    assert fig2["average"][MEM] == pytest.approx(
        GOLDEN_MEMORY_FRACTION, abs=0.02)


def test_amdahl_bound(fig2):
    data = figure3.compute(fig2["average"][MEM])
    assert data["asymptote"] == pytest.approx(
        GOLDEN_AMDAHL_BOUND, abs=0.15)


def test_basic_block_speedup(t1):
    assert t1["average"]["bb_speedup"] == pytest.approx(
        GOLDEN_BB_SPEEDUP, abs=0.08)


def test_trace_speedup(t1):
    assert t1["average"]["trace_speedup"] == pytest.approx(
        GOLDEN_TRACE_SPEEDUP, abs=0.12)


def test_bam_speedup(t3):
    assert t3["average"]["bam"] == pytest.approx(
        GOLDEN_BAM_SPEEDUP, abs=0.08)


def test_table3_saturation_shape(t3):
    """Unit scaling saturates the way Table 3 of the paper does."""
    units = [t3["average"]["vliw%d" % n] for n in range(1, 6)]
    # Monotone in the number of units...
    assert all(a <= b + 1e-9 for a, b in zip(units, units[1:]))
    # ...with a visible gain up to three units...
    assert units[2] - units[0] > 0.30
    # ...and saturation beyond four (Amdahl memory bound).
    assert units[4] - units[3] < 0.05
    # The whole curve lives under the Figure 3 asymptote.
    assert units[4] < GOLDEN_AMDAHL_BOUND


def test_rendered_table1_average_line(t1):
    """The rendered artefact carries the golden averages verbatim."""
    line = next(row for row in table1.render(t1).splitlines()
                if row.strip().startswith("AVERAGE"))
    assert "%.2f" % t1["average"]["trace_speedup"] in line
    assert "%.2f" % t1["average"]["bb_speedup"] in line


# -- DCG application workloads (the corpus' fixed anchor points) -------------
#
# Pinned from the first full corpus sweep (results/BENCH_corpus.json).
# These are *application* numbers: grammar code branches on token
# shape, and all three workloads sit well above the paper-suite P_fp —
# a scheduler or emulator change that silently shifts application
# behaviour fails here even if the 14 microbenchmarks stay put.

GOLDEN_DCG = {
    #            speedup  mem-mix  avg_p_fp
    "dcg_grammar": (2.19,  0.352,   0.228),
    "dcg_json":    (2.23,  0.314,   0.213),
    "dcg_calc":    (2.22,  0.354,   0.221),
}


@pytest.fixture(scope="module")
def dcg_profiles():
    from repro.benchmarks.suite import compile_benchmark, \
        run_program_cached
    profiles = {}
    for name in GOLDEN_DCG:
        program = compile_benchmark(name)
        profiles[name] = (program, run_program_cached(program,
                                                      name + "-"))
    return profiles


@pytest.mark.parametrize("name", sorted(GOLDEN_DCG))
def test_dcg_workload_speedup(dcg_profiles, name):
    from repro.compaction.machine_model import ideal, sequential
    from repro.evaluation.pipeline import (
        basic_block_regions, machine_cycles, superblock_regions)
    program, result = dcg_profiles[name]
    seq = machine_cycles(basic_block_regions(program, result),
                         sequential())
    trace = machine_cycles(
        superblock_regions(program, result, 48, name + "-"),
        ideal("ideal_tr"))
    golden_speedup = GOLDEN_DCG[name][0]
    assert seq / trace == pytest.approx(golden_speedup, abs=0.10)


@pytest.mark.parametrize("name", sorted(GOLDEN_DCG))
def test_dcg_workload_instruction_mix(dcg_profiles, name):
    from repro.experiments.corpus_sweep import _instruction_mix
    program, result = dcg_profiles[name]
    mix = _instruction_mix(program, result.counts)
    assert mix["mem"] == pytest.approx(GOLDEN_DCG[name][1], abs=0.02)
    assert sum(mix.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(GOLDEN_DCG))
def test_dcg_workload_branch_prediction(dcg_profiles, name):
    """All three application workloads break the paper's section 4.4
    predictability figure (~0.15): pinned so the corpus report's
    headline finding cannot silently drift."""
    from repro.analysis.branch_stats import (
        average_p_fp, branch_records)
    program, result = dcg_profiles[name]
    records = branch_records(program, result.counts, result.taken)
    p_fp = average_p_fp(records)
    assert p_fp == pytest.approx(GOLDEN_DCG[name][2], abs=0.02)
    assert p_fp > 0.15


# -- dataflow-oracle pruning (repro analyze / config.analysis_prune) ---------

def test_pruned_schedule_golden_cycles():
    """Hook off is the default everywhere above (byte-identical goldens);
    hook on is pinned here: the oracle's gain on conc30 is exactly two
    cycles on the ideal trace machine, every claim re-proved."""
    from repro.benchmarks.suite import compile_benchmark, \
        run_program_cached
    from repro.compaction.machine_model import ideal
    from repro.evaluation.pipeline import machine_cycles, \
        superblock_regions

    program = compile_benchmark("conc30")
    result = run_program_cached(program, "conc30-")
    region_set = superblock_regions(program, result, 48, "conc30-")
    baseline = machine_cycles(region_set, ideal("ideal_tr"))
    config = ideal("ideal_tr")
    config.analysis_prune = True
    found = []
    pruned = machine_cycles(region_set, config, diagnostics=found)
    assert found == []
    assert baseline == 397
    assert pruned == 395
