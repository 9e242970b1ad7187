"""Beyond-the-paper studies: ablations, future work, registers, the
Warren baseline.  These reuse the on-disk evaluation cache, so they are
cheap after the first full run on a machine."""

import pytest

from repro.experiments import ablations, future_work, registers, \
    static_ilp, wam_baseline, EXTRA_EXPERIMENTS

SMALL = ["nreverse", "qsort"]


def test_ablation_memory_ports_monotone():
    data = ablations.memory_ports(SMALL, ports=(1, 2))
    assert data["speedup"][1] >= data["speedup"][0] - 1e-9


def test_ablation_speculation_helps():
    data = ablations.speculation(SMALL)
    assert data["spec_on"] >= data["spec_off"]


def test_ablation_inter_unit_penalty_never_helps():
    data = ablations.inter_unit_moves(SMALL)
    assert data["free"] >= data["penalty"] - 1e-9


def test_ablation_tail_dup_budget_lengthens_regions():
    rows = ablations.tail_dup_budget(SMALL, budgets=(0, 48))
    assert rows[1]["length"] >= rows[0]["length"]


def test_future_work_dynamic_bounds_static():
    data = future_work.dynamic_vs_static(SMALL)
    for entry in data["benchmarks"].values():
        assert entry["dynamic"] >= entry["static"] * 0.95
    assert 0 < data["average"]["captured"] <= 1.05


def test_future_work_multibank_ordering():
    banks = future_work.multibank(SMALL)
    assert banks["banked"] >= banks["shared"] - 1e-9
    assert banks["banked4"] >= banks["banked"] - 1e-9


def test_register_pressure_shapes():
    data = registers.benchmark_pressure("nreverse")
    assert data["mean_maxlive"] > 1
    fractions = data["spill_fraction"]
    assert fractions[8] >= fractions[16] >= fractions[32]
    assert 0.0 <= fractions[32] <= 1.0


def test_wam_baseline_ratio_above_one():
    bam_cycles, wam_cycles = wam_baseline.benchmark_ratio("nreverse")
    assert wam_cycles > bam_cycles


def test_extras_registry_renders():
    for name, module in EXTRA_EXPERIMENTS.items():
        render = getattr(module, "render", None) \
            or getattr(module, "render_all")
        assert callable(render), name


# -- each study's default benchmark set: the data results/ renders -----------

def test_committed_memory_ports_lift_the_ceiling():
    speedups = ablations.memory_ports()["speedup"]
    # More ports never hurt, and visibly help somewhere.
    assert all(a <= b + 1e-9 for a, b in zip(speedups, speedups[1:]))
    assert speedups[-1] > speedups[0] + 0.05


def test_committed_speculation_and_moves():
    spec = ablations.speculation()
    assert spec["spec_on"] > spec["spec_off"]
    moves = ablations.inter_unit_moves()
    assert moves["free"] >= moves["penalty"] - 1e-9


def test_committed_tail_dup_budget():
    rows = ablations.tail_dup_budget()
    # Bigger budgets give longer regions...
    assert rows[0]["length"] <= rows[-1]["length"]
    # ...and at least as much speedup as join-limited traces.
    assert rows[-1]["speedup"] >= rows[0]["speedup"] - 0.05


@pytest.mark.parametrize("benchmarks", [SMALL, None],
                         ids=["small", "committed"])
def test_optimizer_keeps_output_and_never_slows(benchmarks):
    rows = ablations.optimizer(benchmarks)
    assert all(row["same_output"] for row in rows.values())
    ratios = [row["ratio"] for row in rows.values()]
    assert all(ratio >= 0.97 for ratio in ratios)
    assert sum(ratios) / len(ratios) > 1.0


def test_committed_future_work():
    average = future_work.dynamic_vs_static()["average"]
    # The idealised dynamic machine is an upper bound on static...
    assert average["dynamic"] >= average["static"]
    # ...but static compaction captures a substantial fraction of it.
    assert average["captured"] > 0.5
    banks = future_work.multibank()
    assert banks["banked4"] >= banks["banked"] >= banks["shared"] - 1e-9


def test_committed_register_pressure():
    fractions = registers.compute()["average"]["spill_fraction"]
    # The prototype's 16 registers hold the vast majority of dynamic
    # region executions; 8 registers clearly would not.
    assert fractions[16] < 0.15
    assert fractions[8] > fractions[16] >= fractions[32]


def test_committed_wam_baseline():
    data = wam_baseline.compute()
    # Indexing + determinism + LCO approach the paper's "roughly a
    # factor of three" on the deterministic structure-matching programs.
    assert data["average_ratio"] > 1.4
    assert max(entry["ratio"]
               for entry in data["benchmarks"].values()) > 2.3


def test_committed_static_ilp_bound():
    data = static_ilp.compute()
    for entry in data["benchmarks"].values():
        # the bound can never be beaten by a real schedule
        assert entry["limit_cycles"] <= entry["achieved_cycles"]
        assert entry["gap"] >= 1.0
    average = data["average"]
    assert average["limit_speedup"] >= average["achieved_speedup"]
