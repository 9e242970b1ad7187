"""Figure 2 — dynamic instruction frequency by operation class.

Paper: "memory operations take about 32% of the whole execution time
... computed as an average of the values obtained via sequential
simulation of the benchmarks and with the hypothesis that all operations
have the same duration", and branches are "more than 15%".
"""

from repro.intcode.ici import OP_CLASSES, instruction_mix
from repro.experiments.data import get_profile, get_profiles, \
    all_benchmarks
from repro.experiments.render import render_table, fmt


def benchmark_mix(name):
    """Dynamic operation-class fractions of one benchmark."""
    program, result = get_profile(name)
    return (instruction_mix(program, result.counts),
            sum(result.counts))


def compute(benchmarks=None):
    benchmarks = benchmarks or all_benchmarks()
    get_profiles(benchmarks)  # emulate cold profiles in parallel
    rows = {}
    weight_sum = {cls: 0.0 for cls in OP_CLASSES}
    for name in benchmarks:
        mix, steps = benchmark_mix(name)
        rows[name] = {"mix": mix, "steps": steps}
        for cls in OP_CLASSES:
            weight_sum[cls] += mix[cls]
    average = {cls: weight_sum[cls] / len(benchmarks) for cls in OP_CLASSES}
    return {"benchmarks": rows, "average": average}


def render(data=None):
    data = data or compute()
    rows = []
    for name in sorted(data["benchmarks"]):
        entry = data["benchmarks"][name]
        mix = entry["mix"]
        rows.append([name] + [fmt(100 * mix[c], 1) for c in OP_CLASSES]
                    + [entry["steps"]])
    average = data["average"]
    rows.append(["AVERAGE"] + [fmt(100 * average[c], 1) for c in OP_CLASSES]
                + [""])
    return render_table(
        "Figure 2 -- dynamic instruction mix (%)",
        ["benchmark", "memory", "alu", "move", "control", "ops"],
        rows,
        note="Paper: memory ~32%, control >15% (unit durations).")


if __name__ == "__main__":
    print(render())
