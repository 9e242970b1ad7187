"""Experiment harness: one module per table/figure of the paper, plus
the beyond-the-paper studies (ablations, future-work projections,
register pressure)."""

import os

from repro.atomicio import atomic_write_text
from repro.experiments import (
    data, figure2, figure3, figure4, table1, table2, table3, table4,
    table5, ablations, future_work, registers, static_ilp, wam_baseline)

#: the paper's own evaluation artefacts
ALL_EXPERIMENTS = {
    "figure2": figure2,
    "figure3": figure3,
    "table1": table1,
    "table2": table2,
    "figure4": figure4,
    "table3": table3,
    "table4": table4,
    "table5": table5,
}

#: studies this reproduction adds on top
EXTRA_EXPERIMENTS = {
    "ablations": ablations,
    "future_work": future_work,
    "registers": registers,
    "static_ilp": static_ilp,
    "wam_baseline": wam_baseline,
}

#: each rendered text -> its committed file under ``results/``
RESULT_FILES = {
    "figure2": "figure2.txt",
    "figure3": "figure3.txt",
    "table1": "table1.txt",
    "table2": "table2.txt",
    "figure4": "figure4.txt",
    "table3": "table3_figure6.txt",
    "table4": "table4.txt",
    "table5": "table5.txt",
    "ablations": "ablations.txt",
    "future_work": "future_work.txt",
    "registers": "register_pressure.txt",
    "static_ilp": "table_static_ilp.txt",
    "wam_baseline": "wam_baseline.txt",
}

__all__ = (["data", "ALL_EXPERIMENTS", "EXTRA_EXPERIMENTS",
            "RESULT_FILES", "run_all", "write_results"]
           + sorted(ALL_EXPERIMENTS) + sorted(EXTRA_EXPERIMENTS))


def run_all(extras=False, jobs=None):
    """Render every experiment; returns {name: text}.

    With *jobs* the shared evaluation engine is (re)configured to fan
    the benchmark x machine-configuration cells out over that many
    worker processes; the rendering itself stays sequential, so the
    produced artefacts are byte-identical for every jobs count.
    """
    if jobs is not None:
        from repro.evaluation.parallel import configure
        configure(jobs=jobs)
    out = {name: module.render()
           for name, module in ALL_EXPERIMENTS.items()}
    if extras:
        for name, module in EXTRA_EXPERIMENTS.items():
            render = getattr(module, "render", None) \
                or getattr(module, "render_all")
            out[name] = render()
    return out


def write_results(texts, directory):
    """Write each ``{name: text}`` of :func:`run_all` to its
    :data:`RESULT_FILES` name under *directory*, as the text plus a
    newline; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, text in texts.items():
        path = os.path.join(directory, RESULT_FILES[name])
        atomic_write_text(path, text + "\n")
        paths.append(path)
    return paths
