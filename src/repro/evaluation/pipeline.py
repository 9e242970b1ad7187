"""Evaluation pipeline: benchmark name + machine configs -> cycle counts.

This is the whole of Figure 1 wired together: compile to ICI, emulate for
the profile, form superblocks (or keep basic blocks), re-emulate the
transformed program for exact region counts (and as a semantic self-check),
schedule every executed region, replay the profile through the schedules.

Results are memoised on disk — scheduling thousands of regions for many
machine configurations is the expensive part of the evaluation.  The
memoisation (and the parallel fan-out across benchmarks and machine
configurations) lives in :mod:`repro.evaluation.parallel`, whose
engine calls the stages below.

:func:`verify_evaluation` is the one way an evaluation is checked: it
runs the same stages under the independent checker
(:mod:`repro.analysis.verify`) and returns every finding as a
:class:`~repro.analysis.lint.Diagnostic`.  ``repro verify``, the
service's ``verify`` op and the corpus sweep all call it.
"""

from repro.analysis.cfg import Cfg
from repro.analysis.liveness import Liveness
from repro.analysis.lint import Diagnostic, lint_program
from repro.analysis.verify import (
    NameLiveness, check_schedule, check_pruned_edges,
    check_transform, check_regions, check_allocation, off_live_names)
from repro.compaction.transform import form_superblocks, Region
from repro.compaction.scheduler import schedule_region
from repro.compaction.regalloc import region_pressure
from repro.evaluation.simulator import replay_program, dynamic_region_stats
from repro.benchmarks.suite import run_program_cached
from repro.observability import tracing as observe
from repro.testing import faults

#: the SYMBOL prototype's register bank (section 5.2), used when the
#: checked pipeline validates register bindings
VERIFY_BANK_SIZE = 16


class RegionSet:
    """A program cut into scheduling regions, with its dynamic profile."""

    def __init__(self, program, regions, counts, taken, liveness=None,
                 transform=None, source_program=None):
        self.program = program
        self.regions = regions
        self.counts = counts
        self.taken = taken
        self.liveness = liveness
        #: the TransformResult that produced this layout (trace regions)
        self.transform = transform
        #: the pre-transform program (for transform verification)
        self.source_program = source_program
        self._name_liveness = None

    def executed_regions(self):
        return [r for r in self.regions if self.counts[r.start] > 0]

    def stats(self):
        return dynamic_region_stats(self.program, self.regions, self.counts)

    def name_liveness(self):
        """The independent checker's own liveness, built lazily."""
        if self._name_liveness is None:
            self._name_liveness = NameLiveness(self.program)
        return self._name_liveness


def basic_block_regions(program, result):
    """Regions = the original basic blocks (local compaction only)."""
    with observe.span("pipeline.regions", regioning="bb") as sp:
        cfg = Cfg(program)
        regions = [Region(block.start, block.end)
                   for block in cfg.blocks]
        sp.set(regions=len(regions))
        return RegionSet(program, regions, result.counts, result.taken)


def superblock_regions(program, result, tail_dup_budget=48,
                       cache_hint=""):
    """Regions = profile-driven superblocks (global compaction).

    The transformed program is re-emulated (cached) both for exact region
    counts and as a semantic equivalence check against the original run.
    It does the same work as the original, so the original's step count
    tells the emulator how long the re-emulation will run.
    """
    with observe.span("pipeline.superblock",
                      budget=tail_dup_budget) as sp:
        faults.fire("pipeline.superblock")
        transform = form_superblocks(program, result.counts,
                                     result.taken, tail_dup_budget)
        new_result = run_program_cached(
            transform.program, cache_hint + "sb%d-" % tail_dup_budget,
            expected_steps=result.steps)
        if (new_result.status, new_result.output) != (result.status,
                                                      result.output):
            raise AssertionError(
                "superblock transformation changed program behaviour")
        liveness = Liveness(Cfg(transform.program))
        sp.set(regions=len(transform.regions))
        return RegionSet(transform.program, transform.regions,
                         new_result.counts, new_result.taken, liveness,
                         transform=transform, source_program=program)


def _off_live_map(region_set, region):
    """Off-trace live-register masks for a region's branches."""
    if region_set.liveness is None:
        return None, None
    program = region_set.program
    liveness = region_set.liveness
    masks = {}
    for position in range(region.size):
        instruction = program.instructions[region.start + position]
        if instruction.is_branch:
            target = program.labels[instruction.label]
            masks[position] = liveness.live_in_mask(target)
    reg_mask = lambda name: 1 << liveness.reg_id(name)
    return masks, reg_mask


def machine_cycles(region_set, config, diagnostics=None):
    """Total cycles of the program on *config* (schedule + replay).

    When *diagnostics* is a list, every schedule is validated by the
    independent checker (:mod:`repro.analysis.verify`) as it is
    produced, its findings are appended there, and the replay
    continues.
    """
    program = region_set.program
    schedules = []
    regions = []
    verify = diagnostics is not None
    checker_liveness = region_set.name_liveness() if verify else None
    prune = config.analysis_prune
    pruned_total = 0
    with observe.span("pipeline.schedule", config=config.name,
                      verify=verify) as sp:
        faults.fire("pipeline.cycles")
        for region in region_set.regions:
            if region_set.counts[region.start] == 0:
                continue
            instructions = program.instructions[region.start:region.end]
            if config.speculation and region_set.liveness is not None:
                off_live, reg_mask = _off_live_map(region_set, region)
                live_out = region_set.liveness.live_in_mask(region.end) \
                    if prune else None
            else:
                off_live, reg_mask, live_out = None, None, None
            pruned = [] if prune else None
            schedule = schedule_region(instructions, config,
                                       off_live, reg_mask,
                                       live_out=live_out, pruned=pruned)
            if pruned:
                pruned_total += len(pruned)
            if verify:
                checker_off_live = off_live_names(
                    program, region.start, region.end, checker_liveness)
                checker_live_out = \
                    checker_liveness.live_in_at(region.end) \
                    if live_out is not None else None
                diagnostics.extend(check_schedule(
                    instructions, schedule, config, checker_off_live,
                    region=(region.start, region.end),
                    live_out=checker_live_out))
                if pruned:
                    # Every edge the analysis removed must be re-proven
                    # by the checker's own facts (the analyzer is never
                    # trusted).
                    diagnostics.extend(check_pruned_edges(
                        instructions, pruned, checker_off_live,
                        checker_live_out,
                        region=(region.start, region.end)))
            schedules.append(schedule)
            regions.append(region)
        sp.set(regions=len(regions))
        if prune:
            sp.set(pruned_edges=pruned_total)
            observe.add("pipeline.pruned_edges", pruned_total)
    with observe.span("pipeline.simulate", config=config.name) as sp:
        cycles = replay_program(program, regions, schedules,
                                region_set.counts, region_set.taken)
        sp.set(cycles=cycles)
        return cycles


def region_set_diagnostics(region_set):
    """Static checks that depend only on the layout, not the machine:
    ICI lint of the (transformed) program, transform bisimulation
    against the pre-transform program, and region-table sanity."""
    diags = lint_program(region_set.program, stage="lint")
    if region_set.transform is not None:
        diags.extend(check_transform(region_set.source_program,
                                     region_set.program))
        diags.extend(check_regions(region_set.program,
                                   region_set.regions))
    return diags


def allocation_diagnostics(region_set, config, bank_size=VERIFY_BANK_SIZE):
    """Bind every executed region onto the prototype's register bank and
    check the binding for interference (independent intervals)."""
    diags = []
    program = region_set.program
    for region in region_set.regions:
        if region_set.counts[region.start] == 0:
            continue
        instructions = program.instructions[region.start:region.end]
        if config.speculation and region_set.liveness is not None:
            off_live, reg_mask = _off_live_map(region_set, region)
        else:
            off_live, reg_mask = None, None
        schedule = schedule_region(instructions, config,
                                   off_live, reg_mask)
        allocation = region_pressure(instructions, schedule) \
            .allocate(bank_size)
        diags.extend(check_allocation(
            instructions, schedule, allocation,
            region=(region.start, region.end)))
    return diags


def verify_evaluation(program, result, configs, tail_dup_budget=48,
                      cache_hint="", bank_size=VERIFY_BANK_SIZE):
    """Run the full checker stack over one compiled+profiled program.

    ``configs`` maps result keys to ``(MachineConfig, regioning)`` pairs
    exactly like :meth:`~repro.evaluation.parallel.EvaluationEngine
    .evaluate`.  The stages are ICI lint, transform bisimulation and
    region sanity (trace regionings), schedule legality and pruned
    edges (every config) and register allocation (once per regioning).
    Returns the list of all diagnostics (empty when every stage
    verifies clean); never raises.
    """
    diags = lint_program(program, stage="lint")
    region_sets = {}

    def get_region_set(regioning):
        if regioning not in region_sets:
            if regioning == "bb":
                region_sets[regioning] = basic_block_regions(program,
                                                             result)
            else:
                region_sets[regioning] = superblock_regions(
                    program, result, tail_dup_budget, cache_hint)
                diags.extend(
                    region_set_diagnostics(region_sets[regioning]))
        return region_sets[regioning]

    seen_alloc = set()
    for key in sorted(configs):
        config, regioning = configs[key]
        try:
            region_set = get_region_set(regioning)
        except AssertionError as error:
            # The transform's own dynamic self-check tripped; report it
            # through the same channel as the static findings.
            diags.append(Diagnostic(
                "transform", "behaviour-changed", str(error)))
            continue
        machine_cycles(region_set, config, diagnostics=diags)
        if regioning not in seen_alloc:
            seen_alloc.add(regioning)
            diags.extend(allocation_diagnostics(region_set, config,
                                                bank_size))
    return diags


class BenchmarkEvaluation:
    """All the numbers one benchmark contributes to the tables."""

    def __init__(self, name, data):
        self.name = name
        self.data = data

    def cycles(self, key):
        return self.data["cycles"][key]

    def speedup(self, key, base="seq"):
        return self.data["cycles"][base] / self.data["cycles"][key]

    @property
    def region_stats(self):
        return self.data["region_stats"]

