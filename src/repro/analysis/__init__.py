"""Static and dynamic code analysis: CFG, liveness, dependence, Amdahl,
the static dataflow facts (dead code, memory disambiguation, the ILP
bound), and the independent lint/verify checkers."""

from repro.analysis.cfg import Cfg, BasicBlock
from repro.analysis.liveness import Liveness
from repro.analysis.dependence import build_dag, DependenceDag
from repro.analysis.dataflow import (
    RegionMemoryFacts, dataflow_limit_cycles, dead_writes,
    reachable_blocks, region_dead_writes, region_dependence_height,
    unreachable_blocks)
from repro.analysis.lint import Diagnostic, lint_program, \
    format_diagnostics
from repro.analysis.report import (
    diagnostic_to_json, diagnostics_document, target_entry,
    validate_analysis, validate_diagnostics)
from repro.analysis.verify import (
    check_schedule, check_pruned_edges, check_transform, check_regions,
    check_allocation, NameLiveness, off_live_names)

__all__ = [
    "Cfg",
    "BasicBlock",
    "Liveness",
    "build_dag",
    "DependenceDag",
    "RegionMemoryFacts",
    "dataflow_limit_cycles",
    "dead_writes",
    "reachable_blocks",
    "region_dead_writes",
    "region_dependence_height",
    "unreachable_blocks",
    "Diagnostic",
    "lint_program",
    "format_diagnostics",
    "diagnostic_to_json",
    "diagnostics_document",
    "target_entry",
    "validate_analysis",
    "validate_diagnostics",
    "check_schedule",
    "check_pruned_edges",
    "check_transform",
    "check_regions",
    "check_allocation",
    "NameLiveness",
    "off_live_names",
]
