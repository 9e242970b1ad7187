"""VLIW evaluation: timing replay, pipeline, prototype model."""

from repro.evaluation.simulator import (
    replay_region, replay_program, dynamic_region_stats)
from repro.evaluation.pipeline import (
    RegionSet, basic_block_regions, superblock_regions, machine_cycles,
    evaluate_benchmark, BenchmarkEvaluation)
from repro.evaluation.cache import CacheStore
from repro.evaluation.parallel import (
    EvaluationEngine, EvaluationError, shared_engine, configure)
from repro.evaluation.supervisor import (
    EvaluationReport, Supervisor, SupervisorPolicy)

__all__ = [
    "replay_region",
    "replay_program",
    "dynamic_region_stats",
    "RegionSet",
    "basic_block_regions",
    "superblock_regions",
    "machine_cycles",
    "evaluate_benchmark",
    "BenchmarkEvaluation",
    "EvaluationEngine",
    "EvaluationError",
    "EvaluationReport",
    "CacheStore",
    "Supervisor",
    "SupervisorPolicy",
    "shared_engine",
    "configure",
]
