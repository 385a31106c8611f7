"""Batch execution engine: stacked fast lanes, sharding, solve cache.

The paper's Sections 4–5 treat the systolic array as a *throughput*
device fed a stream of instances; this subpackage is that reading made
operational.  :func:`solve_batch` runs each group of same-shape
instances through one call of the array design's own batch-native fast
lane, splits large groups evenly across a process pool, and serves
repeats from a digest-keyed LRU cache shared with single-problem
``solve(cache=...)`` calls.  See ``docs/scaling.md``.
"""

from .cache import CacheStats, SolveCache, default_cache
from .digest import cache_key, problem_digest
from .engine import BatchResult, BatchStats, solve_batch
from .grouping import Group, group_problems

__all__ = [
    "BatchResult",
    "BatchStats",
    "CacheStats",
    "Group",
    "SolveCache",
    "cache_key",
    "default_cache",
    "group_problems",
    "problem_digest",
    "solve_batch",
]
