"""Process-pool sharding of batch payloads.

Shards are picklable payload dicts (:mod:`repro.exec.vectorized`):
stacked cost arrays for the stacked fast lanes, or raw picklable
problems for scalar groups.  Each worker process executes its shard with
:func:`repro.exec.vectorized.run_payload` — constructing its *own*
machines, harnesses and (under ``strict=``) its own
:class:`~repro.analysis.HazardSanitizer` per run, so no monitor state is
ever shared across workers — and returns the finished
:class:`~repro.core.solver.SolveReport` list plus its measured wall
time.  Reports, run reports and their nested fault/hazard payloads are
all plain frozen dataclasses, so the results pickle back unchanged.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any

__all__ = ["ShardResult", "execute_payloads"]


def _run_shard(payload: dict[str, Any]) -> tuple[list[Any], float]:
    """Top-level worker entry point (must be importable for pickling)."""
    from .vectorized import run_payload

    start = time.perf_counter()
    reports = run_payload(payload)
    return reports, time.perf_counter() - start


class ShardResult:
    """Reports and wall time of one executed shard."""

    __slots__ = ("reports", "wall_seconds")

    def __init__(self, reports: list[Any], wall_seconds: float) -> None:
        self.reports = reports
        self.wall_seconds = wall_seconds


def execute_payloads(
    payloads: list[dict[str, Any]], workers: int
) -> list[ShardResult]:
    """Execute payloads, in submission order, across ``workers`` processes.

    ``workers <= 1`` (or a single payload) runs everything in-process —
    the pool is pure overhead then.  Worker failures propagate: a shard
    that raises re-raises here, matching the looped ``solve()`` contract.
    """
    if workers <= 1 or len(payloads) <= 1:
        return [ShardResult(*_run_shard(p)) for p in payloads]
    results: list[ShardResult] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_shard, p) for p in payloads]
        for future in futures:
            reports, wall = future.result()
            results.append(ShardResult(reports, wall))
    return results
