"""The batch execution engine: ``solve_batch()``.

Throughput comes from two stacked levels, in the spirit of the paper's
Section 4 (an array fed a *stream* of instances, not a one-shot
device):

1. **Stacked fast lanes** — same-shape instances that ``solve()``
   would route to the same array (:mod:`repro.exec.grouping`) are
   carried by one call of that design's own batch-native fast lane
   (:mod:`repro.exec.vectorized`), so each report is bit-identical to a
   looped :func:`repro.core.solver.solve`.
2. **A digest-keyed result cache** — canonical problem digest →
   ``SolveReport`` (:mod:`repro.exec.cache`), shared with single-problem
   ``solve(cache=...)`` calls.

Every group runs in-process, one payload after another
(:func:`execute_payloads`).  Side-effectful runs bypass both the cache
and the stacked lanes: ``sinks`` and ``fault_plan`` force a sequential
loop of ``solve()`` (their observers must see every event of every
run), while ``backend="rtl"`` and ``strict`` runs stay cycle-accurate
per instance, each building its own machines and hazard sanitizers.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from typing import Any, Callable, Iterable

from ..core.solver import SolveReport, check_prefer, solve
from ..systolic import normalize_backend
from .cache import SolveCache, default_cache
from .digest import cache_key
from .grouping import VECTORIZED_KINDS, Group, group_problems
# slice_payload is unused here; perfbench/tracer.py patches it on this module.
from .vectorized import prepare_payload, run_payload, slice_payload  # noqa: F401

__all__ = ["BatchResult", "BatchStats", "execute_payloads", "solve_batch"]

_SHARD_WALL_BUCKETS = (0.001, 0.004, 0.016, 0.064, 0.25, 1.0, 4.0)


@dataclasses.dataclass(frozen=True)
class BatchStats:
    """Throughput accounting of one ``solve_batch`` call."""

    total: int  # problems in the batch
    cache_hits: int
    executed: int  # total - cache_hits
    groups: int
    vectorized_groups: int
    vectorized_problems: int
    #: Share of executed problems that rode a stacked fast-lane call
    #: (1.0 = every executed instance was carried by a batched pass).
    fill_factor: float
    #: Always 0 / ``()``: every group runs in-process.  Kept only
    #: because the repository benchmark (``perfbench/``) reads them.
    shards: int
    shard_sizes: tuple[int, ...]
    #: Wall time of each executed payload (one per group).
    per_shard_seconds: tuple[float, ...]
    backend: str
    wall_seconds: float

    @property
    def problems_per_second(self) -> float:
        return self.total / self.wall_seconds if self.wall_seconds > 0 else 0.0


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Per-problem reports (batch order) plus throughput stats."""

    reports: tuple[SolveReport, ...]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)


def _publish_metrics(registry: Any, stats: BatchStats) -> None:
    registry.counter(
        "repro_batch_problems_total",
        "Problems submitted to solve_batch",
        ("backend",),
    ).labels(backend=stats.backend).inc(stats.total)
    registry.counter(
        "repro_batch_cache_hits_total", "Batch problems served from the solve cache"
    ).labels().inc(stats.cache_hits)
    registry.counter(
        "repro_batch_cache_misses_total", "Batch problems actually executed"
    ).labels().inc(stats.executed)
    registry.gauge(
        "repro_batch_problems_per_second",
        "Throughput of the most recent solve_batch call",
        ("backend",),
    ).labels(backend=stats.backend).set(stats.problems_per_second)
    registry.gauge(
        "repro_batch_group_fill_factor",
        "Share of executed problems carried by vectorized kernels",
    ).labels().set(stats.fill_factor)
    hist = registry.histogram(
        "repro_batch_shard_wall_seconds",
        "Wall time of each executed group payload",
        (),
        buckets=_SHARD_WALL_BUCKETS,
    ).labels()
    for wall in stats.per_shard_seconds:
        hist.observe(wall)


def solve_batch(
    problems: Iterable[object],
    *,
    prefer: str | None = None,
    backend: str = "fast",
    workers: int = 1,
    cache: SolveCache | bool | None = None,
    strict: bool = False,
    sinks: Iterable[Callable[..., None]] = (),
    fault_plan: Any = None,
    recovery: str = "retry",
    registry: Any = None,
) -> BatchResult:
    """Solve a batch of problems, returning reports in batch order.

    Results are identical — bit-for-bit, including counters and traced
    paths — to calling :func:`repro.core.solver.solve` on each problem
    with the same ``prefer``/``backend``; only the execution strategy
    differs.  ``backend`` defaults to ``"fast"`` (unlike ``solve()``):
    a batch engine exists for throughput.  An unknown ``prefer`` raises
    the same ``ValueError`` as ``solve()``, even for an empty batch.

    ``cache`` is a :class:`~repro.exec.cache.SolveCache`, or ``True``
    for the process-wide default cache.  Runs with ``sinks``,
    ``fault_plan``, ``backend="rtl"`` or ``strict`` bypass it entirely
    (every instance re-executes).  ``registry`` (a
    :class:`~repro.telemetry.MetricsRegistry`) receives the throughput
    counters described in ``docs/scaling.md``.

    ``workers`` has no effect: every group runs in-process.  Any value
    other than 1 emits a ``DeprecationWarning``.  The keyword is kept
    only until the repository benchmark (``perfbench/``) stops passing
    it.
    """
    check_prefer(prefer)
    if workers != 1:
        warnings.warn(
            "solve_batch(workers=) has no effect: every group runs in-process",
            DeprecationWarning,
            stacklevel=2,
        )
    problem_list = list(problems)
    total = len(problem_list)
    backend = normalize_backend(backend)
    sinks = tuple(sinks)
    start = time.perf_counter()

    cache_obj: SolveCache | None
    if cache is True:
        cache_obj = default_cache()
    elif cache is False:
        cache_obj = None
    else:
        cache_obj = cache
    side_effectful = bool(sinks) or fault_plan is not None or backend == "rtl" or strict
    cache_active = cache_obj is not None and not side_effectful

    reports: list[SolveReport | None] = [None] * total
    keys: list[tuple | None] = [None] * total
    cache_hits = 0
    if cache_active:
        assert cache_obj is not None
        for i, problem in enumerate(problem_list):
            keys[i] = cache_key(problem, backend=backend, prefer=prefer)
            if keys[i] is None:
                continue
            hit = cache_obj.get(keys[i])
            if hit is not None:
                reports[i] = hit
                cache_hits += 1

    pending = [i for i in range(total) if reports[i] is None]
    groups: list[Group] = []
    per_payload_seconds: list[float] = []

    if pending and (sinks or fault_plan is not None):
        # Observers and injectors must see every run: sequential loop.
        for i in pending:
            reports[i] = solve(
                problem_list[i],
                prefer=prefer,
                backend=backend,
                sinks=sinks,
                fault_plan=fault_plan,
                recovery=recovery,
                strict=strict,
            )
    elif pending:
        vectorize = backend != "rtl" and not strict
        groups = group_problems(
            [problem_list[i] for i in pending],
            pending,
            prefer=prefer,
            vectorize=vectorize,
        )
        payloads: list[dict[str, Any]] = []
        for group in groups:
            if group.kind in VECTORIZED_KINDS:
                payloads.append(prepare_payload(group))
            else:
                payloads.append({
                    "kind": "scalar",
                    "problems": list(group.problems),
                    "solve_kwargs": {
                        "prefer": prefer,
                        "backend": backend,
                        "strict": strict,
                        "recovery": recovery,
                    },
                })
        for group, (out, wall) in zip(groups, execute_payloads(payloads)):
            if len(out) != len(group):  # pragma: no cover - internal invariant
                raise RuntimeError(
                    f"payload returned {len(out)} reports for {len(group)} problems"
                )
            for i, report in zip(group.indices, out):
                reports[i] = report
            per_payload_seconds.append(wall)

    if cache_active:
        assert cache_obj is not None
        for i in pending:
            if keys[i] is not None and reports[i] is not None:
                cache_obj.put(keys[i], reports[i])

    final = tuple(r for r in reports if r is not None)
    if len(final) != total:  # pragma: no cover - internal invariant
        raise RuntimeError("batch execution dropped a problem")

    vectorized_groups = [g for g in groups if g.kind in VECTORIZED_KINDS]
    stats = BatchStats(
        total=total,
        cache_hits=cache_hits,
        executed=len(pending),
        groups=len(groups),
        vectorized_groups=len(vectorized_groups),
        vectorized_problems=sum(len(g) for g in vectorized_groups),
        fill_factor=(
            sum(len(g) for g in vectorized_groups) / len(pending) if pending else 0.0
        ),
        shards=0,
        shard_sizes=(),
        per_shard_seconds=tuple(per_payload_seconds),
        backend=backend,
        wall_seconds=time.perf_counter() - start,
    )
    if registry is not None:
        _publish_metrics(registry, stats)
    return BatchResult(reports=final, stats=stats)


def execute_payloads(
    payloads: list[dict[str, Any]],
) -> list[tuple[list[SolveReport], float]]:
    """Run each payload in order; its reports and wall seconds.

    Calls the module-level :func:`~repro.exec.vectorized.run_payload`
    on every payload.  A payload that raises re-raises here, matching
    the looped ``solve()`` contract.
    """
    out: list[tuple[list[SolveReport], float]] = []
    for payload in payloads:
        t0 = time.perf_counter()
        reports = run_payload(payload)
        out.append((reports, time.perf_counter() - t0))
    return out
