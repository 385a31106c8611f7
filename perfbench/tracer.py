"""Outside-in layer tracer for the benchmark's traced runs.

The benchmark does not edit the library to measure it.  Instead, for the
length of a traced pass, it replaces the module attributes through which
each layer of ``solve()`` / ``solve_batch()`` calls the next one with
timing wrappers, and it installs a :mod:`repro.telemetry.timing`
collector so the backend spans the library already emits
(``<design>.backend.fast|rtl``) join the same record.  Every wrapper
appends ``(start_ns, end_ns, name)``; after the pass the spans are nested
by their intervals (the process is single-threaded, so spans never
overlap partially) and each layer's *self time* is its duration minus
the part covered by its direct children.

Only the patched call sites are seen.  Work that runs in pool worker
processes is invisible here; the engine's own ``per_shard_seconds``
stands in for it.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Any, Callable, Iterator

__all__ = ["Tracer", "self_times"]

_now = time.perf_counter_ns


class Tracer:
    """Records named spans and per-layer counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str]] = []
        self.counts: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        on_call: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``.

        ``on_call(tracer, args, result)`` counts after the span has ended,
        so counting costs no layer time.
        """
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            start = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                spans.append((start, _now(), name))
                if on_call is not None:
                    on_call(self, args, result)

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every traced call site for the dynamic extent."""
        from repro.telemetry import timing

        spans = self.spans

        class BackendSpans(timing.TimingCollector):
            """Library backend spans, renamed ``systolic.<lane>.<design>``.

            ``repro.telemetry.timing`` reports a span only when it ends,
            with its duration, so the start is ``end - elapsed``.
            """

            def record(self, name: str, elapsed_ns: int) -> None:
                end = _now()
                design, _, lane = name.rpartition(".backend.")
                label = f"systolic.{lane}.{design}" if design else name
                spans.append((end - int(elapsed_ns), end, label))

        patches = _call_sites(self)
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            with timing.collect_timings(BackendSpans()):
                yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def _count_cache_get(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("exec.cache.gets")
    tracer.count("exec.cache.hits", result is not None)


def _count_oracle(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("dp.oracle.calls")


def _count_matmul(tracer: Tracer, args: tuple, result: Any) -> None:
    a, b = args[1], args[2]
    rows, inner = a.shape
    cols = b.shape[1]
    ops = rows * inner * cols
    tracer.count("semiring.matmul.calls")
    tracer.count("semiring.matmul.ops", ops)
    # Size of the (rows, inner, cols) broadcast temporary the kernel builds.
    tracer.count("semiring.matmul.bytes", ops * max(a.itemsize, b.itemsize))


def _call_sites(tracer: Tracer) -> list[tuple[Any, str, Callable[..., Any]]]:
    """(owner, attribute, wrapper) for every traced layer boundary."""
    import repro
    from repro.core import solver
    from repro.dnc import schedule
    from repro.exec import cache, digest, engine, grouping
    from repro.semiring import matrix
    from repro.systolic import mesh_array

    sites: list[tuple[Any, str, str, Any]] = [
        (repro, "solve", "core.solve", None),
        # Scalar batch groups import solve() from the solver module at
        # call time; the sinks/fault loop uses the engine's own binding.
        (solver, "solve", "core.solve", None),
        (engine, "solve", "core.solve", None),
        (solver, "recommend", "core.recommend", None),
        (grouping, "recommend", "core.recommend", None),
        (solver, "solve_backward", "dp.oracle", _count_oracle),
        (solver, "solve_node_value", "dp.oracle", _count_oracle),
        (solver, "solve_matrix_chain", "dp.oracle", _count_oracle),
        (solver, "eliminate", "dp.oracle", _count_oracle),
        (solver, "simulate_chain_product", "dnc.chain_product", None),
        (schedule, "matmul", "semiring.matmul", _count_matmul),
        (matrix, "matmul", "semiring.matmul", _count_matmul),
        (mesh_array, "matmul", "semiring.matmul", _count_matmul),
        (digest, "cache_key", "exec.digest", None),
        (engine, "cache_key", "exec.digest", None),
        (cache.SolveCache, "get", "exec.cache.get", _count_cache_get),
        (cache.SolveCache, "put", "exec.cache.put", None),
        (engine, "group_problems", "exec.grouping", None),
        (engine, "prepare_payload", "exec.stack", None),
        (engine, "slice_payload", "exec.stack", None),
        (engine, "run_payload", "exec.kernel", None),
        (engine, "execute_payloads", "exec.pool", None),
    ]
    out = []
    for owner, attr, name, on_call in sites:
        out.append((owner, attr, tracer.wrap(getattr(owner, attr), name, on_call)))
    return out


def self_times(spans: list[tuple[int, int, str]]) -> dict[str, int]:
    """Self time in ns per span name: duration minus direct children."""
    order = sorted(range(len(spans)), key=lambda i: (spans[i][0], -spans[i][1]))
    child_ns = [0] * len(spans)
    stack: list[int] = []
    for i in order:
        start, end, _ = spans[i]
        while stack and spans[stack[-1]][1] <= start:
            stack.pop()
        if stack:
            child_ns[stack[-1]] += end - start
        stack.append(i)
    out: dict[str, int] = {}
    for i, (start, end, name) in enumerate(spans):
        out[name] = out.get(name, 0) + (end - start) - child_ns[i]
    return out
