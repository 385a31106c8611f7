"""The benchmark's four seeded workloads.

Every workload is a closed loop with one client: the next public-API
call is made only after the previous one has returned.  Inputs come in
*decks*.  A deck is a fixed list of problem shapes drawn from the
paper's domains; each deck gets fresh costs from the seeded generator,
so every problem is new while the shapes, and with them every
data-independent schedule counter, repeat exactly from deck to deck and
from seed to seed.  References come from the sequential ``repro.dp``
solvers and are computed when the deck is built, outside the timed call.

The single-call decks hold 25 calls whose times rise in small steps
(measured on a 2-vCPU Xeon VM), densest at the top.  The 50th and 90th
percentiles then sit in the middle of the 13th and 23rd call size, next
to sizes of similar cost, instead of on a jump between two sizes, where
host noise would flip them from one size to the other.

Why each workload exists (see README.md for the full table):

* ``stream`` -- single ``solve(fast)`` calls with a fresh cache each:
  the per-call path (recommend, oracle, fast lanes, solver glue, cache
  writes).  No pool, no rtl, almost no matmul.
* ``batch`` -- ``solve_batch`` with a warm cache: grouping, stacking,
  stacked kernels, pool IPC and cache reads.  The oracle is absent.
* ``rtl`` -- cycle-accurate ``solve(rtl)`` at paper scale, a fixed share
  repeated under the hazard sanitizer (``strict=True``).
* ``long`` -- ``solve(fast)`` on long and wide multistage graphs on both
  sides of ``recommend``'s N > 4m rule: divide-and-conquer
  ``semiring.matmul`` work on one side, the Fig. 3 fast lane on the other.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any

import numpy as np

import repro
from repro import MatrixChainProblem, SolveCache, graphs
from repro.dnc import ChainScheduleResult, rounds_only
from repro.dp import solve_forward, solve_matrix_chain, solve_node_value
from repro.exec import problem_digest
from repro.graphs import MultistageGraph, NodeValueProblem
from repro.systolic import RunReport

__all__ = ["WORKLOADS", "WORKERS", "Step", "run_report"]

#: Pool size for ``solve_batch``: the host's CPUs, capped at 2 so the
#: benchmark stays small on large hosts.
WORKERS = max(1, min(2, os.cpu_count() or 1))

_NODE_VALUE = {
    "traffic": graphs.traffic_light_problem,
    "circuit": graphs.circuit_design_problem,
    "scheduling": graphs.scheduling_problem,
}


@dataclasses.dataclass
class Step:
    """The inputs of one timed public-API call."""

    problems: list[Any]
    refs: list[float]  # sequential-oracle optimum per problem
    kwargs: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: rtl: index (within the deck) of the plain call this strict call repeats.
    twin: int | None = None


def run_report(report: Any) -> RunReport | None:
    """The array's :class:`RunReport` inside a ``SolveReport``, if any."""
    inner = getattr(report.detail, "report", None)
    return inner if isinstance(inner, RunReport) else None


def reference(problem: Any) -> float:
    """Optimum from a sequential ``repro.dp`` solver.

    Graphs use the forward sweep, so the check does not reuse the
    backward sweep ``solve()`` validates against internally.
    """
    if isinstance(problem, MultistageGraph):
        return float(solve_forward(problem).optimum)
    if isinstance(problem, NodeValueProblem):
        return float(solve_node_value(problem).optimum)
    return float(solve_matrix_chain(problem.dims).cost)


def _optimum_errors(step: Step, reports: list[Any]) -> list[str]:
    if len(reports) != len(step.problems):
        return [f"{len(reports)} reports for {len(step.problems)} problems"]
    errors = []
    for i, (rep, ref) in enumerate(zip(reports, step.refs)):
        if not rep.validated or abs(rep.optimum - ref) > 1e-9 * max(1.0, abs(ref)):
            errors.append(
                f"problem {i} ({rep.method}): optimum {rep.optimum!r} != "
                f"reference {ref!r} (validated={rep.validated})"
            )
    return errors


class Workload:
    """One workload: a seeded deck generator, the timed call, the checks."""

    name = ""
    #: Decks a traced pass runs; sized so one pass takes about a second.
    trace_decks = 1

    def __init__(self, seed: int, *, corrupt_reference: bool = False) -> None:
        self.rng = np.random.default_rng(seed)
        self.corrupt_reference = corrupt_reference
        #: ``BatchStats`` of the last call, for workloads that batch.
        self.last_stats: Any = None

    # -- inputs ------------------------------------------------------
    def shapes(self) -> list[tuple[Any, ...]]:
        raise NotImplementedError

    def make(self, shape: tuple[Any, ...]) -> Any:
        kind, *size = shape
        if kind in _NODE_VALUE:
            return _NODE_VALUE[kind](self.rng, *size)
        if kind == "graph":
            interior, width = size
            return graphs.single_source_sink(self.rng, interior, width)
        if kind == "chain":
            (n,) = size
            return MatrixChainProblem(tuple(int(d) for d in self.rng.integers(2, 40, n + 1)))
        raise ValueError(f"unknown shape {shape!r}")

    def step(self, problems: list[Any], **kwargs: Any) -> Step:
        return Step(problems, [reference(p) for p in problems], kwargs)

    def deck(self) -> list[Step]:
        steps = self.build_deck()
        if self.corrupt_reference:
            # Self-test hook: a wrong reference must count as a failure.
            steps[0].refs = [r + 1.0 for r in steps[0].refs]
        return steps

    def build_deck(self) -> list[Step]:
        return [self.step([self.make(s)]) for s in self.shapes()]

    # -- execution ---------------------------------------------------
    def setup(self) -> None:
        """Warm-up before the first timed call (part of ``setup_s``)."""
        for step in self.build_deck():
            self.call(step)

    def reset(self) -> None:
        """Restore the state a pass starts from (traced runs only)."""

    def seen_at_setup(self) -> set[str | None]:
        """Digests of the inputs set-up already solved."""
        return set()

    def evictions(self) -> int:
        """Solve-cache evictions since the last :meth:`reset`."""
        return 0

    def call(self, step: Step) -> list[Any]:
        raise NotImplementedError

    def check(self, step: Step, reports: list[Any]) -> list[str]:
        return _optimum_errors(step, reports)


class Stream(Workload):
    name = "stream"
    trace_decks = 20

    def shapes(self) -> list[tuple[Any, ...]]:
        return [
            ("traffic", 6, 5), ("traffic", 8, 6), ("traffic", 10, 6), ("traffic", 12, 8),
            ("circuit", 6, 4), ("circuit", 9, 6), ("circuit", 12, 8), ("circuit", 16, 6),
            ("circuit", 18, 8),
            ("scheduling", 5, 5), ("scheduling", 8, 8), ("scheduling", 14, 6),
            ("graph", 4, 4), ("graph", 6, 5), ("graph", 8, 6), ("graph", 10, 8),
            ("graph", 12, 10), ("graph", 16, 12), ("graph", 20, 12), ("graph", 24, 16),
            ("chain", 5), ("chain", 6), ("chain", 7), ("chain", 8), ("chain", 9),
        ]

    def call(self, step: Step) -> list[Any]:
        return [repro.solve(step.problems[0], backend="fast", cache=SolveCache())]


class Batch(Workload):
    name = "batch"
    trace_decks = 8
    FRESH = 64  # per shape group: at least solve_batch's min_shard_items
    HOT = 32  # hot-set size per shape
    REPEATS = 16  # hot repeats per shape per batch
    CHAINS = 4
    CAPACITY = 1024

    def __init__(self, seed: int, **kwargs: Any) -> None:
        super().__init__(seed, **kwargs)
        self.hot = [self.make(("traffic", 8, 6)) for _ in range(self.HOT)]
        self.hot += [self.make(("graph", 6, 5)) for _ in range(self.HOT)]
        self.hot_refs = [reference(p) for p in self.hot]
        self.cache = SolveCache(self.CAPACITY)

    def build_deck(self) -> list[Step]:
        fresh = [self.make(("traffic", 8, 6)) for _ in range(self.FRESH)]
        fresh += [self.make(("graph", 6, 5)) for _ in range(self.FRESH)]
        fresh += [self.make(("chain", 6)) for _ in range(self.CHAINS)]
        picks = [
            int(i)
            for half in (0, self.HOT)
            for i in half + self.rng.choice(self.HOT, self.REPEATS, replace=False)
        ]
        problems = fresh + [self.hot[i] for i in picks]
        refs = [reference(p) for p in fresh] + [self.hot_refs[i] for i in picks]
        return [Step(problems, refs)]

    def setup(self) -> None:
        self.reset()
        self.call(self.build_deck()[0])

    def reset(self) -> None:
        self.cache = SolveCache(self.CAPACITY)
        repro.solve_batch(self.hot, cache=self.cache)

    def seen_at_setup(self) -> set[str | None]:
        return {problem_digest(p) for p in self.hot}

    def evictions(self) -> int:
        return self.cache.stats.evictions

    def call(self, step: Step) -> list[Any]:
        result = repro.solve_batch(step.problems, workers=WORKERS, cache=self.cache)
        self.last_stats = result.stats
        return list(result.reports)


class Rtl(Workload):
    name = "rtl"
    trace_decks = 6

    def shapes(self) -> list[tuple[Any, ...]]:
        return [
            ("graph", 4, 4), ("graph", 5, 4), ("graph", 6, 5), ("graph", 7, 5),
            ("graph", 8, 6), ("graph", 9, 6),
            ("traffic", 5, 4), ("traffic", 6, 5), ("traffic", 7, 5), ("traffic", 8, 6),
            ("circuit", 6, 4), ("scheduling", 5, 5), ("scheduling", 6, 6),
            ("chain", 8), ("chain", 10), ("chain", 11), ("chain", 12), ("chain", 13),
        ]

    #: Plain calls repeated with ``strict=True``: one per design.
    STRICT = (4, 9, 16)
    #: Graph shapes also run on the Fig. 4 broadcast array.
    BROADCAST = (0, 2, 3, 4)

    def build_deck(self) -> list[Step]:
        problems = [self.make(s) for s in self.shapes()]
        steps = [self.step([p]) for p in problems]
        steps += [self.step([problems[i]], prefer="broadcast") for i in self.BROADCAST]
        for i in self.STRICT:
            twin = dataclasses.replace(steps[i], kwargs={"strict": True}, twin=i)
            steps.append(twin)
        return steps

    def call(self, step: Step) -> list[Any]:
        return [repro.solve(step.problems[0], backend="rtl", **step.kwargs)]

    def check(self, step: Step, reports: list[Any]) -> list[str]:
        errors = _optimum_errors(step, reports)
        if errors:
            return errors
        rtl = run_report(reports[0])
        prefer = step.kwargs.get("prefer")
        fast = run_report(repro.solve(step.problems[0], backend="fast", prefer=prefer))
        if rtl is None or fast is None or rtl.backend != "rtl":
            return [f"{reports[0].method}: missing rtl or fast RunReport"]
        for field in ("iterations", "wall_ticks", "serial_ops"):
            if getattr(rtl, field) != getattr(fast, field):
                errors.append(
                    f"{rtl.design}: rtl {field}={getattr(rtl, field)} != "
                    f"fast closed form {getattr(fast, field)}"
                )
        return errors


class Long(Workload):
    name = "long"
    trace_decks = 1

    def shapes(self) -> list[tuple[Any, ...]]:
        # (interior stages, width).  N = interior + 2 stages; N > 4m goes
        # to divide-and-conquer, the rest to the Fig. 3 fast lane.
        dnc = [(70, 16), (126, 16), (254, 16), (98, 20), (158, 20), (118, 24),
               (198, 24), (138, 28), (134, 32), (178, 32), (150, 36), (170, 36),
               (160, 40), (166, 40), (176, 40), (198, 48)]
        wide = [(46, 48), (62, 48), (62, 64), (94, 64), (78, 80), (46, 96), (62, 96),
                (94, 96), (126, 96)]
        return [("graph", n, m) for n, m in dnc + wide]

    def setup(self) -> None:
        for shape in (("graph", 70, 16), ("graph", 46, 48)):
            self.call(self.step([self.make(shape)]))

    def call(self, step: Step) -> list[Any]:
        return [repro.solve(step.problems[0], backend="fast")]

    def check(self, step: Step, reports: list[Any]) -> list[str]:
        errors = _optimum_errors(step, reports)
        sched = reports[0].detail if reports else None
        if isinstance(sched, ChainScheduleResult):
            n, k = sched.num_matrices, sched.num_processors
            if sched.rounds != rounds_only(n, k):
                errors.append(f"dnc rounds {sched.rounds} != rounds_only {rounds_only(n, k)}")
            if sched.total_multiplications != n - 1:
                errors.append(f"dnc multiplications {sched.total_multiplications} != {n - 1}")
        return errors


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Stream, Batch, Rtl, Long)
}
