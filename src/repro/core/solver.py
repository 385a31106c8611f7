"""Table-1 dispatch: classify a DP problem and solve it on the
architecture the paper recommends, validating against the sequential
oracle.

``solve()`` is the library's one-call entry point:

* **monadic-serial, node-value form** → Fig. 5 feedback array.
* **monadic-serial, edge-cost form** → Fig. 3 pipelined array (Fig. 4
  broadcast array on request), falling back to the sequential sweep for
  shapes the linear arrays do not support (non-uniform interior stages).
* **polyadic-serial** (many stages) → divide-and-conquer on
  ``K = ⌈N/log₂N⌉`` arrays, the Theorem-1 optimal granularity.
* **monadic-nonserial** → variable elimination; for banded objectives
  also the Section-6.1 grouping transform onto a serial graph.
* **polyadic-nonserial** (matrix-chain) → the serialized systolic
  parenthesization array (broadcast mapping on request).

Every path cross-checks the optimum against the corresponding sequential
solver and reports both values.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Iterable

import numpy as np

from ..dnc import simulate_chain_product
from ..dp import (
    eliminate,
    solve_backward,
    solve_matrix_chain,
    solve_node_value,
)
from ..dp.nonserial import NonserialObjective
from ..graphs import MultistageGraph, NodeValueProblem, add_virtual_terminals
from ..systolic import (
    BroadcastMatrixStringArray,
    BroadcastParenthesizer,
    normalize_backend,
    FeedbackSystolicArray,
    PipelinedMatrixStringArray,
    SystolicParenthesizer,
)
from .classification import DPClass, Recommendation, recommend
from .problem import MatrixChainProblem

__all__ = ["PREFER_CHOICES", "SolveReport", "check_prefer", "route", "solve"]

#: Architecture overrides accepted by ``solve(prefer=...)`` and
#: ``solve_batch(prefer=...)``.
PREFER_CHOICES = ("pipelined", "broadcast", "sequential", "dnc", "systolic")


@dataclasses.dataclass(frozen=True)
class SolveReport:
    """Unified result of the dispatch solver.

    ``optimum`` is the parallel architecture's answer; ``reference`` the
    sequential oracle's; ``validated`` asserts they agree.  ``solution``
    is method-specific (a :class:`~repro.graphs.StagePath`, a
    :class:`~repro.dp.matrix_chain.ChainOrder`, an assignment dict, …)
    and ``detail`` carries the raw architecture result object.
    """

    dp_class: DPClass
    method: str
    optimum: float
    reference: float
    validated: bool
    solution: Any
    detail: Any
    recommendation: Recommendation
    #: :class:`~repro.faults.FaultRunReport` when the run executed under
    #: a fault plan; ``None`` on ordinary (healthy) dispatches.
    faults: Any = None

    def __post_init__(self) -> None:
        if not self.validated and not self._degraded_and_warned():
            raise AssertionError(
                f"architecture result {self.optimum} disagrees with the "
                f"sequential reference {self.reference}"
            )

    def _degraded_and_warned(self) -> bool:
        """Degrade-and-warn runs may return a flagged, unvalidated result."""
        return self.faults is not None and self.faults.outcome == "detected"


def _validated(a: float, b: float) -> bool:
    return bool(np.isclose(a, b, rtol=1e-9, atol=1e-9))


def solve(
    problem: object,
    *,
    prefer: str | None = None,
    backend: str = "rtl",
    sinks: Iterable[Callable[..., None]] = (),
    fault_plan: Any = None,
    recovery: str = "retry",
    cache: Any = None,
    strict: bool = False,
) -> SolveReport:
    """Classify ``problem`` per Table 1, solve it, and validate.

    ``prefer`` overrides the architecture within a class:
    ``"pipelined"``/``"broadcast"``/``"sequential"`` for edge-cost serial
    problems, ``"broadcast"``/``"systolic"`` for matrix-chain ordering,
    ``"dnc"`` to force the polyadic-serial path on a multistage graph.
    Any other value raises ``ValueError`` (see :func:`route`).

    ``backend`` selects the array execution engine for every systolic
    path: ``"rtl"`` (cycle-accurate machine), ``"fast"`` (vectorized
    whole-array reductions with closed-form counters), or ``"auto"``
    (fast, cross-validated against RTL on small instances).  Paths that
    do not run a systolic array (sequential sweeps, variable
    elimination, divide-and-conquer) ignore it.

    ``sinks`` are telemetry callables (``TraceEvent -> None``, e.g.
    :class:`~repro.telemetry.MetricsSink` or
    :class:`~repro.telemetry.TimelineSink`) subscribed to the array's
    event bus when the dispatch lands on a systolic path; subscribing
    forces the cycle-accurate rtl backend.  Non-array paths ignore them.

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) executes the run
    under fault injection with the ``recovery`` policy (``"fail_fast"``,
    ``"warn"``, ``"retry"`` or ``"spare"``; see
    :func:`repro.faults.run_with_recovery`).  The returned report then
    carries a :class:`~repro.faults.FaultRunReport` in ``.faults``;
    ``fail_fast`` raises :class:`~repro.faults.FaultDetected` on the
    first detection, ``warn`` may return a flagged unvalidated result,
    and a plan that cannot be recovered from raises
    :class:`~repro.faults.FaultDetected`.  Fault injection is a
    cycle-level feature: only the systolic-array dispatch paths
    support it.

    ``strict`` runs every systolic path under the hazard sanitizer
    (:mod:`repro.analysis.hazards`), which forces the rtl backend.

    ``cache`` is a :class:`~repro.exec.cache.SolveCache` (or ``True``
    for the process-wide default): identical problems are served from
    the cache as equal-but-independent reports.  Side-effectful runs —
    ``sinks``, ``fault_plan``, ``backend="rtl"`` or ``strict`` — bypass
    it and always execute.
    """
    backend = normalize_backend(backend)
    sinks = tuple(sinks)

    key = None
    cache_obj: Any = None
    if cache is not None and cache is not False:
        cacheable = (
            not sinks and fault_plan is None and backend != "rtl" and not strict
        )
        if cacheable:
            from ..exec.cache import default_cache
            from ..exec.digest import cache_key

            cache_obj = default_cache() if cache is True else cache
            key = cache_key(problem, backend=backend, prefer=prefer)
            if key is not None:
                hit = cache_obj.get(key)
                if hit is not None:
                    return hit

    report = _solve_dispatch(
        problem, prefer, backend, sinks, fault_plan, recovery, strict
    )
    if key is not None and cache_obj is not None:
        cache_obj.put(key, report)
    return report


def _solve_dispatch(
    problem: object,
    prefer: str | None,
    backend: str,
    sinks: tuple,
    fault_plan: Any,
    recovery: str,
    strict: bool,
) -> SolveReport:
    rec = recommend(problem)
    method, framed = route(problem, rec, prefer)
    if fault_plan is not None:
        return _solve_faulty(problem, rec, prefer, sinks, fault_plan, recovery)

    if isinstance(problem, NodeValueProblem):
        return _solve_node_value(problem, rec, method, backend, sinks, strict)
    if isinstance(problem, MultistageGraph):
        return _solve_graph(problem, rec, method, framed, backend, sinks, strict)
    if isinstance(problem, MatrixChainProblem):
        return _solve_chain(problem, rec, method, backend, sinks, strict)
    if isinstance(problem, NonserialObjective):
        return _solve_nonserial(problem, rec)
    raise TypeError(f"cannot solve object of type {type(problem).__name__}")


def _solve_faulty(
    problem: object,
    rec: Recommendation,
    prefer: str | None,
    sinks: tuple,
    fault_plan: Any,
    recovery: str,
) -> SolveReport:
    """Dispatch ``problem`` onto its array harness under fault injection."""
    import warnings

    from .. import faults as flt

    if isinstance(problem, NodeValueProblem) and problem.is_uniform:
        harness: Any = flt.FeedbackHarness(problem)
        ref = solve_node_value(problem).optimum
        extract = lambda res: (res.optimum, res.path)  # noqa: E731
        method = "fig5-feedback-array"
    elif isinstance(problem, MultistageGraph):
        array_method = "broadcast" if prefer == "broadcast" else "pipelined"
        routed, framed = route(problem, rec, array_method)
        if routed != array_method:
            raise TypeError(
                "fault injection on graphs needs a linear-array-shaped "
                f"instance; got stage sizes {problem.stage_sizes}"
            )
        target = add_virtual_terminals(problem) if framed else problem
        cls = (
            flt.BroadcastHarness if prefer == "broadcast" else flt.PipelinedHarness
        )
        harness = cls(target.as_matrices(), target.semiring)
        ref = solve_backward(problem).optimum
        sr = target.semiring
        extract = lambda res: (  # noqa: E731
            float(sr.add_reduce(np.asarray(res.value), axis=None)),
            res.value,
        )
        method = (
            "fig4-broadcast-array" if prefer == "broadcast" else "fig3-pipelined-array"
        )
    elif isinstance(problem, MatrixChainProblem):
        harness = flt.ParenHarness(problem.dims)
        ref = float(solve_matrix_chain(problem.dims).cost)
        extract = lambda res: (float(res.order.cost), res.order)  # noqa: E731
        method = harness.array.design_name
    else:
        raise TypeError(
            "fault injection is only supported on the systolic-array dispatch "
            f"paths, not for {type(problem).__name__}"
        )

    result, fault_report = flt.run_with_recovery(
        harness, fault_plan, policy=recovery, sinks=sinks
    )
    if result is None:
        raise flt.FaultDetected(fault_report.detections)
    optimum, solution = extract(result)
    validated = _validated(optimum, ref)
    if not validated and fault_report.outcome == "detected":
        warnings.warn(
            f"degrade-and-warn: returning a fault-flagged result for {method} "
            f"({len(fault_report.detections)} detections)",
            RuntimeWarning,
            stacklevel=3,
        )
    return SolveReport(
        dp_class=rec.dp_class,
        method=f"{method}+faults",
        optimum=optimum,
        reference=ref,
        validated=validated,
        solution=solution,
        detail=result,
        recommendation=rec,
        faults=fault_report,
    )


def _solve_node_value(
    problem: NodeValueProblem,
    rec: Recommendation,
    method: str,
    backend: str = "rtl",
    sinks: tuple = (),
    strict: bool = False,
) -> SolveReport:
    ref = solve_node_value(problem)
    if method == "fig5":
        res = FeedbackSystolicArray(problem.semiring).run(
            problem, backend=backend, sinks=sinks, strict=strict
        )
        return SolveReport(
            dp_class=rec.dp_class,
            method="fig5-feedback-array",
            optimum=res.optimum,
            reference=ref.optimum,
            validated=_validated(res.optimum, ref.optimum),
            solution=res.path,
            detail=res,
            recommendation=rec,
        )
    if method == "dnc":
        graph = problem.to_graph()
        return _solve_graph(graph, rec, "dnc", False, backend, sinks, strict)
    return SolveReport(
        dp_class=rec.dp_class,
        method="sequential-sweep",
        optimum=ref.optimum,
        reference=ref.optimum,
        validated=True,
        solution=ref.path,
        detail=ref,
        recommendation=rec,
    )


def _graph_fits_linear_array(graph: MultistageGraph) -> bool:
    """The Fig. 3/4 arrays need a single sink and uniform interior width."""
    sizes = graph.stage_sizes
    if sizes[-1] != 1 or len(sizes) < 3:
        return False
    interior = sizes[1:-1] if sizes[0] == 1 else sizes[:-1]
    return len(set(interior)) == 1


def check_prefer(prefer: str | None) -> None:
    """Raise ``ValueError`` unless ``prefer`` is ``None`` or in :data:`PREFER_CHOICES`."""
    if prefer is not None and prefer not in PREFER_CHOICES:
        raise ValueError(
            f"unknown prefer={prefer!r}; expected one of {', '.join(PREFER_CHOICES)}"
        )


def route(
    problem: object, rec: Recommendation, prefer: str | None
) -> tuple[str, bool]:
    """The Table-1 routing rule: ``(method, framed)`` for one problem.

    ``method`` is ``"fig5"``, ``"pipelined"``, ``"broadcast"``,
    ``"dnc"`` or ``"sequential"`` for multistage problems, ``"systolic"``
    or ``"broadcast"`` for matrix chains, and ``"elimination"`` for
    everything else.  ``framed`` says a uniform multi-source/sink graph
    needs zero-cost virtual terminals (the paper's degenerate
    row/column-vector boundary) before it fits the Fig. 3/4 linear
    arrays.  ``solve()`` and the batch engine both route through here,
    so they cannot disagree on where a problem goes.

    Raises ``ValueError`` for an unknown ``prefer`` (:func:`check_prefer`)
    and for multistage problems whose semiring cannot extract decisions
    (the sequential oracle needs an arg-reduction).
    """
    check_prefer(prefer)
    if isinstance(problem, MatrixChainProblem):
        return ("broadcast" if prefer == "broadcast" else "systolic"), False
    if not isinstance(problem, (NodeValueProblem, MultistageGraph)):
        return "elimination", False
    sr = problem.semiring
    if sr.add_argreduce is None:
        raise ValueError(f"semiring {sr.name!r} does not support decision extraction")
    if isinstance(problem, NodeValueProblem):
        if problem.is_uniform and rec.dp_class is DPClass.MONADIC_SERIAL:
            return "fig5", False
        if rec.dp_class is DPClass.POLYADIC_SERIAL:
            return "dnc", False
        return "sequential", False
    fits = _graph_fits_linear_array(problem)
    linear = fits or len(set(problem.stage_sizes)) == 1
    method = prefer
    if method is None:
        if rec.dp_class is DPClass.POLYADIC_SERIAL:
            method = "dnc"
        else:
            method = "pipelined" if linear else "sequential"
    if method in ("pipelined", "broadcast") and linear:
        return method, not fits
    return ("dnc" if method == "dnc" else "sequential"), False


def _solve_graph(
    graph: MultistageGraph,
    rec: Recommendation,
    method: str,
    framed: bool,
    backend: str = "rtl",
    sinks: tuple = (),
    strict: bool = False,
) -> SolveReport:
    ref = solve_backward(graph)
    if method == "dnc":
        mats = graph.as_matrices()
        n = len(mats)
        k = max(1, math.ceil(n / max(math.log2(n), 1.0)))
        # The scheduler needs composable segments; pad shape handling by
        # multiplying the raw string (shapes compose pairwise regardless).
        sched = simulate_chain_product(
            n, k, matrices=mats, semiring=graph.semiring
        )
        assert sched.product is not None
        optimum = float(graph.semiring.add_reduce(sched.product, axis=None))
        return SolveReport(
            dp_class=DPClass.POLYADIC_SERIAL,
            method=f"divide-and-conquer (K={k})",
            optimum=optimum,
            reference=ref.optimum,
            validated=_validated(optimum, ref.optimum),
            solution=sched.product,
            detail=sched,
            recommendation=rec,
        )
    if method in ("pipelined", "broadcast"):
        array: Any = (
            PipelinedMatrixStringArray(graph.semiring)
            if method == "pipelined"
            else BroadcastMatrixStringArray(graph.semiring)
        )
        target = add_virtual_terminals(graph) if framed else graph
        if method == "broadcast" and target.is_single_source_sink:
            # The Fig. 4 ARG path registers let the dispatcher hand back
            # a traced optimal path instead of only the cost.
            path, res = array.run_graph_with_path(
                target, backend=backend, sinks=sinks, strict=strict
            )
            return SolveReport(
                dp_class=rec.dp_class,
                method="fig4-broadcast-array",
                optimum=path.cost,
                reference=ref.optimum,
                validated=_validated(path.cost, ref.optimum),
                solution=path,
                detail=res,
                recommendation=rec,
            )
        res = array.run_graph(target, backend=backend, sinks=sinks, strict=strict)
        value = np.asarray(res.value)
        optimum = float(graph.semiring.add_reduce(value, axis=None))
        return SolveReport(
            dp_class=rec.dp_class,
            method=f"fig{'3-pipelined' if method == 'pipelined' else '4-broadcast'}-array",
            optimum=optimum,
            reference=ref.optimum,
            validated=_validated(optimum, ref.optimum),
            solution=res.value,
            detail=res,
            recommendation=rec,
        )
    return SolveReport(
        dp_class=rec.dp_class,
        method="sequential-sweep",
        optimum=ref.optimum,
        reference=ref.optimum,
        validated=True,
        solution=ref.path,
        detail=ref,
        recommendation=rec,
    )


def _solve_chain(
    problem: MatrixChainProblem,
    rec: Recommendation,
    method: str,
    backend: str = "rtl",
    sinks: tuple = (),
    strict: bool = False,
) -> SolveReport:
    ref = solve_matrix_chain(problem.dims)
    engine: Any = (
        BroadcastParenthesizer() if method == "broadcast" else SystolicParenthesizer()
    )
    run = engine.run(problem.dims, backend=backend, sinks=sinks, strict=strict)
    return SolveReport(
        dp_class=rec.dp_class,
        method=engine.design_name,
        optimum=float(run.order.cost),
        reference=float(ref.cost),
        validated=run.order.cost == ref.cost,
        solution=run.order,
        detail=run,
        recommendation=rec,
    )


def _solve_nonserial(problem: NonserialObjective, rec: Recommendation) -> SolveReport:
    res = eliminate(problem)
    # The elimination engine *is* the reference; validate against the
    # grouping transform (the Section-6.1 serialization) when the
    # objective has the banded shape it applies to.
    reference = res.optimum
    method = "variable-elimination"
    detail: Any = res
    try:
        from ..dp.nonserial import group_variables_to_serial

        serial_graph, _states = group_variables_to_serial(problem)
        seq = solve_backward(serial_graph)
        reference = seq.optimum
        method = "grouping-transform+serial-sweep"
        detail = (res, seq)
    except ValueError:
        pass  # not banded: elimination result stands alone
    return SolveReport(
        dp_class=rec.dp_class,
        method=method,
        optimum=res.optimum,
        reference=reference,
        validated=_validated(res.optimum, reference),
        solution=res.assignment,
        detail=detail,
        recommendation=rec,
    )
