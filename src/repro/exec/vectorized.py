"""Stacked multi-instance execution for the batch engine.

The batch engine runs no kernel of its own: a same-shape group is
carried by one call of the design's own fast lane, which takes a
leading batch axis —
:meth:`~repro.systolic.feedback_array.FeedbackSystolicArray.run_fast_batch`
(Fig. 5) and
:meth:`~repro.systolic.pipelined_array.PipelinedMatrixStringArray.run_fast_batch`
(Fig. 3).  A looped ``solve(backend="fast")`` makes the same calls with
a batch of one, so values, traced paths and closed-form counters are
bit-identical per instance by construction.

This module only stacks the operands and wraps the lane's results.
Groups travel as picklable *payloads* (plain dicts of stacked
``ndarray``s plus the semiring name), so the same code runs in-process
and inside pool workers: a group is prepared once, optionally sliced
into shards, and each shard executes independently.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.solver import SolveReport, route
from ..graphs import MultistageGraph, NodeValueProblem, add_virtual_terminals
from ..semiring import by_name
from ..systolic.feedback_array import FeedbackSystolicArray
from ..systolic.pipelined_array import PipelinedMatrixStringArray
from .grouping import Group

__all__ = [
    "prepare_payload",
    "slice_payload",
    "run_payload",
]


# ----------------------------------------------------------------------
# Payload preparation (runs in the parent process)
# ----------------------------------------------------------------------
def prepare_payload(group: Group) -> dict[str, Any]:
    """A picklable execution payload for one vectorizable group.

    ``operands`` holds the stacked arrays, each with the batch on axis
    0: the Fig. 5 layer cost matrices, or the Fig. 3 matrix string whose
    last operand is the ``(B, m, 1)`` sink column.
    """
    if group.kind == "feedback":
        problems: list[NodeValueProblem] = group.problems
        operands = [
            np.stack([p.cost_matrix(k) for p in problems])
            for k in range(problems[0].num_stages - 1)
        ]
    elif group.kind == "pipelined":
        operands = _prepare_pipelined(group)
    else:
        raise ValueError(f"group kind {group.kind!r} has no vectorized payload")
    return {
        "kind": group.kind,
        "semiring": group.problems[0].semiring.name,
        "operands": operands,
        "recommendations": list(group.recommendations),
    }


def _prepare_pipelined(group: Group) -> list[np.ndarray]:
    graphs: list[MultistageGraph] = group.problems
    _, framed = route(graphs[0], group.recommendations[0], "pipelined")
    targets = [add_virtual_terminals(g) if framed else g for g in graphs]
    return [
        np.stack([np.asarray(t.costs[k]) for t in targets])
        for k in range(targets[0].num_layers)
    ]


def slice_payload(payload: dict[str, Any], start: int, stop: int) -> dict[str, Any]:
    """The payload restricted to batch rows ``[start, stop)`` (views, no copy)."""
    out = dict(payload)
    if "operands" in out:
        out["operands"] = [a[start:stop] for a in out["operands"]]
    if "recommendations" in out:
        out["recommendations"] = out["recommendations"][start:stop]
    if "problems" in out:
        out["problems"] = out["problems"][start:stop]
    return out


# ----------------------------------------------------------------------
# Payload execution (runs in-process or inside a pool worker)
# ----------------------------------------------------------------------
def run_payload(payload: dict[str, Any]) -> list[SolveReport]:
    """Execute one payload, returning per-instance solve reports in order."""
    kind = payload["kind"]
    if kind == "scalar":
        from ..core.solver import solve

        kwargs = dict(payload.get("solve_kwargs", {}))
        return [solve(p, **kwargs) for p in payload["problems"]]
    sr = by_name(payload["semiring"])
    operands = payload["operands"]
    results: list[Any]
    if kind == "feedback":
        results = FeedbackSystolicArray(sr).run_fast_batch(operands)
        method = "fig5-feedback-array"
        answers = [(res.optimum, res.path) for res in results]
    elif kind == "pipelined":
        # The last operand is the sink column; the lane takes it as a vector.
        results = PipelinedMatrixStringArray(sr).run_fast_batch(
            operands[:-1], operands[-1][:, :, 0]
        )
        method = "fig3-pipelined-array"
        answers = [
            (float(sr.add_reduce(np.asarray(res.value), axis=None)), res.value)
            for res in results
        ]
    else:
        raise ValueError(f"unknown payload kind {kind!r}")
    return [
        SolveReport(
            dp_class=rec.dp_class,
            method=method,
            optimum=optimum,
            reference=optimum,
            validated=True,
            solution=solution,
            detail=res,
            recommendation=rec,
        )
        for rec, res, (optimum, solution) in zip(
            payload["recommendations"], results, answers
        )
    ]
