"""Partition a batch of problems into same-kernel, same-shape groups.

Every problem is classified and routed by
:func:`repro.core.solver.route`, the same rule ``solve()`` dispatches
on.  Problems that go to the same fast systolic lane (Fig. 5 or Fig. 3)
with the same shape are grouped so one stacked call of that lane
(:mod:`repro.exec.vectorized`) can carry the whole group.
Everything else lands in scalar groups that loop ``solve()`` —
partitioned by whether the problems are picklable, since only picklable
scalar groups can be shipped to a worker process.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..core.classification import Recommendation, recommend
from ..core.problem import MatrixChainProblem
from ..core.solver import route
from ..graphs import MultistageGraph

__all__ = ["Group", "group_problems", "VECTORIZED_KINDS"]

#: Group kinds carried by one stacked fast-lane call.
VECTORIZED_KINDS = ("feedback", "pipelined")


@dataclasses.dataclass
class Group:
    """One executable unit of a batch: a kernel kind plus its members."""

    kind: str  # "feedback" | "pipelined" | "scalar"
    key: tuple[Any, ...]
    indices: list[int]  # positions in the original batch
    problems: list[Any]
    recommendations: list[Recommendation]
    picklable: bool  # safe to ship to a worker process

    def __len__(self) -> int:
        return len(self.indices)


def _plan(
    problem: Any, rec: Recommendation, prefer: str | None
) -> tuple[str, tuple[Any, ...], bool]:
    """(kind, group key, picklable) for one problem, routed as ``solve()`` routes it."""
    method, _ = route(problem, rec, prefer)
    if method == "fig5":
        shape = (problem.num_stages, problem.stage_sizes[0])
        return "feedback", ("feedback", *shape, problem.semiring.name), True
    if method == "pipelined":
        key = ("pipelined", problem.stage_sizes, problem.semiring.name)
        return "pipelined", key, True
    # ``edge_cost`` is frequently a closure, so node-value problems are
    # conservatively treated as unpicklable; their *vectorized* payloads
    # (materialized cost matrices) still ship fine.
    picklable = isinstance(problem, (MultistageGraph, MatrixChainProblem))
    return "scalar", ("scalar", picklable), picklable


def group_problems(
    problems: list[Any],
    indices: list[int],
    *,
    prefer: str | None,
    vectorize: bool,
) -> list[Group]:
    """Partition ``problems`` (at batch positions ``indices``) into groups.

    With ``vectorize=False`` (side-effectful or cycle-accurate batches)
    every problem joins a scalar group — the kernels below are fast-path
    only — but scalar grouping by picklability still applies, so rtl
    batches can be sharded across workers.
    """
    groups: dict[tuple[Any, ...], Group] = {}
    for pos, problem in zip(indices, problems):
        rec = recommend(problem)
        kind, key, picklable = _plan(problem, rec, prefer)
        if not vectorize and kind in VECTORIZED_KINDS:
            kind, key = "scalar", ("scalar", picklable)
        group = groups.get(key)
        if group is None:
            group = Group(
                kind=kind, key=key, indices=[], problems=[],
                recommendations=[], picklable=picklable,
            )
            groups[key] = group
        group.indices.append(pos)
        group.problems.append(problem)
        group.recommendations.append(rec)
    return list(groups.values())
