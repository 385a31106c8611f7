"""Partition a batch of problems into same-kernel, same-shape groups.

Every problem is classified and routed by
:func:`repro.core.solver.route`, the same rule ``solve()`` dispatches
on.  Problems that go to the same fast systolic lane (Fig. 5 or Fig. 3)
with the same shape are grouped so one stacked call of that lane
(:mod:`repro.exec.vectorized`) can carry the whole group.
Everything else lands in one scalar group that loops ``solve()``.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..core.classification import Recommendation, recommend
from ..core.solver import route

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

    def __len__(self) -> int:
        return len(self.indices)


_SCALAR = ("scalar",)


def _plan(
    problem: Any, rec: Recommendation, prefer: str | None
) -> tuple[str, tuple[Any, ...]]:
    """(kind, group key) for one problem, routed as ``solve()`` routes it."""
    method, _ = route(problem, rec, prefer)
    if method == "fig5":
        shape = (problem.num_stages, problem.stage_sizes[0])
        return "feedback", ("feedback", *shape, problem.semiring.name)
    if method == "pipelined":
        return "pipelined", ("pipelined", problem.stage_sizes, problem.semiring.name)
    return "scalar", _SCALAR


def group_problems(
    problems: list[Any],
    indices: list[int],
    *,
    prefer: str | None,
    vectorize: bool,
) -> list[Group]:
    """Partition ``problems`` (at batch positions ``indices``) into groups.

    With ``vectorize=False`` (cycle-accurate or strict batches) every
    problem joins the scalar group: the stacked lanes are fast-path only.
    """
    groups: dict[tuple[Any, ...], Group] = {}
    for pos, problem in zip(indices, problems):
        rec = recommend(problem)
        kind, key = _plan(problem, rec, prefer)
        if not vectorize and kind in VECTORIZED_KINDS:
            kind, key = "scalar", _SCALAR
        group = groups.get(key)
        if group is None:
            group = Group(kind=kind, key=key, indices=[], problems=[], recommendations=[])
            groups[key] = group
        group.indices.append(pos)
        group.problems.append(problem)
        group.recommendations.append(rec)
    return list(groups.values())
