"""Golden output of the Fig. 3 / Fig. 5 fast lanes.

Seeded Fig. 5 node-value inputs and Fig. 3 edge-cost inputs (single
source/sink graphs, and uniform graphs that need virtual-terminal
framing) run through ``solve(backend="fast")`` and through
``solve_batch``.  Every optimum, solution/path, final-stage vector and
every ``RunReport`` field is folded into one SHA-256, pinned below.  A
change to either lane that is meant to be a pure refactor must leave the
digest unchanged; a change that is meant to alter the output must say so
and re-pin it with :func:`golden_digest`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any

import numpy as np

from repro import solve, solve_batch
from repro.graphs import single_source_sink, traffic_light_problem, uniform_multistage

GOLDEN_SHA256 = "64020b5f12abb94f5368ca0ae37f06da568497b0a4186212b46f9cfe2ab515c7"


def _problems() -> list[object]:
    rng = np.random.default_rng(0x5EED)
    problems: list[object] = []
    for n, m in ((5, 4), (5, 4), (5, 4), (7, 6), (3, 2)):
        problems.append(traffic_light_problem(rng, n, m))
    for n, m in ((4, 3), (4, 3), (4, 3), (6, 5), (2, 7)):
        problems.append(single_source_sink(rng, n, m))
    for n, m in ((4, 3), (4, 3), (5, 6)):
        problems.append(uniform_multistage(rng, n, m))
    return problems


def _feed_array(h: "hashlib._Hash", value: object) -> None:
    arr = np.asarray(value, dtype=np.float64)
    h.update(repr(arr.shape).encode())
    h.update(arr.tobytes())


def _feed_report(h: "hashlib._Hash", report: Any) -> None:
    h.update(report.method.encode())
    _feed_array(h, report.optimum)
    solution = report.solution
    if hasattr(solution, "nodes"):
        h.update(repr(tuple(solution.nodes)).encode())
        _feed_array(h, solution.cost)
    else:
        _feed_array(h, solution)
    detail = report.detail
    if hasattr(detail, "final_stage_values"):
        _feed_array(h, detail.final_stage_values)
    run = detail.report
    for field in dataclasses.fields(run):
        h.update(f"{field.name}={getattr(run, field.name)!r};".encode())


def golden_digest() -> str:
    """SHA-256 over the looped and the batched fast-lane outputs."""
    problems = _problems()
    h = hashlib.sha256()
    for problem in problems:
        _feed_report(h, solve(problem, backend="fast"))
    for report in solve_batch(problems):
        _feed_report(h, report)
    return h.hexdigest()


def test_golden_digest_is_pinned():
    assert golden_digest() == GOLDEN_SHA256


def test_looped_and_batched_lanes_agree():
    problems = _problems()
    batch = solve_batch(problems)
    assert batch.stats.fill_factor == 1.0
    for problem, report in zip(problems, batch):
        looped = hashlib.sha256()
        batched = hashlib.sha256()
        _feed_report(looped, solve(problem, backend="fast"))
        _feed_report(batched, report)
        assert looped.hexdigest() == batched.hexdigest()
