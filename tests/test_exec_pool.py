"""Even sharding, process-pool execution, and report pickling.

A shardable group splits evenly into ``min(workers, len(group))``
contiguous shards.  The pool tests pin the engine contract — sharded
execution is bit-identical to in-process execution — and the pickle
round-trips are what make the pool possible at all: every report
(including nested fault and hazard payloads) must survive a worker
boundary unchanged.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import MatrixChainProblem, solve, solve_batch
from repro.exec.engine import _even_shards
from repro.faults import FaultPlan, FaultSpec
from repro.graphs import random_multistage, traffic_light_problem, uniform_multistage

from .test_exec_batch import assert_same_report


def _sizes(offsets):
    return [hi - lo for lo, hi in offsets]


class TestPlanShards:
    @pytest.mark.parametrize("n,workers", [(1, 1), (7, 2), (64, 2), (257, 4), (1000, 8)])
    def test_sizes_partition_the_items(self, n, workers):
        offsets = _even_shards(n, workers)
        assert len(offsets) == min(n, workers)
        assert sum(_sizes(offsets)) == n
        assert all(s > 0 for s in _sizes(offsets))
        assert offsets[0][0] == 0 and offsets[-1][1] == n
        for (_, hi), (lo, _) in zip(offsets, offsets[1:]):
            assert hi == lo

    def test_even_strategy_splits_equally(self):
        assert _sizes(_even_shards(100, 4)) == [25, 25, 25, 25]
        # One payload per worker: two shards of 32, not (31, 31, 1, 1).
        assert _sizes(_even_shards(64, 2)) == [32, 32]
        sizes = _sizes(_even_shards(10, 3))
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_zero_items_empty_plan(self):
        assert _even_shards(0, 4) == []


class TestShardedExecution:
    def test_vectorized_group_sharded_across_two_workers(self, rng):
        probs = [traffic_light_problem(rng, 5, 4) for _ in range(24)]
        result = solve_batch(probs, workers=2, min_shard_items=8)
        assert result.stats.shards >= 2
        assert sum(result.stats.shard_sizes) == 24
        assert len(result.stats.per_shard_seconds) == result.stats.shards
        for rep, problem in zip(result, probs):
            assert_same_report(rep, solve(problem, backend="fast"))

    def test_scalar_picklable_group_sharded(self, rng):
        probs = [
            MatrixChainProblem(tuple(int(d) for d in rng.integers(2, 30, size=5)))
            for _ in range(12)
        ]
        result = solve_batch(probs, workers=2, min_shard_items=4)
        assert result.stats.shards >= 2
        for rep, problem in zip(result, probs):
            assert_same_report(rep, solve(problem, backend="fast"))

    def test_small_groups_stay_in_process(self, rng):
        probs = [traffic_light_problem(rng, 5, 4) for _ in range(4)]
        result = solve_batch(probs, workers=2, min_shard_items=64)
        assert result.stats.shards == 0

    def test_even_strategy_end_to_end(self, rng):
        probs = [traffic_light_problem(rng, 5, 4) for _ in range(17)]
        result = solve_batch(probs, workers=2, min_shard_items=8)
        # min(workers, len(group)) shards, sizes differing by at most one.
        assert result.stats.shard_sizes == (9, 8)
        for rep, problem in zip(result, probs):
            assert_same_report(rep, solve(problem, backend="fast"))


class TestReportPickleRoundTrip:
    def _roundtrip(self, report):
        clone = pickle.loads(pickle.dumps(report))
        # Field-wise: dataclass == would hit ndarray truth-value ambiguity.
        assert_same_report(clone, report)
        assert clone.faults == report.faults
        return clone

    def test_fast_graph_report(self, rng):
        self._roundtrip(solve(uniform_multistage(rng, 4, 3), backend="fast"))

    def test_rtl_feedback_report(self, rng):
        report = solve(traffic_light_problem(rng, 5, 4), backend="rtl")
        clone = self._roundtrip(report)
        assert clone.detail.report == report.detail.report

    def test_chain_report(self, rng):
        dims = tuple(int(d) for d in rng.integers(2, 30, size=5))
        self._roundtrip(solve(MatrixChainProblem(dims), backend="fast"))

    def test_report_with_fault_payload(self):
        graph = random_multistage(np.random.default_rng(1), [1, 3, 3, 1])
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    mode="transient_flip", pe=0, reg="ACC", tick=1, delta=-1000.0
                ),
            )
        )
        report = solve(graph, fault_plan=plan, recovery="retry")
        assert report.faults is not None and report.faults.injections
        clone = self._roundtrip(report)
        assert clone.faults == report.faults

    def test_strict_rtl_report_with_hazard_counters(self, rng):
        report = solve(uniform_multistage(rng, 4, 3), backend="rtl", strict=True)
        clone = self._roundtrip(report)
        assert clone.detail.report.hazards == 0
