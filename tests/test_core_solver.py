"""Unit tests for the Table-1 dispatch solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DPClass, MatrixChainProblem, solve
from repro.dp import banded_objective, eliminate, solve_backward, solve_matrix_chain
from repro.graphs import (
    StagePath,
    fig1a_graph,
    fig1b_problem,
    random_multistage,
    traffic_light_problem,
    uniform_multistage,
)


class TestNodeValueDispatch:
    def test_uniform_problem_goes_to_feedback_array(self, rng):
        rep = solve(traffic_light_problem(rng, 6, 4))
        assert rep.method == "fig5-feedback-array"
        assert rep.validated
        assert isinstance(rep.solution, StagePath)

    def test_optimum_matches_oracle(self, rng):
        p = traffic_light_problem(rng, 5, 3)
        rep = solve(p)
        from repro.dp import solve_node_value

        assert np.isclose(rep.optimum, solve_node_value(p).optimum)

    def test_long_node_value_problem_goes_to_dnc(self, rng):
        p = traffic_light_problem(rng, 30, 3)
        rep = solve(p)
        assert rep.dp_class is DPClass.POLYADIC_SERIAL
        assert rep.method.startswith("divide-and-conquer")
        assert rep.validated


class TestGraphDispatch:
    def test_fig1a_goes_to_pipelined(self):
        rep = solve(fig1a_graph())
        assert rep.method == "fig3-pipelined-array"
        assert rep.optimum == 6.0

    def test_prefer_broadcast(self):
        rep = solve(fig1a_graph(), prefer="broadcast")
        assert rep.method == "fig4-broadcast-array"
        assert rep.optimum == 6.0

    def test_prefer_sequential(self):
        rep = solve(fig1a_graph(), prefer="sequential")
        assert rep.method == "sequential-sweep"
        assert rep.optimum == 6.0

    def test_long_graph_goes_to_dnc(self, rng):
        g = uniform_multistage(rng, 40, 3)
        rep = solve(g)
        assert rep.method.startswith("divide-and-conquer")
        assert np.isclose(rep.optimum, solve_backward(g).optimum)

    def test_prefer_dnc_on_short_graph(self, rng):
        g = uniform_multistage(rng, 6, 3)
        rep = solve(g, prefer="dnc")
        assert rep.method.startswith("divide-and-conquer")
        assert np.isclose(rep.optimum, solve_backward(g).optimum)

    def test_awkward_shape_falls_back_to_sequential(self, rng):
        g = random_multistage(rng, [2, 4, 3, 5])  # non-uniform, multi-sink
        rep = solve(g)
        assert rep.method == "sequential-sweep"
        assert rep.validated


class TestChainDispatch:
    def test_default_systolic_mapping(self):
        rep = solve(MatrixChainProblem((10, 20, 50, 1, 100)))
        assert rep.method == "parenthesizer-systolic"
        assert rep.optimum == 2200.0
        assert rep.validated

    def test_broadcast_mapping(self):
        rep = solve(MatrixChainProblem((10, 20, 50, 1, 100)), prefer="broadcast")
        assert rep.method == "parenthesizer-broadcast"
        assert rep.optimum == 2200.0

    def test_solution_is_executable_order(self, rng):
        dims = tuple(int(x) for x in rng.integers(1, 30, size=7))
        rep = solve(MatrixChainProblem(dims))
        assert rep.solution.cost == solve_matrix_chain(dims).cost


class TestNonserialDispatch:
    def test_banded_uses_grouping_transform(self, rng):
        obj = banded_objective(rng, [3, 2, 3, 2])
        rep = solve(obj)
        assert rep.method == "grouping-transform+serial-sweep"
        assert np.isclose(rep.optimum, eliminate(obj).optimum)
        assert rep.validated

    def test_non_banded_uses_elimination_alone(self, rng):
        from repro.dp import NonserialObjective

        domains = {v: np.arange(2.0) for v in ("a", "b", "c", "d")}
        t = rng.uniform(0, 9, (2, 2, 2))
        obj = NonserialObjective(
            domains=domains,
            terms=(
                (("a", "b"), lambda x, y: x + y),
                (("b", "c", "d"), lambda x, y, z: t[x.astype(int), y.astype(int), z.astype(int)]),
                (("a", "d"), lambda x, y: x * y),
            ),
        )
        rep = solve(obj)
        assert rep.method == "variable-elimination"
        assert rep.validated

    def test_assignment_achieves_optimum(self, rng):
        obj = banded_objective(rng, [2, 3, 2, 3])
        rep = solve(obj)
        assert np.isclose(obj.evaluate(rep.solution), rep.optimum)


class TestReport:
    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            solve([1, 2, 3])

    def test_report_carries_recommendation(self):
        rep = solve(fig1a_graph())
        assert rep.recommendation.dp_class is rep.dp_class

    def test_validation_failure_raises(self):
        from repro.core.solver import SolveReport
        from repro.core.classification import recommend

        rec = recommend(fig1a_graph())
        with pytest.raises(AssertionError, match="disagrees"):
            SolveReport(
                dp_class=DPClass.MONADIC_SERIAL,
                method="bogus",
                optimum=1.0,
                reference=2.0,
                validated=False,
                solution=None,
                detail=None,
                recommendation=rec,
            )


class TestBroadcastPathDispatch:
    def test_broadcast_route_returns_traced_path(self):
        from repro.graphs import StagePath

        rep = solve(fig1a_graph(), prefer="broadcast")
        assert isinstance(rep.solution, StagePath)
        assert rep.solution.cost == 6.0
        assert np.isclose(
            fig1a_graph().path_cost(rep.solution.nodes), rep.optimum
        )

    def test_broadcast_route_on_framed_uniform_graph(self, rng):
        from repro.graphs import StagePath, add_virtual_terminals

        g = uniform_multistage(rng, 5, 4)
        rep = solve(g, prefer="broadcast")
        assert isinstance(rep.solution, StagePath)
        framed = add_virtual_terminals(g)
        assert np.isclose(framed.path_cost(rep.solution.nodes), rep.optimum)
        assert np.isclose(rep.optimum, solve_backward(g).optimum)


class TestBackendThreading:
    def test_fast_backend_matches_rtl_everywhere(self, rng):
        problems = [
            traffic_light_problem(rng, 5, 4),
            fig1a_graph(),
            MatrixChainProblem((30, 35, 15, 5, 10, 20)),
        ]
        for problem in problems:
            rtl = solve(problem, backend="rtl")
            fast = solve(problem, backend="fast")
            auto = solve(problem, backend="auto")
            assert rtl.optimum == fast.optimum == auto.optimum
            assert rtl.method == fast.method

    def test_unknown_backend_rejected(self):
        from repro.systolic import SystolicError

        with pytest.raises(SystolicError):
            solve(fig1a_graph(), backend="gpu")


class TestRouting:
    """``solve()`` and ``solve_batch()`` share one routing rule, so they
    reject the same inputs with the same error."""

    def test_unknown_prefer_rejected_by_solve(self):
        with pytest.raises(ValueError, match="quantum") as err:
            solve(fig1a_graph(), prefer="quantum")
        for name in ("pipelined", "broadcast", "sequential", "dnc", "systolic"):
            assert name in str(err.value)

    def test_unknown_prefer_rejected_by_solve_batch(self, rng):
        from repro import solve_batch

        probs = [traffic_light_problem(rng, 4, 3), fig1a_graph()]
        with pytest.raises(ValueError, match="quantum") as err:
            solve_batch(probs, prefer="quantum")
        for name in ("pipelined", "broadcast", "sequential", "dnc", "systolic"):
            assert name in str(err.value)

    def test_unknown_prefer_rejected_by_empty_batch(self):
        from repro import solve_batch

        with pytest.raises(ValueError) as from_solve:
            solve(fig1a_graph(), prefer="quantum")
        with pytest.raises(ValueError) as from_batch:
            solve_batch([], prefer="quantum")
        assert str(from_batch.value) == str(from_solve.value)

    def test_unknown_prefer_rejected_for_chains(self):
        with pytest.raises(ValueError, match="quantum"):
            solve(MatrixChainProblem((10, 20, 5)), prefer="quantum")

    def test_plus_times_graph_rejected_by_both_entry_points(self, rng):
        from repro import solve_batch
        from repro.graphs import single_source_sink
        from repro.semiring import PLUS_TIMES

        g = single_source_sink(rng, 5, 4, semiring=PLUS_TIMES)
        with pytest.raises(ValueError, match="does not support decision extraction"):
            solve(g, backend="fast")
        with pytest.raises(ValueError, match="does not support decision extraction"):
            solve_batch([g, g])
