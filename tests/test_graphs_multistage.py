"""Unit tests for MultistageGraph and NodeValueProblem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import GraphError, MultistageGraph, NodeValueProblem, fig1a_graph, fig1b_problem
from repro.semiring import MAX_PLUS, MIN_PLUS, chain_product


class TestConstruction:
    def test_basic_shape_queries(self):
        g = MultistageGraph(costs=(np.zeros((2, 3)), np.zeros((3, 4))))
        assert g.num_stages == 3
        assert g.num_layers == 2
        assert g.stage_sizes == (2, 3, 4)
        assert not g.is_single_source_sink

    def test_single_source_sink_flag(self):
        g = MultistageGraph(costs=(np.zeros((1, 3)), np.zeros((3, 1))))
        assert g.is_single_source_sink

    def test_empty_costs_rejected(self):
        with pytest.raises(GraphError):
            MultistageGraph(costs=())

    def test_mismatched_layers_rejected(self):
        with pytest.raises(GraphError, match="stage-size mismatch"):
            MultistageGraph(costs=(np.zeros((2, 3)), np.zeros((4, 2))))

    def test_non_2d_rejected(self):
        with pytest.raises(GraphError, match="2-D"):
            MultistageGraph(costs=(np.zeros(3),))

    def test_empty_stage_rejected(self):
        with pytest.raises(GraphError, match="empty stage"):
            MultistageGraph(costs=(np.zeros((0, 3)),))

    def test_nan_cost_rejected(self):
        costs = (np.zeros((1, 3)), np.zeros((3, 3)), np.zeros((3, 1)))
        costs[1][0, 0] = np.nan
        with pytest.raises(GraphError, match=r"costs\[1\] contains NaN"):
            MultistageGraph(costs=costs)

    def test_non_float_semiring_still_constructs(self):
        import dataclasses

        from repro.semiring import BOOLEAN

        costs = (np.array([[True, False]]), np.array([[True], [True]]))
        assert MultistageGraph(costs=costs, semiring=BOOLEAN).num_edges() == 3
        for dtype in (np.bool_, object):
            sr = dataclasses.replace(BOOLEAN, dtype=np.dtype(dtype))
            g = MultistageGraph(costs=costs, semiring=sr)
            assert g.costs[0].dtype == np.dtype(dtype)

    def test_num_edges_counts_finite_costs(self):
        c = np.array([[1.0, np.inf], [np.inf, 2.0]])
        g = MultistageGraph(costs=(c,))
        assert g.num_edges() == 2


class TestPathOperations:
    def test_path_cost_accumulates(self):
        g = fig1a_graph()
        # path s -> A2 -> B1 -> C3 -> t: 5 + 2 + 2 + 2? compute explicitly
        cost = g.path_cost((0, 1, 0, 2, 0))
        expected = g.costs[0][0, 1] + g.costs[1][1, 0] + g.costs[2][0, 2] + g.costs[3][2, 0]
        assert np.isclose(cost, expected)

    def test_path_wrong_length_rejected(self):
        g = fig1a_graph()
        with pytest.raises(GraphError, match="path length"):
            g.path_cost((0, 1, 2))

    def test_path_out_of_range_rejected(self):
        g = fig1a_graph()
        with pytest.raises(GraphError, match="outside stage"):
            g.path_cost((0, 5, 0, 0, 0))

    def test_iter_paths_count(self):
        g = fig1a_graph()
        assert sum(1 for _ in g.iter_paths()) == 1 * 3 * 3 * 3 * 1

    def test_brute_force_is_minimum(self):
        g = fig1a_graph()
        best, path = g.brute_force_optimum()
        costs = [g.path_cost(p) for p in g.iter_paths()]
        assert np.isclose(best, min(costs))
        assert np.isclose(g.path_cost(path), best)

    def test_max_plus_brute_force_is_maximum(self, rng):
        costs = tuple(rng.uniform(0, 5, (3, 3)) for _ in range(2))
        g = MultistageGraph(costs=costs, semiring=MAX_PLUS)
        best, path = g.brute_force_optimum()
        all_costs = [g.path_cost(p) for p in g.iter_paths()]
        assert np.isclose(best, max(all_costs))


class TestMatrixStringView:
    def test_as_matrices_copies(self):
        g = fig1a_graph()
        mats = g.as_matrices()
        mats[0][0, 0] = 999.0
        assert g.costs[0][0, 0] != 999.0

    def test_string_product_equals_brute_force(self, rng):
        costs = (rng.uniform(0, 5, (1, 3)), rng.uniform(0, 5, (3, 3)), rng.uniform(0, 5, (3, 1)))
        g = MultistageGraph(costs=costs)
        prod = chain_product(MIN_PLUS, g.as_matrices())
        assert np.isclose(prod[0, 0], g.brute_force_optimum()[0])

    def test_serial_op_count_formula(self):
        # (N+1)-stage single-source/sink, m wide: (N-2)m^2 + m.
        m, n_layers = 4, 6
        sizes = [1] + [m] * (n_layers - 1) + [1]
        costs = tuple(np.zeros((sizes[i], sizes[i + 1])) for i in range(n_layers))
        g = MultistageGraph(costs=costs)
        assert g.serial_op_count() == (n_layers - 2) * m * m + m

    def test_reversed_preserves_optimum(self, rng):
        costs = tuple(rng.uniform(0, 5, s) for s in [(2, 3), (3, 3), (3, 2)])
        g = MultistageGraph(costs=costs)
        r = g.reversed()
        assert r.stage_sizes == tuple(reversed(g.stage_sizes))
        assert np.isclose(g.brute_force_optimum()[0], r.brute_force_optimum()[0])


class TestNodeValueProblem:
    def test_fig1b_shape(self):
        p = fig1b_problem()
        assert p.num_stages == 4
        assert p.stage_sizes == (3, 3, 3, 3)
        assert p.is_uniform

    def test_cost_matrix_values(self):
        p = fig1b_problem()
        c = p.cost_matrix(0)
        for i in range(3):
            for j in range(3):
                assert np.isclose(c[i, j], (p.values[0][i] - p.values[1][j]) ** 2)

    def test_cost_matrix_out_of_range(self):
        p = fig1b_problem()
        with pytest.raises(GraphError, match="out of range"):
            p.cost_matrix(3)

    def test_to_graph_roundtrip(self):
        p = fig1b_problem()
        g = p.to_graph()
        assert g.num_stages == p.num_stages
        assert g.stage_sizes == p.stage_sizes

    def test_nonuniform_stages(self):
        p = NodeValueProblem(
            values=(np.array([1.0, 2.0]), np.array([3.0]), np.array([4.0, 5.0, 6.0])),
            edge_cost=lambda a, b: np.abs(a - b),
        )
        assert not p.is_uniform
        assert p.stage_sizes == (2, 1, 3)

    def test_too_few_stages_rejected(self):
        with pytest.raises(GraphError):
            NodeValueProblem(values=(np.array([1.0]),), edge_cost=lambda a, b: a - b)

    def test_empty_stage_rejected(self):
        with pytest.raises(GraphError):
            NodeValueProblem(
                values=(np.array([1.0]), np.array([])), edge_cost=lambda a, b: a - b
            )

    def test_nan_value_rejected(self):
        with pytest.raises(GraphError, match=r"values\[1\] contains NaN"):
            NodeValueProblem(
                values=(np.array([1.0, 2.0]), np.array([np.nan, 4.0])),
                edge_cost=lambda a, b: np.abs(a - b),
            )

    def test_nan_edge_cost_rejected_by_both_entry_points(self):
        from repro import solve, solve_batch

        values = tuple(np.array([0.0, 1.0, 2.0]) for _ in range(4))
        p = NodeValueProblem(
            values=values,
            edge_cost=lambda a, b: np.where((a == 1) & (b == 2), np.nan, (a - b) ** 2),
        )
        msg = r"edge_cost returned NaN between stages 0 and 1"
        with pytest.raises(GraphError, match=msg):
            solve(p, backend="fast")
        with pytest.raises(GraphError, match=msg):
            solve_batch([p, p])

    def test_non_vectorized_cost_rejected(self):
        p = NodeValueProblem(
            values=(np.array([1.0, 2.0]), np.array([3.0, 4.0])),
            edge_cost=lambda a, b: np.float64(1.0),  # ignores shapes
        )
        with pytest.raises(GraphError, match="vectorized"):
            p.cost_matrix(0)

    def test_input_bandwidth_ratio(self):
        # The Section-3.2 claim: node form needs Σm vs Σm² words.
        p = fig1b_problem()
        node, edge = p.input_bandwidth()
        assert node == 4 * 3
        assert edge == 3 * 9
        assert edge / node == 2.25
