"""Multistage graphs — the paper's canonical serial-DP substrate.

A *multistage graph* (Figure 1 of the paper) partitions its vertices into
stages; edges run only between adjacent stages.  The minimum-cost path
problem on such a graph is the canonical monadic-serial DP problem
(Section 2.1) and the workload for all three systolic designs of
Section 3.

Two representations are provided, mirroring the paper's two input
regimes:

* :class:`MultistageGraph` — **edge-cost form**: one explicit cost matrix
  per pair of adjacent stages (the form fed to the Fig. 3 / Fig. 4
  matrix-multiplication arrays).
* :class:`NodeValueProblem` — **node-value form** (eq. 4): each stage is a
  discrete variable with ``m`` quantized values and edge costs are
  *computed* from the endpoint values by a stage cost function
  ``f(x, y)``.  The paper notes this reduces input bandwidth by an order
  of magnitude and is the form fed to the Fig. 5 feedback array.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Iterator, Sequence

import numpy as np

from ..semiring import MIN_PLUS, Semiring

__all__ = ["MultistageGraph", "NodeValueProblem", "GraphError"]


class GraphError(ValueError):
    """Raised for malformed multistage graphs or problems."""


def _has_nan(a: np.ndarray) -> bool:
    """True when non-empty float array ``a`` holds a NaN.

    ``min`` propagates NaN while ``±inf`` (missing edges) pass through,
    and one reduction is cheaper than ``isnan(a).any()`` on small arrays.
    """
    return a.dtype.kind == "f" and bool(np.isnan(np.minimum.reduce(a, axis=None)))


@dataclasses.dataclass(frozen=True)
class MultistageGraph:
    """A multistage graph in edge-cost form.

    Parameters
    ----------
    costs:
        ``costs[k]`` is the cost matrix between stage ``k`` and stage
        ``k + 1`` with shape ``(size of stage k, size of stage k + 1)``;
        entry ``(i, j)`` is the cost of the edge from node ``i`` of stage
        ``k`` to node ``j`` of stage ``k + 1``.  ``semiring.zero``
        (``+inf`` for min-plus) encodes a missing edge; NaN is rejected
        with :class:`GraphError`.
    semiring:
        The cost algebra; min-plus by default (shortest path).

    The number of stages is ``len(costs) + 1``.
    """

    costs: tuple[np.ndarray, ...]
    semiring: Semiring = MIN_PLUS

    def __post_init__(self) -> None:
        if not self.costs:
            raise GraphError("a multistage graph needs at least one edge layer")
        mats = tuple(self.semiring.asarray(c) for c in self.costs)
        for k, c in enumerate(mats):
            if c.ndim != 2:
                raise GraphError(f"costs[{k}] must be 2-D, got shape {c.shape}")
            if min(c.shape) < 1:
                raise GraphError(f"costs[{k}] has an empty stage: shape {c.shape}")
            if _has_nan(c):
                raise GraphError(f"costs[{k}] contains NaN")
        for k in range(len(mats) - 1):
            if mats[k].shape[1] != mats[k + 1].shape[0]:
                raise GraphError(
                    f"stage-size mismatch between layers {k} and {k + 1}: "
                    f"{mats[k].shape} then {mats[k + 1].shape}"
                )
        object.__setattr__(self, "costs", mats)

    # ------------------------------------------------------------------
    # Shape queries
    # ------------------------------------------------------------------
    @property
    def num_stages(self) -> int:
        """Number of vertex stages (``len(costs) + 1``)."""
        return len(self.costs) + 1

    @property
    def num_layers(self) -> int:
        """Number of edge layers between adjacent stages."""
        return len(self.costs)

    @property
    def stage_sizes(self) -> tuple[int, ...]:
        """Vertex count of every stage, source side first."""
        return tuple(c.shape[0] for c in self.costs) + (self.costs[-1].shape[1],)

    @property
    def is_single_source_sink(self) -> bool:
        """True when the first and last stages each hold exactly one vertex."""
        sizes = self.stage_sizes
        return sizes[0] == 1 and sizes[-1] == 1

    def num_edges(self) -> int:
        """Total number of present (non-``zero``) edges."""
        return int(sum(np.count_nonzero(c != self.semiring.zero) for c in self.costs))

    # ------------------------------------------------------------------
    # Matrix-string view (Section 3.1)
    # ------------------------------------------------------------------
    def as_matrices(self) -> list[np.ndarray]:
        """The cost matrices as the string to be semiring-multiplied.

        Multiplying the returned string left-to-right (or in any other
        association — the semiring is associative) yields the matrix of
        optimal costs from every stage-0 vertex to every final-stage
        vertex, exactly eq. (8) of the paper.
        """
        return [c.copy() for c in self.costs]

    def serial_op_count(self) -> int:
        """Shift-multiply-accumulate count of the single-PE evaluation.

        Evaluates the matrix string right-to-left as matrix-vector
        products, the uniprocessor schedule the paper compares against.
        For an ``(N+1)``-stage single-source/sink graph with ``m`` nodes
        per intermediate stage this equals ``(N - 2)·m² + m`` (the
        denominator of eq. 9).
        """
        sizes = self.stage_sizes
        # Right-to-left: the last cost matrix collapses to a vector of
        # length sizes[-2] for free; each earlier layer k is a
        # (sizes[k] x sizes[k+1]) mat-vec.
        return int(sum(sizes[k] * sizes[k + 1] for k in range(self.num_layers - 1)))

    # ------------------------------------------------------------------
    # Path enumeration (brute-force oracle for tests)
    # ------------------------------------------------------------------
    def iter_paths(self) -> Iterator[tuple[int, ...]]:
        """Yield every source→sink path as a tuple of per-stage node indices.

        Exponential in the number of stages; intended only as a
        brute-force oracle on small instances.
        """
        ranges = [range(s) for s in self.stage_sizes]
        yield from itertools.product(*ranges)

    def path_cost(self, path: Sequence[int]) -> float:
        """⊗-accumulated cost of a full path (one node index per stage)."""
        if len(path) != self.num_stages:
            raise GraphError(
                f"path length {len(path)} != number of stages {self.num_stages}"
            )
        sizes = self.stage_sizes
        for k, node in enumerate(path):
            if not 0 <= node < sizes[k]:
                raise GraphError(f"path[{k}] = {node} outside stage of size {sizes[k]}")
        sr = self.semiring
        acc = sr.one
        for k in range(self.num_layers):
            acc = sr.scalar_mul(acc, float(self.costs[k][path[k], path[k + 1]]))
        return acc

    def brute_force_optimum(self) -> tuple[float, tuple[int, ...]]:
        """Best cost and path by exhaustive enumeration (small graphs only)."""
        sr = self.semiring
        best_cost = sr.zero
        best_path: tuple[int, ...] | None = None
        for path in self.iter_paths():
            c = self.path_cost(path)
            if sr.scalar_add(c, best_cost) == c and (
                best_path is None or c != best_cost
            ):
                best_cost, best_path = c, path
            elif best_path is None:
                best_cost, best_path = c, path
        assert best_path is not None
        return best_cost, best_path

    def reversed(self) -> "MultistageGraph":
        """The same graph traversed sink→source (matrices transposed, reversed)."""
        return MultistageGraph(
            costs=tuple(c.T.copy() for c in reversed(self.costs)),
            semiring=self.semiring,
        )


@dataclasses.dataclass(frozen=True)
class NodeValueProblem:
    """A serial optimization problem in node-value form (paper eq. 4).

    ``min_X Σ_{i=1}^{N-1} g(X_i, X_{i+1})`` where each discrete variable
    ``X_i`` takes the quantized values ``values[i]`` and the stage cost
    ``g`` is computed from the endpoint values.  Only node values — not
    ``m²`` edge costs per layer — need to enter a systolic array, which is
    the input-bandwidth argument for the Fig. 5 design.

    Parameters
    ----------
    values:
        ``values[k]`` is the 1-D array of quantized values of variable
        ``X_{k+1}`` (stage ``k``); NaN is rejected with
        :class:`GraphError`.
    edge_cost:
        Vectorized ``g``: called as ``edge_cost(xk, xk1)`` on broadcastable
        arrays of stage-``k`` and stage-``k+1`` values, returns elementwise
        costs.  The paper assumes ``g`` independent of the stage index
        (required for systolic feeding); a per-stage variant can be
        expressed by baking the stage index into the node values.
    semiring:
        Cost algebra, min-plus by default.
    """

    values: tuple[np.ndarray, ...]
    edge_cost: Callable[[np.ndarray, np.ndarray], np.ndarray]
    semiring: Semiring = MIN_PLUS

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise GraphError("a node-value problem needs at least two stages")
        vals = tuple(np.asarray(v, dtype=np.float64) for v in self.values)
        for k, v in enumerate(vals):
            if v.ndim != 1:
                raise GraphError(f"values[{k}] must be 1-D, got shape {v.shape}")
            if v.size == 0:
                raise GraphError(f"values[{k}] is empty")
            if _has_nan(v):
                raise GraphError(f"values[{k}] contains NaN")
        object.__setattr__(self, "values", vals)

    @property
    def num_stages(self) -> int:
        """Number of variables / stages ``N``."""
        return len(self.values)

    @property
    def stage_sizes(self) -> tuple[int, ...]:
        """Number of quantized values in each stage."""
        return tuple(v.size for v in self.values)

    @property
    def is_uniform(self) -> bool:
        """True when every stage has the same number of quantized values."""
        sizes = self.stage_sizes
        return all(s == sizes[0] for s in sizes)

    def cost_matrix(self, k: int) -> np.ndarray:
        """Materialized cost matrix between stage ``k`` and ``k + 1``.

        ``out[i, j] = g(values[k][i], values[k+1][j])`` — used to convert
        the problem to edge-cost form and by the sequential reference
        solver.  A NaN cost raises :class:`GraphError`.
        """
        if not 0 <= k < self.num_stages - 1:
            raise GraphError(f"layer index {k} out of range")
        xk = self.values[k][:, None]
        xk1 = self.values[k + 1][None, :]
        out = self.semiring.asarray(self.edge_cost(xk, xk1))
        expected = (self.values[k].size, self.values[k + 1].size)
        if out.shape != expected:
            raise GraphError(
                f"edge_cost returned shape {out.shape}, expected {expected}; "
                "it must be vectorized over broadcast inputs"
            )
        if _has_nan(out):
            raise GraphError(f"edge_cost returned NaN between stages {k} and {k + 1}")
        return out

    def to_graph(self) -> MultistageGraph:
        """Materialize the equivalent edge-cost multistage graph."""
        return MultistageGraph(
            costs=tuple(self.cost_matrix(k) for k in range(self.num_stages - 1)),
            semiring=self.semiring,
        )

    def input_bandwidth(self) -> tuple[int, int]:
        """(node-value inputs, edge-cost inputs) for this instance.

        The first component is what the Fig. 5 array reads
        (``Σ m_k`` values); the second is what an edge-fed array would
        read (``Σ m_k·m_{k+1}`` costs).  Their ratio is the
        "order-of-magnitude reduction in input overhead" claimed in
        Section 3.2.
        """
        sizes = self.stage_sizes
        node_inputs = int(sum(sizes))
        edge_inputs = int(sum(sizes[k] * sizes[k + 1] for k in range(len(sizes) - 1)))
        return node_inputs, edge_inputs
