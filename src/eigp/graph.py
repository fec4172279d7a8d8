"""Undirected communication graph between agents (nodes are 1..n)."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


class Graph:
    """Symmetric neighbor structure without self-loops.

    ``closed_neighborhood(i)`` returns i together with its neighbors, the
    candidate pool for cooperative prediction. ``mask[i - 1, j - 1]`` is
    true when j lies in the closed neighborhood of i. ``groups`` gathers the
    nodes by closed-neighborhood size: each entry pairs node positions
    (i - 1) with the positions of their neighborhoods in id order, one row
    per node.
    """

    def __init__(self, n: int, edges):
        if n < 1:
            raise InvalidInputError("a graph needs at least one node")
        seen: set[tuple[int, int]] = set()
        neighbors: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise InvalidInputError(f"self-loop on node {a}")
            if not (1 <= a <= n and 1 <= b <= n):
                raise InvalidInputError(f"edge ({a}, {b}) references a node outside 1..{n}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise InvalidInputError(f"duplicate edge ({a}, {b})")
            seen.add(key)
            neighbors[a].add(b)
            neighbors[b].add(a)
        self.n = n
        self.nodes = tuple(range(1, n + 1))
        self.edges = frozenset(seen)
        self._neighbors = {i: tuple(sorted(neighbors[i])) for i in neighbors}
        self._closed = {i: tuple(sorted({i, *neighbors[i]})) for i in neighbors}
        self.mask = np.zeros((n, n), dtype=bool)
        for i, closed in self._closed.items():
            self.mask[i - 1, np.subtract(closed, 1)] = True
        sizes = self.mask.sum(axis=1)
        self.groups = tuple(
            (rows, np.nonzero(self.mask[rows])[1].reshape(rows.size, -1))
            for rows in (np.flatnonzero(sizes == size) for size in np.unique(sizes))
        )

    def neighbors(self, i: int) -> tuple[int, ...]:
        self._check_node(i)
        return self._neighbors[i]

    def closed_neighborhood(self, i: int) -> tuple[int, ...]:
        self._check_node(i)
        return self._closed[i]

    def _check_node(self, i: int) -> None:
        if i not in self._neighbors:
            raise InvalidInputError(f"node {i} not in graph of size {self.n}")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))


def fully_connected(n: int) -> Graph:
    """Complete graph: every agent neighbors every other agent."""
    edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    return Graph(n, edges)


def build_graph(spec, n: int) -> Graph:
    """Build from ``"full"`` or an explicit edge list."""
    if spec == "full":
        return fully_connected(n)
    if isinstance(spec, (list, tuple, np.ndarray)):
        return Graph(n, spec)
    raise InvalidInputError(f"graph spec must be 'full' or an edge list, got {spec!r}")
