"""Communication-graph construction and neighborhood queries."""

import numpy as np
import pytest

from eigp import Graph, InvalidInputError, build_graph, fully_connected


def test_fully_connected_four():
    g = fully_connected(4)
    for i in range(1, 5):
        assert len(g.closed_neighborhood(i)) == 4
        assert i in g.closed_neighborhood(i)


def test_single_node_graph():
    g = fully_connected(1)
    assert g.closed_neighborhood(1) == (1,)
    assert g.neighbors(1) == ()


def test_isolated_node_keeps_self():
    g = Graph(3, [(1, 2)])
    assert g.closed_neighborhood(3) == (3,)
    assert g.closed_neighborhood(1) == (1, 2)


def test_adjacency_is_symmetric():
    g = Graph(4, [(1, 3), (2, 4), (3, 4)])
    for i in g.nodes:
        for j in g.neighbors(i):
            assert i in g.neighbors(j)


def test_rejects_bad_edges():
    with pytest.raises(InvalidInputError):
        Graph(3, [(1, 1)])  # self-loop
    with pytest.raises(InvalidInputError):
        Graph(3, [(1, 2), (2, 1)])  # duplicate
    with pytest.raises(InvalidInputError):
        Graph(3, [(1, 9)])  # out of range
    with pytest.raises(InvalidInputError):
        Graph(0, [])
    for edge in ((1.7, 2), ("1", "2")):
        with pytest.raises(InvalidInputError, match="must be integers"):
            Graph(3, [edge])


def test_numpy_integer_edges_are_node_ids():
    g = Graph(3, np.array([[1, 2], [2, 3]]))
    assert g == Graph(3, [(1, 2), (2, 3)])
    assert g.neighbors(2) == (1, 3)
    with pytest.raises(InvalidInputError, match="not in graph"):
        g.neighbors(4)


def test_build_graph_specs():
    assert build_graph("full", 3) == fully_connected(3)
    assert build_graph([[1, 2]], 3) == Graph(3, [(1, 2)])
    with pytest.raises(InvalidInputError):
        build_graph("ring", 3)
