import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dgt.snapshot_graph import SnapshotGraph


def clique_edges(nodes):
    return [(i, j) for i in nodes for j in nodes if i != j]


@pytest.fixture(params=[([(0, 1), (1, 2), (2, 0)], [0, 1, 99]),
                        ([(0, 1), (1, 2), (2, 0), (5, 0)], [0, 1, 3])],
                ids=["above-every-node-id", "below-a-node-id"])
def stray_members(request) -> tuple[SnapshotGraph, list[int]]:
    """A graph and the members of a community holding agent 0 and one id
    that is not a node: above every node id, or below one, which the
    degree tables have a slot for."""
    edges, members = request.param
    return SnapshotGraph.from_edges(edges), members


@pytest.fixture(scope="session")
def two_cliques() -> SnapshotGraph:
    """Two disconnected 10-node bidirected cliques; planted partition is
    node // 10."""
    return SnapshotGraph.from_edges(
        clique_edges(range(10)) + clique_edges(range(10, 20))
    )


@pytest.fixture(scope="session")
def two_cliques_plant() -> dict:
    return {v: v // 10 for v in range(20)}
