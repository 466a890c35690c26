import pytest

from energygames import ALICE, BOB, GameGraph


@pytest.fixture
def fig1() -> GameGraph:
    """Three-node game: Alice's node 0 at the bottom, Bob's 1 and 2 on top.

    Minimal energies are (0, 4, 8); Bob's optimal strategy keeps only the
    edges 1->2 and 2->0, which is the ``fig3`` fixture.
    """
    return GameGraph(
        (ALICE, BOB, BOB),
        ((0, 1, 7), (0, 2, 2), (1, 2, 4), (1, 0, -2), (2, 1, 3), (2, 0, -8)),
    )


@pytest.fixture
def fig3() -> GameGraph:
    """fig1 with Bob's strategy fixed: the graph of penalty 3."""
    return GameGraph(
        (ALICE, BOB, BOB),
        ((0, 1, 7), (0, 2, 2), (1, 2, 4), (2, 0, -8)),
    )


@pytest.fixture
def neg_two_cycle() -> GameGraph:
    """A forced two-cycle of total weight -2: everything is losing."""
    return GameGraph((ALICE, BOB), ((0, 1, -1), (1, 0, -1)))
