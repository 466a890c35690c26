"""Plain helpers shared by the test modules: seeded small instances and
brute-force references.  Fixtures stay in conftest.py; this module has its
own name so that no other suite's conftest can shadow it on import."""

import itertools

from energygames import ALICE, BOB, GameGraph
from energygames.generators import GenSpec, SplitMix64, random_game


def small_random(seed: int, max_n: int = 6, max_w: int = 10, max_out: int = 3) -> GameGraph:
    """Deterministic small instance for differential tests."""
    n = 2 + seed % (max_n - 1)
    cap = min(max_out, n - 1)
    m = n + seed % (n * cap - n + 1)
    spec = GenSpec(
        family="random",
        n=n,
        m=m,
        max_weight=1 + seed % max_w,
        seed=seed,
        max_out=max_out,
    )
    return random_game(spec)


def zero_cycle_game(seed: int, n: int = 100, max_weight: int = 3) -> GameGraph:
    """A zero-weight Hamiltonian cycle plus n // 10 extra edges of weight in
    [-max_weight, max_weight], with owners drawn last.  At n = 100, seed 1 is
    losing everywhere and seeds 0 and 2 have no losing node."""
    rng = SplitMix64(seed)
    edges = [(i, (i + 1) % n, 0) for i in range(n)]
    for _ in range(n // 10):
        src = rng.randint(0, n - 1)
        dst = (src + rng.randint(1, n - 1)) % n
        edges.append((src, dst, rng.randint(-max_weight, max_weight)))
    owners = tuple(ALICE if rng.randint(0, 1) else BOB for _ in range(n))
    return GameGraph(owners, tuple(edges))


def all_edge_choices(graph: GameGraph):
    """Every strategy pair, as a full edge-choice vector."""
    return itertools.product(*(graph.out_edges[v] for v in range(graph.n)))


def simple_cycles(graph: GameGraph):
    """All simple cycles as (total weight, length) via networkx; parallel
    edges are kept distinct."""
    import networkx as nx

    g = nx.MultiDiGraph()
    g.add_nodes_from(range(graph.n))
    for i, (src, dst, weight) in enumerate(graph.edges):
        g.add_edge(src, dst, key=i, weight=weight)
    for cycle in nx.simple_cycles(g):
        nodes = list(cycle)
        length = len(nodes)
        # expand parallel-edge combinations along the node cycle
        options = []
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            options.append([d["weight"] for d in g.get_edge_data(a, b).values()])
        for combo in itertools.product(*options):
            yield sum(combo), length


def induced_subgraph(graph: GameGraph, kept: set[int]) -> GameGraph:
    """The subgraph on ``kept`` (sorted, reindexed), original weights."""
    index = {old: new for new, old in enumerate(sorted(kept))}
    owners = tuple(graph.owners[v] for v in sorted(kept))
    edges = tuple(
        (index[s], index[d], w) for s, d, w in graph.edges if s in kept and d in kept
    )
    return GameGraph(owners, edges)


def dfs_path_minimum(graph: GameGraph, choice, start: int):
    """Independent reference for the walk oracle: enumerate every simple path
    from ``start`` in the out-degree-one restriction by DFS and return
    (minimum path weight or None, True iff a negative cycle is reachable)."""
    edges = graph.edges
    best: list[int | None] = [None]

    def explore(node: int, total: int, seen: frozenset[int]):
        _, dst, weight = edges[choice[node]]
        new_total = total + weight
        if dst in seen:  # the closing step revisits a node: not a simple path
            return
        if best[0] is None or new_total < best[0]:
            best[0] = new_total
        explore(dst, new_total, seen | {dst})

    explore(start, 0, frozenset([start]))

    # negative-cycle detection: walk until repeat, generically
    seen_at = {start: 0}
    sums = [0]
    cur = start
    negative = False
    while True:
        _, dst, weight = edges[choice[cur]]
        sums.append(sums[-1] + weight)
        cur = dst
        if cur in seen_at:
            negative = sums[-1] - sums[seen_at[cur]] < 0
            break
        seen_at[cur] = len(sums) - 1
    return best[0], negative
