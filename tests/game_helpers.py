"""Plain helpers shared by the test modules: seeded small instances and
brute-force references.  Fixtures stay in conftest.py; this module has its
own name so that no other suite's conftest can shadow it on import."""

import itertools

from energygames import ALICE, BOB, INF, GameGraph, brute_force_energies
from energygames.generators import GenSpec, SplitMix64, high_penalty_family, random_game, windowed_game
from energygames.reductions import to_bipartite, to_complete_bipartite, to_win_everywhere

# A 3-node game with minimal energies (9, 0, 10).
SHALLOW_TRAP = GameGraph((ALICE, BOB, BOB), ((0, 1, -9), (0, 2, 0), (1, 0, 10), (2, 0, -1)))


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


def high_penalty_instance(seed: int, max_weight: int = 8) -> GameGraph:
    return high_penalty_family(choices=2 + seed % 3, max_weight=max_weight, seed=seed)


def windowed_instance(seed: int):
    """A (spec, (graph, centers)) pair of windowed_game with n <= 5."""
    n = 3 + seed % 3
    spec = GenSpec(
        "window",
        n=n,
        m=min(n + seed % (n + 2), n * (n - 1)),
        max_weight=12,
        seed=seed,
        d=1 + seed % 2,
        delta=seed % 3,
        center_lo=-7,
        center_hi=7,
    )
    return spec, windowed_game(spec)


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


def pool_seeds(count: int) -> list[int]:
    """The first ``count`` instance seeds the benchmark's workloads draw at
    seed 1."""
    rng = SplitMix64(1)
    return [rng.next_u64() >> 1 for _ in range(count)]


def random_cli_pool() -> list[GameGraph]:
    """The benchmark's seed-1 ``random-cli`` games: 200 random games with
    n = 96, m = 4n and W alternating 10^2 and 10^3."""
    weights = (10**2, 10**3)
    return [
        random_game(GenSpec("random", 96, 384, weights[i % 2], s))
        for i, s in enumerate(pool_seeds(200))
    ]


def penalty_hub_pool() -> list[GameGraph]:
    """The benchmark's seed-1 ``penalty-hub`` games: 20 hubs of 2,000
    branches, W = 2^16."""
    return [high_penalty_family(2000, 2**16, s) for s in pool_seeds(20)]


def reduction_batch_pool() -> list[GameGraph]:
    """The benchmark's seed-1 ``reduction-batch`` games: the first 100
    distinct complete-bipartite reduction outputs of seeded 2-node games
    whose start Alice wins, then the first 6 of W = 1 inputs that Bob wins,
    drawing at least 600 inputs."""
    rng = SplitMix64(1)
    seen: set[GameGraph] = set()
    fast: list[GameGraph] = []
    slow: list[GameGraph] = []
    draws = 0
    while draws < 600 or len(fast) < 100 or len(slow) < 6:
        draws += 1
        cap = (1, 2)[rng.randint(0, 1)]
        graph = random_game(GenSpec("random", 2, 2, cap, rng.next_u64() >> 1))
        start = rng.randint(0, 1)
        reduced, _, _ = to_win_everywhere(graph, start)
        completed, _ = to_complete_bipartite(to_bipartite(reduced)[0])
        if completed in seen:
            continue
        seen.add(completed)
        if brute_force_energies(graph)[start] != INF:
            fast.append(completed)
        elif cap == graph.max_weight == 1:
            slow.append(completed)
    return fast[:100] + slow[:6]


def fullrange_vi_pool() -> list[GameGraph]:
    """The benchmark's seed-1 ``fullrange-vi`` games: 12 hubs of 250
    branches with W = 2^12, then 288 random games with n = 64, m = 4n and
    W = 10^2."""
    seeds = pool_seeds(300)
    hubs = [high_penalty_family(250, 2**12, s) for s in seeds[:12]]
    return hubs + [random_game(GenSpec("random", 64, 256, 10**2, s)) for s in seeds[12:]]


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
