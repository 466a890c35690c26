import copy
from bisect import bisect_left
from collections import deque

import pytest

from energygames import (
    ALICE,
    BOB,
    INF,
    GameGraph,
    brute_force_energies,
    full_list,
    multiples_list,
    solve_with_list,
    validate,
    verify_minimal,
    window_list,
)
from energygames.admissible import AdmissibleList
from energygames.generators import GenSpec, high_penalty_family, random_game, windowed_game
from energygames.reductions import to_win_everywhere
from energygames.value_iteration import ViterResult

from game_helpers import small_random


def _universal(graph):
    return full_list(graph.default_bound())


def _position(admissible, value):
    """Position of the smallest member >= value, by bisection on the finite
    values; ``len(finite)`` stands for INF."""
    finite = admissible.finite
    return len(finite) if value > finite[-1] else bisect_left(finite, value)


def _deficit_bound(graph, weights):
    """D, the sum of the n - 1 largest per-node deficits max(0, max -w): the
    largest deficit a simple path can have."""
    deficits = [0] * graph.n
    for (src, _, _), weight in zip(graph.edges, weights):
        deficits[src] = max(deficits[src], -weight)
    return sum(sorted(deficits)[1:])


def reference_solve_with_list(graph, admissible, weights=None, capped=True):
    """The kernel before rounding went inline and the per-graph constants
    were cached: it builds its own adjacency, owner flags and counters on
    every call and rounds by :func:`_position`, a bisection even on a range.
    On a unit range from 0 a target above D (:func:`_deficit_bound`) goes
    to INF, unless ``capped`` is False.  The kernel must match it field for
    field."""
    n = graph.n
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for i, (src, dst, _) in enumerate(graph.edges):
        succ[src].append((dst, i))
        pred[dst].append((src, i))
    if weights is None:
        weights = [weight for _, _, weight in graph.edges]
    count = [0] * n
    for (src, _, _), weight in zip(graph.edges, weights):
        if weight >= 0:
            count[src] += 1
    finite = admissible.finite
    cap = finite[-1]
    if capped and finite[0] == 0 and isinstance(finite, range) and finite.step == 1:
        cap = min(cap, _deficit_bound(graph, weights))
    e = [finite[0]] * n
    pos = [0] * n
    is_alice = [owner == ALICE for owner in graph.owners]
    pending = deque()
    queued = [False] * n
    for u in range(n):
        violated = count[u] == 0 if is_alice[u] else count[u] < len(succ[u])
        if violated:
            pending.append(u)
            queued[u] = True
    updates = [0] * n
    steps = 0
    edge_work = 0
    while pending:
        u = pending.popleft()
        queued[u] = False
        old = e[u]
        out = succ[u]
        alice = is_alice[u]
        candidates = [e[v] - weights[i] for v, i in out]
        target = min(candidates) if alice else max(candidates)
        new_pos = len(finite) if target > cap else _position(admissible, target)
        new = INF if new_pos == len(finite) else finite[new_pos]
        assert new > old
        e[u] = new
        updates[u] += 1
        steps += new_pos - pos[u]
        pos[u] = new_pos
        inc = pred[u]
        edge_work += len(out) + len(inc)
        if alice:
            count[u] = sum(1 for v, i in out if new + weights[i] >= e[v])
        for t, i in inc:
            held = e[t] + weights[i]
            if held >= new:
                continue
            if is_alice[t]:
                if held >= old:
                    count[t] -= 1
                if count[t] <= 0 and not queued[t]:
                    pending.append(t)
                    queued[t] = True
            elif not queued[t]:
                pending.append(t)
                queued[t] = True
    return ViterResult(tuple(e), tuple(updates), steps, edge_work)


def _lifts(admissible):
    """Whether the kernel lifts sets on this list: only on a unit range."""
    finite = admissible.finite
    return isinstance(finite, range) and finite.step == 1


def _outcome(result):
    """What set lifts keep: energies and list steps."""
    return result.energies, result.steps


def matches_reference(graph, admissible, weights=None):
    """Run the kernel and check it against the lift-free reference kernel:
    field for field, except that on a unit range set lifts may change the
    updates and the edge work.  Returns the kernel's result and the
    reference's."""
    result = solve_with_list(graph, admissible, weights)
    expected = reference_solve_with_list(graph, admissible, weights)
    if _lifts(admissible):
        assert _outcome(result) == _outcome(expected)
    else:
        assert result == expected
    return result, expected


def _windowed(seed):
    spec = GenSpec(
        family="window",
        n=5,
        m=9,
        max_weight=10,
        seed=seed,
        d=2,
        delta=1,
        center_lo=-6,
        center_hi=6,
    )
    graph, centers = windowed_game(spec)
    return graph, window_list(list(centers), spec.delta, graph.n, graph.default_bound())


def _list_shapes(graph):
    """A full, a multiples and three hand-built tuples, one coarse, one
    irregular and one unit-step, and a full list capped one below the
    largest finite energy, so that the nodes there go infinite at the cap.
    The kernel rounds the full and multiples lists, ranges, arithmetically
    and the tuples by bisection."""
    bound = graph.default_bound()
    finite = [x for x in reference_solve_with_list(graph, full_list(bound)).energies if x != INF]
    return (
        full_list(bound),
        multiples_list(3, bound),
        AdmissibleList(tuple(range(0, 400, 7))),
        AdmissibleList((0, 2, 5, 6, 11, 17, 40, 41, 100)),
        AdmissibleList(tuple(range(400))),
        full_list(max(max(finite, default=0) - 1, 0)),
    )


class TestSolveWithList:
    def test_reference_graph(self, fig1):
        result = solve_with_list(fig1, full_list(24))
        assert result.energies == (0, 4, 8)
        assert verify_minimal(fig1, result.energies)

    def test_non_negative_weights_converge_without_updates(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 2), (1, 2, 0), (2, 0, 5)))
        result = solve_with_list(graph, _universal(graph))
        assert result.energies == (0, 0, 0)
        assert result.total_updates == 0

    def test_losing_chain_goes_infinite(self):
        # Alice node feeding a forced cycle of total -2
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 0), (1, 2, -1), (2, 1, -1)))
        assert brute_force_energies(graph) == (INF, INF, INF)
        result = solve_with_list(graph, _universal(graph))
        assert result.energies == (INF, INF, INF)

    def test_agrees_with_oracle(self):
        # Every update strictly increases (the kernel asserts it), so final
        # energies equal to the oracle's mean no value ever exceeded them.  A
        # drifted Alice counter either queues a satisfied node, whose update
        # then fails that assert, or leaves a violated node unqueued, which
        # ends below the oracle.
        graphs = [small_random(seed) for seed in range(80)]
        graphs += [small_random(seed, max_n=5) for seed in range(25)]
        for graph in graphs:
            result = solve_with_list(graph, _universal(graph))
            assert result.energies == brute_force_energies(graph)

    def test_update_bound(self):
        for seed in range(25):
            graph = small_random(seed)
            lst = _universal(graph)
            result = solve_with_list(graph, lst)
            assert result.total_updates <= graph.n * len(lst)
            for per_node in result.updates:
                assert per_node <= len(lst)

    def test_coarse_list_on_multiple_weights(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 9), (0, 2, 3), (1, 2, 6), (2, 0, -6)))
        result = solve_with_list(graph, multiples_list(3, 18))
        assert result.energies == brute_force_energies(graph)

    def test_windowed_list_matches_oracle(self):
        for seed in range(25):
            spec = GenSpec(
                family="window",
                n=4,
                m=7,
                max_weight=10,
                seed=seed,
                d=2,
                delta=1,
                center_lo=-5,
                center_hi=5,
            )
            graph, centers = windowed_game(spec)
            lst = window_list(list(centers), spec.delta, graph.n, graph.default_bound())
            result = solve_with_list(graph, lst)
            assert result.energies == brute_force_energies(graph)

    def test_self_loops_rejected(self):
        # Node 1 is a sink too, but self-loops are checked first.
        graph = GameGraph((ALICE, BOB, ALICE), ((2, 2, 1), (0, 1, -1), (0, 0, 1)))
        for _ in range(2):  # the graph caches its view, and the kernel refuses it on every call
            with pytest.raises(ValueError, match="self-loops"):
                solve_with_list(graph, full_list(1))
        # validate reads the view the refused calls built and cached: sinks
        # first, then the self-loops in edge-list order.
        view = graph.__dict__["_adjacency"]
        assert validate(graph) == (
            "node 1: sink node (out-degree 0)",
            "edge 0 (2->2): self-loop (normalize first)",
            "edge 2 (0->0): self-loop (normalize first)",
        )
        assert graph._adjacency is view

    @pytest.mark.parametrize("owners", [(ALICE, BOB), (BOB, ALICE)])
    def test_sinks_rejected(self, owners):
        graph = GameGraph(owners, ((1, 0, -1),))
        for _ in range(2):  # the graph caches its view, and the kernel refuses it on every call
            with pytest.raises(ValueError, match="out-edge"):
                solve_with_list(graph, full_list(2))

    def test_weights_act_as_the_edge_weights(self):
        # Calls on one graph share its cached per-graph constants, so each
        # must equal the call on a fresh graph that carries its weights, and
        # leave the constants as it found them: no state from an earlier
        # call's weights may leak into the next.
        for seed in range(60):
            graph = small_random(seed)
            cached = copy.deepcopy(graph._adjacency)
            shifted = [3 * w - seed % 7 for _, _, w in graph.edges]
            negated = [-w for _, _, w in graph.edges]
            lst = full_list(graph.n * max(map(abs, shifted + negated)))
            for weights in (shifted, None, negated, shifted):
                own = [w for _, _, w in graph.edges] if weights is None else weights
                fresh = GameGraph(
                    graph.owners, tuple((s, d, w) for (s, d, _), w in zip(graph.edges, own))
                )
                assert solve_with_list(graph, lst, weights) == solve_with_list(fresh, lst)
            assert graph._adjacency == cached

    def test_weights_need_one_per_edge(self, fig1):
        with pytest.raises(ValueError, match="5 weights for 6 edges"):
            solve_with_list(fig1, full_list(24), [0] * 5)

    def test_steps_account_for_list_positions(self, fig1):
        result = solve_with_list(fig1, full_list(24))
        # with a unit-spaced list, positions advanced equal the energy climbed
        assert result.steps == sum(result.energies)
        assert result.edge_work > 0

    def test_steps_account_for_list_positions_on_coarse_lists(self):
        # Every node starts at index 0 and only moves up, so the positions
        # advanced add up to the final positions.
        cases = [(small_random(seed), 1 + seed % 4) for seed in range(40)]
        cases = [(g, multiples_list(b, g.default_bound())) for g, b in cases]
        cases += [_windowed(seed) for seed in range(25)]
        for graph, lst in cases:
            result = solve_with_list(graph, lst)
            assert result.steps == sum(_position(lst, x) for x in result.energies)


class TestDeficitBound:
    """On a unit range from 0 a target above D, the largest deficit of a
    simple path, goes to INF: no finite energy exceeds D, so only the
    climbing of losing nodes is cut short."""

    def test_energies_and_steps_equal_an_uncapped_run(self):
        # The cap's own savings are read off the lift-free reference, capped
        # and not: set lifts may cost a few more updates than either.
        runs = saved = 0
        graphs = [small_random(seed) for seed in range(500)]
        graphs += [small_random(seed, max_n=12, max_w=1000, max_out=4) for seed in range(500)]
        for graph in graphs:
            for lst in _list_shapes(graph):
                uncapped = reference_solve_with_list(graph, lst, capped=False)
                assert _outcome(solve_with_list(graph, lst)) == _outcome(uncapped)
                capped = reference_solve_with_list(graph, lst)
                assert capped.total_updates <= uncapped.total_updates
                runs += 1
                saved += capped.edge_work < uncapped.edge_work
        # the cap cuts the edge work of 506 runs, and changes no result
        assert (runs, saved) == (6000, 506)

    @pytest.mark.parametrize("bound", [15, 8])
    def test_energy_at_the_bound_stays_finite(self, bound):
        # Deficits 5, 3 and 0 give D = 8, which is e* at node 0: the path
        # 0 -> 1 -> 2 dips by 5 and then by 3 more.
        graph = GameGraph((ALICE, BOB, ALICE), ((0, 1, -5), (1, 2, -3), (2, 1, 3)))
        assert solve_with_list(graph, full_list(bound)).energies == (8, 3, 0)
        # a top below D keeps its own cap: 8 passes 7
        assert solve_with_list(graph, full_list(7)).energies == (INF, 3, 0)

    def test_losing_cycle_stops_at_the_bound(self):
        # Bob's unused heavy edge lifts n*W to 2000, but D = 1: both nodes go
        # infinite on their second update, not after climbing to 2000.
        graph = GameGraph((ALICE, BOB), ((0, 1, -1), (1, 0, -1), (1, 0, 1000)))
        result = solve_with_list(graph, full_list(graph.default_bound()))
        assert result.energies == (INF, INF)
        assert result.total_updates <= 4
        assert reference_solve_with_list(graph, full_list(2000), capped=False).total_updates == 2002

    def test_empty_game(self):
        result = solve_with_list(GameGraph((), ()), full_list(0))
        assert result == ViterResult((), (), 0, 0)

    def test_coarse_and_tuple_lists_keep_their_top(self):
        # A coarse list rounds up past e*, so its values may pass D, and a
        # tuple is never taken for a unit range: no cap at D, so each run
        # equals the uncapped reference, and a losing cycle climbs to the
        # top of the list.
        graph = GameGraph((ALICE, BOB, ALICE), ((0, 1, -5), (1, 2, -3), (2, 1, 3)))
        assert solve_with_list(graph, multiples_list(3, 15)).energies == (9, 3, 0)
        assert solve_with_list(graph, AdmissibleList((0, 3, 8, 9, 15))).energies == (8, 3, 0)
        losing = GameGraph((ALICE, BOB), ((0, 1, -1), (1, 0, -1), (1, 0, 1000)))
        for game in (graph, losing):
            for lst in (multiples_list(3, 15), AdmissibleList(tuple(range(16))), AdmissibleList((0, 3, 8, 9, 15))):
                uncapped = reference_solve_with_list(game, lst, capped=False)
                assert solve_with_list(game, lst) == uncapped
        assert solve_with_list(losing, AdmissibleList(tuple(range(16)))).total_updates == 17


class TestReferenceKernel:
    """The kernel equals the reference kernel above (:func:`matches_reference`):
    on every output and counter, energies, per-node updates, list steps and
    edge work, except that set lifts change updates and edge work on unit
    ranges."""

    def test_small_random_on_every_list_shape(self):
        for seed in range(120):
            graph = small_random(seed)
            for lst in _list_shapes(graph):
                matches_reference(graph, lst)

    def test_twelve_node_games_on_every_list_shape(self):
        # Up to 12 nodes of out-degree up to 4 and weights up to 1000: longer
        # update chains than the 6-node games.
        capped_drops = 0
        for seed in range(300):
            graph = small_random(seed, max_n=12, max_w=1000, max_out=4)
            results = [matches_reference(graph, lst)[0] for lst in _list_shapes(graph)]
            full, capped = results[0], results[-1]
            capped_drops += capped.energies.count(INF) > full.energies.count(INF)
        # the capped list makes a node infinite wherever some finite energy
        # is positive
        assert capped_drops == 149

    def test_bob_and_alice_heavy_games_on_every_list_shape(self):
        # One owner holds about 90% of the nodes: Bob's kept max (I3) then
        # carries most updates, or hardly any.
        bob_updates = {10: 0, 90: 0}
        all_updates = {10: 0, 90: 0}
        for seed in range(100):
            for alice_pct in (10, 90):
                graph = random_game(GenSpec("random", 12, 30, 100, seed, alice_pct=alice_pct))
                for lst in _list_shapes(graph):
                    result, _ = matches_reference(graph, lst)
                    bob_updates[alice_pct] += sum(
                        count for v, count in enumerate(result.updates) if graph.owners[v] == BOB
                    )
                    all_updates[alice_pct] += result.total_updates
        # Bob's nodes take 88% of the updates in the Bob-heavy games, 24% in
        # the Alice-heavy ones
        assert (bob_updates, all_updates) == ({10: 34172, 90: 1253}, {10: 38640, 90: 5269})

    def test_win_everywhere_outputs_on_every_list_shape(self):
        # An input edge that enters the start node gives its Bob relay two
        # parallel edges into the start, free and generous: a rise of the
        # start must raise his kept max through both.
        for seed in range(40):
            source = small_random(seed)
            start = source.edges[seed % source.m][1]
            graph, _, _ = to_win_everywhere(source, start)
            into_start = [src for src, dst, _ in graph.edges if dst == start and graph.owners[src] == BOB]
            assert len(into_start) > len(set(into_start))
            for lst in _list_shapes(graph):
                matches_reference(graph, lst)

    def test_window_lists(self):
        for seed in range(25):
            graph, lst = _windowed(seed)
            assert solve_with_list(graph, lst) == reference_solve_with_list(graph, lst)

    def test_weights_override(self):
        even_updates = 0
        for seed in range(60):
            graph = small_random(seed)
            weights = [3 * w - seed % 7 for _, _, w in graph.edges]
            bound = graph.n * max(map(abs, weights))
            even = [2 * w for w in weights]
            # two ranges, rounded arithmetically, and a coarse tuple, rounded
            # by bisection; then even weights on the multiples of 2, where
            # every target is a member and Alice's count is her ties
            for shape, override in (
                (full_list(bound), weights),
                (multiples_list(2, bound), weights),
                (AdmissibleList(tuple(range(0, 400, 7))), weights),
                (multiples_list(2, 2 * bound), even),
            ):
                _, expected = matches_reference(graph, shape, override)
            even_updates += expected.total_updates
        assert even_updates

    def test_penalty_hubs(self):
        for seed in (1, 2):
            graph = high_penalty_family(40, 1024, seed)
            for lst in (_universal(graph), multiples_list(64, graph.default_bound())):
                result, _ = matches_reference(graph, lst)
                assert result.total_updates > 0


class TestSetLift:
    """On a unit range the kernel raises each component of the tight
    attractor of its queued nodes by the component's least escape at once
    (see the module docstring): the energies stay those of the lift-free
    reference, and only updates and edge work move."""

    def test_bob_dominion_goes_infinite_at_once(self):
        # Bob's cycle 0 -> ... -> 4 totals -1, so he wins on it.  Alice's 5
        # can enter it or take her zero cycle 5 <-> 6 through a dip of 900,
        # which puts D at 901: without lifts the cycle climbs to D by 1 per
        # pass, and Alice's 5 climbs with it until her escape holds.
        owners = (BOB,) * 5 + (ALICE, ALICE)
        edges = tuple((i, (i + 1) % 5, -1 if i == 0 else 0) for i in range(5))
        graph = GameGraph(owners, edges + ((5, 0, 0), (5, 6, -900), (6, 5, 900)))
        lst = _universal(graph)
        result, reference = matches_reference(graph, lst)
        assert result.energies == (INF,) * 5 + (900, 0)
        assert reference.total_updates >= 1000 and result.total_updates <= 50

    def test_differential_with_the_reference_and_the_oracle(self):
        # Every run's energies equal the reference's; where a lift changed
        # the counters and n <= 8, they equal the oracle's too.
        graphs = [small_random(seed) for seed in range(2000)]
        graphs += [small_random(seed, max_n=12, max_w=1000, max_out=4) for seed in range(500)]
        lifted = 0
        for graph in graphs:
            result, reference = matches_reference(graph, _universal(graph))
            if result.updates != reference.updates:
                lifted += 1
                if graph.n <= 8:
                    assert result.energies == brute_force_energies(graph)
        # lifts change the counters of 545 of the 2,500 runs
        assert lifted == 545
