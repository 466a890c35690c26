"""The four workloads: seeded instance pools, the timed call, and the checks.

Each workload builds a pool of instances from the workload seed (``setup``),
turns one instance into the argument of the timed call outside the clock
(``prepare``: a fresh ``GameGraph``, so no cached adjacency carries over from
an earlier solve), makes the timed call (``run``) and reads the energies from
its output.  ``check`` compares one instance's energies with a reference that
``exact.solve`` did not produce.  ``reference_key`` names the instance for the
on-disk reference cache; ``None`` means the reference is too cheap to cache.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

from energygames import admissible, cli, exact, fileio, generators, oracle, reductions
from energygames import value_iteration
from energygames.core import INF, GameGraph


def instance_seeds(seed: int, count: int) -> list[int]:
    """``count`` instance seeds drawn from the workload seed."""
    rng = generators.SplitMix64(seed)
    return [rng.next_u64() >> 1 for _ in range(count)]


def graph_key(graph: GameGraph) -> str:
    return hashlib.sha256(repr((graph.owners, graph.edges)).encode()).hexdigest()


def full_range(graph: GameGraph, admissible_list=None):
    """The paper's baseline: value iteration over every value 0..n*W."""
    if admissible_list is None:
        admissible_list = admissible.full_list(graph.default_bound())
    return value_iteration.solve_with_list(graph, admissible_list)


@dataclass
class Instance:
    graph: GameGraph  # the game the timed call solves, or its reduction input
    label: str
    extra: object = None
    heavy: bool = True  # on the costly path the workload exists for


class Workload:
    """Defaults for a timed call that takes a game and returns an object
    with ``energies`` (``SolveReport``, ``ViterResult``)."""

    name = ""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def prepare(self, inst: Instance):
        return GameGraph(inst.graph.owners, inst.graph.edges)

    def energies(self, inst: Instance, out):
        return out.energies

    def reference_key(self, inst: Instance) -> str | None:
        return None

    def check(self, inst: Instance, energies, reference) -> bool:
        return tuple(energies) == tuple(reference)


class RandomCli(Workload):
    """Seeded random games solved in-process through ``energygames solve``."""

    name = "random-cli"
    nodes = 96
    count = 200
    # W=10^4 would add rare instances that reject ten or more guesses and
    # build 480k-value lists: one such instance in a pool raised peak RSS by
    # half, so peak RSS would depend on the seed more than on the code.
    weights = (10**2, 10**3)

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self._lists: dict[int, admissible.AdmissibleList] = {}

    def setup(self, seed: int) -> list[Instance]:
        pool = []
        for i, s in enumerate(instance_seeds(seed, self.count)):
            w = self.weights[i % len(self.weights)]
            spec = generators.GenSpec("random", self.nodes, 4 * self.nodes, w, s)
            graph = generators.random_game(spec)
            game = self.workdir / f"game-{i}.txt"
            game.write_text(fileio.emit_game(graph), encoding="utf-8")
            pool.append(Instance(graph, f"random n={self.nodes} W={w} seed={s}", game))
        return pool

    def prepare(self, inst: Instance):
        game = inst.extra
        return ["solve", str(game), "--out", str(game.with_suffix(".out"))]

    def run(self, argv):
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"energygames solve exited {code}")
        return argv[3]

    def energies(self, inst: Instance, out):
        return fileio.parse_energies(Path(out).read_text(encoding="utf-8"), inst.graph.n)

    def reference_key(self, inst: Instance) -> str | None:
        return graph_key(inst.graph)

    def reference(self, inst: Instance):
        # One full list per weight cap, sized for the largest n*W of that cap:
        # any bound above the finite energies gives the same result, and
        # building such a list per instance would dominate the run.
        bound = self.nodes * next(w for w in self.weights if inst.graph.max_weight <= w)
        if bound not in self._lists:
            self._lists[bound] = admissible.full_list(bound)
        return full_range(inst.graph, self._lists[bound]).energies


def hub_energies(graph: GameGraph):
    """Closed form for ``high_penalty_family``: the hub (node 0) needs the
    least deficit of a positive-total branch, each branch node what is left
    after its edge back to the hub."""
    first = {dst: w for src, dst, w in graph.edges if src == 0}
    back = {src: w for src, dst, w in graph.edges if dst == 0}
    hub = min(max(0, -first[b]) for b in first if first[b] + back[b] > 0)
    return (hub,) + tuple(max(0, hub - back[b]) for b in range(1, graph.n))


class PenaltyHub(Workload):
    """Hub-and-branch games with thousands of branches, library ``exact.solve``.

    Big hubs, few of them: the solves' own memory is then about as large as
    the interpreter's and the pool's, so ``peak_rss_mb`` shows it."""

    name = "penalty-hub"
    branches = 2000
    count = 20
    weight = 2**16

    def setup(self, seed: int) -> list[Instance]:
        return [
            Instance(
                generators.high_penalty_family(self.branches, self.weight, s),
                f"hub branches={self.branches} W={self.weight} seed={s}",
            )
            for s in instance_seeds(seed, self.count)
        ]

    def run(self, graph):
        return exact.solve(graph)

    def reference(self, inst: Instance):
        return hub_energies(inst.graph)


def reduce_to_complete(graph: GameGraph, start: int) -> GameGraph:
    reduced, _, _ = reductions.to_win_everywhere(graph, start)
    split, _ = reductions.to_bipartite(reduced)
    completed, _ = reductions.to_complete_bipartite(split)
    return completed


class ReductionBatch(Workload):
    """Distinct complete-bipartite reduction outputs of seeded 2-node games.

    Outputs whose input Alice wins accept the first penalty guess in about a
    millisecond; outputs Bob wins everywhere (the heavy ones) reject ten or
    eleven guesses and take about a second.  The pool holds a fixed number of
    each kind, so its total work does not depend on how many slow inputs a
    seed happens to draw.
    """

    name = "reduction-batch"
    caps = (1, 2)  # input weight caps, as in acceptance criterion 7(c)
    draws = 600  # enough for 100 distinct fast outputs; fixes the set-up work
    fast = 100
    slow = 6
    slow_cap = 1  # slow outputs of W=2 inputs take twice as long

    def setup(self, seed: int) -> list[Instance]:
        rng = generators.SplitMix64(seed)
        seen: set[GameGraph] = set()
        fast: list[Instance] = []
        slow: list[Instance] = []
        draws = 0
        while draws < self.draws or len(fast) < self.fast or len(slow) < self.slow:
            draws += 1
            cap = self.caps[rng.randint(0, len(self.caps) - 1)]
            s = rng.next_u64() >> 1
            graph = generators.random_game(generators.GenSpec("random", 2, 2, cap, s))
            start = rng.randint(0, 1)
            completed = reduce_to_complete(graph, start)
            if completed in seen:
                continue
            seen.add(completed)
            alice_wins = oracle.brute_force_energies(graph)[start] != INF
            inst = Instance(graph, f"reduction W={cap} seed={s} start={start}", (start, alice_wins), not alice_wins)
            if alice_wins:
                fast.append(inst)
            elif cap == graph.max_weight == self.slow_cap:
                slow.append(inst)
        return fast[: self.fast] + slow[: self.slow]

    def prepare(self, inst: Instance):
        return super().prepare(inst), inst.extra[0]

    def run(self, arg):
        graph, start = arg
        return exact.solve(reduce_to_complete(graph, start))

    def reference_key(self, inst: Instance) -> str | None:
        return graph_key(inst.graph) + f"-{inst.extra[0]}"

    def reference(self, inst: Instance):
        return full_range(reduce_to_complete(inst.graph, inst.extra[0])).energies

    def check(self, inst: Instance, energies, reference) -> bool:
        alice_wins = inst.extra[1]
        return super().check(inst, energies, reference) and all(
            (e != INF) == alice_wins for e in energies
        )


class FullrangeVi(Workload):
    """The paper's baseline, value iteration over the full list 0..n*W.  The
    hubs, whose lists hold about a million values each, are the heavy ones."""

    name = "fullrange-vi"
    hub_branches = 250
    hub_weight = 2**12
    hubs = 12
    nodes = 64
    count = 288
    weight = 10**2

    def setup(self, seed: int) -> list[Instance]:
        seeds = instance_seeds(seed, self.hubs + self.count)
        pool = [
            Instance(
                generators.high_penalty_family(self.hub_branches, self.hub_weight, s),
                f"hub branches={self.hub_branches} W={self.hub_weight} seed={s}",
            )
            for s in seeds[: self.hubs]
        ]
        for s in seeds[self.hubs :]:
            spec = generators.GenSpec("random", self.nodes, 4 * self.nodes, self.weight, s)
            label = f"random n={self.nodes} W={self.weight} seed={s}"
            pool.append(Instance(generators.random_game(spec), label, heavy=False))
        return pool

    def run(self, graph):
        return full_range(graph)

    def reference_key(self, inst: Instance) -> str | None:
        return graph_key(inst.graph)

    def reference(self, inst: Instance):
        return exact.solve(inst.graph).energies


WORKLOADS = {w.name: w for w in (RandomCli, PenaltyHub, ReductionBatch, FullrangeVi)}
