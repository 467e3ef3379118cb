"""The oracles' explicit-stack searches against the recursive searches they replaced.

Each search below is the recursive version the package ran before its
searches became loops: it calls itself once per level, so it cannot go past
Python's recursion limit, but it is the referee for what a loop must do. A
loop must give the same value and tick the meter the same number of times on
every case, so it visits the same nodes in the same order: a loop that takes
siblings in another order bounds them against another best and counts
different nodes. The package side is run through its public oracles, with
each `_Meter` they make recorded.
"""

import contextlib
import itertools
import random

import pytest

from gapred import (
    Graph,
    biclique_gadget,
    cnf_to_labelcover,
    fglss,
    gen_planted_cnf,
    minlab_instance,
    random_graph,
)
from gapred import oracles
from gapred.instances import SetSystem, bits_of

from corpus import complete_bipartite, random_labelcover


# ---------------------------------------------------------------------------
# The recursive searches


def rec_clique_number(adj, n, meter, best=0):
    if n == 0:
        return 0
    non_adj = [~mask for mask in adj]

    def expand(candidates, size):
        nonlocal best
        meter.tick()
        if candidates == 0:
            if size > best:
                best = size
            return
        order, bounds = [], []
        floor = best - size
        uncolored = candidates
        color = 0
        while uncolored:
            color += 1
            cls = uncolored
            while cls:
                low = cls & -cls
                v = low.bit_length() - 1
                uncolored ^= low
                cls = cls & non_adj[v] ^ low
                if color > floor:
                    order.append(v)
                    bounds.append(color)
        rest = candidates
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            expand(rest & adj[v], size + 1)
            rest &= ~(1 << v)

    expand((1 << n) - 1, 0)
    return best


def rec_biclique(graph, meter):
    adj = graph.adjacency
    if not any(adj):
        return 0
    side = oracles._two_coloring_side(adj)
    pool = list(range(graph.num_vertices) if side is None else bits_of(side))
    best = 0

    def grow(start, chosen, size, common):
        nonlocal best
        for j in range(start, len(pool)):
            if size + len(pool) - j <= best:
                return
            v = pool[j]
            meter.tick()
            s = chosen | 1 << v
            c = common & adj[v]
            free = (c & ~s).bit_count()
            if free <= best:
                continue
            best = max(best, min(size + 1, free))
            grow(j + 1, s, size + 1, c)

    grow(0, 0, 0, -1)
    return best


def rec_min_cover(masks, n, meter):
    if n == 0:
        return 0
    full = (1 << n) - 1
    union = 0
    for m in masks:
        union |= m
    if union != full:
        return None
    uncovered = full
    greedy = 0
    while uncovered:
        bestmask = max(masks, key=lambda m: (m & uncovered).bit_count())
        uncovered &= ~bestmask
        greedy += 1
    max_size = max(m.bit_count() for m in masks)
    if -(-n // max_size) >= greedy:
        meter.tick()
        return greedy
    best = greedy
    covers_elem = [[m for m in masks if m >> e & 1] for e in range(n)]

    def search(uncov, used):
        nonlocal best
        meter.tick()
        if not uncov:
            if used < best:
                best = used
            return
        if used + -(-uncov.bit_count() // max_size) >= best:
            return
        elem = min(bits_of(uncov), key=lambda e: len(covers_elem[e]))
        for m in sorted(covers_elem[elem], key=lambda m: -(m & uncov).bit_count()):
            search(uncov & ~m, used + 1)

    search(full, 0)
    return best


def rec_longest_induced_path(graph, meter, stop_at):
    n = graph.num_vertices
    if n == 0:
        return 0
    adj = graph.adjacency
    full = (1 << n) - 1
    best = 1

    def grow(last, path, blocked, length):
        nonlocal best
        meter.tick()
        if length > best:
            best = length
        if stop_at is not None and best >= stop_at:
            return True
        new_blocked = blocked | adj[last]
        reach = length + 1 + (full & ~path & ~new_blocked).bit_count()
        if reach <= (best if stop_at is None else stop_at - 1):
            return False
        cands = adj[last] & ~path & ~blocked
        while cands:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            if grow(v, path | low, new_blocked, length + 1):
                return True
        return False

    for start in range(n):
        if grow(start, 1 << start, 0, 1):
            break
    return best


def rec_min_lab(lc, meter):
    entries = oracles._label_rows(lc)
    for u in range(lc.left_size):
        if not (entries[u][1] if u in entries else lc.admissible[u]):
            return None
    live = [v for v in range(lc.right_size) if lc.right_neighbors[v]]
    usable = {}
    for v in live:
        labels = 0
        for u in lc.right_neighbors[v]:
            for a, mask in lc.betas[u, v].items():
                if a in lc.admissible[u]:
                    labels |= mask
        usable[v] = list(bits_of(labels))

    def feasible(choice):
        return all(
            any(all(mask & choice[v] for v, mask in zip(nbrs, row)) for row in rows)
            for nbrs, rows in entries.values()
        )

    caps = [len(usable[v]) for v in live]

    def size_vectors(total, idx):
        if idx == len(live):
            if total == 0:
                yield ()
            return
        remaining_min = len(live) - idx - 1
        remaining_max = sum(caps[idx + 1:])
        for size in range(1, caps[idx] + 1):
            rest = total - size
            if remaining_min <= rest <= remaining_max:
                for tail in size_vectors(rest, idx + 1):
                    yield (size,) + tail

    if not live:
        return 0
    for total in range(len(live), sum(caps) + 1):
        for sizes in size_vectors(total, 0):
            pools = [itertools.combinations(usable[v], size) for v, size in zip(live, sizes)]
            for picks in itertools.product(*pools):
                meter.tick()
                if feasible({v: sum(1 << b for b in labels) for v, labels in zip(live, picks)}):
                    return total
    raise AssertionError("full label sets were feasible but enumeration missed them")


# The package's oracles, each with the recursive search in place of its loop.


def ref_clique(graph, meter, witness=None):
    adj = graph.adjacency
    best = 0 if witness is None else oracles._clique_size(adj, witness)
    return rec_clique_number(adj, graph.num_vertices, meter, best)


def ref_independent_set(graph, meter):
    adj = graph.adjacency
    order = sorted(range(graph.num_vertices), key=lambda v: adj[v].bit_count())
    complement = graph.complement().induced(order)
    return rec_clique_number(complement.adjacency, complement.num_vertices, meter)


def ref_induced_matching(graph, meter):
    adj = graph.adjacency
    edges = oracles._kept_edges(adj)
    if not edges:
        return 0
    counts = [t.bit_count() for t in oracles._touched(adj, edges)]
    edges = [edges[i] for i in sorted(range(len(edges)), key=counts.__getitem__)]
    full = (1 << len(edges)) - 1
    compat = [full & ~t for t in oracles._touched(adj, edges)]
    return rec_clique_number(compat, len(edges), meter)


REFEREES = {
    "clique": ref_clique,
    "independent_set": ref_independent_set,
    "induced_matching": ref_induced_matching,
    "biclique": rec_biclique,
    "set_cover": lambda system, meter: rec_min_cover(system.masks, system.universe_size, meter),
    "dom_set": lambda graph, meter: rec_min_cover(
        [mask | 1 << v for v, mask in enumerate(graph.adjacency)], graph.num_vertices, meter),
    "induced_path": lambda graph, meter: rec_longest_induced_path(graph, meter, None),
    "induced_path_at_least": lambda graph, k, meter: (
        k <= 0 or rec_longest_induced_path(graph, meter, k) >= k),
    "min_lab": rec_min_lab,
}


# ---------------------------------------------------------------------------
# Running both sides


@contextlib.contextmanager
def _recorded_meters():
    """Record every `_Meter` the oracles make while the block runs."""
    made = []

    class Recorded(oracles._Meter):
        __slots__ = ()

        def __init__(self, budget):
            super().__init__(budget)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_Meter", Recorded)
        yield made


def loop_and_referee(name, instance, *args, **kw):
    """(value, nodes) of the package's oracle `name` and of its referee."""
    with _recorded_meters() as made:
        got = getattr(oracles, name)(instance, *args, **kw)
    assert len(made) == 1
    meter = oracles._Meter(None)
    want = REFEREES[name](instance, *args, meter, **kw)
    return (got, made[0].nodes), (want, meter.nodes)


def _graphs(rng, count, sizes, probs):
    return [random_graph(rng.choice(sizes), rng.choice(probs), rng.randrange(10**9))
            for _ in range(count)]


def _set_systems(rng, count):
    """Random set systems with nested and repeated sets, so that the cover
    search branches past its root bound."""
    systems = []
    for _ in range(count):
        n = rng.randint(6, 16)
        masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(4, 12))]
        masks += [m & rng.getrandbits(n) for m in masks[:3]] + [(1 << n) - 1 & ~rng.getrandbits(n)]
        systems.append(SetSystem(n, [(i + 1, bits_of(m)) for i, m in enumerate(masks)]))
    return systems


def _cases():
    rng = random.Random(33)
    dense = _graphs(rng, 60, (30, 45, 60), (0.3, 0.5, 0.7))
    sparse = _graphs(rng, 50, (14, 18, 22), (0.15, 0.25, 0.35))
    for g in dense + sparse:
        yield "clique", g
        yield "independent_set", g
    for g in sparse:
        yield "induced_matching", g
        yield "biclique", g
        yield "biclique", biclique_gadget(g)
        yield "dom_set", g
        yield "induced_path", g
        for k in (3, 5, 8):
            yield "induced_path_at_least", g, k
    for g in dense[:30]:
        # A maximal clique grown greedily from a random vertex seeds the search.
        witness = [rng.randrange(g.num_vertices)]
        for v in range(g.num_vertices):
            if all(g.has_edge(v, w) for w in witness):
                witness.append(v)
        yield "clique", g, {"witness": witness}
        yield "clique", g, {"witness": witness[:-1]}
    for system in _set_systems(rng, 100):
        yield "set_cover", system
    for seed in range(12):
        lc = cnf_to_labelcover(gen_planted_cnf(3 + seed % 3, 3 + seed % 4, seed))
        yield "min_lab", lc
        yield "clique", fglss(lc)
        yield "min_lab", minlab_instance(lc, 1, 2, 0.5)
    for seed in range(30):
        yield "min_lab", random_labelcover(3, 4, 3, 3, 0.8, seed, admissible_density=0.7)


CASES = list(_cases())


def test_the_cases_reach_every_search_and_branch():
    assert {case[0] for case in CASES} == set(REFEREES)
    assert len(CASES) >= 800


@pytest.mark.parametrize("chunk", range(8))
def test_loops_match_the_recursive_searches_in_value_and_nodes(chunk):
    branched = 0
    for name, instance, *rest in CASES[chunk::8]:
        kw = rest.pop() if rest and isinstance(rest[-1], dict) else {}
        got, want = loop_and_referee(name, instance, *rest, **kw)
        assert got == want, (name, instance, rest, kw)
        branched += got[1] > 1
    assert branched


def test_a_stop_at_exit_matches_at_the_first_long_enough_path():
    # C_12 has induced paths of 11 vertices; asking for 4 stops on the first
    # path of 4, long before the search would end.
    cycle = Graph(12, frozenset((i, (i + 1) % 12) for i in range(12)))
    for k in range(1, 13):
        got, want = loop_and_referee("induced_path_at_least", cycle, k)
        assert got == want and got[0] == (k <= 11)
    full = loop_and_referee("induced_path", cycle)[0][1]
    assert loop_and_referee("induced_path_at_least", cycle, 4)[0][1] < full


def test_a_witness_seeds_the_clique_search_as_before():
    # A clique on vertices 0..11 planted in G(50, 0.3), whose own cliques are
    # about half as large.
    edges = set(random_graph(50, 0.3, 7).edges) | set(itertools.combinations(range(12), 2))
    g = Graph(50, frozenset(edges))
    plain = loop_and_referee("clique", g)
    assert plain[0] == plain[1] and plain[0][0] == 12
    for witness in ([0], list(range(6)), list(range(12))):
        seeded = loop_and_referee("clique", g, witness=witness)
        assert seeded[0] == seeded[1] and seeded[0][0] == 12
    assert seeded[0][1] < plain[0][1]


def test_biclique_matches_on_a_complete_bipartite_graph():
    got, want = loop_and_referee("biclique", complete_bipartite(30, 30))
    assert got == want and got[0] == 30
