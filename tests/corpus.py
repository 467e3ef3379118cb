"""Shared test corpus helpers: small named graphs, isomorphism-free sweeps and
mixed-width CNF formulas."""

import itertools

from gapred import CnfFormula, Graph


def mixed_cnf(rng, n, m):
    """m clauses of 1 to min(3, n) distinct variables with random signs, drawn from rng."""
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(3, n))
        clauses.append(tuple(v * rng.choice((-1, 1)) for v in rng.sample(range(1, n + 1), width)))
    return CnfFormula(n, tuple(clauses))


def complete_graph(n):
    return Graph(n, {(u, v) for u in range(n) for v in range(u + 1, n)})


def path_graph(n):
    return Graph(n, {(i, i + 1) for i in range(n - 1)})


def cycle_graph(n):
    return Graph(n, {(i, (i + 1) % n) for i in range(n)})


def empty_graph(n):
    return Graph(n, frozenset())


def complete_bipartite(a, b):
    edges = {(u, a + v) for u in range(a) for v in range(b)}
    sides = (frozenset(range(a)), frozenset(range(a, a + b)))
    return Graph(a + b, edges, bipartition=sides)


def petersen_graph():
    outer = {(i, (i + 1) % 5) for i in range(5)}
    spokes = {(i, i + 5) for i in range(5)}
    inner = {(5 + i, 5 + (i + 2) % 5) for i in range(5)}
    return Graph(10, outer | spokes | inner)


def all_labeled_graphs(n):
    """Every labeled graph on exactly n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for sel in range(1 << len(pairs)):
        yield Graph(n, frozenset(pairs[t] for t in range(len(pairs)) if sel >> t & 1))


def nonisomorphic_graphs(n):
    """One representative per isomorphism class of graphs on exactly n vertices.

    Orbits are computed by explicit permutation action on edge sets, which is
    cheap up to n = 6. Useful for exhaustive checks of isomorphism-invariant
    predicates.
    """
    pairs = list(itertools.combinations(range(n), 2))
    pair_index = {p: t for t, p in enumerate(pairs)}
    perms = []
    for perm in itertools.permutations(range(n)):
        table = []
        for u, v in pairs:
            a, b = perm[u], perm[v]
            table.append(pair_index[(a, b) if a < b else (b, a)])
        perms.append(table)
    seen = [False] * (1 << len(pairs))
    out = []
    for sel in range(1 << len(pairs)):
        if seen[sel]:
            continue
        orbit = set()
        for table in perms:
            img = 0
            rest = sel
            while rest:
                low = rest & -rest
                rest ^= low
                img |= 1 << table[low.bit_length() - 1]
            orbit.add(img)
        for img in orbit:
            seen[img] = True
        out.append(Graph(n, frozenset(pairs[t] for t in range(len(pairs)) if sel >> t & 1)))
    return out


def nonisomorphic_graphs_up_to(nmax, nmin=0):
    out = []
    for n in range(nmin, nmax + 1):
        out.extend(nonisomorphic_graphs(n))
    return out
