"""Shared test corpus helpers: small named graphs, isomorphism-free sweeps,
mixed-width CNF formulas, seeded random label covers, pair-derived label-cover
masks, and a CLI run in a child process of bounded memory."""

import itertools
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import gapred
from gapred import CnfFormula, Graph, LabelCover, ValidationError


def run_in_child(argv, memory=2 << 30, timeout=60.0):
    """Run `python -m gapred *argv` in a child process whose address space is
    limited to `memory` bytes, and wait at most `timeout` seconds.

    The limit is set in the child alone, between its fork and its exec, so
    the test process keeps its own. Returns the CompletedProcess, with its
    stdout and stderr as text.
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    src = str(Path(gapred.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "gapred", *map(str, argv)], capture_output=True,
                          text=True, timeout=timeout, preexec_fn=limit,
                          env={**os.environ, "PYTHONPATH": path})


def mixed_cnf(rng, n, m):
    """m clauses of 1 to min(3, n) distinct variables with random signs, drawn from rng."""
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(3, n))
        clauses.append(tuple(v * rng.choice((-1, 1)) for v in rng.sample(range(1, n + 1), width)))
    return CnfFormula(n, tuple(clauses))


def random_labelcover(
    left_size: int,
    right_size: int,
    left_alphabet: int,
    right_alphabet: int,
    density: float = 1.0,
    seed=None,
    *,
    pair_density: float = 0.5,
    projection: bool = False,
    admissible_density: float | None = None,
    left_degrees: tuple[int, int] | None = None,
) -> LabelCover:
    """Random label cover: edges with probability `density`, uniform random relations.

    With `projection=True` each (edge, admissible alpha) gets exactly one beta,
    so the output always passes the projection check. `left_degrees=(lo, hi)`
    overrides `density` and gives each left vertex a uniform degree in that
    range. `admissible_density` draws random nonempty admissible sets.
    """
    if min(left_size, right_size) < 0 or min(left_alphabet, right_alphabet) < 1:
        raise ValidationError("all bounds must be >= 1 (sizes >= 0)")
    if not 0.0 <= density <= 1.0 or not 0.0 <= pair_density <= 1.0:
        raise ValidationError("densities must lie in [0,1]")
    rng = random.Random(seed)

    admissible = {}
    for u in range(left_size):
        if admissible_density is None:
            admissible[u] = frozenset(range(left_alphabet))
        else:
            chosen = [a for a in range(left_alphabet) if rng.random() < admissible_density]
            if not chosen:
                chosen = [rng.randrange(left_alphabet)]
            admissible[u] = frozenset(chosen)

    edge_list: list[tuple[int, int]] = []
    if left_degrees is not None:
        lo, hi = left_degrees
        hi = min(hi, right_size)
        lo = max(0, min(lo, hi))
        for u in range(left_size):
            deg = rng.randint(lo, hi)
            for v in sorted(rng.sample(range(right_size), deg)):
                edge_list.append((u, v))
    else:
        for u in range(left_size):
            for v in range(right_size):
                if rng.random() < density:
                    edge_list.append((u, v))

    relations = {}
    for u, v in edge_list:
        if projection:
            pairs = frozenset((a, rng.randrange(right_alphabet)) for a in sorted(admissible[u]))
        else:
            pairs = frozenset(
                (a, b)
                for a in range(left_alphabet)
                for b in range(right_alphabet)
                if rng.random() < pair_density
            )
        relations[(u, v)] = pairs
    return LabelCover(left_size, right_size, left_alphabet, right_alphabet, relations, admissible)


def pair_beta_masks(lc, u, v):
    """Per admissible alpha, the bitmask of right labels allowed on edge (u, v).

    Read from the edge's relation pairs, so referees built on it do not share
    LabelCover's stored masks.
    """
    allowed = lc.admissible[u]
    masks = {a: 0 for a in allowed}
    for a, b in lc.relations[(u, v)]:
        if a in allowed:
            masks[a] |= 1 << b
    return masks


def pair_cover_fields(rng, left, right, la, ra):
    """Relations, as pair sets, and admissible sets of a random label cover drawn from rng.

    Edges come at a random density and some hold no pair; pairs fall on every
    left label, admissible or not; admissible sets may be empty or full. So
    some left vertices are isolated and some can never be covered.
    """
    admissible = {u: frozenset(a for a in range(la) if rng.random() < 0.6) for u in range(left)}
    density = rng.random()
    relations = {}
    for u in range(left):
        for v in range(right):
            if rng.random() < density:
                pair_density = rng.choice((0.0, rng.random()))
                relations[(u, v)] = frozenset(
                    (a, b) for a in range(la) for b in range(ra) if rng.random() < pair_density
                )
    return relations, admissible


def complete_graph(n):
    return Graph(n, {(u, v) for u in range(n) for v in range(u + 1, n)})


def path_graph(n):
    return Graph(n, {(i, i + 1) for i in range(n - 1)})


def cycle_graph(n):
    return Graph(n, {(i, (i + 1) % n) for i in range(n)})


def empty_graph(n):
    return Graph(n, frozenset())


def complete_bipartite(a, b):
    return Graph(a + b, {(u, a + v) for u in range(a) for v in range(b)})


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
