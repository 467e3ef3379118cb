"""Differential tests: each solver against an independent brute-force referee.

The package's solvers use bit-sliced truth tables, branch and bound,
conflict-graph encodings, and pruned DFS; the referees here are the dumbest
possible subset enumerations. Agreement on random small instances certifies
both routes. The scalar loops that the bitset kernels replaced are kept below
as referees too, for instances large enough that the pruning and the chunking
of labeling spaces take effect.
"""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapred import (
    BudgetExceededError,
    Graph,
    LabelCover,
    biclique,
    biclique_gadget,
    clique,
    cnf_to_labelcover,
    count_ktt,
    densest_k,
    dom_set,
    emit_graph,
    gen_planted_cnf,
    im_gadget,
    independent_set,
    induced_matching,
    is_to_im_gadget,
    induced_path,
    induced_path_at_least,
    max_cov,
    max_induced_with_property,
    min_lab,
    minlab_to_setcov,
    parse_graph,
    parse_labelcover,
    random_graph,
    sat_max,
    sat_to_dks,
    set_cover,
    setcov_to_domset,
)
from gapred import oracles
from gapred.instances import SetSystem, bits_of

from corpus import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    mixed_cnf,
    nonisomorphic_graphs_up_to,
    pair_beta_masks,
    pair_cover_fields,
    path_graph,
    random_labelcover,
)


def _subsets(vertices):
    for size in range(len(vertices) + 1):
        yield from itertools.combinations(vertices, size)


def brute_clique(g):
    best = 0
    for sub in _subsets(range(g.num_vertices)):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
            best = max(best, len(sub))
    return best


def brute_biclique(g):
    n = g.num_vertices
    best = 0
    for k in range(1, n // 2 + 1):
        found = False
        for side_a in itertools.combinations(range(n), k):
            rest = [v for v in range(n) if v not in side_a]
            for side_b in itertools.combinations(rest, k):
                if all(g.has_edge(u, v) for u in side_a for v in side_b):
                    found = True
                    break
            if found:
                break
        if found:
            best = k
    return best


def brute_count_ktt(g, t):
    n = g.num_vertices
    count = 0
    for side_a in itertools.combinations(range(n), t):
        rest = [v for v in range(n) if v not in side_a]
        for side_b in itertools.combinations(rest, t):
            if side_b < side_a:
                continue  # count unordered pairs once
            if all(g.has_edge(u, v) for u in side_a for v in side_b):
                count += 1
    return count


def brute_induced_matching(g):
    best = 0
    for sub in _subsets(range(g.num_vertices)):
        if sub and all(
            sum(1 for u in sub if u != v and g.has_edge(u, v)) == 1 for v in sub
        ):
            best = max(best, len(sub) // 2)
    return best


def brute_induced_path(g):
    best = 0
    for sub in _subsets(range(g.num_vertices)):
        if not sub:
            continue
        degs = [sum(1 for u in sub if u != v and g.has_edge(u, v)) for v in sub]
        edges = sum(degs) // 2
        if edges != len(sub) - 1 or any(d > 2 for d in degs):
            continue
        # Connected + tree + max degree 2 == path.
        seen = {sub[0]}
        frontier = [sub[0]]
        while frontier:
            v = frontier.pop()
            for u in sub:
                if u not in seen and g.has_edge(u, v):
                    seen.add(u)
                    frontier.append(u)
        if len(seen) == len(sub):
            best = max(best, len(sub))
    return best


def brute_set_cover(system):
    n = system.universe_size
    full = (1 << n) - 1
    masks = list(system.masks)
    best = None
    for chosen in range(1 << len(masks)):
        union = 0
        for i in bits_of(chosen):
            union |= masks[i]
        if union == full:
            size = chosen.bit_count()
            if best is None or size < best:
                best = size
    return best


def brute_dom_set(g):
    n = g.num_vertices
    closed = [g.adjacency[v] | (1 << v) for v in range(n)]
    best = n
    for chosen in range(1 << n):
        union = 0
        for v in bits_of(chosen):
            union |= closed[v]
        if union == (1 << n) - 1:
            best = min(best, chosen.bit_count())
    return best


def brute_densest_k(g, k):
    best = Fraction(0)
    for sub in itertools.combinations(range(g.num_vertices), k):
        edges = sum(1 for u, v in itertools.combinations(sub, 2) if g.has_edge(u, v))
        best = max(best, Fraction(edges, math.comb(k, 2)))
    return best


def brute_max_cov(lc):
    best = 0
    left_choices = [sorted(lc.admissible[u]) or [None] for u in range(lc.left_size)]
    for sigma_u in itertools.product(*left_choices):
        for sigma_v in itertools.product(range(lc.right_alphabet), repeat=lc.right_size):
            covered = 0
            for u in range(lc.left_size):
                if sigma_u[u] is None:
                    continue
                if all(
                    (sigma_u[u], sigma_v[v]) in lc.relations[(u, v)]
                    for v in lc.left_neighbors[u]
                ):
                    covered += 1
            best = max(best, covered)
    return best


def brute_min_lab(lc):
    label_sets = list(_subsets(range(lc.right_alphabet)))
    left_choices = [sorted(lc.admissible[u]) or [None] for u in range(lc.left_size)]
    best = None
    for assignment in itertools.product(label_sets, repeat=lc.right_size):
        cost = sum(len(s) for s in assignment)
        if best is not None and cost >= best:
            continue
        for sigma_u in itertools.product(*left_choices):
            ok = True
            for u in range(lc.left_size):
                if sigma_u[u] is None:
                    ok = False
                    break
                for v in lc.left_neighbors[u]:
                    if not any((sigma_u[u], b) in lc.relations[(u, v)] for b in assignment[v]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                best = cost
                break
    return best


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_clique_matches_brute(seed):
    g = random_graph(7, 0.5, seed)
    assert clique(g) == brute_clique(g)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_biclique_matches_brute(seed):
    g = random_graph(6, 0.5, seed)
    assert biclique(g) == brute_biclique(g)


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_biclique_bipartition_branch_matches_general(seed):
    # The doubled graph is 2-colorable, so S ranges over one class; with a
    # disjoint triangle it is not, and S ranges over every vertex.
    g = random_graph(8, 0.4, seed)
    doubled = Graph(16, {(u, 8 + v) for u in range(8) for v in range(8)
                         if u == v or g.has_edge(u, v)})
    assert oracles._two_coloring_side(doubled.adjacency) == 0xFF
    assert biclique(doubled) == biclique(with_triangle(doubled))


def with_triangle(g):
    """g plus a disjoint triangle, which leaves it no 2-coloring."""
    n = g.num_vertices
    return Graph(n + 3, g.edges | {(n, n + 1), (n, n + 2), (n + 1, n + 2)})


def two_colorable(g):
    """Whether some assignment of two colors leaves no edge monochrome."""
    return any(all((c >> u & 1) != (c >> v & 1) for u, v in g.edges)
               for c in range(1 << g.num_vertices))


def _bipartite_corpus():
    yield from (complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 5))
    yield from (path_graph(n) for n in range(1, 9))
    yield from (cycle_graph(n) for n in (4, 6, 8))
    yield empty_graph(3)
    yield from (g for g in nonisomorphic_graphs_up_to(6) if two_colorable(g))


def test_two_coloring_side_is_the_smaller_class_rooted_at_lowest_vertices():
    # On every graph of up to 6 vertices: None exactly when no 2-coloring
    # exists; otherwise both classes are independent, the returned one is no
    # larger, and every component's lowest vertex falls in the same class.
    for g in nonisomorphic_graphs_up_to(6):
        side = oracles._two_coloring_side(g.adjacency)
        assert (side is not None) == two_colorable(g)
        if side is None:
            continue
        rest = (1 << g.num_vertices) - 1 & ~side
        assert all((side >> u & 1) != (side >> v & 1) for u, v in g.edges)
        assert side.bit_count() <= rest.bit_count()
        assert len({side >> v & 1 for v in component_minima(g)}) <= 1


def component_minima(g):
    """The lowest vertex of each connected component, by closing over neighbours."""
    seen, minima = 0, []
    for u in range(g.num_vertices):
        if seen >> u & 1:
            continue
        grown, component = 1 << u, 0
        while grown != component:
            component = grown
            for v in bits_of(component):
                grown |= g.adjacency[v]
        seen |= component
        minima.append(u)
    return minima


def test_biclique_on_the_bipartite_corpus_matches_brute():
    # No graph here carries a tag: biclique derives each one's 2-coloring.
    # The disjoint triangle forces the all-vertex pool on the same graph.
    for g in _bipartite_corpus():
        want = brute_biclique(g)
        assert biclique(g) == want
        assert biclique(with_triangle(g)) == max(want, 1)


@given(st.integers(0, 10**9), st.integers(4, 7))
@settings(max_examples=25, deadline=None)
def test_biclique_on_reparsed_gadget_files_matches_subset_dp(seed, n):
    # A gadget read back from its file is the same graph; biclique finds the
    # same value on it, and on each doubling gadget searches the same nodes.
    g = random_graph(n, random.Random(seed).uniform(0.2, 0.8), seed)
    for gadget in (biclique_gadget, im_gadget, is_to_im_gadget):
        built = gadget(g)
        parsed = parse_graph(emit_graph(built))
        want = subset_dp_biclique(built)
        assert biclique(built) == biclique(parsed) == want
        assert biclique(with_triangle(parsed)) == max(want, 1)
    for gadget in (biclique_gadget, im_gadget):
        built = gadget(g)
        assert biclique_nodes(built) == biclique_nodes(parse_graph(emit_graph(built)))


def biclique_nodes(g):
    """The fewest nodes a budget must allow for biclique(g) to finish."""
    nodes = 1
    while True:
        try:
            biclique(g, oracles.SolveBudget(max_nodes=nodes))
            return nodes
        except BudgetExceededError:
            nodes += 1


def test_biclique_searches_one_side_of_a_gadget_read_from_its_file():
    # The left side of B_e[G(16, 1/2, 0)] takes 180 nodes; all 32 vertices
    # took 897.
    built = biclique_gadget(random_graph(16, 0.5, 0))
    parsed = parse_graph(emit_graph(built))
    budget = oracles.SolveBudget(max_nodes=180)
    assert biclique(built, budget) == biclique(parsed, budget) == 4
    with pytest.raises(BudgetExceededError):
        biclique(parsed, oracles.SolveBudget(max_nodes=179))


@given(st.integers(0, 10**9), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_count_ktt_matches_brute(seed, t):
    g = random_graph(6, 0.5, seed)
    assert count_ktt(g, t) == brute_count_ktt(g, t)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_induced_matching_matches_brute(seed):
    g = random_graph(7, 0.4, seed)
    assert induced_matching(g) == brute_induced_matching(g)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_induced_path_matches_brute(seed):
    g = random_graph(7, 0.4, seed)
    assert induced_path(g) == brute_induced_path(g)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_set_cover_matches_brute(seed):
    import random as _random

    rng = _random.Random(seed)
    n = rng.randint(1, 6)
    sets = tuple(
        (i + 1, frozenset(e for e in range(n) if rng.random() < 0.4))
        for i in range(rng.randint(1, 6))
    )
    system = SetSystem(n, sets)
    assert set_cover(system) == brute_set_cover(system)


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_dom_set_matches_brute(seed):
    g = random_graph(7, 0.3, seed)
    assert dom_set(g) == brute_dom_set(g)


@given(st.integers(0, 10**9), st.integers(2, 5))
@settings(max_examples=30, deadline=None)
def test_densest_k_matches_brute(seed, k):
    g = random_graph(6, 0.5, seed)
    assert densest_k(g, min(k, 6)) == brute_densest_k(g, min(k, 6))


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_max_cov_matches_brute(seed):
    lc = random_labelcover(2, 2, 2, 2, density=0.8, seed=seed, pair_density=0.5,
                           admissible_density=0.7)
    assert max_cov(lc) == brute_max_cov(lc)


def pair_scan_max_cov(right, ra, relations, admissible):
    """Every right labeling in turn, each edge read from its pair set."""
    best = 0
    for sigma in itertools.product(range(ra), repeat=right):
        covered = 0
        for u, labels in admissible.items():
            edges = [(v, pairs) for (w, v), pairs in relations.items() if w == u]
            covered += any(all((a, sigma[v]) in pairs for v, pairs in edges) for a in labels)
        best = max(best, covered)
    return best


@given(st.integers(0, 10**9), st.integers(0, 5), st.integers(0, 3), st.integers(1, 4),
       st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_max_cov_matches_pair_scan(seed, left, right, la, ra):
    # Isolated left vertices, edges without pairs, pairs on labels outside
    # the admissible sets and empty admissible sets all occur.
    relations, admissible = pair_cover_fields(random.Random(seed), left, right, la, ra)
    lc = LabelCover(left, right, la, ra, relations, admissible)
    assert max_cov(lc) == pair_scan_max_cov(right, ra, relations, admissible)


@given(st.integers(0, 10**9), st.integers(0, 3), st.integers(0, 2), st.integers(1, 3),
       st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_min_lab_matches_brute_on_pair_covers(seed, left, right, la, ra):
    relations, admissible = pair_cover_fields(random.Random(seed), left, right, la, ra)
    lc = LabelCover(left, right, la, ra, relations, admissible)
    assert min_lab(lc) == brute_min_lab(lc)


class _Unlisted(frozenset):
    """An admissible set that may be tested but not listed."""

    def __iter__(self):
        raise AssertionError("an admissible set was listed")


@pytest.mark.parametrize("edges", [False, True])
def test_max_cov_scans_stored_labels_only(edges):
    # 5,000 left vertices of 5,000 labels each: the scan must follow the
    # stored pairs, not every (vertex, admissible label), so it may test
    # the admissible sets but never list them.
    text = "lc 5000 1 5000 1\n"
    if edges:
        text += "".join(f"e {u} 1 0\n" for u in range(1, 5001))
    lc = parse_labelcover(text)
    unlisted = _Unlisted(lc.admissible[0])
    lc.admissible.update(dict.fromkeys(lc.admissible, unlisted))
    assert max_cov(lc) == (0 if edges else 5000)
    # So may the witness check.
    assert max_cov(lc, witness=(0,)) == (0 if edges else 5000)


@given(st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_min_lab_matches_brute(seed):
    lc = random_labelcover(2, 2, 2, 2, density=0.9, seed=seed, pair_density=0.5)
    assert min_lab(lc) == brute_min_lab(lc)


# ---------------------------------------------------------------------------
# Referees: the scalar loops the bitset oracles replaced


def scalar_sat_max(formula):
    """Every assignment in turn, every clause in turn."""
    best = 0
    for assign in range(1 << formula.num_vars):
        count = sum(any((assign >> abs(lit) - 1 & 1) == (lit > 0) for lit in clause)
                    for clause in formula.clauses)
        best = max(best, count)
    return best


def product_max_cov(lc):
    """Every right labeling in turn, each left vertex's labels as a bitmask."""
    pos = [{a: i for i, a in enumerate(lc.admissible_list(u))} for u in range(lc.left_size)]
    edge_tables = []
    for u in range(lc.left_size):
        tables = []
        for v in lc.left_neighbors[u]:
            table = [0] * lc.right_alphabet
            for a, mask in pair_beta_masks(lc, u, v).items():
                for b in bits_of(mask):
                    table[b] |= 1 << pos[u][a]
            tables.append((v, table))
        edge_tables.append(tables)
    best = 0
    for sigma in itertools.product(range(lc.right_alphabet), repeat=lc.right_size):
        covered = 0
        for u in range(lc.left_size):
            m = (1 << len(pos[u])) - 1
            for v, table in edge_tables[u]:
                m &= table[sigma[v]]
            covered += m != 0
        best = max(best, covered)
    return best


def subset_dp_biclique(g):
    """Common neighbourhood of every vertex subset, each from the subset minus its lowest vertex."""
    n = g.num_vertices
    adj = g.adjacency
    common = [0] * (1 << n)
    common[0] = (1 << n) - 1
    best = 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        common[mask] = common[mask ^ low] & adj[low.bit_length() - 1]
        best = max(best, min(mask.bit_count(), (common[mask] & ~mask).bit_count()))
    return best


def index_order_clique_number(adj, n, meter):
    """The coloring branch and bound with every vertex colored and recorded,
    searched in the order given."""
    if n == 0:
        return 0
    best = 0

    def expand(candidates, size):
        nonlocal best
        meter.tick()
        if candidates == 0:
            best = max(best, size)
            return
        order, bounds = [], []
        uncolored, color = candidates, 0
        while uncolored:
            color += 1
            cls = uncolored
            while cls:
                v = (cls & -cls).bit_length() - 1
                cls &= ~(1 << v | adj[v])
                uncolored &= ~(1 << v)
                order.append(v)
                bounds.append(color)
        rest = candidates
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            expand(rest & adj[order[i]], size + 1)
            rest &= ~(1 << order[i])

    expand((1 << n) - 1, 0)
    return best


def index_order_clique(g):
    """Clique number searched in vertex-index order."""
    return index_order_clique_number(g.adjacency, g.num_vertices, oracles._Meter(None))


def index_order_independent_set(g):
    """Clique number of the complement, searched in vertex-index order."""
    return index_order_clique(g.complement())


def pairwise_induced_matching(g):
    """Clique number of the compatibility graph, built one edge pair at a time
    and searched in edge order."""
    edges = sorted(g.edges)
    adj = g.adjacency
    compat = set()
    for i, (a, b) in enumerate(edges):
        closed = adj[a] | adj[b] | 1 << a | 1 << b
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if not closed & (1 << c | 1 << d):
                compat.add((i, j))
    return index_order_clique(Graph(len(edges), frozenset(compat)))


def subset_edgeless(g):
    """Largest edgeless vertex set, by testing all 2^n vertex masks."""
    adj = g.adjacency
    return max(mask.bit_count() for mask in range(1 << g.num_vertices)
               if not any(adj[v] & mask for v in bits_of(mask)))


def unpruned_induced_path(g):
    """Every induced path grown from every start vertex, with no bound."""
    adj = g.adjacency
    best = 0

    def grow(last, path, blocked, length):
        nonlocal best
        best = max(best, length)
        cands = adj[last] & ~path & ~blocked
        for v in bits_of(cands):
            grow(v, path | 1 << v, blocked | adj[last], length + 1)

    for start in range(g.num_vertices):
        grow(start, 1 << start, 0, 1)
    return best


@given(st.integers(0, 10**9), st.integers(10, 14))
@settings(max_examples=25, deadline=None)
def test_biclique_matches_subset_dp(seed, n):
    g = random_graph(n, random.Random(seed).uniform(0.2, 0.8), seed)
    assert biclique(g) == subset_dp_biclique(g)


@given(st.integers(0, 10**9), st.integers(5, 7))
@settings(max_examples=20, deadline=None)
def test_biclique_on_gadgets_matches_subset_dp(seed, n):
    gadget = biclique_gadget(random_graph(n, 0.5, seed))
    assert biclique(gadget) == subset_dp_biclique(gadget)


def test_biclique_reaches_past_thirty_vertices():
    # K_{5,5} plus 20 isolated vertices: the subset DP needs 2^30 nodes.
    g = Graph(30, frozenset((u, v) for u in range(5) for v in range(5, 10)))
    assert biclique(g) == 5


@given(st.integers(0, 10**9), st.integers(8, 12))
@settings(max_examples=30, deadline=None)
def test_induced_path_at_least_matches_exact_at_every_k(seed, n):
    g = random_graph(n, random.Random(seed).uniform(0.15, 0.6), seed)
    longest = induced_path(g)
    assert longest == unpruned_induced_path(g)
    for k in range(n + 2):
        assert induced_path_at_least(g, k) == (longest >= k)


@given(st.integers(0, 10**9), st.integers(12, 22))
@settings(max_examples=30, deadline=None)
def test_induced_matching_matches_pairwise_build(seed, n):
    # Sparse enough that the matching has several edges, with at least 30 edges.
    g = random_graph(n, random.Random(seed).uniform(0.15, 0.5), seed)
    pairs = ((u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in g.edges)
    g = Graph(n, g.edges | frozenset(itertools.islice(pairs, max(0, 30 - g.num_edges))))
    assert g.num_edges >= 30
    assert induced_matching(g) == pairwise_induced_matching(g)


@given(st.integers(0, 10**9), st.integers(0, 12), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_max_induced_edgeless_matches_subset_enumeration(seed, n, p):
    g = random_graph(n, p, seed)
    assert max_induced_with_property(g, "edgeless") == subset_edgeless(g)


DOMINATION_FAMILIES = ("pendants", "star", "path", "tree", "complete", "twins", "matching")


def domination_graph(family, seed):
    """A small graph of `family`, with up to two isolated vertices and the
    vertices relabelled at random. Leaves and true twins give the
    dominated-edge rule edges to drop; disjoint K2s ("matching") give it
    none."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    if family == "pendants":
        leaves = rng.randint(1, 4)
        edges = set(random_graph(n, rng.uniform(0.1, 0.8), seed).edges)
        edges |= {(rng.randrange(n), leaf) for leaf in range(n, n + leaves)}
        n += leaves
    elif family == "star":
        edges = {(0, v) for v in range(1, n)}
    elif family == "path":
        edges = {(v, v + 1) for v in range(n - 1)}
    elif family == "tree":
        edges = {(rng.randrange(v), v) for v in range(1, n)}
    elif family == "complete":
        edges = set(itertools.combinations(range(n), 2))
    elif family == "twins":
        # Blow each vertex of a small random graph up into a clique (true
        # twins) or an independent set (false twins) of one to three copies.
        base = random_graph(rng.randint(2, 5), rng.uniform(0.2, 0.8), seed)
        copies, n = [], 0
        for _ in range(base.num_vertices):
            copies.append(range(n, n + rng.randint(1, 3)))
            n = copies[-1].stop
        edges = {(u, v) for a, b in base.edges for u in copies[a] for v in copies[b]}
        for part in copies:
            if rng.random() < 0.7:
                edges |= set(itertools.combinations(part, 2))
    else:
        edges = {(2 * i, 2 * i + 1) for i in range(n // 2)}
    n += rng.randint(0, 2)
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, frozenset((label[u], label[v]) for u, v in edges))


@given(st.sampled_from(DOMINATION_FAMILIES), st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_induced_matching_with_dominated_edges_matches_pairwise_build(family, seed):
    g = domination_graph(family, seed)
    assert set(oracles._kept_edges(g.adjacency)) <= g.edges
    assert induced_matching(g) == pairwise_induced_matching(g)


def test_dominated_edge_corpus_drops_edges_and_keeps_values():
    for family in DOMINATION_FAMILIES:
        dropped = 0
        for seed in range(25):
            g = domination_graph(family, seed)
            dropped += len(oracles._kept_edges(g.adjacency)) < g.num_edges
            assert induced_matching(g) == pairwise_induced_matching(g), (family, seed)
        # Disjoint K2s keep every edge: each endpoint keeps its only one.
        assert (dropped > 0) == (family != "matching"), family


@given(st.integers(0, 10**9), st.integers(0, 14), st.floats(0.0, 0.9), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_induced_matching_of_pendant_gadget_is_independence_number(seed, n, p, isolated):
    # The pendant edges of an independent set form an induced matching, and
    # the dominated-edge rule leaves only pendant edges, so the two are equal.
    g = Graph(n + isolated, random_graph(n, p, seed).edges)
    assert induced_matching(is_to_im_gadget(g)) == independent_set(g)


def _assert_graph_oracles_match_referees(g):
    assert clique(g) == index_order_clique(g)
    assert independent_set(g) == index_order_independent_set(g)
    assert induced_matching(g) == pairwise_induced_matching(g)


@given(st.integers(0, 10**9), st.integers(12, 60), st.floats(0.1, 0.7))
@settings(max_examples=25, deadline=None)
def test_graph_oracles_match_index_order_referees(seed, n, p):
    _assert_graph_oracles_match_referees(random_graph(n, p, seed))


@given(st.integers(0, 10**9), st.integers(6, 16), st.floats(0.2, 0.6))
@settings(max_examples=20, deadline=None)
def test_graph_oracles_on_gadgets_match_index_order_referees(seed, n, p):
    g = random_graph(n, p, seed)
    _assert_graph_oracles_match_referees(is_to_im_gadget(g))
    _assert_graph_oracles_match_referees(im_gadget(g))


@given(st.integers(0, 10**9), st.sampled_from([(4, 2, 1.0), (5, 2, 0.5), (5, 2, 1.0), (6, 1, 1.0)]))
@settings(max_examples=12, deadline=None)
def test_graph_oracles_on_sat2dks_match_index_order_referees(seed, shape):
    n, ell, p = shape
    formula = gen_planted_cnf(n, 2 * n, seed)
    _assert_graph_oracles_match_referees(sat_to_dks(formula, ell=ell, p=p, seed=seed))


def _searched_masks(g):
    """The masks clique, independent_set and induced_matching hand to the search."""
    seen, search = [], oracles._clique_number

    def record(adj, n, meter):
        seen.append(adj)
        return search(adj, n, meter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_clique_number", record)
        clique(g), independent_set(g), induced_matching(g)
    assert len(seen) == 3
    return seen


@given(st.integers(0, 10**9), st.integers(12, 40), st.floats(0.1, 0.7))
@settings(max_examples=25, deadline=None)
def test_clique_color_filter_keeps_node_counts(seed, n, p):
    # Leaving out the vertices the branch loop would cut changes no search node.
    for masks in _searched_masks(is_to_im_gadget(random_graph(n, p, seed))):
        filtered, recorded = oracles._Meter(None), oracles._Meter(None)
        got = oracles._clique_number(masks, len(masks), filtered)
        assert got == index_order_clique_number(masks, len(masks), recorded)
        assert filtered.nodes == recorded.nodes


@pytest.mark.parametrize("seed", range(5))
def test_independent_set_of_is2im_gadget_is_quick(seed):
    # Searched in index order, seed 0 passes 10^6 nodes.
    gadget = is_to_im_gadget(random_graph(50, 0.3, seed))
    assert independent_set(gadget, oracles.SolveBudget(max_nodes=1000)) == 50


@pytest.mark.parametrize("seed", range(5))
def test_induced_matching_of_is2im_gadget_searches_its_pendant_edges(seed):
    # Every edge of the source graph is dominated by a pendant edge.
    masks = _searched_masks(is_to_im_gadget(random_graph(50, 0.3, seed)))[2]
    assert len(masks) == 50


# (chunk bits, table bits): chunks cut by width, by the table bound, and neither.
CHUNK_LIMITS = pytest.mark.parametrize(
    "limits",
    [(4, oracles._TABLE_BITS), (oracles._CHUNK_BITS, 6), (oracles._CHUNK_BITS, oracles._TABLE_BITS)],
    ids=["narrow", "table-bound", "default"],
)


def _chunk_limits(mp, limits):
    mp.setattr(oracles, "_CHUNK_BITS", limits[0])
    mp.setattr(oracles, "_TABLE_BITS", limits[1])


@CHUNK_LIMITS
@given(seed=st.integers(0, 10**9), n=st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_sat_max_matches_scalar_loop(limits, seed, n):
    rng = random.Random(seed)
    formula = mixed_cnf(rng, n, rng.randint(0, 4 * n))
    with pytest.MonkeyPatch.context() as mp:
        _chunk_limits(mp, limits)
        assert sat_max(formula) == scalar_sat_max(formula)


@CHUNK_LIMITS
@given(seed=st.integers(0, 10**9), right_alphabet=st.integers(2, 40))
@settings(max_examples=40, deadline=None)
def test_max_cov_matches_product_loop(limits, seed, right_alphabet):
    # Alphabets past 4 often leave a chunk holding a run of one digit's
    # values, the last run of each digit narrower than the others.
    rng = random.Random(seed)
    right_size = rng.randint(1, int(math.log(2000) / math.log(right_alphabet)))
    lc = random_labelcover(rng.randint(1, 6), right_size, rng.randint(1, 4), right_alphabet,
                           density=rng.uniform(0.3, 1.0), seed=seed,
                           pair_density=rng.uniform(0.05, 0.9),
                           admissible_density=rng.uniform(0.5, 1.0))
    with pytest.MonkeyPatch.context() as mp:
        _chunk_limits(mp, limits)
        assert max_cov(lc) == product_max_cov(lc)


def _last_labeling_cover(alphabet, right_size):
    """Three left vertices; two are covered at once only by the last right labeling."""
    top = alphabet - 1
    relations = {(0, v): frozenset({(0, top)}) for v in range(right_size)}
    relations[(1, 0)] = frozenset({(0, top), (0, 3)})
    relations[(2, 0)] = frozenset({(0, 0)})
    return LabelCover(3, right_size, 1, alphabet, relations, {u: frozenset({0}) for u in range(3)})


@pytest.mark.parametrize("chunk_bits, alphabet, right_size", [
    (oracles._CHUNK_BITS, 1 << 16, 1),
    (oracles._CHUNK_BITS, 5000, 2),
    (8, 3000, 1),  # the alphabet is wider than a chunk
    (8, 1000, 2),  # ... and the high digit is fixed per chunk
])
def test_max_cov_large_alphabet_in_bounded_memory(chunk_bits, alphabet, right_size):
    # Compress-right outputs have right alphabets of 2^12 and more. A table
    # per (digit, label) at full chunk width would take gigabytes here, and
    # one built per chunk for a fixed digit would take alphabet^2 steps. The
    # chunks charge the meter exactly one node per labeling.
    lc = _last_labeling_cover(alphabet, right_size)
    budget = oracles.SolveBudget(max_nodes=alphabet**right_size, max_millis=20_000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_CHUNK_BITS", chunk_bits)
        tracemalloc.start()
        try:
            assert max_cov(lc, budget) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 8 << 20


# ---------------------------------------------------------------------------
# Set cover and domination: the search that built its tables before the root bound


def ref_min_cover(masks, n, meter):
    """The search that built its per-element candidate lists before the root
    bound was tried."""
    if n == 0:
        return 0
    full = (1 << n) - 1
    union = 0
    for m in masks:
        union |= m
    if union != full:
        return None
    # Greedy upper bound.
    uncovered = full
    greedy = 0
    while uncovered:
        bestmask = max(masks, key=lambda m: (m & uncovered).bit_count())
        uncovered &= ~bestmask
        greedy += 1
    best = greedy
    covers_elem = [[m for m in masks if m >> e & 1] for e in range(n)]
    max_size = max(m.bit_count() for m in masks)

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


def _nested_masks(rng, n):
    """Random element masks over range(n) with empty sets, repeated sets and
    sets nested inside others; about one draw in four leaves an element uncovered."""
    masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(1, 9))]
    if rng.random() < 0.75:
        union = 0
        for m in masks:
            union |= m
        for e in bits_of((1 << n) - 1 & ~union):
            masks[rng.randrange(len(masks))] |= 1 << e
    for m in list(masks):
        pick = rng.random()
        if pick < 0.3:
            masks.append(m)
        elif pick < 0.7:
            masks.append(m & rng.getrandbits(n))
    masks += [0] * rng.randint(0, 1)
    rng.shuffle(masks)
    return masks


def _cover_meter_and_answer(masks, n):
    meter = oracles._Meter(None)
    return oracles._min_cover(masks, n, meter), meter.nodes


def _referee_answer_and_nodes(masks, n):
    meter = oracles._Meter(None)
    return ref_min_cover(masks, n, meter), meter.nodes


@pytest.mark.parametrize("n", range(11))
def test_set_cover_matches_referee_on_nested_systems(n):
    rng = random.Random(n)
    infeasible = branched = 0
    for _ in range(100):
        masks = _nested_masks(rng, n)
        want, ref_nodes = _referee_answer_and_nodes(masks, n)
        system = SetSystem(n, [(i + 1, bits_of(m)) for i, m in enumerate(masks)])
        assert set_cover(system) == want
        got, nodes = _cover_meter_and_answer(masks, n)
        # Deciding the root first skips work, not nodes: the search is the same.
        assert (got, nodes) == (want, ref_nodes)
        infeasible += want is None
        branched += nodes > 1
    assert n == 0 or infeasible
    assert n < 4 or branched


def _cover_at_least_three(rng):
    """A set system with every element covered and set cover at least 3."""
    while True:
        n = rng.randint(4, 12)
        masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(3, 8))]
        masks += [m & rng.getrandbits(n) for m in masks[:2]]
        union = 0
        for m in masks:
            union |= m
        if union != (1 << n) - 1:
            continue
        system = SetSystem(n, [(i + 1, bits_of(m)) for i, m in enumerate(masks)])
        if set_cover(system) >= 3:
            return system


def test_dom_set_on_setcov_graphs_matches_referee():
    # Set cover at least 3 makes the dom_set search branch past the root.
    rng = random.Random(13)
    branched = 0
    for _ in range(40):
        system = _cover_at_least_three(rng)
        g = setcov_to_domset(system)
        closed = [mask | 1 << v for v, mask in enumerate(g.adjacency)]
        want, ref_nodes = _referee_answer_and_nodes(closed, g.num_vertices)
        assert dom_set(g) == want == set_cover(system)
        assert _cover_meter_and_answer(closed, g.num_vertices) == (want, ref_nodes)
        branched += ref_nodes > 1
    assert branched


def test_cover_settled_at_root_charges_one_node():
    # Greedy finds 2 sets and no cover of 4 elements by sets of 2 is smaller.
    settled = SetSystem(4, ((1, {0, 1}), (2, {2, 3}), (3, {0, 2})))
    one = oracles.SolveBudget(max_nodes=1)
    assert set_cover(settled, one) == 2
    assert dom_set(complete_graph(5), one) == 1
    assert _cover_meter_and_answer(settled.masks, 4) == (2, 1)
    # Greedy takes the 4-set first and needs 3 sets; 6 / 4 rounds up to 2.
    branching = SetSystem(6, ((1, {0, 1, 2}), (2, {3, 4, 5}), (3, {0, 1, 3, 4})))
    with pytest.raises(BudgetExceededError):
        set_cover(branching, one)
    assert set_cover(branching) == 2


def test_dom_set_lists_the_candidate_sets_of_a_large_graph_by_transpose():
    # The setcov2domset graph of gen-planted (3, 5, seed 0) -> cnf2lc ->
    # minlab2setcov has 10,941 vertices. Listing the sets holding each element
    # by shifting every closed neighbourhood once per element took 16.5 s
    # before the first search node, past any node budget; a random verify
    # chain found it. The transpose lists them in a fraction of a second.
    g = setcov_to_domset(minlab_to_setcov(cnf_to_labelcover(gen_planted_cnf(3, 5, 0))))
    start = time.perf_counter()
    assert dom_set(g, oracles.SolveBudget(max_nodes=20_000)) == 3
    assert time.perf_counter() - start < 5
