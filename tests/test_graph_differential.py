"""Differential tests: each mask-built graph reduction against its edge-set referee.

The reductions build neighbour masks and hand them to `Graph` unchecked. The
referees below are the edge-set builders they replaced: they collect edge
tuples pair by pair and go through the validating public constructor. On
seeded random inputs both must emit the same bytes, and every
output must survive the edge-list and file round trips.
"""

import itertools
import math
import random

import pytest

from gapred import (
    CnfFormula,
    Graph,
    LabelCover,
    ReductionError,
    SetSystem,
    SizeCapError,
    biclique_gadget,
    clique_to_inducedpath,
    cnf_to_labelcover,
    dks_edge,
    dks_vertices,
    emit_graph,
    emit_setsystem,
    fglss,
    im_gadget,
    is_to_im_gadget,
    minlab_instance,
    minlab_to_setcov,
    parse_graph,
    random_cnf,
    random_graph,
    sat_to_dks,
    setcov_to_domset,
)

from corpus import mixed_cnf, pair_beta_masks, random_labelcover

SEEDS = range(12)


# ---------------------------------------------------------------------------
# Edge-set referees


def ref_fglss(lc):
    vertices = []
    proj = []
    for u in range(lc.left_size):
        edge_masks = [(v, pair_beta_masks(lc, u, v)) for v in lc.left_neighbors[u]]
        for a in lc.admissible_list(u):
            vertices.append((u, a))
            proj.append({v: masks[a].bit_length() - 1 for v, masks in edge_masks})
    edges = set()
    for i in range(len(vertices)):
        ui, _ = vertices[i]
        pi = proj[i]
        for j in range(i + 1, len(vertices)):
            uj, _ = vertices[j]
            if ui == uj:
                continue
            pj = proj[j]
            if all(pj.get(v, beta) == beta for v, beta in pi.items()):
                edges.add((i, j))
    return Graph(len(vertices), frozenset(edges))


def ref_setcov_to_domset(system):
    k = system.num_sets
    edges = set()
    for i in range(k):
        for j in range(i + 1, k):
            edges.add((i, j))
    for i, (_, elems) in enumerate(system.sets):
        for e in elems:
            edges.add((i, k + e))
    return Graph(k + system.universe_size, frozenset(edges))


def ref_minlab_to_setcov(lc, size_cap=500_000):
    """minlab_to_setcov reading each coordinate's labels by scanning the edge's pairs."""
    for u in range(lc.left_size):
        if not lc.left_neighbors[u]:
            raise ReductionError(f"left vertex {u} is isolated (degenerate hypercube)")
    total = 0
    offsets = []
    for u in range(lc.left_size):
        offsets.append(total)
        total += len(lc.left_neighbors[u]) ** len(lc.admissible[u])
        if total > size_cap:
            raise SizeCapError(f"universe of {total}+ elements exceeds cap {size_cap}")
    elements = {(v, b): set() for v in range(lc.right_size) for b in range(lc.right_alphabet)}
    for u in range(lc.left_size):
        nbrs = list(lc.left_neighbors[u])
        coords = lc.admissible_list(u)
        buys = {
            v: {a: [b for aa, b in lc.relations[(u, v)] if aa == a] for a in coords}
            for v in nbrs
        }
        for rank, vec in enumerate(itertools.product(range(len(nbrs)), repeat=len(coords))):
            for pos, a in enumerate(coords):
                v = nbrs[vec[pos]]
                for b in buys[v][a]:
                    elements[(v, b)].add(offsets[u] + rank)
    return SetSystem(total, tuple(
        (v * lc.right_alphabet + b + 1, frozenset(elements[(v, b)]))
        for v in range(lc.right_size) for b in range(lc.right_alphabet)
    ))


def _ref_doubling(graph, cross_rule):
    n = graph.num_vertices
    edges = set()
    for u in range(n):
        for v in range(n):
            if u == v or cross_rule(u, v):
                edges.add((u, n + v))
    return Graph(2 * n, frozenset(edges))


def ref_biclique_gadget(graph):
    return _ref_doubling(graph, graph.has_edge)


def ref_im_gadget(graph):
    return _ref_doubling(graph, lambda u, v: not graph.has_edge(u, v))


def ref_is_to_im_gadget(graph):
    n = graph.num_vertices
    edges = set(graph.edges)
    for v in range(n):
        edges.add((v, n + v))
    return Graph(2 * n, frozenset(edges))


def ref_clique_to_inducedpath(h, k, q):
    nh = h.num_vertices
    stride = nh + 1

    def copy_of(i, j, v):
        return (i * k + j) * stride + v

    def dummy(i, j):
        return (i * k + j) * stride + nh

    edges = set()
    for i in range(q):
        for j in range(k):
            for u in range(nh):
                for v in range(u + 1, nh):
                    edges.add((copy_of(i, j, u), copy_of(i, j, v)))
            for v in range(nh):
                edges.add((dummy(i, j), copy_of(i, j, v)))
                if j >= 1:
                    edges.add((dummy(i, j), copy_of(i, j - 1, v)))
        for v in range(nh):
            for j in range(k):
                for jj in range(j + 1, k):
                    edges.add((copy_of(i, j, v), copy_of(i, jj, v)))
        for u in range(nh):
            for v in range(nh):
                if u != v and not h.has_edge(u, v):
                    for j in range(k):
                        for jj in range(k):
                            if j != jj:
                                edges.add((copy_of(i, j, u), copy_of(i, jj, v)))
        if i >= 1:
            for v in range(nh):
                edges.add((dummy(i, 0), copy_of(i - 1, k - 1, v)))
    return Graph(q * k * stride, frozenset(edges))


def ref_sat_to_dks(formula, ell, p=1.0, seed=None):
    vertices = dks_vertices(formula.num_vars, ell)
    if p < 1.0:
        rng = random.Random(seed)
        vertices = [vx for vx in vertices if rng.random() < p]
    edges = set()
    for a in range(len(vertices)):
        w1, b1 = vertices[a]
        for b in range(a + 1, len(vertices)):
            w2, b2 = vertices[b]
            if dks_edge(formula, w1, b1, w2, b2):
                edges.add((a, b))
    return Graph(len(vertices), frozenset(edges))


def assert_same_graph(out, ref):
    assert emit_graph(out) == emit_graph(ref)
    assert out == ref
    assert Graph(out.num_vertices, out.edges) == out
    assert parse_graph(emit_graph(out)) == out


def _graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    return random_graph(n, rng.choice((0.0, 0.2, 0.5, 0.8, 1.0)), seed)


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("seed", SEEDS)
def test_fglss_matches_edge_set_builder(seed):
    rng = random.Random(seed)
    lc = random_labelcover(
        rng.randint(0, 5), rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 3),
        density=rng.random(), seed=seed, projection=True,
        admissible_density=rng.choice((None, 0.6)),
    )
    assert_same_graph(fglss(lc), ref_fglss(lc))
    lc = cnf_to_labelcover(random_cnf(rng.randint(3, 6), rng.randint(0, 5), seed))
    assert_same_graph(fglss(lc), ref_fglss(lc))


@pytest.mark.parametrize("seed", SEEDS)
def test_setcov_to_domset_matches_edge_set_builder(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 10)
    sets = [(sid + 1, frozenset(e for e in range(size) if rng.random() < 0.4))
            for sid in range(rng.randint(1, 6))]
    sets.append((len(sets) + 1, frozenset(range(size))))
    rng.shuffle(sets)
    system = SetSystem(size, tuple(sets))
    assert_same_graph(setcov_to_domset(system), ref_setcov_to_domset(system))


def test_setcov_to_domset_matches_on_a_wide_universe():
    # One full set and four random halves of 40,000 elements: the transposition
    # walks each set's elements, not each bit of every mask.
    rng = random.Random(5)
    size = 40_000
    sets = [(1, frozenset(range(size)))] + [
        (sid, frozenset(e for e in range(size) if rng.random() < 0.5)) for sid in range(2, 6)
    ]
    system = SetSystem(size, tuple(sets))
    assert_same_graph(setcov_to_domset(system), ref_setcov_to_domset(system))


def test_setcov_to_domset_matches_on_minlab_output():
    lc = minlab_instance(cnf_to_labelcover(CnfFormula(3, ((1, 2, 3), (-1, 2, -3)))), 2, 2, 0.5)
    system = minlab_to_setcov(lc)
    assert_same_graph(setcov_to_domset(system), ref_setcov_to_domset(system))


def _stacked(*parts):
    """The label covers side by side on the left, over one right side."""
    relations, admissible, base = {}, {}, 0
    for lc in parts:
        relations.update(((base + u, v), pairs) for (u, v), pairs in lc.relations.items())
        admissible.update((base + u, lc.admissible[u]) for u in range(lc.left_size))
        base += lc.left_size
    first = parts[0]
    return LabelCover(base, first.right_size, max(lc.left_alphabet for lc in parts),
                      first.right_alphabet, relations, admissible)


def _setcov_outcome(build, lc, size_cap):
    try:
        system = build(lc, size_cap=size_cap)
    except (ReductionError, SizeCapError) as exc:
        return type(exc), str(exc)
    return system, emit_setsystem(system)


@pytest.mark.parametrize("seed", SEEDS)
def test_minlab_to_setcov_matches_pair_scanning_builder(seed):
    rng = random.Random(seed)
    lc = random_labelcover(
        rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4),
        density=rng.uniform(0.5, 1.0), seed=seed, pair_density=rng.random(),
        admissible_density=rng.choice((None, 0.6)),
    )
    # Left degrees 2 and 3 give hypercubes with several values per coordinate.
    wide = random_labelcover(
        rng.randint(1, 3), rng.randint(3, 4), rng.randint(1, 3), rng.randint(1, 4),
        seed=seed, pair_density=rng.random(), left_degrees=(2, 3),
        admissible_density=rng.choice((None, 0.6)),
    )
    # One-neighbour vertices (z = 1), whose unions are single elements, among
    # vertices of degree 2 and 3. With one admissible label (K = 1) the union
    # X(j, 0) is the single element j, which is not element 0 for j >= 1; with
    # K = 3 the unions hold z^2 elements.
    right, ra = rng.randint(3, 4), rng.randint(1, 4)
    mixed = _stacked(*(
        random_labelcover(3, right, k, ra, seed=seed + part, pair_density=rng.uniform(0.3, 1.0),
                          left_degrees=degrees)
        for part, (k, degrees) in enumerate([(1, (2, 3)), (3, (1, 1)), (3, (2, 3)), (2, (1, 3))])
    ))
    formula = random_cnf(rng.randint(3, 5), rng.randint(2, 4), seed)
    minlab = minlab_instance(cnf_to_labelcover(formula), 1, 2, 0.5)
    for source in (lc, wide, mixed, minlab):
        for size_cap in (40, 500_000):
            assert (_setcov_outcome(minlab_to_setcov, source, size_cap)
                    == _setcov_outcome(ref_minlab_to_setcov, source, size_cap))


@pytest.mark.parametrize("seed", SEEDS)
def test_doubling_gadgets_match_edge_set_builders(seed):
    graph = _graphs(seed)
    assert_same_graph(biclique_gadget(graph), ref_biclique_gadget(graph))
    assert_same_graph(im_gadget(graph), ref_im_gadget(graph))
    assert_same_graph(is_to_im_gadget(graph), ref_is_to_im_gadget(graph))


@pytest.mark.parametrize("seed", SEEDS)
def test_clique_to_inducedpath_matches_edge_set_builder(seed):
    h = random_graph(seed % 7, 0.5, seed)
    for k, q in itertools.product((2, 3, 4), (1, 2, 3)):
        assert_same_graph(clique_to_inducedpath(h, k, q), ref_clique_to_inducedpath(h, k, q))


@pytest.mark.parametrize("seed", SEEDS)
def test_sat_to_dks_matches_edge_set_builder(seed):
    # ell runs 1..4 and n runs ell..ell+2, so ell == n on seeds 0-3; seeds 0
    # and 9 take the empty formula, the rest 1-, 2- and 3-literal clauses.
    rng = random.Random(seed)
    ell = seed % 4 + 1
    n = ell + seed // 4
    formula = mixed_cnf(rng, n, 0 if seed % 9 == 0 else rng.randint(1, 8))
    for p in (1.0, 0.6):
        params = {"ell": ell, "p": p, "seed": seed}
        out = sat_to_dks(formula, **params)
        if p == 1.0:
            assert out.num_vertices == math.comb(n, ell) << ell
        assert_same_graph(out, ref_sat_to_dks(formula, **params))


def test_sat_to_dks_isolates_vertices_falsifying_a_clause_in_their_window():
    # x1 or not x2 lies inside window (0, 1); its falsifier x1=0, x2=1 (bits
    # 0b10) has no edge, while every other vertex keeps some.
    formula = CnfFormula(3, ((1, -2),))
    vertices = dks_vertices(3, 2)
    for p in (1.0, 0.6):
        out = sat_to_dks(formula, ell=2, p=p, seed=1)
        assert_same_graph(out, ref_sat_to_dks(formula, 2, p, 1))
    out = sat_to_dks(formula, ell=2)
    isolated = [vertices[i] for i, mask in enumerate(out.adjacency) if not mask]
    assert isolated == [((0, 1), 0b10)]
