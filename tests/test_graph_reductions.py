"""Target-problem reductions and their oracle-certified identities."""

import itertools
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapred import (
    CnfFormula,
    Graph,
    LabelCover,
    ReductionError,
    SetSystem,
    SizeCapError,
    ValidationError,
    biclique,
    biclique_gadget,
    clique,
    clique_to_inducedpath,
    cnf_to_labelcover,
    dks_edge,
    dks_vertices,
    dom_set,
    emit_graph,
    fglss,
    hereditary_bridge,
    im_gadget,
    independent_set,
    induced_matching,
    induced_path,
    induced_path_at_least,
    is_to_im_gadget,
    max_cov,
    max_induced_with_property,
    min_lab,
    minlab_to_setcov,
    parse_graph,
    ramsey_binomial_bound,
    random_graph,
    sat_to_dks,
    set_cover,
    setcov_to_domset,
)
from gapred import graph_reductions, instances, oracles
from gapred.pipelines import gen_planted_cnf

from corpus import complete_graph, empty_graph, path_graph, random_labelcover


# ---------------------------------------------------------------------------
# FGLSS


def test_fglss_single_clause():
    lc = cnf_to_labelcover(CnfFormula(3, ((1, 2, 3),)))
    h = fglss(lc)
    assert h.num_vertices == 7
    assert clique(h) == 1 == max_cov(lc)


def test_fglss_two_clause_satisfiable():
    lc = cnf_to_labelcover(CnfFormula(3, ((1, 2, 3), (-1, 2, 3))))
    assert clique(fglss(lc)) == 2


def test_fglss_empty():
    lc = cnf_to_labelcover(CnfFormula(0, ()))
    assert fglss(lc).num_vertices == 0
    assert clique(fglss(lc)) == 0


def test_fglss_requires_projection():
    bad = LabelCover(1, 1, 1, 2, {(0, 0): {(0, 0), (0, 1)}})
    with pytest.raises(ReductionError):
        fglss(bad)


@given(st.integers(0, 10**9))
@settings(max_examples=50, deadline=None)
def test_fglss_equality_random_projection(seed):
    lc = random_labelcover(3, 3, 3, 3, density=0.7, seed=seed, projection=True,
                           admissible_density=0.7)
    assert clique(fglss(lc)) == max_cov(lc)


# ---------------------------------------------------------------------------
# Hypercube


def test_hypercube_sets_match_a_vector_scan():
    # The referee: X(i, a) as the ranks of the product-order vectors whose
    # coordinate a is i.
    for z in range(1, 5):
        for k in range(1, 5):
            vectors = list(itertools.product(range(z), repeat=k))
            assert graph_reductions.canonical_masks(z, k) == [
                [sum(1 << rank for rank, vec in enumerate(vectors) if vec[a] == i)
                 for a in range(k)]
                for i in range(z)
            ]


# ---------------------------------------------------------------------------
# MinLab -> SetCov


def test_minlab_to_setcov_two_label_instance():
    lc = LabelCover(2, 1, 1, 2, {(0, 0): {(0, 0)}, (1, 0): {(0, 1)}})
    system = minlab_to_setcov(lc)
    assert system.num_sets == 1 * 2
    assert set_cover(system) == 2 == min_lab(lc)


def test_minlab_to_setcov_set_count_formula():
    lc = random_labelcover(2, 3, 2, 3, seed=5, left_degrees=(1, 3), pair_density=0.5)
    system = minlab_to_setcov(lc)
    assert system.num_sets == lc.right_size * lc.right_alphabet
    assert system.universe_size == sum(
        len(lc.left_neighbors[u]) ** len(lc.admissible[u]) for u in range(lc.left_size)
    )


def test_minlab_to_setcov_emits_the_hypercube_sets():
    # One left vertex with d neighbours and c labels, relation {(a, a)} on
    # every edge: set (v, b) is the canonical set X(v, b) of [d]^c, the very
    # sets criterion 3 certifies.
    for d in range(1, 5):
        for c in range(1, 5):
            diagonal = frozenset((a, a) for a in range(c))
            lc = LabelCover(1, d, c, c, {(0, v): diagonal for v in range(d)})
            sets = dict(minlab_to_setcov(lc).sets)
            canonical = graph_reductions.canonical_masks(d, c)
            assert len(sets) == d * c
            for v in range(d):
                for b in range(c):
                    mask = canonical[v][b]
                    assert sets[v * c + b + 1] == {e for e in range(mask.bit_length())
                                                   if mask >> e & 1}


def test_minlab_to_setcov_rejects_isolated_left():
    lc = LabelCover(1, 1, 1, 1, {})
    with pytest.raises(ReductionError):
        minlab_to_setcov(lc)


def test_minlab_to_setcov_infeasible_matches():
    lc = LabelCover(1, 1, 1, 2, {(0, 0): set()})
    assert min_lab(lc) is None
    assert set_cover(minlab_to_setcov(lc)) is None


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_minlab_setcov_equality_random(seed):
    lc = random_labelcover(3, 2, 2, 3, seed=seed, left_degrees=(1, 2), pair_density=0.5)
    assert set_cover(minlab_to_setcov(lc)) == min_lab(lc)


# ---------------------------------------------------------------------------
# SetCov -> DomSet


def test_setcov_to_domset_examples():
    single = SetSystem(1, ((1, frozenset({0})),))
    g = setcov_to_domset(single)
    assert g.num_vertices == 2 and g.num_edges == 1
    assert dom_set(g) == 1

    two = SetSystem(2, ((1, frozenset({0})), (2, frozenset({1}))))
    assert dom_set(setcov_to_domset(two)) == 2


def test_setcov_to_domset_rejects_uncovered():
    with pytest.raises(ReductionError):
        setcov_to_domset(SetSystem(2, ((1, frozenset({0})),)))
    with pytest.raises(ReductionError):
        setcov_to_domset(SetSystem(0, ((1, frozenset()),)))


def test_setcov_to_domset_refuses_its_vertex_count_before_transposing():
    # One set of 500,000 elements makes 500,001 vertices, so no element row is built.
    system = SetSystem(500_000, ((1, range(500_000)),))
    with mock.patch.object(graph_reductions, "_columns") as columns:
        with pytest.raises(SizeCapError, match="vertex count 500001 outside"):
            setcov_to_domset(system)
    assert not columns.called


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_setcov_domset_equality_random(seed):
    import random as _random

    rng = _random.Random(seed)
    n = rng.randint(1, 5)
    sets = []
    for i in range(rng.randint(1, 5)):
        sets.append((i + 1, frozenset(e for e in range(n) if rng.random() < 0.5)))
    covered = set().union(*(s for _, s in sets))
    if covered != set(range(n)):
        sets.append((len(sets) + 1, frozenset(range(n))))
    system = SetSystem(n, tuple(sets))
    assert dom_set(setcov_to_domset(system)) == set_cover(system)


# ---------------------------------------------------------------------------
# Doubling gadgets


def test_biclique_gadget_examples():
    be = biclique_gadget(complete_graph(3))
    assert be.num_vertices == 6 and biclique(be) == 3
    assert biclique(biclique_gadget(complete_graph(2))) == 2
    assert biclique(biclique_gadget(empty_graph(2))) == 1


def test_im_gadget_examples():
    out = im_gadget(complete_graph(3))
    assert out.num_edges == 3  # three disjoint edges
    assert induced_matching(out) == 3
    assert induced_matching(im_gadget(complete_graph(2))) == 2
    assert induced_matching(im_gadget(empty_graph(2))) == 1


def test_gadgets_are_bipartite():
    # No edge joins two left or two right vertices, and the 2-coloring that
    # biclique derives has the left side as its smaller (even) class.
    g = random_graph(5, 0.5, seed=3)
    for out in (biclique_gadget(g), im_gadget(g)):
        assert all((u < 5) != (v < 5) for u, v in out.edges)
        assert oracles._two_coloring_side(out.adjacency) == 0b11111


def test_graph_gadgets_refuse_outputs_past_the_graph_bounds():
    # An empty 200,000-vertex input would give 2n^2 to 3n^2 mask bits (10 to
    # 15 GB); each gadget refuses after counting 2^27 of them.
    big = Graph(200_000)
    for gadget in (biclique_gadget, im_gadget, is_to_im_gadget):
        start = time.perf_counter()
        with pytest.raises(SizeCapError, match="neighbour masks pass 2\\^27 bits"):
            gadget(big)
        assert time.perf_counter() - start < 1
    # q * k * (|V(H)| + 1) = 8,000,000 vertices, refused before any is built.
    with pytest.raises(SizeCapError, match="vertex count 8000000 outside 0..500000"):
        clique_to_inducedpath(Graph(1), 2000, 2000)
    with pytest.raises(SizeCapError, match="vertex count 500002 outside 0..500000"):
        biclique_gadget(Graph(250_001))


def _sat_to_dks_ell2(formula):
    return sat_to_dks(formula, ell=2)


def _set_system(n):
    """4n elements, each in at least one of 1 + n // 3 random sets."""
    rng = random.Random(n)
    size, count = 4 * n, 1 + n // 3
    sets = [{e for e in range(size) if rng.random() < 0.3} for _ in range(count)]
    for e in range(size):
        sets[rng.randrange(count)].add(e)
    return SetSystem(size, tuple((i + 1, frozenset(s)) for i, s in enumerate(sets)))


# The input each graph reduction is tried on at size n; the gadgets take random graphs.
_DRAWS = {
    fglss: lambda n: random_labelcover(1 + n // 2, 3, 4, 2, density=0.6, seed=n,
                                       projection=True),
    _sat_to_dks_ell2: lambda n: gen_planted_cnf(3 + n // 5, 1 + n // 4, n),
    setcov_to_domset: _set_system,
}


@pytest.mark.parametrize("build", [
    biclique_gadget,
    im_gadget,
    is_to_im_gadget,
    lambda g: clique_to_inducedpath(g, 2, 2),
    fglss,
    _sat_to_dks_ell2,
    setcov_to_domset,
])
def test_graph_gadgets_refuse_exactly_what_parse_graph_refuses(build):
    # Under a 2^12-bit bound, a graph reduction is refused exactly when its
    # masks (each as wide as its highest neighbour) hold 2^12 bits or more,
    # and whatever it builds parses back from its file under the same bound.
    draw = _DRAWS.get(build, lambda n: random_graph(n, 0.3, seed=n))
    outcomes = set()
    for n in range(1, 50):
        source = draw(n)
        bits = sum(mask.bit_length() for mask in build(source).adjacency)
        with mock.patch.object(instances, "_MASK_BITS", 12):
            if bits >= 1 << 12:
                with pytest.raises(SizeCapError):
                    build(source)
            else:
                out = build(source)
                assert parse_graph(emit_graph(out)) == out
        outcomes.add(bits >= 1 << 12)
    assert outcomes == {False, True}


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_gadget_sandwiches_random(seed):
    g = random_graph(6, 0.5, seed)
    c, b = clique(g), biclique(g)
    assert c <= biclique(biclique_gadget(g)) <= 2 * b + 1
    assert c <= induced_matching(im_gadget(g)) <= 2 * b + 1


def test_is_to_im_gadget_examples():
    out = is_to_im_gadget(empty_graph(3))
    assert induced_matching(out) == 3
    assert induced_matching(is_to_im_gadget(path_graph(3))) >= 2


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_is_to_im_lower_bound_random(seed):
    g = random_graph(5, 0.5, seed)
    assert induced_matching(is_to_im_gadget(g)) >= independent_set(g)


# ---------------------------------------------------------------------------
# Induced path gadget


def test_ipath_gadget_size_formula():
    g = clique_to_inducedpath(complete_graph(2), 2, 2)
    assert g.num_vertices == 2 * 2 * 3


def test_ipath_completeness_examples():
    assert induced_path(clique_to_inducedpath(complete_graph(2), 2, 2)) >= 8
    assert induced_path(clique_to_inducedpath(complete_graph(3), 3, 1)) >= 6


def test_ipath_soundness_single_block():
    assert induced_path(clique_to_inducedpath(empty_graph(2), 2, 1)) <= 4


def test_ipath_chained_blocks_certified_bound():
    # With q >= 2 the no-k-clique bound is q(2k-1): same-vertex row hops let a
    # path cross a block in 2k-1 vertices (see the decisions notes for why the
    # tighter single-block bound cannot survive chaining).
    g = clique_to_inducedpath(empty_graph(2), 2, 2)
    assert induced_path(g) == 6  # q(2k-1) reached, 4(k-1) exceeded


def test_ipath_gadget_validation():
    with pytest.raises(ValidationError):
        clique_to_inducedpath(complete_graph(2), 1, 1)
    with pytest.raises(ValidationError):
        clique_to_inducedpath(complete_graph(2), 2, 0)


def test_ipath_bounds_small_sweep():
    from corpus import nonisomorphic_graphs_up_to

    for h in nonisomorphic_graphs_up_to(4):
        w = clique(h)
        for k in (2, 3):
            for q in (1, 2):
                g = clique_to_inducedpath(h, k, q)
                assert g.num_vertices == q * k * (h.num_vertices + 1)
                if w >= k:
                    assert induced_path_at_least(g, 2 * q * k)
                else:
                    assert not induced_path_at_least(g, q * (2 * k - 1) + 1)
                    if q == 1:
                        assert not induced_path_at_least(g, 4 * (k - 1) + 1)


# ---------------------------------------------------------------------------
# DkS partial-assignment graph


def test_dks_vertex_count():
    f = CnfFormula(3, ((1, 2, 3),))
    g = sat_to_dks(f, ell=2)
    assert g.num_vertices == math.comb(3, 2) * 4 == 12


def test_dks_edge_rule_cases():
    f = CnfFormula(3, ((1, 2, 3),))
    # Inconsistent overlap: x1=1 vs x1=0.
    assert not dks_edge(f, (0, 1), 0b01, (0, 2), 0b00)
    # Clause fully inside the union and violated: x1=0, x2=0, x3=0.
    assert not dks_edge(f, (0, 1), 0b00, (1, 2), 0b00)
    # Consistent and satisfying.
    assert dks_edge(f, (0, 1), 0b01, (1, 2), 0b10)


def test_dks_satisfying_restrictions_form_clique():
    f = gen_planted_cnf(4, 3, seed=7)
    full = next(
        a for a in range(1 << 4)
        if all(any((a >> abs(lit) - 1 & 1) == (lit > 0) for lit in clause)
               for clause in f.clauses)
    )
    restrictions = []
    for window in itertools.combinations(range(4), 2):
        bits = sum(((full >> var) & 1) << t for t, var in enumerate(window))
        restrictions.append((window, bits))
    for (w1, b1), (w2, b2) in itertools.combinations(restrictions, 2):
        assert dks_edge(f, w1, b1, w2, b2)


def test_dks_subsampling_deterministic():
    f = CnfFormula(4, ((1, 2, 3),))
    a = sat_to_dks(f, ell=2, p=0.5, seed=3)
    b = sat_to_dks(f, ell=2, p=0.5, seed=3)
    assert a == b
    assert a.num_vertices <= math.comb(4, 2) * 4


def test_dks_subsamples_a_wide_formula_within_its_kept_vertices():
    # About 10,000 of 500,000 vertices are kept. One mask per variable and bit
    # sized to the kept vertices, for all 250,000 variables, once took 5 GB.
    f = instances.parse_cnf("p cnf 250000 2\n1 0\n-250000 7 0\n")
    start = time.perf_counter()
    g = sat_to_dks(f, ell=1, p=0.02, seed=1)
    assert time.perf_counter() - start < 2
    kept = graph_reductions._dks_kept(250000, 1, 0.02, 1)
    assert g.num_vertices == len(kept)
    rng = random.Random(0)
    for _ in range(500):
        i, j = rng.sample(range(len(kept)), 2)
        assert g.has_edge(i, j) == dks_edge(f, *kept[i], *kept[j])


def test_dks_vertices_order_matches_graph():
    f = CnfFormula(3, ((1, 2, 3),))
    vertices = dks_vertices(3, 2)
    g = sat_to_dks(f, ell=2)
    assert len(vertices) == g.num_vertices
    # Spot-check one adjacency against the graph's indexing.
    i, j = 0, 5
    (w1, b1), (w2, b2) = vertices[i], vertices[j]
    assert g.has_edge(i, j) == dks_edge(f, w1, b1, w2, b2)


def test_dks_size_cap():
    f = CnfFormula(12, ((1, 2, 3),))
    with pytest.raises(SizeCapError):
        sat_to_dks(f, ell=6, size_cap=100)


def test_sat_to_dks_range_checks():
    f = CnfFormula(3, ((1, 2, 3),))
    with pytest.raises(ValidationError, match="ell must be >= 1"):
        sat_to_dks(f, ell=0)
    for p in (0.0, 1.5):
        with pytest.raises(ValidationError, match=r"p must lie in \(0,1\]"):
            sat_to_dks(f, ell=2, p=p)


# ---------------------------------------------------------------------------
# Hereditary bridge


def test_ramsey_binomial_examples():
    assert ramsey_binomial_bound(3, 3) == 6
    assert ramsey_binomial_bound(2, 5) == 5
    for s in range(1, 6):
        for t in range(1, 6):
            assert ramsey_binomial_bound(s, t) == math.comb(s + t - 2, s - 1)
    with pytest.raises(ValidationError, match="need s >= 1 and t >= 1"):
        ramsey_binomial_bound(0, 2)


def test_hereditary_bridge_examples():
    g = empty_graph(1)
    assert hereditary_bridge(g, "forest", 5) == 3  # ceil(5/2) beats the Ramsey bound
    assert hereditary_bridge(g, "edgeless", 7) == 7
    assert hereditary_bridge(g, "triangle-free", 6) == 3
    assert hereditary_bridge(g, "forest", 0) == 0
    with pytest.raises(ValidationError):
        hereditary_bridge(g, "planar", 3)
    with pytest.raises(ValidationError, match="r must be >= 0"):
        hereditary_bridge(g, "forest", -1)


def test_hereditary_bridge_is_sound_exhaustively():
    from corpus import nonisomorphic_graphs_up_to

    for g in nonisomorphic_graphs_up_to(5):
        for prop in ("edgeless", "forest", "triangle-free"):
            r = max_induced_with_property(g, prop)
            assert independent_set(g) >= hereditary_bridge(g, prop, r)


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_dks_edge_rule_symmetric(seed):
    import random as _random

    rng = _random.Random(seed)
    f = CnfFormula(4, ((1, 2, 3), (-2, -3, 4)))
    windows = list(itertools.combinations(range(4), 2))
    w1, w2 = rng.choice(windows), rng.choice(windows)
    b1, b2 = rng.randrange(4), rng.randrange(4)
    assert dks_edge(f, w1, b1, w2, b2) == dks_edge(f, w2, b2, w1, b1)


def test_fglss_equality_on_compressed_instances():
    # End-to-end: CNF lowering, left compression, FGLSS, exact clique.
    from gapred import compress_left
    from gapred.pipelines import gen_gap_cnf

    for i in range(3):
        for f in (gen_planted_cnf(6, 5, seed=f"fc-{i}"),
                  gen_gap_cnf(6, 5, 0.3, seed=f"fg-{i}")):
            lc = cnf_to_labelcover(f)
            out, _ = compress_left(lc, k=3, r=2, epsilon=0.2, seed=i)
            assert clique(fglss(out)) == max_cov(out)


def test_property_registries_agree():
    # One table holds each property's subset test and excluded clique, which
    # the oracle and the hereditary bridge both read.
    from gapred.oracles import SUPPORTED_PROPERTIES

    assert set(SUPPORTED_PROPERTIES) == {"edgeless", "forest", "triangle-free"}
    for prop, (_, s) in SUPPORTED_PROPERTIES.items():
        # s is the smallest clique size the property excludes: K_s lacks it,
        # and K_{s-1}, the largest proper induced subgraph of K_s, has it.
        assert max_induced_with_property(complete_graph(s), prop) == s - 1

