"""Exact oracle solvers: spec examples, cross-oracle consistency, budgets."""

import inspect
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapred import (
    BudgetExceededError,
    CnfFormula,
    Graph,
    LabelCover,
    SetSystem,
    SolveBudget,
    ValidationError,
    biclique,
    clique,
    cnf_to_labelcover,
    count_ktt,
    densest_k,
    dom_set,
    independent_set,
    induced_matching,
    induced_path,
    induced_path_at_least,
    max_cov,
    max_induced_with_property,
    min_lab,
    random_graph,
    sat_max,
    set_cover,
)
from gapred import oracles
from gapred.instances import bits_of

from corpus import (
    all_labeled_graphs,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    pair_beta_masks,
    path_graph,
    petersen_graph,
    random_labelcover,
)


# ---------------------------------------------------------------------------
# sat_max


def test_sat_max_single_unit():
    assert sat_max(CnfFormula(1, ((1,),))) == 1


def test_sat_max_complementary_units():
    assert sat_max(CnfFormula(1, ((1,), (-1,)))) == 1


def test_sat_max_three_clause_example():
    f = CnfFormula(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3)))
    # Oracle value frozen from direct enumeration of all 8 assignments.
    assert sat_max(f) == 3


def test_sat_max_empty_formula():
    assert sat_max(CnfFormula(4, ())) == 0


# ---------------------------------------------------------------------------
# max_cov / min_lab


def test_max_cov_empty_relation_edge():
    lc = LabelCover(1, 1, 2, 2, {(0, 0): set()})
    assert max_cov(lc) == 0


def test_max_cov_full_relation_edge():
    pairs = {(a, b) for a in range(2) for b in range(2)}
    lc = LabelCover(1, 1, 2, 2, {(0, 0): pairs})
    assert max_cov(lc) == 1


def test_max_cov_isolated_left_counts_as_covered():
    lc = LabelCover(2, 1, 2, 2, {(0, 0): {(0, 0)}})
    assert max_cov(lc) == 2


def test_max_cov_empty_admissible_never_covered():
    lc = LabelCover(1, 0, 2, 2, {}, admissible={0: frozenset()})
    assert max_cov(lc) == 0


def min_lab_assignments(lc):
    """Referee for min_lab by the dual decomposition: enumerate left
    labelings, then solve a minimum hitting set per right vertex."""
    adm = [lc.admissible_list(u) for u in range(lc.left_size)]
    if any(not labels for labels in adm):
        return None
    bmask = {
        (u, v): pair_beta_masks(lc, u, v)
        for u in range(lc.left_size)
        for v in lc.left_neighbors[u]
    }
    best = None
    for labels in itertools.product(*adm):
        total = 0
        ok = True
        for v in range(lc.right_size):
            targets = [bmask[(u, v)][labels[u]] for u in lc.right_neighbors[v]]
            if not targets:
                continue
            if any(t == 0 for t in targets):
                ok = False
                break
            need = _min_hitting_set(targets)
            if best is not None and total + need >= best:
                ok = False
                break
            total += need
        if ok and (best is None or total < best):
            best = total
    return best


def _min_hitting_set(target_masks):
    """Smallest set of bits touching every mask; masks are nonempty."""
    union = 0
    for m in target_masks:
        union |= m
    candidates = list(bits_of(union))
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            chosen = 0
            for b in combo:
                chosen |= 1 << b
            if all(chosen & m for m in target_masks):
                return size
    raise AssertionError("unreachable: union hits every mask")


def test_min_lab_single_pair():
    lc = LabelCover(1, 1, 1, 2, {(0, 0): {(0, 0)}})
    assert min_lab(lc) == 1


def test_min_lab_two_labels_needed():
    # Two left vertices demand different right labels on the same right vertex.
    lc = LabelCover(2, 1, 1, 2, {(0, 0): {(0, 0)}, (1, 0): {(0, 1)}})
    assert min_lab(lc) == 2
    assert min_lab_assignments(lc) == 2


def test_min_lab_infeasible():
    lc = LabelCover(1, 1, 1, 2, {(0, 0): set()})
    assert min_lab(lc) is None
    assert min_lab_assignments(lc) is None


def test_min_lab_isolated_right_vertices_cost_nothing():
    lc = LabelCover(1, 2, 1, 2, {(0, 0): {(0, 1)}})
    assert min_lab(lc) == 1


def ref_max_cov_at_least(lc, r):
    """Whether some r left vertices take labels that one right labeling
    satisfies on all their edges: every r-subset of U times its admissible
    labels, the decision loop max_cov is checked against."""
    if r <= 0:
        return True
    if r > lc.left_size:
        return False
    full = (1 << lc.right_alphabet) - 1
    adm = [lc.admissible_list(u) for u in range(lc.left_size)]
    for subset in itertools.combinations(range(lc.left_size), r):
        for labels in itertools.product(*(adm[u] for u in subset)):
            ok = True
            per_v: dict[int, int] = {}
            for u, a in zip(subset, labels):
                for v in lc.left_neighbors[u]:
                    m = per_v.get(v, full) & lc.betas[u, v].get(a, 0)
                    if not m:
                        ok = False
                        break
                    per_v[v] = m
                if not ok:
                    break
            if ok:
                return True
    return False


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_max_cov_strategies_agree(seed):
    lc = random_labelcover(3, 2, 2, 2, density=0.8, seed=seed, pair_density=0.4)
    opt = max_cov(lc)
    for r in range(lc.left_size + 1):
        assert ref_max_cov_at_least(lc, r) == (opt >= r)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_min_lab_strategies_agree(seed):
    lc = random_labelcover(2, 2, 2, 3, density=0.9, seed=seed, pair_density=0.5)
    assert min_lab(lc) == min_lab_assignments(lc)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_min_lab_equals_right_size_iff_fully_coverable(seed):
    # With no isolated right vertex, MinLab = |V| exactly when MaxCov = |U|.
    lc = random_labelcover(2, 2, 2, 2, density=1.0, seed=seed, pair_density=0.6)
    if any(not lc.right_neighbors[v] for v in range(lc.right_size)):
        return
    if max_cov(lc) == lc.left_size:
        assert min_lab(lc) == lc.right_size
    else:
        assert min_lab(lc) != lc.right_size


# ---------------------------------------------------------------------------
# clique / independent set


def test_clique_examples():
    assert clique(complete_graph(4)) == 4
    assert clique(empty_graph(5)) == 1
    assert clique(empty_graph(0)) == 0
    assert clique(petersen_graph()) == 2


def test_independent_set_examples():
    assert independent_set(complete_graph(4)) == 1
    assert independent_set(empty_graph(5)) == 5
    assert independent_set(petersen_graph()) == 4


# ---------------------------------------------------------------------------
# biclique / count_ktt


def test_biclique_examples():
    assert biclique(complete_bipartite(3, 3)) == 3
    assert biclique(cycle_graph(5)) == 1
    assert biclique(empty_graph(4)) == 0
    assert biclique(complete_graph(4)) == 2


def test_count_ktt_examples():
    assert count_ktt(path_graph(2), 1) == 1
    assert count_ktt(complete_bipartite(2, 2), 2) == 1
    assert count_ktt(empty_graph(5), 1) == 0
    with pytest.raises(ValidationError):
        count_ktt(empty_graph(2), 0)


# ---------------------------------------------------------------------------
# set cover / dominating set


def test_set_cover_examples():
    assert set_cover(SetSystem(2, ((1, frozenset({0})), (2, frozenset({1}))))) == 2
    assert set_cover(SetSystem(2, ((1, frozenset({0, 1})),))) == 1
    assert set_cover(SetSystem(2, ((1, frozenset({0})),))) is None
    assert set_cover(SetSystem(0, ())) == 0


def test_dom_set_examples():
    assert dom_set(path_graph(3)) == 1
    assert dom_set(empty_graph(3)) == 3
    assert dom_set(complete_graph(5)) == 1
    assert dom_set(petersen_graph()) == 3


# ---------------------------------------------------------------------------
# induced matching / induced path


def test_induced_matching_examples():
    assert induced_matching(path_graph(4)) == 1
    assert induced_matching(path_graph(5)) == 2
    assert induced_matching(Graph(4, {(0, 1), (2, 3)})) == 2
    assert induced_matching(empty_graph(3)) == 0


def test_induced_path_examples():
    assert induced_path(path_graph(5)) == 5
    assert induced_path(complete_graph(4)) == 2
    assert induced_path(cycle_graph(5)) == 4
    assert induced_path(empty_graph(0)) == 0
    assert induced_path(empty_graph(3)) == 1


def test_induced_path_at_least():
    assert induced_path_at_least(path_graph(5), 5)
    assert not induced_path_at_least(path_graph(5), 6)
    assert induced_path_at_least(empty_graph(2), 0)


# ---------------------------------------------------------------------------
# densest k / hereditary properties


def test_densest_k_examples():
    assert densest_k(complete_graph(3), 3) == 1
    assert densest_k(Graph(4, {(0, 1), (2, 3)}), 2) == 1
    k4_minus = Graph(4, {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)})
    assert densest_k(k4_minus, 3) == 1
    assert densest_k(path_graph(4), 3) == Fraction(2, 3)
    with pytest.raises(ValidationError):
        densest_k(path_graph(4), 1)


def test_max_induced_property_examples():
    assert max_induced_with_property(complete_graph(4), "edgeless") == 1
    assert max_induced_with_property(complete_graph(4), "forest") == 2
    assert max_induced_with_property(path_graph(5), "forest") == 5
    assert max_induced_with_property(complete_graph(4), "triangle-free") == 2
    with pytest.raises(ValidationError):
        max_induced_with_property(path_graph(3), "planar")


def test_max_induced_edgeless_is_the_independent_set_search():
    # Enumerating the 2^40 subsets would pass this budget at once.
    g = random_graph(40, 0.5, 3)
    budget = SolveBudget(max_nodes=10_000)
    assert max_induced_with_property(g, "edgeless", budget) == independent_set(g, budget)


# ---------------------------------------------------------------------------
# Cross-oracle consistency


def test_cross_oracle_exhaustive_small():
    for n in range(0, 5):
        for g in all_labeled_graphs(n):
            comp = g.complement()
            assert clique(g) == independent_set(comp)
            assert (biclique(g) >= 1) == (g.num_edges >= 1)
            assert max_induced_with_property(g, "edgeless") == independent_set(g)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_cross_oracle_random(seed):
    g = random_graph(8, 0.5, seed)
    assert clique(g) == independent_set(g.complement())
    assert (biclique(g) >= 1) == (g.num_edges >= 1)
    assert max_induced_with_property(g, "edgeless") == independent_set(g)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_count_ktt_matches_biclique(seed):
    g = random_graph(7, 0.5, seed)
    b = biclique(g)
    if b >= 1:
        assert count_ktt(g, b) >= 1
    else:
        assert count_ktt(g, 1) == 0
    assert count_ktt(g, b + 1) == 0


# ---------------------------------------------------------------------------
# The oracle table


def test_oracle_table_rows_match_their_functions():
    tiny = {
        "cnf": CnfFormula(2, ((1, 2), (-1,))),
        "lc": cnf_to_labelcover(CnfFormula(2, ((1, 2), (-1,)))),
        "graph": petersen_graph(),
        "setsystem": SetSystem(3, ((1, frozenset({0, 1})), (2, frozenset({1, 2})))),
    }
    problems = [row.problem for row in oracles.ORACLES.values() if row.problem is not None]
    assert len(problems) == len(set(problems)) == 13
    for name, row in oracles.ORACLES.items():
        function = getattr(oracles, name)
        assert callable(function) and not name.startswith("_"), name
        assert row.witness == ("witness" in inspect.signature(function).parameters), name
        # Every solve problem runs on an instance of its kind, with its flag's default.
        extra = ()
        if row.extra is not None:
            _, flag_type, default = row.extra
            assert isinstance(default, flag_type), name
            extra = (default,)
        if row.problem is not None:
            oracles.call(name, tiny[row.kind], *extra)
    assert set(oracles.__all__) - set(oracles.ORACLES) == {
        "SolveBudget", "DEFAULT_BUDGET", "Oracle", "ORACLES", "call", "SUPPORTED_PROPERTIES"}


def test_call_passes_a_witness_only_to_witness_rows(monkeypatch):
    seen = {}
    for name in oracles.ORACLES:
        monkeypatch.setattr(oracles, name,
                            lambda instance, *args, _name=name, **kw: seen.update({_name: (args, kw)}))
    for name, row in oracles.ORACLES.items():
        oracles.call(name, "instance", 7, budget="budget", witness="witness")
        assert seen[name] == ((7, "budget"), {"witness": "witness"} if row.witness else {}), name
        oracles.call(name, "instance", budget="budget")
        assert seen[name] == (("budget",), {}), name
    with pytest.raises(KeyError):
        oracles.call("solve_everything", "instance")


# ---------------------------------------------------------------------------
# Budgets


def test_budget_validation():
    with pytest.raises(ValidationError):
        SolveBudget(max_nodes=0)
    with pytest.raises(ValidationError):
        SolveBudget(max_millis=-1)


def test_budget_exceeded_is_reported():
    tiny = SolveBudget(max_nodes=3, max_millis=60_000)
    with pytest.raises(BudgetExceededError):
        sat_max(CnfFormula(6, ((1,), (-1,), (2,), (-2,))), tiny)
    with pytest.raises(BudgetExceededError):
        clique(petersen_graph(), tiny)


_DEEP = 1100  # past the default recursion limit of 1000


def _perfect_matching(pairs):
    return Graph(2 * pairs, frozenset((2 * i, 2 * i + 1) for i in range(pairs)))


# tests/test_pipelines_cli.py runs deeper repros through the CLI.
@pytest.mark.parametrize("search, want", [
    (lambda: clique(complete_graph(_DEEP)), _DEEP),
    (lambda: independent_set(empty_graph(_DEEP)), _DEEP),
    (lambda: induced_path(path_graph(_DEEP)), _DEEP),
    (lambda: induced_matching(_perfect_matching(_DEEP)), _DEEP),
    (lambda: biclique(complete_bipartite(_DEEP, _DEEP)), _DEEP),
    # The pair {0, 1} makes greedy's cover 1099 sets long and no root bound
    # settles it, so the search adds one singleton per level.
    (lambda: set_cover(SetSystem(_DEEP, [(0, (0, 1)), *((e + 1, (e,)) for e in range(_DEEP))])),
     _DEEP - 1),
    # One left vertex on every right vertex: one size per right vertex.
    (lambda: min_lab(LabelCover(1, _DEEP, 1, 1, {(0, v): {(0, 0)} for v in range(_DEEP)})),
     _DEEP),
], ids=["clique", "independent_set", "induced_path", "induced_matching", "biclique", "set_cover",
        "min_lab"])
def test_a_search_past_the_recursion_limit_answers(search, want):
    # Each search once recursed once per level: it let a RecursionError
    # escape, which the CLI reported as a failed verification, and then
    # raised BudgetExceededError in its place. As a loop it answers.
    assert search() == want


def test_sat_max_charges_whole_chunks():
    # The all-false assignment satisfies both clauses, yet every one of the
    # 2^6 assignments is charged before any is scored.
    formula = CnfFormula(6, ((-1,), (-2, 3)))
    with pytest.raises(BudgetExceededError):
        sat_max(formula, SolveBudget(max_nodes=63))
    assert sat_max(formula, SolveBudget(max_nodes=64)) == 2


def test_cross_oracle_exhaustive_six_vertices():
    # Exhaustive over isomorphism classes up to n = 6 (the checked identities
    # are isomorphism-invariant).
    from corpus import nonisomorphic_graphs_up_to

    for g in nonisomorphic_graphs_up_to(6):
        comp = g.complement()
        assert clique(g) == independent_set(comp)
        assert (biclique(g) >= 1) == (g.num_edges >= 1)
        assert max_induced_with_property(g, "edgeless") == independent_set(g)


def test_max_cov_strategies_agree_200_seeds():
    # cnf2lc of (x1 or x2) and (not x1 or x2), whose x2 = 1 covers both clauses.
    covers = [cnf_to_labelcover(CnfFormula(2, ((1, 2), (-1, 2))))]
    covers += [random_labelcover(3, 2, 2, 2, density=0.8, seed=f"s2-{seed}", pair_density=0.4)
               for seed in range(200)]
    assert max_cov(covers[0]) == 2
    for lc in covers:
        opt = max_cov(lc)
        for r in range(lc.left_size + 1):
            assert ref_max_cov_at_least(lc, r) == (opt >= r)


def test_random_labelcover_invariants_100_draws():
    # Construction itself runs the invariant checker; reaching here means all
    # 100 draws validated.
    for seed in range(100):
        lc = random_labelcover(3, 3, 3, 2, density=0.6, seed=seed,
                               admissible_density=0.5)
        assert set(lc.relations.keys()) == set(lc.edges)
