"""Disperser construction, verification, lifting, and serialization."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapred import (
    BudgetExceededError,
    Disperser,
    ParseError,
    ValidationError,
    deterministic_disperser,
    disperser_subset_size,
    emit_disperser,
    lift_disperser,
    parse_disperser,
    SizeCapError,
    SolveBudget,
    random_disperser,
    verify_disperser,
)


def test_subset_size_caps_at_universe():
    # 3m/(eps*r) = 30 > m = 4, so the size is capped at the universe.
    assert disperser_subset_size(4, 2, 0.5) == 4
    assert disperser_subset_size(20, 4, 0.5) == 20
    # eps=0.9, r=6: ceil(60/5.4) = 12 < 20.
    assert disperser_subset_size(20, 6, 0.9) == 12


def test_random_disperser_full_sets_when_capped():
    d = random_disperser(4, 3, 2, 0.5, seed=0)
    assert d.ell == 4
    assert all(s == frozenset(range(4)) for s in d.subsets)


def test_random_disperser_deterministic():
    a = random_disperser(20, 8, 6, 0.9, seed=7)
    b = random_disperser(20, 8, 6, 0.9, seed=7)
    assert a == b


def test_regime_flag():
    # ln(k) <= m/r is the regime where the random construction is guaranteed.
    d = random_disperser(20, 8, 4, 0.5, seed=0)
    assert math.log(d.k) <= d.m / d.r  # ln 8 <= 5
    d = random_disperser(4, 100, 4, 0.5, seed=0)
    assert not math.log(d.k) <= d.m / d.r


def test_dispersers_hold_m_and_k_to_the_size_rule():
    # A count at the cap is accepted; one past it is refused before any
    # subset is drawn, searched or lifted.
    assert Disperser(500000, 1, 1, 1, 0.5, (frozenset({0}),)).m == 500000
    with pytest.raises(SizeCapError, match="^universe size 500001 outside 0..500000$"):
        Disperser(500001, 1, 1, 1, 0.5, (frozenset({0}),))
    with pytest.raises(SizeCapError, match="^subset count 500001 outside 0..500000$"):
        random_disperser(10, 500001, 1, 0.5, seed=0)
    with pytest.raises(SizeCapError, match="^universe size 500001 outside 0..500000$"):
        deterministic_disperser(500001, 2, 1, 0.5)


def test_verify_pass_and_fail():
    ok = Disperser(4, 2, 2, 2, 0.5, (frozenset({0, 1}), frozenset({2, 3})))
    assert verify_disperser(ok) is None
    bad = Disperser(4, 2, 2, 2, 0.25, (frozenset({0, 1}), frozenset({0, 1})))
    assert verify_disperser(bad) == (0, 1)


def test_verify_threshold_is_exact():
    # union of size exactly (1-eps)m passes ("at least").
    d = Disperser(4, 2, 2, 2, 0.5, (frozenset({0, 1}), frozenset({0, 1})))
    assert verify_disperser(d) is None


def test_disperser_invariants():
    with pytest.raises(ValidationError):
        Disperser(4, 2, 3, 2, 0.5, (frozenset({0, 1}), frozenset({2, 3})))
    with pytest.raises(ValidationError):
        Disperser(4, 2, 2, 2, 1.5, (frozenset({0, 1}), frozenset({2, 3})))
    with pytest.raises(ValidationError):
        Disperser(4, 2, 2, 2, 0.5, (frozenset({0, 5}), frozenset({2, 3})))


def test_lift_preserves_union_fractions_exactly():
    small = Disperser(4, 2, 3, 2, 0.5, (frozenset({0, 1, 2}), frozenset({1, 2, 3})))
    assert verify_disperser(small) is None
    lifted = lift_disperser(small, 2)
    assert lifted.m == 8 and lifted.ell == 6
    # Spec example: pairing (block, offset) maps {1,2,3} to {1,2,3,5,6,7} 1-indexed.
    assert sorted(lifted.subsets[0]) == [0, 1, 2, 4, 5, 6]
    assert sorted(lifted.subsets[1]) == [1, 2, 3, 5, 6, 7]
    for i in range(2):
        for j in range(i + 1, 2):
            small_union = len(small.subsets[i] | small.subsets[j])
            big_union = len(lifted.subsets[i] | lifted.subsets[j])
            assert big_union == 2 * small_union
    assert verify_disperser(lifted) is None
    with pytest.raises(ValidationError, match="blocks must be >= 1"):
        lift_disperser(small, 0)


@given(st.integers(0, 10**9), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_lift_union_scaling_random(seed, blocks):
    d = random_disperser(6, 3, 2, 0.5, seed=seed)
    lifted = lift_disperser(d, blocks)
    union_small = len(d.subsets[0] | d.subsets[1])
    union_big = len(lifted.subsets[0] | lifted.subsets[1])
    assert union_big == blocks * union_small


def test_deterministic_disperser_verified():
    for m, k in ((6, 2), (8, 3), (5, 3)):
        d = deterministic_disperser(m, k, 2, 0.5)
        assert d.m == m and d.k == k
        assert verify_disperser(d) is None


def test_deterministic_disperser_k1():
    d = deterministic_disperser(7, 1, 2, 0.5)
    assert verify_disperser(d) is None


def test_deterministic_disperser_search_has_one_budget():
    # m' = ceil(2 ln 6) = 4 and the first candidate passes, so the search is one
    # candidate node plus one verification of C(6, 2) = 15 unions. A budget of 15
    # fits the verification but not the search; 16 fit both. m' divides 20, so
    # the lift is not checked again.
    with pytest.raises(BudgetExceededError):
        deterministic_disperser(20, 6, 2, 0.5, SolveBudget(max_nodes=15))
    d = deterministic_disperser(20, 6, 2, 0.5, SolveBudget(max_nodes=16))
    assert verify_disperser(d) is None


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_deterministic_disperser_lifts_over_a_divisible_universe_unchecked(k):
    # When m' divides m, each r-union of the lift is `blocks` times one the
    # search verified, so the lift passes without its own check.
    for r in range(1, min(k, 4) + 1):
        m_small = math.ceil(r * math.log(k))
        for eps, blocks in itertools.product((0.3, 0.6, 0.9), (1, 2, 3, 5)):
            d = deterministic_disperser(blocks * m_small, k, r, eps)
            assert d.m == blocks * m_small
            assert verify_disperser(d) is None, (k, r, eps, blocks)


def test_deterministic_disperser_tops_up_trimmed_subsets():
    # m' = ceil(4 ln 4) = 6 and l' = 5, lifted twice to [12] and trimmed to
    # [10]: each lifted subset misses one of 0..5, so it loses 10 or 11 or
    # both and is topped up, here to all of [10].
    d = deterministic_disperser(10, 4, 4, 0.9)
    assert verify_disperser(d) is None and d.ell == 10
    assert d.subsets == (frozenset(range(10)),) * 4


def test_deterministic_disperser_returns_a_one_block_search_as_verified():
    # m' = min(3, ceil(2 ln 3)) = 3 = m: one block, so the lift is the identity
    # and the search's own check stands. That is one candidate node plus
    # C(3, 2) = 3 unions; checking the lift again would take 7 nodes.
    d = deterministic_disperser(3, 3, 2, 0.5, SolveBudget(max_nodes=4))
    assert (d.m, d.k, d.ell) == (3, 3, 3)
    assert verify_disperser(d) is None
    with pytest.raises(BudgetExceededError):
        deterministic_disperser(3, 3, 2, 0.5, SolveBudget(max_nodes=3))


def _first_violation_by_set_unions(d):
    threshold = (1 - Fraction(d.eps)) * d.m
    for indices in itertools.combinations(range(d.k), d.r):
        union = set()
        for i in indices:
            union |= d.subsets[i]
        if Fraction(len(union)) < threshold:
            return indices
    return None


@given(st.integers(0, 10**9), st.integers(3, 12), st.integers(1, 6), st.integers(1, 3),
       st.sampled_from([0.2, 0.35, 0.5, 0.8]))
@settings(max_examples=60, deadline=None)
def test_verify_disperser_matches_set_unions(seed, m, k, r, eps):
    rng = random.Random(seed)
    ell = rng.randint(1, m)
    d = Disperser(m, k, ell, r, eps,
                  tuple(frozenset(rng.sample(range(m), ell)) for _ in range(k)))
    assert verify_disperser(d) == _first_violation_by_set_unions(d)


def _ref_search(m, k, r, eps):
    """The search over [m] itself, m' = m: each candidate collection built as a
    Disperser and checked by set unions. Its result and the nodes it ticks, one
    per candidate and one per r-union checked."""
    ell = disperser_subset_size(m, r, eps)
    nodes = 0
    for collection in itertools.product(itertools.combinations(range(m), ell), repeat=k):
        d = Disperser(m, k, ell, r, eps, tuple(map(frozenset, collection)))
        violation = _first_violation_by_set_unions(d)
        unions = list(itertools.combinations(range(k), r))
        nodes += 1 + (len(unions) if violation is None else unions.index(violation) + 1)
        if violation is None:
            return d, nodes
    return None


@pytest.mark.parametrize("m, k, r, eps", [(13, 13, 13, 0.5), (13, 14, 13, 0.5),
                                           (20, 15, 15, 0.4)])
def test_deterministic_disperser_search_matches_candidate_by_candidate(m, k, r, eps):
    # r ln k >= m, so m' = m and the search's pick is returned. Its first
    # candidate, one subset k times, falls short; the pick is the 2nd, 1,718th
    # and 22nd collection, its pool masks drawn as the product reaches them.
    want, nodes = _ref_search(m, k, r, eps)
    assert deterministic_disperser(m, k, r, eps) == want
    if nodes >= math.comb(m, want.ell):  # a smaller budget refuses the pool first
        assert deterministic_disperser(m, k, r, eps, SolveBudget(max_nodes=nodes)) == want
        with pytest.raises(BudgetExceededError):
            deterministic_disperser(m, k, r, eps, SolveBudget(max_nodes=nodes - 1))


def test_deterministic_disperser_reproducible():
    assert deterministic_disperser(8, 3, 2, 0.5) == deterministic_disperser(8, 3, 2, 0.5)


def test_emit_parse_roundtrip():
    d = random_disperser(10, 4, 2, 0.4, seed=3)
    assert parse_disperser(emit_disperser(d)) == d
    # A comment may be indented, as in the other formats.
    head, body = emit_disperser(d).split("\n", 1)
    assert parse_disperser(f"{head}\n  c note\n{body}") == d


def test_parse_disperser_errors():
    # The tag is a whole field, and every error found on a line names it.
    for text, error in [
        ("nope\n", "line 1: missing 'disp' header"),
        ("dispx 4 2 2 2 0.5\n1 2\n3 4\n", "line 1: missing 'disp' header"),
        ("c\ndisp 4 2\n", "line 2: malformed header 'disp 4 2'"),
        ("disp 4 x 2 2 0.5\n", "line 1: non-integer header field"),
        ("disp 4 2 2 2 y\n", "line 1: non-numeric header field"),
        ("disp 4 2 2 2 0.5\n1 2\n\n1 x\n", "line 4: non-integer element"),
        ("disp 4 2 2 2 0.5\n1 2\n", "header declares 2 subsets, found 1"),
        ("disp 4 500001 2 2 0.5\n1 2\n", "line 1: subset count 500001 outside 0..500000"),
    ]:
        with pytest.raises(ParseError, match=f"^{re.escape(error)}$"):
            parse_disperser(text)


def test_statistical_regime_no_failures():
    # Claim-4.1 regime at a size where verification is nontrivial (ell < m).
    failures = 0
    for seed in range(200):
        d = random_disperser(20, 8, 6, 0.9, seed=seed)
        assert d.ell == 12
        if verify_disperser(d) is not None:
            failures += 1
    assert failures == 0
    assert math.log(8) <= 20 / 6
