"""Label-cover transformations: CNF lowering, compressions, projection."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapred import (
    CnfFormula,
    Disperser,
    LabelCover,
    SizeCapError,
    ValidationError,
    cnf_to_labelcover,
    compress_left,
    compress_left_with,
    compress_right,
    emit_labelcover,
    max_cov,
    min_lab,
    minlab_instance,
    projection_check,
    random_cnf,
    random_disperser,
    sat_max,
    verify_disperser,
)
from gapred import instances, lc_transforms
from gapred.instances import bits_of
from gapred.pipelines import gen_gap_cnf, gen_planted_cnf

from corpus import mixed_cnf, pair_beta_masks, random_labelcover


# ---------------------------------------------------------------------------
# cnf_to_labelcover


@pytest.mark.parametrize("seed", range(4))
def test_cnf_to_labelcover_masks_hold_at_most_48_bits_a_clause(seed):
    # What lets cnf_to_labelcover skip counting its masks: at the clause cap
    # they hold at most 2.4 * 10^7 bits, under the size rule's 2^27.
    lc = cnf_to_labelcover(mixed_cnf(random.Random(seed), 5, 40))
    for u in range(lc.left_size):
        bits = sum(mask.bit_length() for v in lc.left_neighbors[u]
                   for mask in lc.betas[u, v].values())
        assert bits <= 48
    assert 48 * instances.DEFAULT_SIZE_CAP < 1 << instances._MASK_BITS


def test_cnf_to_labelcover_single_clause():
    lc = cnf_to_labelcover(CnfFormula(3, ((1, 2, 3),)))
    assert (lc.left_size, lc.right_size) == (1, 3)
    assert len(lc.admissible[0]) == 7
    assert max_cov(lc) == 1


def test_cnf_to_labelcover_contradiction():
    f = CnfFormula(1, ((1,), (-1,)))
    lc = cnf_to_labelcover(f)
    assert max_cov(lc) == 1 == sat_max(f)


def test_cnf_to_labelcover_empty():
    lc = cnf_to_labelcover(CnfFormula(0, ()))
    assert lc.left_size == 0
    assert max_cov(lc) == 0


def test_cnf_to_labelcover_has_projection():
    lc = cnf_to_labelcover(random_cnf(5, 6, seed=11))
    assert projection_check(lc) is None


def test_cnf_to_labelcover_narrow_clause_padding():
    lc = cnf_to_labelcover(CnfFormula(2, ((1,), (1, -2))))
    # Width-1 clause: 1 satisfying value x 4 free padding bits.
    assert len(lc.admissible[0]) == 4
    # Width-2 clause: 3 of 4 satisfying pairs x 2 padding bits.
    assert len(lc.admissible[1]) == 6


def ref_cnf_to_labelcover(formula):
    """cnf_to_labelcover's clause loop before it built one game per sign
    pattern: each clause's game is recomputed from its literals."""
    betas = {}
    admissible = {}
    for i, clause in enumerate(formula.clauses):
        width = len(clause)
        satisfying = []
        for alpha in range(8):
            if any(((alpha >> p) & 1) == (1 if clause[p] > 0 else 0) for p in range(width)):
                satisfying.append(alpha)
        admissible[i] = frozenset(satisfying)
        for p, lit in enumerate(clause):
            betas[i, abs(lit) - 1] = {alpha: 1 << (alpha >> p & 1) for alpha in satisfying}
    return LabelCover._bounded(left_size=formula.num_clauses, right_size=formula.num_vars,
                               left_alphabet=8, right_alphabet=2, betas=betas,
                               admissible=admissible)


def _lowering_formulas():
    yield CnfFormula(0, ())
    # Every sign pattern of widths 1, 2 and 3: the 14 games, each once.
    yield CnfFormula(3, tuple(tuple(v if sign else -v for v, sign in enumerate(signs, 1))
                              for width in (1, 2, 3)
                              for signs in itertools.product((False, True), repeat=width)))
    for seed in range(6):
        rng = random.Random(seed)
        yield mixed_cnf(rng, rng.randint(1, 9), rng.randint(0, 60))
        yield gen_planted_cnf(8, 30, seed=seed)
    for seed in range(2):
        yield gen_gap_cnf(6, 5, 0.3, seed=seed)


def test_cnf_to_labelcover_matches_the_per_clause_loop():
    for formula in _lowering_formulas():
        lc, want = cnf_to_labelcover(formula), ref_cnf_to_labelcover(formula)
        assert lc == want
        assert emit_labelcover(lc) == emit_labelcover(want)
        # The same edges and labels in the same insertion order.
        assert ([(edge, list(masks.items())) for edge, masks in lc.betas.items()]
                == [(edge, list(masks.items())) for edge, masks in want.betas.items()])
        # Clauses share their game's admissible set, but no edge shares its store.
        assert len({id(masks) for masks in lc.betas.values()}) == len(lc.betas)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_clause_variable_game_identity(seed):
    f = random_cnf(5, 6, seed)
    assert max_cov(cnf_to_labelcover(f)) == sat_max(f)


# ---------------------------------------------------------------------------
# projection_check


def test_projection_check_violations():
    from gapred import LabelCover

    two_beta = LabelCover(1, 1, 1, 2, {(0, 0): {(0, 0), (0, 1)}})
    assert projection_check(two_beta) == (0, 0, 0, 2)

    zero_beta = LabelCover(1, 1, 1, 2, {(0, 0): set()})
    assert projection_check(zero_beta) == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# compress_left


def test_compress_left_params_validation():
    lc = cnf_to_labelcover(gen_planted_cnf(4, 3, seed=1))
    with pytest.raises(ValidationError, match="need k >= r >= 1"):
        compress_left(lc, k=1, r=2, epsilon=0.5)
    with pytest.raises(ValidationError, match=r"eps must lie in \(0,1\)"):
        compress_left(lc, k=2, r=1, epsilon=1.5)
    with pytest.raises(ValidationError, match="unknown disperser mode 'magic'"):
        compress_left(lc, k=2, r=1, epsilon=0.5, disperser="magic")
    with pytest.raises(ValidationError, match="cannot left-compress an empty left side"):
        compress_left(LabelCover(0, 2, 1, 1), k=1, r=1, epsilon=0.5)
    with pytest.raises(ValidationError, match="disperser universe 5 disagrees with left size 3"):
        compress_left_with(lc, random_disperser(5, 1, 1, 0.5, seed=0))


def test_compress_left_single_supervertex_is_and_of_clauses():
    # k=1, ell=m: the lone super-vertex is covered iff the source is fully coverable.
    sat = gen_planted_cnf(5, 4, seed=3)
    gap = gen_gap_cnf(5, 4, 0.3, seed=3)
    for f in (sat, gap):
        lc = cnf_to_labelcover(f)
        out, disp = compress_left(lc, k=1, r=1, epsilon=0.2, seed=5)
        assert disp.ell == lc.left_size
        fully = sat_max(f) == f.num_clauses
        assert max_cov(out) == (1 if fully else 0)


def test_compress_left_completeness():
    f = gen_planted_cnf(6, 5, seed=1)
    lc = cnf_to_labelcover(f)
    out, disp = compress_left(lc, k=3, r=2, epsilon=0.2, seed=2)
    assert out.left_size == 3
    assert max_cov(out) == 3
    assert projection_check(out) is None


def test_compress_left_soundness_on_certified_gap():
    f = gen_gap_cnf(6, 5, 0.3, seed=4)
    lc = cnf_to_labelcover(f)
    out, disp = compress_left(lc, k=3, r=2, epsilon=0.2, seed=9)
    assert verify_disperser(disp) is None
    assert max_cov(out) < 2


def test_compress_left_keeps_consistent_tuples_only():
    # Two clauses sharing x1 with opposite polarity: joint tuples must agree on
    # every shared variable, so each label allows one value of each.
    f = CnfFormula(3, ((1, 2, 3), (-1, 2, 3)))
    lc = cnf_to_labelcover(f)
    out, _ = compress_left(lc, k=1, r=1, epsilon=0.5, seed=0)
    for v in range(3):
        for label in out.admissible[0]:
            assert out.betas[0, v][label].bit_count() == 1
    # One label per assignment satisfying both clauses.
    both = [x for x in itertools.product((False, True), repeat=3)
            if all(any(x[abs(lit) - 1] == (lit > 0) for lit in c) for c in f.clauses)]
    assert len(out.admissible[0]) == len(both) == 6


def test_compress_left_size_cap():
    f = gen_planted_cnf(6, 6, seed=8)
    lc = cnf_to_labelcover(f)
    with pytest.raises(SizeCapError):
        compress_left(lc, k=2, r=2, epsilon=0.2, seed=0, size_cap=10)


def test_compress_left_refuses_k_past_the_cap_before_any_disperser():
    # k new left vertices cannot fit under a cap below k, so neither mode
    # draws or searches a disperser first (10^9 subsets would take minutes).
    lc = cnf_to_labelcover(gen_planted_cnf(4, 3, seed=0))
    for mode in ("random", "deterministic"):
        with pytest.raises(SizeCapError, match="1000000000 left subsets exceed cap 500000"):
            compress_left(lc, k=10**9, r=2, epsilon=0.5, disperser=mode, seed=0)


def test_compress_left_caps_live_prefixes_not_the_product():
    # Eight clauses over the same three variables: their joint labels must
    # agree on all three, so at most 7 prefixes survive each member, while the
    # product holds 7^8 = 5,764,801 tuples.
    clauses = tuple((1, 2, 3) if i % 2 else (-1, 2, -3) for i in range(8))
    lc = cnf_to_labelcover(CnfFormula(3, clauses))
    disperser = Disperser(8, 1, 8, 1, 0.5, (frozenset(range(8)),))
    out = compress_left_with(lc, disperser, size_cap=18)
    assert len(out.admissible[0]) == 6  # the assignments satisfying both clause kinds
    assert sum(map(len, out.relations.values())) == 18  # the relation-pair cap still holds
    assert max_cov(out) == 1
    # The first member alone keeps its 7 labels, one over a cap of 6.
    with pytest.raises(SizeCapError, match="over 6 partial labelings after 1 of 8 members"):
        compress_left_with(lc, disperser, size_cap=6)


def test_compress_left_with_explicit_disperser_soundness():
    # Random label covers exercise ell < m and genuinely gappy sources.
    hits = 0
    for seed in range(40):
        lc = random_labelcover(6, 3, 2, 2, density=0.7, seed=seed, pair_density=0.3)
        disp = random_disperser(6, 3, 2, 0.5, seed=seed)
        if verify_disperser(disp) is not None:
            continue
        out = compress_left_with(lc, disp)
        src = max_cov(lc)
        if src == lc.left_size:
            assert max_cov(out) == disp.k
        elif src < 0.5 * lc.left_size:
            hits += 1
            assert max_cov(out) < 2
    assert hits > 0


def test_compress_left_preserves_projection_on_random_instances():
    for seed in range(10):
        lc = random_labelcover(5, 3, 2, 2, density=0.8, seed=seed, projection=True)
        out, _ = compress_left(lc, k=2, r=2, epsilon=0.5, seed=seed)
        assert projection_check(out) is None


# ---------------------------------------------------------------------------
# compress_right


def test_compress_right_params_validation():
    lc = cnf_to_labelcover(gen_planted_cnf(4, 3, seed=1))
    with pytest.raises(ValidationError, match="q must be >= 1"):
        compress_right(lc, q=0, gamma=0.5, epsilon=0.2)
    with pytest.raises(ValidationError, match=r"gamma must lie in \(0,1\]"):
        compress_right(lc, q=1, gamma=0.0, epsilon=0.2)
    with pytest.raises(ValidationError, match=r"eps must lie in \(0,1\)"):
        compress_right(lc, q=1, gamma=0.5, epsilon=0.0)
    with pytest.raises(ValidationError, match="right compression needs nonempty sides"):
        compress_right(LabelCover(2, 0, 1, 1), q=1, gamma=0.5, epsilon=0.3)


def test_compress_right_sizes():
    import math

    f = gen_planted_cnf(6, 5, seed=6)
    lc = cnf_to_labelcover(f)
    out = compress_right(lc, q=2, gamma=0.5, epsilon=0.3)
    # ell = ceil(ln 2 / 0.3) = 3; |U'| = C(5,3); |Sigma_V'| = 2^ceil(6/2).
    assert out.left_size == math.comb(5, 3)
    assert out.right_size == 2
    assert out.right_alphabet == 2**3
    assert len(out.edges) == out.left_size * 2


def test_compress_right_completeness():
    f = gen_planted_cnf(6, 5, seed=6)
    out = compress_right(cnf_to_labelcover(f), q=2, gamma=0.5, epsilon=0.3)
    assert max_cov(out) == out.left_size


def test_compress_right_soundness():
    f = gen_gap_cnf(6, 5, 0.3, seed=10)
    out = compress_right(cnf_to_labelcover(f), q=2, gamma=0.5, epsilon=0.3)
    assert max_cov(out) < 0.5 * out.left_size


def test_compress_right_gamma_one_clamps_ell():
    f = gen_planted_cnf(5, 4, seed=2)
    out = compress_right(cnf_to_labelcover(f), q=1, gamma=1.0, epsilon=0.3)
    # ell clamps to 1: left vertices are singletons.
    assert out.left_size == 4
    assert max_cov(out) == 4


# ---------------------------------------------------------------------------
# The joint labels of a super-vertex


def _product_joint_labels(lc, members, size_cap, index):
    """Reference for lc_transforms._joint_labels: enumerate the product, then filter.

    The cap applies to the live prefixes: for each t, the product of the first
    t members' labels, filtered the same way, must hold at most size_cap tuples.
    """
    choice_lists = [lc.admissible_list(u) for u in members]
    touched = sorted({v for u in members for v in lc.left_neighbors[u]})
    betas = {(u, v): pair_beta_masks(lc, u, v) for u in members for v in lc.left_neighbors[u]}
    for t in range(len(members) + 1):
        kept, kept_masks = [], []
        for tup in itertools.product(*choice_lists[:t]):
            vmask = {v: -1 for v in touched}
            for u, alpha in zip(members, tup):
                for v in lc.left_neighbors[u]:
                    vmask[v] &= betas[u, v][alpha]
            if all(vmask.values()):
                kept.append(tup)
                kept_masks.append(vmask)
        if t and len(kept) > size_cap:
            raise SizeCapError(f"super-vertex {index} keeps over {size_cap} partial labelings "
                               f"after {t} of {len(members)} members")
    return touched, kept, kept_masks


def ref_compress_left_with(lc, disperser, size_cap=instances.DEFAULT_SIZE_CAP):
    """Reference for compress_left_with: per-vertex mask dicts from the product join."""
    if disperser.m != lc.left_size:
        raise ValidationError(
            f"disperser universe {disperser.m} disagrees with left size {lc.left_size}"
        )
    relations, admissible = {}, {}
    total_pairs, max_labels = 0, 1
    for i, subset in enumerate(disperser.subsets):
        members = sorted(subset)
        touched, kept, kept_masks = _product_joint_labels(lc, members, size_cap, i)
        admissible[i] = frozenset(range(len(kept)))
        max_labels = max(max_labels, len(kept))
        for v in touched:
            pairs = frozenset(
                (ai, b) for ai, vm in enumerate(kept_masks) for b in bits_of(vm[v])
            )
            total_pairs += len(pairs)
            if total_pairs > size_cap:
                raise SizeCapError(f"relation pairs exceed cap {size_cap}")
            relations[(i, v)] = pairs
    return LabelCover(disperser.k, lc.right_size, max_labels, lc.right_alphabet, relations,
                      admissible)


def ref_compress_right(lc, q, gamma, epsilon, size_cap=instances.DEFAULT_SIZE_CAP):
    """Reference for compress_right: every kept tuple's block product, deduplicated."""
    m, n = lc.left_size, lc.right_size
    if m < 1 or n < 1:
        raise ValidationError("right compression needs nonempty sides")
    if q > n:
        raise ValidationError(f"q={q} exceeds right size {n}")
    ell = max(1, math.ceil(math.log(1.0 / gamma) / epsilon))
    if ell > m:
        raise ValidationError(f"derived ell={ell} exceeds left size {m}")
    num_left = math.comb(m, ell)
    if num_left > size_cap:
        raise SizeCapError(f"{num_left} left subsets exceed cap {size_cap}")
    blocks = lc_transforms._block_partition(n, q)
    ra = lc.right_alphabet
    max_block = max(len(b) for b in blocks)
    if ra**max_block > size_cap:
        raise SizeCapError(f"right alphabet {ra}^{max_block} exceeds cap {size_cap}")
    full_mask = (1 << ra) - 1
    relations, admissible = {}, {}
    total_pairs, max_labels = 0, 1
    for i, members in enumerate(itertools.combinations(range(m), ell)):
        _, kept, kept_masks = _product_joint_labels(lc, members, size_cap, i)
        admissible[i] = frozenset(range(len(kept)))
        max_labels = max(max_labels, len(kept))
        for j, block in enumerate(blocks):
            pairs = set()
            for ai, vmask in enumerate(kept_masks):
                allowed = [list(bits_of(vmask.get(v, full_mask))) for v in block]
                for combo in itertools.product(*allowed):
                    beta = 0
                    for digit in combo:
                        beta = beta * ra + digit
                    pairs.add((ai, beta))
            total_pairs += len(pairs)
            if total_pairs > size_cap:
                raise SizeCapError(f"relation pairs exceed cap {size_cap}")
            relations[(i, j)] = frozenset(pairs)
    return LabelCover(num_left, q, max_labels, ra**max_block, relations, admissible)


def _outcomes(pairs):
    """Each compression's emitted text, or the error it raised."""
    outputs = []
    for compress in pairs:
        try:
            out = compress()
        except (SizeCapError, ValidationError) as exc:
            outputs.append((type(exc), str(exc)))
        else:
            outputs.append(emit_labelcover(out))
    return outputs


def _assert_compressions_match_referees(lc, disperser, params):
    cap = params.get("size_cap", instances.DEFAULT_SIZE_CAP)
    got = _outcomes([lambda: compress_left_with(lc, disperser, size_cap=cap),
                     lambda: compress_right(lc, **params)])
    want = _outcomes([lambda: ref_compress_left_with(lc, disperser, size_cap=cap),
                      lambda: ref_compress_right(lc, **params)])
    assert got == want


@given(st.integers(0, 10**9), st.integers(1, 6), st.integers(1, 5), st.integers(1, 4),
       st.integers(1, 5), st.sampled_from([12, 500_000]))
@settings(max_examples=150, deadline=None)
def test_joint_labels_match_product_then_filter(seed, left, right, la, ra, cap):
    import random

    rng = random.Random(seed)
    lc = random_labelcover(left, right, la, ra, density=rng.random(), seed=seed,
                           pair_density=rng.random(), admissible_density=0.6)
    ell, k = rng.randint(1, left), rng.randint(1, 3)
    disperser = Disperser(left, k, ell, 1, 0.5,
                          tuple(frozenset(rng.sample(range(left), ell)) for _ in range(k)))
    params = {"q": rng.randint(1, right), "gamma": rng.choice([0.3, 0.5, 1.0]),
              "epsilon": rng.choice([0.3, 0.6, 0.9]), "size_cap": cap}
    _assert_compressions_match_referees(lc, disperser, params)


@pytest.mark.parametrize("q", [1, 2, 5])
def test_packed_emission_matches_referees_on_edge_layouts(q):
    # Left vertex 1 has no edges; right vertices 1 and 3 touch nothing, so
    # every q leaves a block with an untouched vertex; q = 5 is the right size.
    lc = LabelCover(3, 5, 3, 5, {(0, 0): {(0, 1), (0, 4), (1, 2), (2, 0), (2, 3)},
                                 (0, 4): {(0, 0), (1, 2), (1, 4), (2, 1)},
                                 (2, 2): {(0, 0), (0, 3), (1, 1)},
                                 (2, 4): {(0, 4), (1, 4)}},
                    {0: {0, 1, 2}, 1: {0, 2}, 2: {0, 1}})
    disperser = Disperser(3, 3, 2, 1, 0.5,
                          (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))
    for gamma in (1.0, 0.5, 0.3):
        params = {"q": q, "gamma": gamma, "epsilon": 0.6}
        _assert_compressions_match_referees(lc, disperser, params)
    # At gamma = 1 the left subsets are singletons: the edgeless left vertex 1
    # keeps both its labels, and each allows every label of every block.
    out = compress_right(lc, q=q, gamma=1.0, epsilon=0.6)
    assert out.admissible[1] == {0, 1}
    blocks = lc_transforms._block_partition(5, q)
    assert [len(out.relations[(1, j)]) for j in range(q)] == [2 * 5 ** len(b) for b in blocks]


@pytest.mark.parametrize("seed", range(4))
def test_compress_right_matches_referee_on_unequal_blocks(seed):
    # Blocks of 3 and 2 right vertices (n = 5, q = 2) and of 3, 2 and 2 (n = 7,
    # q = 3): in one call, layouts with one offset suffix meet in blocks of
    # different sizes, whose block labels and digit tables differ.
    for n, q in [(5, 2), (7, 3)]:
        lc = cnf_to_labelcover(gen_planted_cnf(n, 5, seed=seed))
        params = {"q": q, "gamma": 0.5, "epsilon": 0.3}
        assert (_outcomes([lambda: compress_right(lc, **params)])
                == _outcomes([lambda: ref_compress_right(lc, **params)]))


def test_compress_left_joins_long_member_lists():
    # One super-vertex over 3,000 single-label members (product size 1): the
    # join must not recurse once per member.
    n = 3000
    lc = LabelCover(n, n, 1, 1, {(u, u): {(0, 0)} for u in range(n)})
    out, disperser = compress_left(lc, k=1, r=1, epsilon=0.5, seed=0)
    assert disperser.ell == n
    assert out.admissible[0] == {0}
    assert max_cov(out) == 1


# ---------------------------------------------------------------------------
# minlab_instance


def test_minlab_instance_validation():
    lc = cnf_to_labelcover(gen_planted_cnf(4, 3, seed=1))
    with pytest.raises(ValidationError):
        minlab_instance(lc, q=3, r=2, epsilon=0.3)


def test_minlab_completeness():
    f = gen_planted_cnf(6, 5, seed=12)
    lc = cnf_to_labelcover(f)
    out = minlab_instance(lc, q=2, r=3, epsilon=0.3)
    assert out.right_size == 2
    assert min_lab(out) == 2
    # minlab is exactly the right compression at gamma = (q/r)^q.
    assert out == compress_right(lc, q=2, gamma=(2 / 3) ** 2, epsilon=0.3)


def test_minlab_soundness():
    f = gen_gap_cnf(6, 5, 0.3, seed=13)
    out = minlab_instance(cnf_to_labelcover(f), q=2, r=3, epsilon=0.3)
    value = min_lab(out)
    assert value is None or value > 3


# ---------------------------------------------------------------------------
# Outputs built through the unchecked LabelCover constructor


def _rebuilt(lc):
    """The same fields passed through the public, validating constructor."""
    return LabelCover(lc.left_size, lc.right_size, lc.left_alphabet, lc.right_alphabet,
                      lc.relations, lc.admissible)


@pytest.mark.parametrize("seed", range(4))
def test_unchecked_outputs_pass_the_public_checks(seed):
    lc = cnf_to_labelcover(gen_planted_cnf(6, 5, seed=seed))
    outputs = [
        compress_left(lc, k=3, r=2, epsilon=0.5, seed=seed)[0],
        compress_right(lc, q=2, gamma=0.5, epsilon=0.3),
        minlab_instance(lc, q=2, r=3, epsilon=0.3),
    ]
    for out in outputs:
        checked = _rebuilt(out)
        assert checked == out
        assert out.left_decoders is None is checked.left_decoders
        assert emit_labelcover(checked) == emit_labelcover(out)
        # The store holds one nonzero int mask per label with pairs.
        assert all(
            type(a) is int and 0 <= a < out.left_alphabet
            and type(mask) is int and 0 < mask < 1 << out.right_alphabet
            for masks in out.betas.values() for a, mask in masks.items()
        )
        assert set(out.admissible) == set(range(out.left_size))


def test_compressions_store_int_masks_matching_the_referees():
    params = {"q": 2, "gamma": 0.5, "epsilon": 0.3}
    for seed in range(4):
        lc = cnf_to_labelcover(gen_planted_cnf(6, 5, seed=seed))
        disperser = random_disperser(lc.left_size, 3, 2, 0.5, seed)
        for out, ref in [
            (compress_left_with(lc, disperser), ref_compress_left_with(lc, disperser)),
            (compress_right(lc, **params), ref_compress_right(lc, **params)),
        ]:
            assert out.edges == ref.edges
            for edge in out.edges:
                masks = out.betas[edge]
                assert all(type(mask) is int and mask for mask in masks.values())
                pairs = {(a, b) for a, mask in masks.items() for b in bits_of(mask)}
                assert pairs == set(ref.relations[edge]) == set(out.relations[edge])
