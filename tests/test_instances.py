"""Instance types, file formats, and generators."""

import dataclasses
import itertools
import random
import re
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gapred import (
    CnfFormula,
    Disperser,
    GapredError,
    Graph,
    LabelCover,
    ParseError,
    SetSystem,
    SizeCapError,
    ValidationError,
    cnf_to_labelcover,
    compress_left,
    emit_cnf,
    emit_disperser,
    emit_graph,
    emit_labelcover,
    emit_setsystem,
    minlab_to_setcov,
    parse_cnf,
    parse_disperser,
    parse_graph,
    parse_labelcover,
    parse_setsystem,
    random_cnf,
    random_disperser,
    random_graph,
)
from gapred import instances
from gapred.instances import pairs_of

from corpus import (
    complete_bipartite,
    complete_graph,
    mixed_cnf,
    nonisomorphic_graphs_up_to,
    pair_cover_fields,
    path_graph,
    petersen_graph,
    random_labelcover,
)


# ---------------------------------------------------------------------------
# CNF


def test_parse_cnf_basic():
    f = parse_cnf("p cnf 2 1\n1 -2 0\n")
    assert f.num_vars == 2
    assert f.clauses == ((1, -2),)


def test_parse_cnf_units():
    f = parse_cnf("p cnf 1 2\n1 0\n-1 0\n")
    assert f.clauses == ((1,), (-1,))


def test_parse_cnf_literal_out_of_range():
    with pytest.raises(ParseError):
        parse_cnf("p cnf 2 1\n1 2 3 0\n")


def test_parse_cnf_rejects_wide_clause():
    with pytest.raises(ParseError):
        parse_cnf("p cnf 4 1\n1 2 3 4 0\n")


def test_parse_cnf_count_mismatch():
    with pytest.raises(ParseError):
        parse_cnf("p cnf 2 2\n1 2 0\n")


def test_parse_cnf_malformed_header():
    with pytest.raises(ParseError):
        parse_cnf("p dimacs 2 1\n1 2 0\n")
    with pytest.raises(ParseError):
        parse_cnf("1 2 0\n")


@pytest.mark.parametrize("text, message", [
    ("p cnf 100000000 2\n1 0\n-1 0\n", "line 1: variable count 100000000 outside 0..500000"),
    ("c big\np cnf 3 500001\n", "line 2: clause count 500001 outside 0..500000"),
    ("p cnf -1 0\n", "line 1: variable count -1 outside 0..500000"),
])
def test_parse_cnf_refuses_header_counts_past_the_cap(text, message):
    # As parse_graph refuses its vertex count; the first parsed, and cnf2lc
    # wrote a label cover that lc-minlab refuses.
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_cnf(text)
    assert parse_cnf("p cnf 500000 0\n").num_vars == 500000


def test_parse_cnf_accepts_comments_and_multiline_clauses():
    f = parse_cnf("c hello\np cnf 3 1\n1 2\n3 0\n")
    assert f.clauses == ((1, 2, 3),)


def test_parse_cnf_bytes_input():
    assert parse_cnf(b"p cnf 1 1\n1 0\n").clauses == ((1,),)


def test_cnf_validation():
    with pytest.raises(ValidationError):
        CnfFormula(2, ((1, 1, 2),))  # repeated variable
    with pytest.raises(ValidationError):
        CnfFormula(2, ((0,),))
    with pytest.raises(ValidationError):
        CnfFormula(2, (tuple(),))


# ---------------------------------------------------------------------------
# Graph


def test_emit_graph_k3():
    out = emit_graph(complete_graph(3))
    assert out.splitlines() == ["p edge 3 3", "e 1 2", "e 1 3", "e 2 3"]


def test_graph_invariants():
    with pytest.raises(ValidationError):
        Graph(3, {(0, 0)})
    with pytest.raises(ValidationError):
        Graph(2, {(0, 2)})


def test_graph_constructor_bounds_the_mask_width():
    # 300 edges to the last of 500,000 vertices would take 150,000,300 mask
    # bits; parse_graph refuses the same graph's file, and the constructor
    # refuses it as every graph reduction's output is refused.
    with pytest.raises(SizeCapError, match="neighbour masks"):
        Graph(500_000, [(u, 499_999) for u in range(300)])
    # On both sides of the bound: u < count holds 2,000 bits each and vertex
    # 1,999 holds count bits, so 524 edges stay below 2^20 and 525 reach it.
    with mock.patch.object(instances, "_MASK_BITS", 20):
        assert Graph(2_000, [(u, 1_999) for u in range(524)]).num_edges == 524
        with pytest.raises(SizeCapError, match="neighbour masks"):
            Graph(2_000, [(u, 1_999) for u in range(525)])
        # n^2 <= 2^20: every mask is counted, and together they stay below the bound.
        assert complete_graph(1_024).num_edges == 1_024 * 1_023 // 2


def test_graph_has_edge_outside_vertex_range():
    g = complete_graph(3)
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    for u, v in ((0, 3), (3, 0), (-1, 0), (0, -1), (-1, -2), (5, 7)):
        assert not g.has_edge(u, v)


def test_graph_holds_only_its_vertex_count_and_masks():
    # Whatever else a graph has (its edges, a 2-coloring) is derived from these.
    assert [f.name for f in dataclasses.fields(Graph)] == ["num_vertices", "adjacency"]
    with pytest.raises(TypeError):
        Graph(2, {(0, 1)}, bipartition=(frozenset({0}), frozenset({1})))


def test_graph_complement():
    g = Graph(3, {(0, 1)})
    assert g.complement().edges == frozenset({(0, 2), (1, 2)})


def test_derived_graphs_keep_to_the_size_rule():
    # complement and induced build through Graph._bounded, as every graph does.
    # The 12,000-vertex star relabelled in reverse puts its centre last, so
    # each leaf's mask is 12,000 bits wide; it was once built, and emit_graph
    # wrote a file that parse_graph refuses.
    star = Graph(12_000, [(0, v) for v in range(1, 12_000)])
    with pytest.raises(SizeCapError, match="neighbour masks"):
        star.induced(range(11_999, -1, -1))
    with pytest.raises(SizeCapError, match="neighbour masks"):
        parse_graph("p edge 12000 0\n").complement()
    # On both sides of the bound: either derived graph of n vertices holds
    # n^2 - 1 mask bits, which stays below 2^20 at n = 1,024 and not at 1,025.
    with mock.patch.object(instances, "_MASK_BITS", 20):
        for n, fits in ((1_024, True), (1_025, False)):
            star = Graph(n, [(0, v) for v in range(1, n)])
            for derive in (lambda: star.induced(range(n - 1, -1, -1)),
                           lambda: Graph(n).complement()):
                if fits:
                    assert derive().num_vertices == n
                else:
                    with pytest.raises(SizeCapError, match="neighbour masks"):
                        derive()


@given(st.integers(0, 10**9), st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_graph_induced_relabels_kept_vertices(seed, n, size):
    # A sample in random order: a subgraph and a relabelling at once.
    g = random_graph(n, 0.4, seed)
    vertices = random.Random(seed).sample(range(n), min(size, n))
    sub = g.induced(vertices)
    assert sub.num_vertices == len(vertices)
    assert sub.edges == frozenset(
        (j, k) for j in range(len(vertices)) for k in range(j + 1, len(vertices))
        if g.has_edge(vertices[j], vertices[k])
    )


def test_parse_graph_errors():
    with pytest.raises(ParseError):
        parse_graph("p edge 2 1\ne 1 3\n")
    with pytest.raises(ParseError):
        parse_graph("p edge 2 2\ne 1 2\ne 2 1\n")  # duplicate edge
    with pytest.raises(ParseError):
        parse_graph("p edge 2 0\ne 1 2\n")  # count mismatch is 0 vs 1
    with pytest.raises(ParseError):
        parse_graph("p edge 2 1\ne 1 1\n")
    # Vertex counts are checked before any per-vertex state is allocated.
    for count in (-1, 10**12):
        with pytest.raises(ParseError, match="vertex count"):
            parse_graph(f"p edge {count} 0\n")
    # A 69 KB file whose 5,000 edges all end at vertex 100,000 would need
    # 5,000 masks of 100,000 bits; the total mask width is bounded instead.
    star = "p edge 100000 5000\n" + "".join(f"e {u} 100000\n" for u in range(1, 5001))
    with pytest.raises(ParseError, match="neighbour masks"):
        parse_graph(star)
    # Below the bound the same shape parses.
    small = parse_graph("p edge 10000 50\n" + "".join(f"e {u} 10000\n" for u in range(1, 51)))
    assert small.num_edges == 50


@pytest.mark.parametrize("parse, text, message", [
    (parse_cnf, "c no header\n", "missing 'p cnf' header"),
    (parse_graph, "", "missing 'p edge' header"),
    (parse_setsystem, "c no header\n", "missing 'ss' header"),
    (parse_labelcover, "", "missing 'lc' header"),
    (parse_cnf, "p cnf 2 2\n1 0\n0\n", "empty clause (bare 0)"),
], ids=["cnf-header", "graph-header", "ss-header", "lc-header", "bare-0"])
def test_parsers_refuse_files_with_no_header_or_a_bare_0(parse, text, message):
    with pytest.raises(ParseError) as refused:
        parse(text)
    assert str(refused.value) == message


# ---------------------------------------------------------------------------
# SetSystem


def test_emit_setsystem_format():
    s = SetSystem(2, ((1, frozenset({0})), (2, frozenset({0, 1}))))
    assert emit_setsystem(s).splitlines() == ["ss 2 2", "s 1 1 1", "s 2 2 1 2"]


def test_setsystem_duplicate_ids():
    with pytest.raises(ValidationError):
        SetSystem(2, ((1, frozenset({0})), (1, frozenset({1}))))


def test_parse_setsystem_size_field():
    with pytest.raises(ParseError):
        parse_setsystem("ss 2 1\ns 1 2 1\n")
    # Elements are 1-indexed in files, and the error names the line.
    for element in (0, 3):
        with pytest.raises(ParseError, match="line 2: element out of range"):
            parse_setsystem(f"ss 2 1\ns 1 1 {element}\n")


def test_parse_setsystem_refuses_duplicate_ids():
    # The header's count matches the lines; the error names the repeated id.
    with pytest.raises(ParseError, match="duplicate set id 1"):
        parse_setsystem("ss 2 2\ns 1 1 1\ns 1 1 2\n")
    # It comes after every line is read and the set count is checked, and
    # names the first id repeated; the masks' bound comes after it.
    for text, message in (("ss 2 3\ns 1 1 1\ns 1 0\ns 2 1 3\n", "line 4: element out of range"),
                          ("ss 2 2\ns 1 1 1\ns 1 0\ns 2 0\n", "header declares 2 sets, found 3"),
                          ("ss 2 4\ns 2 0\ns 1 0\ns 1 0\ns 2 0\n", "duplicate set id 1"),
                          ("ss 500000 270\n" + "".join(
                              f"s {sid} 1 500000\n" for sid in range(1, 270)) + "s 1 0\n",
                           "duplicate set id 1")):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_setsystem(text)


def test_setsystem_empty_set_roundtrip():
    s = SetSystem(3, ((5, frozenset()),))
    assert parse_setsystem(emit_setsystem(s)) == s


def test_setsystem_stores_one_mask_per_set():
    s = SetSystem(5, ((3, [4, 1, 4]), (1, ()), (2, {True})))
    # One stored form: ascending ids and aligned int masks, nothing cached.
    assert vars(s) == {"universe_size": 5, "ids": (1, 2, 3), "masks": (0, 0b10, 0b10010)}
    assert s.sets == ((1, frozenset()), (2, frozenset({1})), (3, frozenset({1, 4})))
    assert [type(e) for _, elems in s.sets for e in elems] == [int, int, int]
    # The view is derived on each access.
    assert s.sets is not s.sets and vars(s).keys() == {"universe_size", "ids", "masks"}
    with pytest.raises(ValidationError, match="element 5 of set 1 out of range"):
        SetSystem(5, ((1, {5}),))
    with pytest.raises(ValidationError, match="element -1 of set 1 out of range"):
        SetSystem(5, ((1, {-1}),))


def test_setsystem_constructor_refuses_wide_masks():
    # Reading .masks of this system once raised a bare MemoryError; its
    # universe is now refused before any mask is built.
    with pytest.raises(SizeCapError, match="universe size 10000000000 outside 0..500000"):
        SetSystem(10**10, ((1, frozenset({10**10 - 1})),))
    # Each mask is under the bound, the 300 together are over it.
    with pytest.raises(SizeCapError, match=r"element masks pass 2\^27 bits"):
        SetSystem(500_000, [(sid, {499_999}) for sid in range(1, 301)])


@given(st.integers(0, 10**9), st.integers(0, 70), st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_setsystem_text_roundtrip_keeps_every_element(seed, universe, count):
    # Empty, full and shuffled sets under shuffled, gapped ids.
    rng = random.Random(seed)
    ids = rng.sample(range(1, 3 * count + 2), count)
    given_sets = {sid: frozenset(e for e in range(universe) if rng.random() < rng.random())
                  for sid in ids}
    s = SetSystem(universe, tuple((sid, rng.sample(sorted(elems), len(elems)))
                                  for sid, elems in given_sets.items()))
    assert s.sets == tuple(sorted(given_sets.items()))
    assert s.masks == tuple(sum(1 << e for e in given_sets[sid]) for sid in sorted(ids))
    text = f"ss {universe} {count}\n" + "".join(
        f"s {sid} {len(elems)}" + "".join(f" {e + 1}" for e in sorted(elems)) + "\n"
        for sid, elems in sorted(given_sets.items())
    )
    assert emit_setsystem(s) == text
    assert parse_setsystem(text) == s
    assert emit_setsystem(parse_setsystem(text)) == text
    # Set lines in any order parse to the same ascending store.
    header, *lines = text.splitlines(keepends=True)
    assert vars(parse_setsystem(header + "".join(rng.sample(lines, len(lines))))) == vars(s)


# Each bounded count of each kind: its name, the instance with that count c
# (its other counts small), the header of a file declaring c, and the counts
# past the cap the constructor is tried on (those it takes as ints go far past).
_CAP = instances.DEFAULT_SIZE_CAP
_FAR = (-1, _CAP + 1, 10**10)
_COUNT_RULE = {
    "cnf-variables": ("variable count", CnfFormula, "p cnf {} 0", parse_cnf, emit_cnf, _FAR),
    "cnf-clauses": ("clause count", lambda c: CnfFormula(1, ((1,),) * c), "p cnf 1 {}",
                    parse_cnf, emit_cnf, (_CAP + 1,)),
    "graph-vertices": ("vertex count", Graph, "p edge {} 0", parse_graph, emit_graph, _FAR),
    "ss-universe": ("universe size", SetSystem, "ss {} 0", parse_setsystem, emit_setsystem,
                    _FAR),
    "ss-sets": ("set count", lambda c: SetSystem(0, ((sid, ()) for sid in range(1, c + 1))),
                "ss 0 {}", parse_setsystem, emit_setsystem, (_CAP + 1,)),
    "lc-U": ("|U|", lambda c: LabelCover(c, 1, 1, 1), "lc {} 1 1 1", parse_labelcover,
             emit_labelcover, _FAR),
    "lc-V": ("|V|", lambda c: LabelCover(1, c, 1, 1), "lc 1 {} 1 1", parse_labelcover,
             emit_labelcover, _FAR),
    "lc-SigmaU": ("|SigmaU|", lambda c: LabelCover(1, 1, c, 1), "lc 1 1 {} 1", parse_labelcover,
                  emit_labelcover, _FAR),
}


@pytest.mark.parametrize("case", list(_COUNT_RULE))
def test_every_count_lies_in_0_to_the_size_cap(case):
    # One rule and one wording for every count: the constructor takes the cap
    # and refuses past it, the parser refuses the same count at its header, and
    # what the constructor takes parses back from the file it emits.
    name, build, header, parse, emit, past = _COUNT_RULE[case]
    at_cap = build(_CAP)
    assert parse(emit(at_cap)) == at_cap
    for count in _FAR:
        message = re.escape(f"{name} {count} outside 0..{_CAP}")
        if count in past:
            with pytest.raises(SizeCapError, match=f"^{message}$"):
                build(count)
        with pytest.raises(ParseError, match=f"^line 1: {message}$"):
            parse(header.format(count) + "\n")


# Each kind stored as int masks, with k masks of 500,000 bits: 268 of them
# hold under 2^27 = 134,217,728 bits in all and 269 pass it. Its builder
# from k, its file at k (what the emitter writes), and the masks' kind.
_MASK_RULE = {
    "graph": (lambda k: Graph(500_000, [(u, 499_999) for u in range(k)]),
              lambda k: f"p edge 500000 {k}\n" + "".join(f"e {u} 500000\n"
                                                          for u in range(1, k + 1)),
              parse_graph, emit_graph, "neighbour"),
    "ss": (lambda k: SetSystem(500_000, [(sid, [499_999]) for sid in range(1, k + 1)]),
           lambda k: f"ss 500000 {k}\n" + "".join(f"s {sid} 1 500000\n"
                                                     for sid in range(1, k + 1)),
           parse_setsystem, emit_setsystem, "element"),
    "lc": (lambda k: LabelCover(1, k, 1, 500_000, {(0, v): {(0, 499_999)} for v in range(k)}),
           lambda k: f"lc 1 {k} 1 500000\n" + "".join(f"e 1 {v} 1 0 499999\n"
                                                      for v in range(1, k + 1)),
           parse_labelcover, emit_labelcover, "beta"),
}


@pytest.mark.parametrize("kind", list(_MASK_RULE))
def test_parsers_bound_every_mask_format(kind):
    # Every format stored as int masks is held to one width bound, counted
    # over all its masks although each alone stays far under it: the
    # constructor and the parser take the same masks and refuse the same
    # masks with the same wording, and what is taken parses back.
    build, text, parse, emit, masks = _MASK_RULE[kind]
    at_bound = build(268)
    assert emit(at_bound) == text(268)
    assert parse(text(268)) == at_bound
    message = f"{masks} masks pass 2^27 bits"
    with pytest.raises(SizeCapError, match=re.escape(message)):
        build(269)
    with pytest.raises(ParseError, match=re.escape(message)):
        parse(text(269))


# ---------------------------------------------------------------------------
# LabelCover


def test_labelcover_invariants():
    with pytest.raises(ValidationError):
        LabelCover(1, 1, 2, 2, {(0, 0): {(2, 0)}})  # label out of range
    with pytest.raises(ValidationError):
        LabelCover(1, 1, 2, 2, {(0, 1): set()})  # edge out of range
    with pytest.raises(ValidationError):
        LabelCover(1, 1, 2, 2, {}, admissible={0: {3}})


def test_labelcover_default_admissible_is_full():
    lc = LabelCover(2, 1, 3, 2, {(0, 0): {(0, 1)}})
    assert lc.admissible[0] == lc.admissible[1] == frozenset({0, 1, 2})


def test_labelcover_keeps_int_frozensets_and_normalises_the_rest():
    shared = frozenset({0, 2})
    lc = LabelCover(3, 1, 3, 2, {}, admissible={0: shared, 1: shared, 2: {True}})
    assert lc.admissible[0] is shared is lc.admissible[1]
    assert lc.admissible[2] == {1} and [type(a) for a in lc.admissible[2]] == [int]
    with pytest.raises(ValidationError, match="out of range at vertex 0"):
        LabelCover(2, 1, 2, 2, {}, admissible={0: shared, 1: shared})


def test_labelcover_empty_admissible_allowed():
    lc = LabelCover(1, 1, 2, 2, {(0, 0): set()}, admissible={0: frozenset()})
    assert lc.admissible[0] == frozenset()


def test_labelcover_emit_omits_full_admissible():
    lc = LabelCover(2, 1, 2, 2, {(0, 0): {(0, 1)}}, admissible={0: {0}, 1: {0, 1}})
    text = emit_labelcover(lc)
    assert "a 1 1 0" in text
    assert "a 2" not in text


def test_parse_labelcover_errors():
    with pytest.raises(ParseError):
        parse_labelcover("lc 1 1 2 2\ne 1 1 2 0 0\n")  # npairs mismatch
    with pytest.raises(ParseError):
        parse_labelcover("lc 1 1 2\n")


@pytest.mark.parametrize("counts, name", [((10**9, 1, 1, 1), "|U|"), ((1, 10**9, 1, 1), "|V|"),
                                          ((1, 1, 10**9, 1), "|SigmaU|")])
def test_labelcover_constructor_refuses_counts_past_the_cap(counts, name):
    # The same bounds as the file header's, checked before anything is built:
    # under a 2 GB address-space limit the first and third once raised
    # MemoryError after 2.9 s and 1.8 s. The right alphabet stays unbounded,
    # as only beta masks grow with it.
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match=re.escape(f"{name} {10**9} outside 0..500000")):
        LabelCover(*counts)
    assert time.perf_counter() - start < 0.1
    assert LabelCover(1, 1, 1, 10**100).right_alphabet == 10**100


@pytest.mark.parametrize("text", [
    "lc 1 1 1 100000000000\ne 1 1 1 0 99999999999\n",
    f"lc 1 1 1 {'9' * 100}\ne 1 1 1 0 {2**64}\n",
    # Each line alone is well under the bound; the bound is on all lines.
    "lc 1 200 1 10000000\n" + "".join(f"e 1 {v} 1 0 9999999\n" for v in range(1, 201)),
], ids=["beta-1e11", "beta-2^64", "200-edges"])
def test_parse_labelcover_refuses_wide_beta_masks(text):
    # A beta mask is as wide as its highest right label, so these short files
    # are refused before any mask is built: the first once asked for 12 GB.
    with pytest.raises(ParseError, match=r"beta masks pass 2\^27 bits"):
        parse_labelcover(text)


def test_parse_labelcover_accepts_beta_masks_under_the_bound():
    lc = parse_labelcover(f"lc 1 1 1 {1 << 27}\ne 1 1 1 0 {(1 << 27) - 2}\n")
    assert lc.betas == {(0, 0): {0: 1 << (1 << 27) - 2}}


def test_labelcover_stores_no_label_without_pairs():
    relations = {(0, 0): {(2, 1), (2, 0)}, (0, 1): set(), (1, 1): {(0, 1)}}
    admissible = {0: {0, 1}, 1: {0, 1, 2}}
    lc = LabelCover(2, 2, 3, 2, relations, admissible)
    # Label 2 is not admissible at vertex 0 but keeps its pairs; labels 0 and
    # 1 there have none and get no entry; edge (0, 1) has no pair at all.
    assert lc.betas == {(0, 0): {2: 0b11}, (0, 1): {}, (1, 1): {0: 0b10}}
    # Equality compares the store, so both of those count.
    without_edge = {k: p for k, p in relations.items() if k != (0, 1)}
    assert lc != LabelCover(2, 2, 3, 2, without_edge, admissible)
    assert lc != LabelCover(2, 2, 3, 2, {**relations, (0, 0): {(2, 1)}}, admissible)
    assert lc == LabelCover(2, 2, 3, 2, {k: list(p) for k, p in relations.items()}, admissible)


def test_relations_view_derives_pairs_from_the_store():
    lc = LabelCover(1, 2, 3, 4, {(0, 0): {(2, 3), (0, 1), (2, 0)}, (0, 1): set()})
    pairs = lc.relations[(0, 0)]
    assert list(pairs) == [(0, 1), (2, 0), (2, 3)]
    assert len(pairs) == 3 and len(lc.relations[(0, 1)]) == 0 and len(lc.relations) == 2
    assert (2, 3) in pairs and (0, 1) in pairs
    assert all(p not in pairs for p in [(1, 3), (2, 4), (0, -1), (5, 0), "ab", (0,), None])
    assert pairs == {(0, 1), (2, 0), (2, 3)} and pairs <= {(0, 1), (1, 1), (2, 0), (2, 3)}
    assert pairs & {(2, 0), (1, 1)} == {(2, 0)}
    with pytest.raises(TypeError):
        lc.relations[(0, 0)] = frozenset()
    # The public constructor takes relations, so replace() goes through its checks.
    assert dataclasses.replace(lc, relations={(0, 1): {(1, 1)}}).betas == {(0, 1): {1: 0b10}}
    assert dataclasses.replace(lc, left_alphabet=4).betas == lc.betas
    with pytest.raises(ValidationError):
        dataclasses.replace(lc, relations={(0, 0): {(3, 0)}})
    with pytest.raises(ValidationError):
        dataclasses.replace(lc, right_alphabet=3)


def test_parse_labelcover_shares_the_full_alphabet():
    lc = parse_labelcover("lc 4 1 3 2\na 2 1 0\ne 1 1 1 0 1\n")
    assert lc.admissible[0] == frozenset(range(3)) and lc.admissible[1] == {0}
    assert lc.admissible[0] is lc.admissible[2] is lc.admissible[3]


def test_labelcover_equality_compares_each_admissible_set_pair_once():
    # Each parse builds its own full-alphabet set; comparing it once per left
    # vertex took |U|*|SigmaU| steps, and this comparison did not finish.
    text = "lc 500000 1 500000 1\n"
    a, b = parse_labelcover(text), parse_labelcover(text)
    assert a.admissible[0] is not b.admissible[0]
    start = time.perf_counter()
    assert a == b
    assert time.perf_counter() - start < 1.0
    # Unequal instances still compare unequal, in each field.
    assert a != parse_labelcover("lc 500000 1 500000 1\na 7 1 3\n")
    small = parse_labelcover("lc 3 2 3 2\na 2 1 0\ne 1 1 1 0 1\n")
    assert small == parse_labelcover("lc 3 2 3 2\na 2 1 0\ne 1 1 1 0 1\n")
    for other in ("lc 3 2 3 2\na 2 1 1\ne 1 1 1 0 1\n", "lc 3 2 3 2\na 2 1 0\ne 1 1 1 0 0\n",
                  "lc 3 2 3 2\na 2 1 0\ne 1 2 1 0 1\n", "lc 3 2 4 2\na 2 1 0\ne 1 1 1 0 1\n",
                  "lc 3 3 3 2\na 2 1 0\ne 1 1 1 0 1\n", "lc 4 2 3 2\na 2 1 0\ne 1 1 1 0 1\n"):
        assert small != parse_labelcover(other), other
    # Shared and separate sets of equal content compare equal either way.
    shared = frozenset({0, 1})
    one = LabelCover(2, 1, 3, 2, {(0, 0): {(0, 1)}}, {0: shared, 1: shared})
    two = LabelCover(2, 1, 3, 2, {(0, 0): {(0, 1)}}, {0: frozenset({0, 1}), 1: frozenset({1, 0})})
    assert one == two and two == one
    assert one != LabelCover(2, 1, 3, 2, {(0, 0): {(0, 1)}}, {0: shared, 1: frozenset({2})})
    assert one != "lc"


def test_labelcover_constructor_refuses_wide_beta_masks():
    # This call once raised a bare MemoryError.
    with pytest.raises(SizeCapError, match=r"beta masks pass 2\^27 bits"):
        LabelCover(1, 1, 1, 10**100, {(0, 0): {(0, 2**64)}})


def test_labelcover_replace_refuses_wide_beta_masks():
    lc = LabelCover(1, 1, 1, 10**100, {(0, 0): {(0, 5)}})
    assert lc.betas == {(0, 0): {0: 1 << 5}}
    with pytest.raises(SizeCapError, match=r"beta masks pass 2\^27 bits"):
        dataclasses.replace(lc, relations={(0, 0): {(0, 2**64)}})


# ---------------------------------------------------------------------------
# Round trips over generated corpora


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_cnf_roundtrip(seed):
    f = random_cnf(6, 8, seed)
    assert parse_cnf(emit_cnf(f)) == f


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_graph_roundtrip(seed):
    g = random_graph(7, 0.4, seed)
    assert parse_graph(emit_graph(g)) == g


@given(st.integers(0, 10**9))
@settings(max_examples=50, deadline=None)
def test_labelcover_roundtrip(seed):
    lc = random_labelcover(3, 3, 3, 2, density=0.7, seed=seed, admissible_density=0.6)
    assert parse_labelcover(emit_labelcover(lc)) == lc


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_projection_labelcover_roundtrip(seed):
    lc = random_labelcover(3, 2, 2, 3, density=0.8, seed=seed, projection=True)
    assert parse_labelcover(emit_labelcover(lc)) == lc


@given(st.integers(0, 10**9), st.integers(0, 4), st.integers(0, 4), st.integers(1, 4),
       st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_labelcover_text_roundtrip_keeps_every_pair(seed, left, right, la, ra):
    # Covers with pairs on labels outside the admissible sets, edges without
    # pairs, empty and full admissible sets.
    relations, admissible = pair_cover_fields(random.Random(seed), left, right, la, ra)
    lc = LabelCover(left, right, la, ra, relations, admissible)
    assert lc.betas == {
        edge: {a: sum(1 << b for aa, b in pairs if aa == a) for a, _ in pairs}
        for edge, pairs in relations.items()
    }
    assert {edge: frozenset(pairs) for edge, pairs in lc.relations.items()} == relations
    lines = [f"lc {left} {right} {la} {ra}"]
    for u in range(left):
        if len(admissible[u]) < la:
            lines.append(f"a {u + 1} {len(admissible[u])}"
                         + "".join(f" {a}" for a in sorted(admissible[u])))
    for u, v in sorted(relations):
        pairs = sorted(relations[(u, v)])
        lines.append(f"e {u + 1} {v + 1} {len(pairs)}" + "".join(f" {a} {b}" for a, b in pairs))
    text = "\n".join(lines) + "\n"
    assert emit_labelcover(lc) == text
    assert parse_labelcover(text) == lc
    assert emit_labelcover(parse_labelcover(text)) == text


# ---------------------------------------------------------------------------
# Generators


def test_random_cnf_deterministic():
    assert random_cnf(6, 8, seed=1) == random_cnf(6, 8, seed=1)


def test_random_cnf_empty():
    assert random_cnf(3, 0, seed=5).clauses == ()


def test_random_cnf_distinct_variables():
    f = random_cnf(6, 8, seed=3)
    for clause in f.clauses:
        assert len(clause) == 3
        assert len({abs(lit) for lit in clause}) == 3


def test_random_cnf_needs_three_vars():
    with pytest.raises(ValidationError):
        random_cnf(2, 1, seed=0)


def test_random_labelcover_single_cell():
    lc = random_labelcover(1, 1, 1, 1, density=1.0, seed=0)
    assert lc.edges == ((0, 0),)
    assert lc.relations[(0, 0)] <= {(0, 0)}


def test_random_labelcover_deterministic():
    a = random_labelcover(3, 3, 2, 2, density=0.5, seed=9)
    b = random_labelcover(3, 3, 2, 2, density=0.5, seed=9)
    assert a == b


def test_random_labelcover_left_degrees():
    lc = random_labelcover(4, 5, 2, 2, seed=2, left_degrees=(1, 3))
    for u in range(4):
        assert 1 <= len(lc.left_neighbors[u]) <= 3


def test_random_graph_deterministic():
    assert random_graph(8, 0.5, seed=4) == random_graph(8, 0.5, seed=4)


def test_empty_formula_roundtrip():
    f = CnfFormula(0, ())
    assert parse_cnf(emit_cnf(f)) == f
    f2 = CnfFormula(4, ())
    assert parse_cnf(emit_cnf(f2)) == f2


def test_empty_graph_roundtrip():
    g = Graph(0, frozenset())
    assert parse_graph(emit_graph(g)) == g


def test_empty_labelcover_roundtrip():
    lc = LabelCover(0, 3, 8, 2, {})
    assert parse_labelcover(emit_labelcover(lc)) == lc


def test_setsystem_order_insensitive():
    a = SetSystem(2, ((2, frozenset({1})), (1, frozenset({0}))))
    b = SetSystem(2, ((1, frozenset({0})), (2, frozenset({1}))))
    assert a == b
    assert parse_setsystem(emit_setsystem(a)) == a


# ---------------------------------------------------------------------------
# Parser fuzzing: mutated files raise only the package's own errors


def _valid_text(kind, seed):
    if kind == "cnf":
        return emit_cnf(random_cnf(5, 4, seed))
    if kind == "graph":
        return emit_graph(random_graph(6, 0.5, seed))
    if kind == "wide-graph":
        # About 90 edge lines: with _PARSE_CHUNK at 64 characters the bulk
        # read cuts them into many pieces.
        return emit_graph(random_graph(20, 0.5, seed))
    if kind == "ss":
        rng = random.Random(seed)
        return emit_setsystem(SetSystem(5, tuple(
            (sid, frozenset(e for e in range(5) if rng.random() < 0.5)) for sid in (1, 2, 4)
        )))
    if kind == "disp":
        return emit_disperser(random_disperser(12, 6, 5, 0.8, seed))
    return emit_labelcover(random_labelcover(3, 3, 3, 2, density=0.7, seed=seed,
                                             admissible_density=0.6))


# Tokens that reach the parsers' edge cases: counts at and past the size cap,
# counts that would not fit in memory, ints past str->int's digit limit, then
# non-decimal spellings, other line tags and non-ASCII digits.
_COUNTS = ["0", "-1", "1", "3", "500000", "500001", "10000000000", str(2**64), "1" * 5000]
_WORDS = ["x", "", "p", "e", "a", "s", "c", "%", "lc", "ss", "disp", "edge", "cnf", "1.5", "0x10",
          "1_0", "\uff11", "\u0663", "\x00", "\ufeff", "\n", "\r"]

_MUTATION = st.tuples(
    st.sampled_from(["replace", "delete", "insert", "dup_line", "drop_line", "swap_lines"]),
    st.integers(0, 10**6), st.integers(0, 10**6),
    st.one_of(st.sampled_from(_COUNTS), st.sampled_from(_WORDS), st.text(max_size=6)),
)
# (position, count) replacements in the header line, which holds the counts.
_HEADER_COUNTS = st.lists(st.tuples(st.integers(1, 4), st.sampled_from(_COUNTS)), max_size=2)


def _mutate(text, counts, mutations):
    """Set header counts, then apply token and line mutations; positions wrap around."""
    lines = [line.split(" ") for line in text.splitlines()]
    for pos, count in counts:
        lines[0][pos % len(lines[0])] = count
    for op, i, j, token in mutations:
        row = lines[i % len(lines)]
        if op == "replace":
            row[j % len(row)] = token
        elif op == "delete" and len(row) > 1:
            del row[j % len(row)]
        elif op == "insert":
            row.insert(j % (len(row) + 1), token)
        elif op == "dup_line":
            lines.insert(j % (len(lines) + 1), list(row))
        elif op == "drop_line" and len(lines) > 1:
            lines.remove(row)
        elif op == "swap_lines":
            k = j % len(lines)
            lines[i % len(lines)], lines[k] = lines[k], row
    return "\n".join(" ".join(row) for row in lines) + "\n"


@pytest.mark.parametrize("kind, parse", [("cnf", parse_cnf), ("graph", parse_graph),
                                         ("ss", parse_setsystem), ("lc", parse_labelcover),
                                         ("disp", parse_disperser),
                                         ("wide-graph", parse_graph)])
@given(seed=st.integers(0, 10**6), counts=_HEADER_COUNTS,
       mutations=st.lists(_MUTATION, max_size=4), as_bytes=st.booleans(),
       raw=st.binary(max_size=3))
@settings(max_examples=150, deadline=None)
def test_parsers_raise_only_package_errors_on_mutated_files(kind, parse, seed, counts,
                                                            mutations, as_bytes, raw):
    text = _mutate(_valid_text(kind, seed), counts, mutations)
    # As bytes, a few raw bytes, possibly not UTF-8, are appended.
    data = text.encode() + raw if as_bytes else text
    try:
        with mock.patch.object(instances, "_PARSE_CHUNK", 64):
            parse(data)
    except GapredError:
        pass


# ---------------------------------------------------------------------------
# Bulk graph parse and emit, bulk label-cover emit, against the loops they replaced


def ref_parse_graph(text):
    """The line loop parse_graph runs on every file its bulk read declines."""
    header = mask_bits = None
    masks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer counts in header") from None
            if not 0 <= header[0] <= instances.DEFAULT_SIZE_CAP:
                raise ParseError(
                    f"line {lineno}: vertex count {header[0]} outside "
                    f"0..{instances.DEFAULT_SIZE_CAP}"
                )
            masks = [0] * header[0]
            mask_bits = 0 if header[0] * header[0] > 1 << instances._MASK_BITS else None
        elif parts[0] == "e":
            if header is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoint") from None
            n = header[0]
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"line {lineno}: vertex out of range")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop")
            if masks[u] >> v & 1:
                raise ParseError(f"line {lineno}: duplicate edge")
            if mask_bits is not None:
                mask_bits += max(0, v + 1 - masks[u].bit_length())
                mask_bits += max(0, u + 1 - masks[v].bit_length())
                if mask_bits >> instances._MASK_BITS:
                    raise ParseError(
                        f"line {lineno}: neighbour masks pass 2^{instances._MASK_BITS} bits "
                        "(each is as wide as its vertex's highest neighbour index)"
                    )
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        else:
            raise ParseError(f"line {lineno}: unknown line tag {parts[0]!r}")
    if header is None:
        raise ParseError("missing 'p edge' header")
    graph = Graph._bounded(header[0], masks)
    if graph.num_edges != header[1]:
        raise ParseError(f"header declares {header[1]} edges, found {graph.num_edges}")
    return graph


def ref_parse_cnf(data):
    """The line loop parse_cnf ran before its lines went through the shared record reader."""
    text = instances._as_text(data)
    header = None
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer counts in header") from None
            for name, count in zip(("variable", "clause"), header):
                if not 0 <= count <= instances.DEFAULT_SIZE_CAP:
                    raise ParseError(f"line {lineno}: {name} count {count} outside "
                                     f"0..{instances.DEFAULT_SIZE_CAP}")
            continue
        if header is None:
            raise ParseError(f"line {lineno}: clause before 'p cnf' header")
        try:
            tokens.extend(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer literal") from None
    if header is None:
        raise ParseError("missing 'p cnf' header")
    num_vars, num_clauses = header
    clauses = []
    current = []
    for tok in tokens:
        if tok == 0:
            if not current:
                raise ParseError("empty clause (bare 0)")
            if len(current) > 3:
                raise ParseError(f"clause {len(clauses) + 1} wider than 3 literals")
            clauses.append(tuple(current))
            current = []
        else:
            if abs(tok) > num_vars:
                raise ParseError(f"literal {tok} out of range (header declares {num_vars} vars)")
            current.append(tok)
    if current:
        raise ParseError("unterminated final clause (missing 0)")
    if len(clauses) != num_clauses:
        raise ParseError(f"header declares {num_clauses} clauses, found {len(clauses)}")
    try:
        return CnfFormula(num_vars, tuple(clauses))
    except (ValidationError, SizeCapError) as exc:
        raise ParseError(str(exc)) from None


def ref_parse_setsystem(data):
    """The line loop parse_setsystem ran before the shared record reader."""
    text = instances._as_text(data)
    header = None
    sets = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "ss":
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer counts") from None
            for name, count in zip(("universe size", "set count"), header):
                if not 0 <= count <= instances.DEFAULT_SIZE_CAP:
                    raise ParseError(f"line {lineno}: {name} {count} outside "
                                     f"0..{instances.DEFAULT_SIZE_CAP}")
        elif parts[0] == "s":
            if header is None:
                raise ParseError(f"line {lineno}: set line before header")
            try:
                nums = [int(x) for x in parts[1:]]
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer field") from None
            if len(nums) < 2 or len(nums) != 2 + nums[1]:
                raise ParseError(f"line {lineno}: size field disagrees with element count")
            sid, _, *elems = nums
            if any(not 1 <= e <= header[0] for e in elems):
                raise ParseError(f"line {lineno}: element out of range")
            sets.append((sid, [e - 1 for e in elems]))
        else:
            raise ParseError(f"line {lineno}: unknown line tag {parts[0]!r}")
    if header is None:
        raise ParseError("missing 'ss' header")
    if len(sets) != header[1]:
        raise ParseError(f"header declares {header[1]} sets, found {len(sets)}")
    try:
        return SetSystem(header[0], sets)
    except (ValidationError, SizeCapError) as exc:
        raise ParseError(str(exc)) from None


def ref_parse_labelcover(data):
    """The line loop parse_labelcover ran before the shared record reader."""
    text = instances._as_text(data)
    header = None
    admissible = {}
    relations = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "lc":
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 5:
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                header = tuple(int(x) for x in parts[1:])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer counts") from None
            for name, count in zip(("|U|", "|V|", "|SigmaU|"), header):
                if not 0 <= count <= instances.DEFAULT_SIZE_CAP:
                    raise ParseError(f"line {lineno}: {name} {count} outside "
                                     f"0..{instances.DEFAULT_SIZE_CAP}")
        elif parts[0] == "a":
            if header is None:
                raise ParseError(f"line {lineno}: admissible line before header")
            try:
                nums = [int(x) for x in parts[1:]]
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer field") from None
            if len(nums) < 2 or len(nums) != 2 + nums[1]:
                raise ParseError(f"line {lineno}: size field disagrees with label count")
            u = nums[0] - 1
            if u in admissible:
                raise ParseError(f"line {lineno}: duplicate admissible line for vertex {u + 1}")
            admissible[u] = frozenset(nums[2:])
        elif parts[0] == "e":
            if header is None:
                raise ParseError(f"line {lineno}: edge before header")
            try:
                nums = [int(x) for x in parts[1:]]
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer field") from None
            if len(nums) < 3 or len(nums) != 3 + 2 * nums[2]:
                raise ParseError(f"line {lineno}: pair count disagrees with pair list")
            u, v, npairs = nums[0] - 1, nums[1] - 1, nums[2]
            if (u, v) in relations:
                raise ParseError(f"line {lineno}: duplicate edge ({u + 1},{v + 1})")
            flat = nums[3:]
            relations[(u, v)] = frozenset((flat[2 * i], flat[2 * i + 1]) for i in range(npairs))
        else:
            raise ParseError(f"line {lineno}: unknown line tag {parts[0]!r}")
    if header is None:
        raise ParseError("missing 'lc' header")
    left, right, la, ra = header
    full = frozenset(range(la))
    for u in range(left):
        admissible.setdefault(u, full)
    try:
        return LabelCover(left, right, la, ra, relations, admissible)
    except (ValidationError, SizeCapError) as exc:
        raise ParseError(str(exc)) from None


def _parsed(parse, data):
    """What `parse` makes of `data`: the instance, or the package error's type and text."""
    try:
        return parse(data)
    except GapredError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind, parse, referee", [
    ("cnf", parse_cnf, ref_parse_cnf),
    ("graph", parse_graph, ref_parse_graph),
    ("ss", parse_setsystem, ref_parse_setsystem),
    ("lc", parse_labelcover, ref_parse_labelcover),
])
@given(seed=st.integers(0, 10**6), counts=_HEADER_COUNTS,
       mutations=st.lists(_MUTATION, max_size=4), as_bytes=st.booleans(),
       raw=st.binary(max_size=3))
@settings(max_examples=150, deadline=None)
def test_parsers_keep_their_line_loops_outcome_on_mutated_files(kind, parse, referee, seed,
                                                                counts, mutations, as_bytes,
                                                                raw):
    text = _mutate(_valid_text(kind, seed), counts, mutations)
    data = text.encode() + raw if as_bytes else text
    # ref_parse_graph is parse_graph's line loop alone, which takes decoded text.
    want = _parsed(lambda data: referee(instances._as_text(data)), data)
    got = _parsed(parse, data)
    if isinstance(want, LabelCover) and isinstance(got, LabelCover):
        # Two equal label covers that each hold their own full admissible set
        # compare in |U| * |SigmaU| steps, minutes at the 500,000 caps; their
        # emitted texts are equal exactly when they are.
        got, want = emit_labelcover(got), emit_labelcover(want)
    assert got == want


def ref_parse_disperser(data):
    """parse_disperser before it read through the shared record reader: a
    comment's `c` must be the line's first character, the header need only
    start with 'disp', and no error names its line."""
    text = instances._as_text(data)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("c")]
    if not lines or not lines[0].startswith("disp"):
        raise ParseError("missing 'disp' header")
    parts = lines[0].split()
    if len(parts) != 6:
        raise ParseError(f"malformed header {lines[0]!r}")
    try:
        m, k, ell, r = (int(x) for x in parts[1:5])
        eps = float(parts[5])
    except ValueError:
        raise ParseError("non-numeric header field") from None
    subsets = []
    for ln in lines[1:]:
        try:
            subsets.append(frozenset(int(x) - 1 for x in ln.split()))
        except ValueError:
            raise ParseError(f"non-integer element in {ln!r}") from None
    if len(subsets) != k:
        raise ParseError(f"header declares {k} subsets, found {len(subsets)}")
    return instances._checked(Disperser, m, k, ell, r, eps, tuple(subsets))


def _disperser_rules_agree(data):
    """Whether both disperser readers skip the same lines of `data` as
    comments, and its first other line's tag is 'disp' or does not start with
    it: where the two rules part, the outcomes may."""
    try:
        text = instances._as_text(data)
    except ParseError:
        return True
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if any(ln.startswith("c") != ln.strip().startswith("c") for ln in lines):
        return False
    tags = [ln.split()[0] for ln in lines if not ln.startswith("c")]
    return not tags or tags[0] == "disp" or not tags[0].startswith("disp")


@given(seed=st.integers(0, 10**6), counts=_HEADER_COUNTS,
       mutations=st.lists(_MUTATION, max_size=4), as_bytes=st.booleans(),
       raw=st.binary(max_size=3))
@settings(max_examples=300, deadline=None)
def test_parse_disperser_keeps_its_old_outcome_where_the_rules_agree(seed, counts, mutations,
                                                                     as_bytes, raw):
    text = _mutate(_valid_text("disp", seed), counts, mutations)
    data = text.encode() + raw if as_bytes else text
    assume(_disperser_rules_agree(data))
    want, got = _parsed(ref_parse_disperser, data), _parsed(parse_disperser, data)
    if isinstance(want, Disperser):
        assert got == want
    else:
        # An error of the same type; its text now names the line.
        assert isinstance(got, tuple) and got[0] is want[0], (got, want)


def ref_emit_graph(graph):
    lines = [f"p edge {graph.num_vertices} {graph.num_edges}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in pairs_of(graph.adjacency))
    return "\n".join(lines) + "\n"


def ref_emit_labelcover(lc):
    lines = [f"lc {lc.left_size} {lc.right_size} {lc.left_alphabet} {lc.right_alphabet}"]
    for u in range(lc.left_size):
        if len(lc.admissible[u]) != lc.left_alphabet:
            labels = lc.admissible_list(u)
            body = " ".join(str(a) for a in labels)
            lines.append(f"a {u + 1} {len(labels)}" + (f" {body}" if body else ""))
    for u, v in lc.edges:
        pairs = lc.relations[(u, v)]
        flat = " ".join(f"{a} {b}" for a, b in pairs)
        lines.append(f"e {u + 1} {v + 1} {len(pairs)}" + (f" {flat}" if flat else ""))
    return "\n".join(lines) + "\n"


def ref_emit_setsystem(system):
    lines = [f"ss {system.universe_size} {system.num_sets}"]
    names = [str(e + 1) for e in range(system.universe_size)]
    for sid, mask in zip(system.ids, system.masks):
        body = " ".join(itertools.compress(names, instances._flags(mask)))
        lines.append(f"s {sid} {mask.bit_count()}" + (f" {body}" if body else ""))
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def assert_parses_as_the_line_loop(text):
    """parse_graph gives the referee's graph or error; its bulk read gives that graph or None."""
    want = _outcome(ref_parse_graph, text)
    assert _outcome(parse_graph, text) == want
    bulk = instances._parse_edge_lines(text)
    assert bulk is None or bulk == want
    return bulk


# Small files named by what they hold: each must give the line loop's graph,
# or its error text with the line number.
_GRAPH_FILES = {
    "superscript-endpoint": ("p edge 3 1\ne 1 \u00b2\n", "line 2: non-integer endpoint"),
    "superscript-header": ("p edge \u00b2 0\n", "line 1: non-integer counts in header"),
    "5000-digit-n": ("p edge " + "1" * 5000 + " 0\n", "line 1: non-integer counts in header"),
    "5000-digit-m": ("p edge 3 " + "1" * 5000 + "\n", "line 1: non-integer counts in header"),
    "plus-sign": ("p edge 3 1\ne 1 +3\n", Graph(3, [(0, 2)])),
    "plus-sign-header": ("p edge +3 1\ne 1 3\n", Graph(3, [(0, 2)])),
    "leading-zero": ("p edge 3 1\ne 03 1\n", Graph(3, [(0, 2)])),
    "crlf": ("p edge 3 1\r\ne 1 2\r\n", Graph(3, [(0, 1)])),
    "tabs": ("p\tedge 3 1\ne\t1 2\n", Graph(3, [(0, 1)])),
    "leading-comment": ("c drawn by hand\np edge 3 1\ne 1 2\n", Graph(3, [(0, 1)])),
    "inline-comment": ("p edge 3 2\ne 1 2\nc x\ne 2 3\n", Graph(3, [(0, 1), (1, 2)])),
    "blank-lines": ("p edge 3 2\n\ne 1 2\n\ne 2 3\n", Graph(3, [(0, 1), (1, 2)])),
    "no-final-newline": ("p edge 3 2\ne 1 2\ne 2 3", Graph(3, [(0, 1), (1, 2)])),
    "duplicate-edge": ("p edge 3 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge"),
    # The header counts the distinct edges, so only the lines read disagree.
    "duplicate-edge-counted-once": ("p edge 3 1\ne 1 2\ne 1 2\n", "line 3: duplicate edge"),
    "self-loop-counted-once": ("p edge 3 1\ne 1 2\ne 3 3\n", "line 3: self-loop"),
    "self-loop": ("p edge 3 2\ne 1 2\ne 3 3\n", "line 3: self-loop"),
    "wrong-m": ("p edge 3 2\ne 1 2\n", "header declares 2 edges, found 1"),
    "endpoint-n-plus-1": ("p edge 3 1\ne 1 4\n", "line 2: vertex out of range"),
    "endpoint-0": ("p edge 3 1\ne 0 1\n", "line 2: vertex out of range"),
    "second-header": ("p edge 3 1\ne 1 2\np edge 3 1\n", "line 3: duplicate header"),
    "no-edges": ("p edge 0 0\n", Graph(0)),
}


@pytest.mark.parametrize("chunk", [1, 5, 16, 1 << 15])
@pytest.mark.parametrize("name", sorted(_GRAPH_FILES))
def test_parse_graph_keeps_the_line_loops_result(monkeypatch, chunk, name):
    # A chunk of 1 cuts after every line, 5 and 16 mid-line.
    monkeypatch.setattr(instances, "_PARSE_CHUNK", chunk)
    text, want = _GRAPH_FILES[name]
    assert _outcome(parse_graph, text) == want
    assert_parses_as_the_line_loop(text)


def _edge_files(g, rng):
    """The graph's file, its edge lines shuffled, and its endpoints swapped."""
    header, *lines = emit_graph(g).splitlines(keepends=True)
    shuffled = rng.sample(lines, len(lines))
    swapped = [f"e {line.split()[2]} {line.split()[1]}\n" for line in shuffled]
    return [header + "".join(lines), header + "".join(shuffled), header + "".join(swapped)]


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 15])
@pytest.mark.parametrize("seed", range(8))
def test_bulk_graph_parse_reads_edge_files_in_any_order(monkeypatch, chunk, seed):
    monkeypatch.setattr(instances, "_PARSE_CHUNK", chunk)
    rng = random.Random(seed)
    g = random_graph(rng.randint(0, 30), rng.random(), seed)
    for text in _edge_files(g, rng):
        # These files are the bulk read's own shape, so it must not decline them.
        assert assert_parses_as_the_line_loop(text) == g


def _straddling_graph(rng):
    """A 1,000-vertex graph whose rows 0..39 hold, in turn, the fewest
    neighbours a dense row holds and one fewer."""
    edges = []
    for u in range(40):
        top = 500 + 12 * u
        count = -(-(top + 1) // instances._DENSE) - u % 2
        edges += [(u, v) for v in [top, *rng.sample(range(40, top), count - 1)]]
    return Graph(1_000, edges)


@pytest.mark.parametrize("chunk", [1, 64, 1 << 15])
def test_bulk_graph_parse_reads_dense_edge_files(monkeypatch, chunk):
    # The compile workload's 400-vertex G(n, 1/2) files, whose rows are dense,
    # and a graph whose rows fall just on each side of the density rule.
    monkeypatch.setattr(instances, "_PARSE_CHUNK", chunk)
    rng = random.Random(chunk)
    straddling = _straddling_graph(rng)
    rows = straddling.adjacency[:40]
    assert {m.bit_length() <= instances._DENSE * m.bit_count() for m in rows} == {True, False}
    for g in (random_graph(400, 0.5, chunk), straddling):
        for text in _edge_files(g, rng):
            assert assert_parses_as_the_line_loop(text) == g


@given(seed=st.integers(0, 10**6), counts=_HEADER_COUNTS,
       mutations=st.lists(_MUTATION, max_size=4), chunk=st.sampled_from([1, 9, 64]))
@settings(max_examples=150, deadline=None)
def test_bulk_graph_parse_matches_the_line_loop_on_mutated_files(seed, counts, mutations,
                                                                chunk):
    text = _mutate(_valid_text("wide-graph", seed), counts, mutations)
    with mock.patch.object(instances, "_PARSE_CHUNK", chunk):
        assert_parses_as_the_line_loop(text)


def _wide_graphs():
    yield from nonisomorphic_graphs_up_to(5)
    yield petersen_graph()
    yield complete_bipartite(3, 4)
    yield Graph(7)
    # Isolated vertices past every edge, and before it.
    yield Graph(50, [(0, 1)])
    yield Graph(50, [(48, 49)])
    for seed in range(6):
        yield random_graph(40, (0.0, 0.1, 0.5, 0.9, 1.0, 0.3)[seed], seed)
    # Wide sparse graphs: a star on 10^5 vertices centred at the first vertex,
    # one on 2,000 centred at the last, and a path on 10^4 vertices.
    yield Graph(100_000, [(0, v) for v in range(1, 100_000)])
    yield Graph(2_000, [(u, 1_999) for u in range(1_999)])
    yield path_graph(10_000)


def test_emit_graph_matches_the_pair_loop():
    for g in _wide_graphs():
        text = emit_graph(g)
        assert text == ref_emit_graph(g)
        assert parse_graph(text) == g


def _setsystems():
    yield SetSystem(0)
    yield SetSystem(3, ((2, ()), (5, (0,))))
    # One far element in a huge universe, with and without a small set beside it.
    yield SetSystem(500_000, ((1, (499_999,)),))
    yield SetSystem(100_000, ((1, (0, 1, 2)), (2, (99_999,)), (3, ())))
    rng = random.Random(11)
    for n in (1, 5, 8, 40, 300):
        yield SetSystem(n, [(sid, [e for e in range(n) if rng.random() < p])
                            for sid, p in enumerate((0.0, 0.1, 0.5, 0.9, 1.0), start=1)])
    yield minlab_to_setcov(random_labelcover(3, 3, 2, 2, density=0.8, seed=2, projection=True))


def test_emit_setsystem_matches_the_full_name_table():
    for system in _setsystems():
        text = emit_setsystem(system)
        assert text == ref_emit_setsystem(system)
        assert parse_setsystem(text) == system


def test_emit_setsystem_names_only_what_the_sets_hold():
    # A 500,000-element universe with one element: the table follows the
    # sets' one element, not the universe.
    system = parse_setsystem("ss 500000 1\ns 1 1 500000\n")
    tracemalloc.start()
    try:
        assert emit_setsystem(system) == "ss 500000 1\ns 1 1 500000\n"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _labelcovers():
    yield LabelCover(0, 0, 1, 1)
    yield LabelCover(2, 3, 2, 2, {(0, 0): set(), (1, 2): set()})
    # One store's items inserted in two orders, on two edges.
    yield LabelCover(1, 2, 3, 4, {(0, 0): [(2, 1), (0, 3), (0, 1)],
                                  (0, 1): [(0, 1), (0, 3), (2, 1)]})
    # A mask 10^7 bits wide holding one pair: the name table stays as small
    # as the stored pairs.
    yield LabelCover(1, 2, 2, 10**7, {(0, 0): {(1, 3)}, (0, 1): {(0, 9_999_999)}})
    rng = random.Random(7)
    for ra in (2, 3, 5, 17, 64, 300):
        for left, right, la in ((0, 2, 1), (3, 3, 2), (4, 4, 4)):
            relations, admissible = pair_cover_fields(rng, left, right, la, ra)
            yield LabelCover(left, right, la, ra, relations, admissible)
    for seed in range(4):
        lc = cnf_to_labelcover(mixed_cnf(random.Random(seed), 5, 4))
        yield lc
        yield compress_left(lc, k=2, r=2, epsilon=0.3, seed=seed)[0]
        yield random_labelcover(4, 5, 3, 4, density=0.8, seed=seed, projection=True)


def test_emit_labelcover_matches_the_pair_loop():
    for lc in _labelcovers():
        text = emit_labelcover(lc)
        assert text == ref_emit_labelcover(lc)
        assert parse_labelcover(text) == lc


def test_emit_labelcover_writes_shared_and_separate_admissible_sets_alike():
    # The admissible text is built once per distinct set: vertices sharing one
    # frozenset and vertices holding equal separate ones must write the same
    # lines, a full set none and an empty set "a u 0".
    given = [{1, 3}, {0, 1, 2, 3}, {1, 3}, set(), {0, 1, 2, 3}, {0}, set(), {0, 2}, {1, 3}]
    relations = {(u, u % 3): {(a, u % 2) for a in range(4)} for u in range(len(given))}
    shared = {}
    covers = {
        "shared": {u: shared.setdefault(frozenset(s), frozenset(s)) for u, s in enumerate(given)},
        "separate": {u: frozenset(s) for u, s in enumerate(given)},
    }
    texts = {}
    for name, admissible in covers.items():
        lc = LabelCover(len(given), 3, 4, 2, relations, admissible)
        owners = {id(lc.admissible[u]) for u in range(len(given))}
        assert len(owners) == (5 if name == "shared" else len(given))
        texts[name] = emit_labelcover(lc)
        assert texts[name] == ref_emit_labelcover(lc)
    assert texts["shared"] == texts["separate"]
    lines = texts["shared"].splitlines()
    assert [ln for ln in lines if ln.startswith("a ")] == [
        "a 1 2 1 3", "a 3 2 1 3", "a 4 0", "a 6 1 0", "a 7 0", "a 8 2 0 2", "a 9 2 1 3"]
    # A compressed cover holds one set per vertex.
    for seed in range(3):
        source = cnf_to_labelcover(mixed_cnf(random.Random(seed), 6, 8))
        lc = compress_left(source, k=3, r=2, epsilon=0.3, seed=seed)[0]
        assert emit_labelcover(lc) == ref_emit_labelcover(lc)


# ---------------------------------------------------------------------------
# Element lists to masks: the numeral path for dense lists, packed bytes for sparse ones


def _referee_mask(elements):
    return sum(1 << e for e in set(elements))


def _element_lists(width, rng):
    """Lists of width `width` (top element width - 1): one element, every
    element, half of them, and one element fewer than, exactly as many as and
    one more than the fewest a dense list holds."""
    fewest = -(-width // instances._DENSE)
    for count in sorted({1, fewest - 1, fewest, fewest + 1, width // 2, width}):
        if 1 <= count <= width:
            others = rng.sample(range(width - 1), count - 1)
            yield [width - 1, *others]


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 400, 1000,
                                   4097, 12_000])
def test_mask_of_matches_the_shift_sum(width):
    rng = random.Random(width)
    for xs in _element_lists(width, rng):
        dense = width <= instances._DENSE * len(xs)
        want = _referee_mask(xs)
        assert want.bit_length() == width
        shuffled = rng.sample(xs, len(xs))
        repeated = xs + rng.choices(xs, k=len(xs) // 2 + 1)
        for given in (xs, sorted(xs), shuffled, tuple(shuffled), frozenset(xs), repeated):
            assert instances._mask_of(given) == want, (width, len(xs), dense, type(given))


def test_mask_of_edge_lists():
    assert instances._mask_of([]) == 0
    assert instances._mask_of(()) == 0
    assert instances._mask_of(frozenset()) == 0
    assert instances._mask_of([0]) == 1
    assert instances._mask_of([0, 0, 0]) == 1
    assert instances._mask_of([5, 1, 5, 3, 1]) == 0b101010
    assert instances._mask_of((9, 0)) == 0b1000000001


@pytest.mark.parametrize("elements", [[11_584], [0, 25_000, 99_999, 50_000, 75_000]],
                         ids=["one-far-element", "five-spread-elements"])
def test_mask_of_packs_sparse_lists(elements):
    # A sparse list takes the packed path, whose buffers are width / 8 bytes
    # each; a digit string would take a byte per position.
    width = max(elements) + 1
    tracemalloc.start()
    try:
        mask = instances._mask_of(elements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask == _referee_mask(elements)
    assert peak < width // 2


# ---------------------------------------------------------------------------
# Bit-matrix transpose


def _referee_columns(rows, width):
    """Column j of the rows, one digit of one row at a time."""
    columns = [0] * width
    for i, row in enumerate(rows):
        for j, digit in enumerate(reversed(format(row, "b"))):
            if digit == "1":
                columns[j] |= 1 << i
    return columns


def _random_rows(rng, count, width, density):
    if density == 0.5:
        return [rng.getrandbits(width) for _ in range(count)]
    return [instances._mask_of([e for e in range(width) if rng.random() < density])
            for _ in range(count)]


def _matrix(shape):
    rng = random.Random(shape)
    slab_rows = instances._SLAB // 4096
    return {
        "no-rows": lambda: ([], 5),
        "width-0": lambda: ([0, 0, 0], 0),
        "zero-rows": lambda: ([0] * 7, 300),
        "full-row": lambda: ([(1 << 500_000) - 1], 500_000),
        "halves-5x40000": lambda: (_random_rows(rng, 5, 40_000, 0.5), 40_000),
        "dense-35x256": lambda: (_random_rows(rng, 35, 256, 0.5), 256),
        "dense-256x35": lambda: (_random_rows(rng, 256, 35, 0.5), 35),
        "sparse-2000x300": lambda: (_random_rows(rng, 2000, 300, 0.01), 300),
        "diagonal-1000": lambda: ([1 << i for i in range(1000)], 1000),
        # One row past a slab, so the last slab holds a single row.
        "two-slabs": lambda: (_random_rows(rng, slab_rows + 1, 4096, 0.5), 4096),
    }[shape]()


@pytest.mark.parametrize("shape", ["no-rows", "width-0", "zero-rows", "full-row",
                                   "halves-5x40000", "dense-35x256", "dense-256x35",
                                   "sparse-2000x300", "diagonal-1000", "two-slabs"])
def test_columns_match_the_per_bit_referee(shape):
    rows, width = _matrix(shape)
    want = _referee_columns(rows, width)
    assert instances._columns(rows, width) == want
    # Each path alone: a column cost far below zero always reads numerals, and
    # one far above always walks.
    for cost in (-1 << 80, 1 << 80):
        with mock.patch.object(instances, "_COLUMN", cost):
            assert instances._columns(rows, width) == want


@pytest.mark.parametrize("slab", [1, 7, 64, 1000])
def test_columns_read_numerals_slab_by_slab(slab):
    # Slabs narrower than a row, a few rows wide, and wider than the matrix.
    rng = random.Random(slab)
    with mock.patch.multiple(instances, _SLAB=slab, _COLUMN=-1 << 80):
        for count, width in [(13, 5), (9, 100), (40, 30), (3, 1), (1, 70)]:
            rows = _random_rows(rng, count, width, 0.5)
            assert instances._columns(rows, width) == _referee_columns(rows, width)


def test_columns_walk_few_narrow_or_sparse_rows_and_read_dense_ones_as_numerals():
    rng = random.Random(3)
    # 2,000 rows over 1,000 columns, each row within its first 40 positions.
    narrow = [rng.getrandbits(40) for _ in range(1999)] + [1 << 999]
    diagonal = [1 << i for i in range(3000)]
    cases = [([(1 << 500_000) - 1], 500_000, True), (narrow, 1000, True), (diagonal, 3000, True),
             (_random_rows(rng, 35, 256, 0.5), 256, False),
             (_random_rows(rng, 256, 35, 0.5), 35, False)]
    lowest_first, flags = instances._lowest_first, instances._flags
    for rows, width, walks in cases:
        want = _referee_columns(rows, width)
        stepped, read = [], []

        def steps(row):
            stepped.append(row.bit_count())
            return lowest_first(row)

        def digits(row):
            read.append(row)
            return flags(row)

        with mock.patch.object(instances, "_lowest_first", side_effect=steps), \
                mock.patch.object(instances, "_flags", side_effect=digits):
            assert instances._columns(rows, width) == want
        assert len(read) + len(stepped) == (len(rows) if walks else 0)
        # Only the rows of at most _FEW_BITS bits are stepped, and all of them are.
        assert all(ones <= instances._FEW_BITS for ones in stepped)
        assert len(stepped) == sum(row.bit_count() <= instances._FEW_BITS for row in rows) * walks


@pytest.mark.parametrize("ones", [0, 1, instances._FEW_BITS, instances._FEW_BITS + 1, 300])
def test_bits_of_steps_only_few_bits_and_reads_the_rest_in_one_pass(ones):
    rng = random.Random(ones)
    for width in (ones, 2 * ones + 1, 50_000):
        elements = sorted(rng.sample(range(width), ones))
        mask = instances._mask_of(elements)
        with mock.patch.object(instances, "_lowest_first", wraps=instances._lowest_first) as step:
            assert list(instances.bits_of(mask)) == elements
        assert step.call_count == (ones <= instances._FEW_BITS)


def test_bits_of_reads_a_full_row_in_linear_time():
    # Stepped lowest bit first, one full 500,000-bit row took 17 s.
    start = time.perf_counter()
    assert sum(1 for _ in instances.bits_of((1 << 500_000) - 1)) == 500_000
    assert time.perf_counter() - start < 2


def test_columns_hold_one_slab_of_digits_at_a_time():
    # 1,024 x 4,096 cells read as numerals in slabs of 2^18 digits. Read in one
    # slab, the whole matrix's digits would take 4 MiB, twice over while reversed.
    rng = random.Random(4)
    rows = _random_rows(rng, 1024, 4096, 0.5)
    with mock.patch.multiple(instances, _SLAB=1 << 18, _COLUMN=-1 << 80):
        tracemalloc.start()
        try:
            columns = instances._columns(rows, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert columns == _referee_columns(rows, 4096)
    assert peak < 1 << 21
