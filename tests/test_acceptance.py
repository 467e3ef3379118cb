"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is checked at its stated tolerance (exact equality unless the
criterion says otherwise) and asserted to finish inside its stated time limit.
Criterion 8's q=2 soundness half is unattainable for the specified
construction (see the decisions notes); that test is marked xfail(strict) and
the attainable parts are asserted separately.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import gapred as g
from gapred.graph_reductions import canonical_masks
from gapred.pipelines import gen_gap_cnf, gen_planted_cnf

from corpus import all_labeled_graphs, nonisomorphic_graphs_up_to, random_labelcover


class _Timer:
    def __init__(self, label, limit_s):
        self.label = label
        self.limit = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.label} ({elapsed:.1f}s / limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label} exceeded its {self.limit}s limit"
        return False


# ---------------------------------------------------------------------------


def test_criterion_01_fglss_equality():
    with _Timer("criterion 1: FGLSS equality on 200 projection instances", 60):
        for seed in range(200):
            rng = random.Random(f"c1-{seed}")
            lc = random_labelcover(
                rng.randint(1, 4),
                rng.randint(1, 4),
                rng.randint(1, 3),
                rng.randint(1, 3),
                density=rng.choice((0.6, 0.8, 1.0)),
                seed=seed,
                projection=True,
                admissible_density=0.7 if seed % 2 else None,
            )
            assert g.clique(g.fglss(lc)) == g.max_cov(lc)


def test_criterion_02_minlab_setcov_equality():
    with _Timer("criterion 2: MinLab = SetCov on 100 instances", 120):
        for seed in range(100):
            rng = random.Random(f"c2-{seed}")
            lc = random_labelcover(
                rng.randint(1, 3),
                rng.randint(1, 3),
                rng.randint(1, 2),
                rng.randint(1, 3),
                seed=seed,
                left_degrees=(1, 3),
                pair_density=rng.choice((0.3, 0.5, 0.8)),
                admissible_density=0.7 if seed % 3 == 0 else None,
            )
            assert g.set_cover(g.minlab_to_setcov(lc)) == g.min_lab(lc)


def test_criterion_03_hypercube_equivalence():
    with _Timer("criterion 3: hypercube cover-iff-column for (z,k) in {1,2,3}^2", 10):
        for z in (1, 2, 3):
            for k in (1, 2, 3):
                # Every subcollection of the z*k canonical sets X(i, a), at bit
                # i * k + a of the selector, covers all z^k ranks exactly when
                # it holds a whole column X(0, a), ..., X(z-1, a).
                masks = [mask for row in canonical_masks(z, k) for mask in row]
                columns = [sum(1 << i * k + a for i in range(z)) for a in range(k)]
                ground = (1 << z**k) - 1
                for selector in range(1 << z * k):
                    union = 0
                    for t in range(z * k):
                        if selector >> t & 1:
                            union |= masks[t]
                    has_column = any(selector & col == col for col in columns)
                    assert (union == ground) == has_column, (z, k, selector)


def test_criterion_04_dispersers():
    with _Timer("criterion 4: 1000 random dispersers + deterministic search", 60):
        # At these parameters the size formula caps at ell = m, so every
        # subset is the full universe and verification passes with certainty.
        for seed in range(1000):
            d = g.random_disperser(20, 8, 4, 0.5, seed=seed)
            assert d.ell == 20 and math.log(d.k) <= d.m / d.r
            assert g.verify_disperser(d) is None
        # Augmented non-degenerate regime (ln 8 <= 20/6, ell = 12 < m).
        failures = 0
        for seed in range(1000):
            d = g.random_disperser(20, 8, 6, 0.9, seed=seed)
            assert d.ell == 12 and math.log(d.k) <= d.m / d.r
            if g.verify_disperser(d) is not None:
                failures += 1
        assert failures <= 1  # observed rate <= 1/N; Claim-4.1 scale e^-20
        # Deterministic route at m' <= 8, k <= 3, r = 2.
        for m, k in ((5, 2), (6, 3), (8, 3)):
            d = g.deterministic_disperser(m, k, 2, 0.5)
            assert g.verify_disperser(d) is None


def _corpus_formulas():
    planted = [gen_planted_cnf(6, 5, seed=f"sat-{i}") for i in range(20)]
    gaps = [gen_gap_cnf(6, 5, 0.3, seed=f"gap-{i}") for i in range(20)]
    return planted, gaps


def test_criterion_05_left_compression():
    with _Timer("criterion 5: left compression on 20 planted + 20 gap formulas", 300):
        planted, gaps = _corpus_formulas()
        for i, f in enumerate(planted):
            assert g.sat_max(f) == f.num_clauses
            lc = g.cnf_to_labelcover(f)
            out, disp = g.compress_left(lc, k=3, r=2, epsilon=0.2, seed=i)
            assert g.verify_disperser(disp) is None
            assert g.max_cov(out) == 3
        for i, f in enumerate(gaps):
            m = f.num_clauses
            assert Fraction(g.sat_max(f)) < (1 - Fraction(2, 10)) * m  # eps = 0.2 premise
            lc = g.cnf_to_labelcover(f)
            out, disp = g.compress_left(lc, k=3, r=2, epsilon=0.2, seed=1000 + i)
            assert g.verify_disperser(disp) is None
            assert g.max_cov(out) < 2


def test_criterion_06_right_compression_and_minlab():
    with _Timer("criterion 6: right compression and MinLab on the same corpus", 300):
        planted, gaps = _corpus_formulas()
        params = {"q": 2, "gamma": 0.5, "epsilon": 0.3}
        # Criterion bounds: m <= 8, derived ell <= 3, q <= 2.
        assert all(f.num_clauses <= 8 for f in planted + gaps)
        assert math.ceil(math.log(1 / params["gamma"]) / params["epsilon"]) <= 3
        assert math.ceil(2 * math.log(3 / 2) / 0.3) <= 3  # minlab at q=2, r=3
        for f in planted:
            lc = g.cnf_to_labelcover(f)
            out = g.compress_right(lc, **params)
            assert g.max_cov(out) == out.left_size
            ml = g.minlab_instance(lc, q=2, r=3, epsilon=0.3)
            assert g.min_lab(ml) == 2
        for f in gaps:
            m = f.num_clauses
            assert Fraction(g.sat_max(f)) < (1 - Fraction(3, 10)) * m  # eps = 0.3 premise
            lc = g.cnf_to_labelcover(f)
            out = g.compress_right(lc, **params)
            assert Fraction(g.max_cov(out)) < Fraction(1, 2) * out.left_size
            ml = g.minlab_instance(lc, q=2, r=3, epsilon=0.3)
            value = g.min_lab(ml)
            assert value is None or value > 3


def test_criterion_07_gadget_sandwiches():
    with _Timer("criterion 7: gadget sandwiches, exhaustive <=5 plus 200 random <=7", 120):
        def check(graph):
            c = g.clique(graph)
            b = g.biclique(graph)
            assert c <= g.biclique(g.biclique_gadget(graph)) <= 2 * b + 1
            assert c <= g.induced_matching(g.im_gadget(graph)) <= 2 * b + 1

        for n in range(0, 6):
            for graph in all_labeled_graphs(n):
                check(graph)
        for seed in range(200):
            rng = random.Random(f"c7-{seed}")
            check(g.random_graph(rng.randint(1, 7), rng.choice((0.2, 0.5, 0.8)), seed))


def _criterion_8_cases():
    for h in nonisomorphic_graphs_up_to(5):
        w = g.clique(h)
        for k in (2, 3):
            for q in (1, 2):
                yield h, w, k, q


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The claimed 4(k-1) soundness bound is violated by the chained-block gadget at "
        "q=2: same-vertex row hops plus the block chain admit q(2k-1)-vertex "
        "induced paths (e.g. H = K_1, k=2, q=2 gives a 6-path). Verified "
        "unattainable for the whole construction family; see the build notes."
    ),
)
def test_criterion_08_induced_path_as_stated():
    with _Timer("criterion 8: induced path bounds as stated", 300):
        for h, w, k, q in _criterion_8_cases():
            out = g.clique_to_inducedpath(h, k, q)
            if w >= k:
                assert g.induced_path_at_least(out, 2 * q * k), (h.edges, k, q)
            else:
                assert not g.induced_path_at_least(out, 4 * (k - 1) + 1), (h.edges, k, q)


def test_criterion_08_attainable_bounds():
    with _Timer("criterion 8 (attainable): completeness, q=1 soundness, q(2k-1)", 300):
        for h, w, k, q in _criterion_8_cases():
            out = g.clique_to_inducedpath(h, k, q)
            if w >= k:
                assert g.induced_path_at_least(out, 2 * q * k), (h.edges, k, q)
            else:
                assert not g.induced_path_at_least(out, q * (2 * k - 1) + 1), (h.edges, k, q)
                if q == 1:
                    assert not g.induced_path_at_least(out, 4 * (k - 1) + 1), (h.edges, k, q)


def test_criterion_09_dks_construction():
    with _Timer("criterion 9: DkS partial-assignment graph", 30):
        for n in range(3, 7):
            f = gen_planted_cnf(n, max(3, n - 2), seed=f"c9-{n}")
            out = g.sat_to_dks(f, ell=2, p=1.0)
            assert out.num_vertices == math.comb(n, 2) * 4
            full = next(
                a for a in range(1 << n)
                if all(any((a >> abs(lit) - 1 & 1) == (lit > 0) for lit in clause)
                       for clause in f.clauses)
            )
            restrictions = []
            for window in itertools.combinations(range(n), 2):
                bits = sum(((full >> var) & 1) << t for t, var in enumerate(window))
                restrictions.append((window, bits))
            for (w1, b1), (w2, b2) in itertools.combinations(restrictions, 2):
                assert g.dks_edge(f, w1, b1, w2, b2)
        # Edge-rule unit cases: inconsistent / violated clause / valid.
        f = g.CnfFormula(3, ((1, 2, 3),))
        assert not g.dks_edge(f, (0, 1), 0b01, (0, 2), 0b00)
        assert not g.dks_edge(f, (0, 1), 0b00, (1, 2), 0b00)
        assert g.dks_edge(f, (0, 1), 0b01, (1, 2), 0b10)


def test_criterion_09_dks_clique_identity():
    # For ell < n and clauses of at most 2*ell literals, clique(sat2dks(phi))
    # is C(n, ell) exactly when phi is satisfiable.
    with _Timer("criterion 9 (identity): clique == C(n, ell) iff satisfiable", 60):
        for n, ell in ((5, 2), (6, 2), (6, 3), (7, 3)):
            windows = math.comb(n, ell)
            planted = gen_planted_cnf(n, 2 * n, seed=f"c9i-{n}-{ell}")
            assert g.clique(g.sat_to_dks(planted, ell=ell)) == windows
            for seed in range(3):
                gap = gen_gap_cnf(n, 8, 0.2, seed=f"c9i-{n}-{ell}-{seed}")
                assert g.sat_max(gap) < gap.num_clauses
                assert g.clique(g.sat_to_dks(gap, ell=ell)) < windows
        # verify grades both directions by the identity...
        for source, direction in (
            ({"kind": "gen-planted", "n": 5, "m": 8}, "completeness"),
            ({"kind": "gen-gap", "n": 5, "m": 8, "epsilon": 0.2}, "soundness"),
        ):
            spec = g.PipelineSpec(input=source, stages=({"op": "sat2dks", "ell": 2},), seed=9)
            stage = g.verify_pipeline(spec).stages[0]
            assert stage.status == "PASS" and stage.detail.startswith(direction), stage.detail
        # ...and only completeness at ell == n: one window, so every formula
        # has clique 1 = C(n, n).
        spec = g.PipelineSpec(
            input={"kind": "gen-gap", "n": 3, "m": 4, "epsilon": 0.2},
            stages=({"op": "sat2dks", "ell": 3},),
            seed=9,
        )
        report = g.verify_pipeline(spec)
        assert report.input_values["sat_max"] < 4
        assert report.stages[0].status == "NOT-APPLICABLE"
        assert report.stages[0].values["clique"] == 1
        assert report.overall == "pass"


def test_criterion_10_clause_variable_game():
    with _Timer("criterion 10: MaxCov(cnf2lc(phi)) = sat_max(phi) on 100 formulas", 60):
        for seed in range(100):
            rng = random.Random(f"c10-{seed}")
            n = rng.randint(3, 6)
            f = g.random_cnf(n, rng.randint(0, 8), seed)
            assert g.max_cov(g.cnf_to_labelcover(f)) == g.sat_max(f)


def test_criterion_11_hereditary_bridge():
    with _Timer("criterion 11: forest bridge exhaustive <=6 and Ramsey arithmetic", 120):
        for graph in nonisomorphic_graphs_up_to(6):
            alpha = g.independent_set(graph)
            forest = g.max_induced_with_property(graph, "forest")
            assert forest >= alpha
            assert alpha >= -(-forest // 2)
        for s in range(1, 6):
            for t in range(1, 6):
                assert g.ramsey_binomial_bound(s, t) == math.comb(s + t - 2, s - 1)


def test_criterion_12_roundtrip_and_determinism(tmp_path):
    import json

    from gapred.pipelines import PipelineSpec, run_pipeline, verify_pipeline, write_artifacts

    with _Timer("criterion 12: round trips and byte-identical reruns", 120):
        # parse(emit(x)) = x across every format and the generated corpus.
        for seed in range(30):
            f = g.random_cnf(6, 7, seed)
            assert g.parse_cnf(g.emit_cnf(f)) == f
            graph = g.random_graph(7, 0.5, seed)
            assert g.parse_graph(g.emit_graph(graph)) == graph
            lc = random_labelcover(3, 3, 2, 2, density=0.7, seed=seed,
                                   admissible_density=0.6)
            assert g.parse_labelcover(g.emit_labelcover(lc)) == lc
            system = g.minlab_to_setcov(
                random_labelcover(2, 2, 2, 2, seed=seed, left_degrees=(1, 2))
            )
            assert g.parse_setsystem(g.emit_setsystem(system)) == system
            d = g.random_disperser(10, 4, 2, 0.5, seed=seed)
            assert g.parse_disperser(g.emit_disperser(d)) == d
        # Pipeline artifacts are byte-identical across repeated seeded runs.
        spec = PipelineSpec(
            input={"kind": "gen-planted", "n": 6, "m": 5},
            stages=(
                {"op": "cnf2lc"},
                {"op": "compress-left", "k": 3, "r": 2, "epsilon": 0.2},
                {"op": "fglss"},
            ),
            seed=11,
        )
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            run = run_pipeline(spec)
            report = verify_pipeline(spec)
            write_artifacts(run, out, "verify", spec, report=report, version="x")
            outs.append(out)
        names1 = sorted(p.name for p in outs[0].iterdir())
        names2 = sorted(p.name for p in outs[1].iterdir())
        assert names1 == names2
        for name in names1:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        assert manifest["verification"]["overall"] == "pass"
