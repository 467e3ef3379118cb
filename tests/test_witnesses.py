"""Witnessed oracles: sat_max, max_cov and clique checked against themselves.

verify_pipeline lifts a gen-planted input's assignment through the stages and
hands each instance's witness to its oracle. A witness may only make a call
cheaper: with or without it, and whether it is right or corrupted, the value
is the same.
"""

import bisect
import random

import pytest

from gapred import LabelCover, oracles, pipelines
from gapred.pipelines import PipelineSpec, gen_gap_cnf, run_pipeline, verify_pipeline

from corpus import pair_cover_fields

_ORACLE = {"cnf": "sat_max", "lc": "max_cov", "graph": "clique"}

_CL = {"op": "compress-left", "r": 2, "epsilon": 0.5}
# Planted chains: the benchmark's transform templates and the test suite's
# planted pipelines, each ending in the stages that carry a witness.
PLANTED_CHAINS = {
    "cl-k3": ((7, 5), [{"op": "cnf2lc"}, {**_CL, "k": 3}, {"op": "fglss"}]),
    "cl-k5": ((7, 5), [{"op": "cnf2lc"}, {**_CL, "k": 5}, {"op": "fglss"}]),
    "cl-det": ((7, 5), [{"op": "cnf2lc"}, {**_CL, "k": 4, "disperser": "deterministic"},
                        {"op": "fglss"}]),
    "cr": ((10, 8), [{"op": "cnf2lc"},
                     {"op": "compress-right", "q": 2, "gamma": 0.3, "epsilon": 0.4}]),
    "cr-q1": ((5, 4), [{"op": "cnf2lc"},
                       {"op": "compress-right", "q": 1, "gamma": 1.0, "epsilon": 0.3}]),
    "minlab": ((8, 7), [{"op": "cnf2lc"}, {"op": "minlab", "q": 1, "r": 2, "epsilon": 0.3}]),
    "dks": ((7, 6), [{"op": "sat2dks", "ell": 3}]),
    "dks-sub": ((5, 4), [{"op": "sat2dks", "ell": 2, "p": 0.5}]),
    "front-n9": ((9, 7), [{"op": "cnf2lc"}, {**_CL, "k": 4}, {"op": "fglss"}]),
    "clique-spec": ((6, 5), [{"op": "cnf2lc"},
                             {"op": "compress-left", "k": 3, "r": 2, "epsilon": 0.2},
                             {"op": "fglss"}]),
    "fglss": ((5, 4), [{"op": "cnf2lc"}, {"op": "fglss"}, {"op": "biclique-gadget"}]),
}


def _planted(name, seed):
    (n, m), stages = PLANTED_CHAINS[name]
    spec = PipelineSpec(input={"kind": "gen-planted", "n": n, "m": m}, stages=tuple(stages),
                        seed=seed)
    run = run_pipeline(spec)
    planted = pipelines._PLANTED[run.instances[0]]
    return spec, run, pipelines._lifted(spec, run, planted)


def _gap(seed):
    """A gen-gap chain (no full labeling anywhere) and an arbitrary assignment lifted
    through it: the witnesses are well formed but fall short of the optimum."""
    spec = PipelineSpec(input={"kind": "gen-gap", "n": 6, "m": 8, "epsilon": 0.3},
                        stages=({"op": "cnf2lc"}, {"op": "fglss"}), seed=seed)
    run = run_pipeline(spec)
    sigma = tuple((seed >> i) & 1 for i in range(run.instances[0].num_vars))
    return spec, run, pipelines._lifted(spec, run, sigma)


class _Counting(oracles._Meter):
    """A meter that records itself, so a test can read an oracle call's nodes."""

    made: list = []

    def __init__(self, budget):
        super().__init__(budget)
        _Counting.made.append(self)


def _solve(monkeypatch, kind, instance, **witness):
    """(value, nodes) of the kind's witnessed oracle on `instance`."""
    monkeypatch.setattr(oracles, "_Meter", _Counting)
    _Counting.made = []
    value = getattr(oracles, _ORACLE[kind])(instance, **witness)
    return value, sum(meter.nodes for meter in _Counting.made)


def _witnessed(run, witnesses):
    return [(kind, instance, w) for kind, instance, w in zip(run.kinds, run.instances, witnesses)
            if w is not None and kind in _ORACLE]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(PLANTED_CHAINS))
def test_planted_witnesses_keep_the_value_in_no_more_nodes(monkeypatch, name, seed):
    spec, run, witnesses = _planted(name, seed)
    lifted = _witnessed(run, witnesses)
    assert lifted and lifted[0][0] == "cnf"
    for kind, instance, witness in lifted:
        want, nodes = _solve(monkeypatch, kind, instance)
        got, witnessed_nodes = _solve(monkeypatch, kind, instance, witness=witness)
        assert got == want, (kind, witness)
        assert witnessed_nodes <= nodes, (kind, witnessed_nodes, nodes)
        # The lifted witness is itself optimal, so the call closes at the root,
        # except on a subsample, whose clique may beat the planted vertices.
        if kind == "cnf":
            assert oracles._satisfied(instance, witness) == want == instance.num_clauses
        elif kind == "lc":
            assert oracles._covered(instance, witness) == want == instance.left_size
        elif name != "dks-sub":
            assert oracles._clique_size(instance.adjacency, witness) == want
            assert witnessed_nodes == 1
        else:
            assert 0 < oracles._clique_size(instance.adjacency, witness) <= want


def test_witnesses_stop_at_a_stage_without_a_lift():
    _, run, witnesses = _planted("minlab", 0)
    assert [w is not None for w in witnesses] == [True, True, False]
    _, run, witnesses = _planted("fglss", 0)
    assert [w is not None for w in witnesses] == [True, True, True, False]


def _corrupted(kind, instance, witness):
    """Witnesses that are wrong in one place, or of the wrong shape."""
    if kind in ("cnf", "lc"):
        alphabet = 2 if kind == "cnf" else instance.right_alphabet
        flipped = tuple((b + 1) % alphabet if i == 0 else b for i, b in enumerate(witness))
        return [flipped, witness[:-1], witness + (0,), (alphabet,) * len(witness),
                list(witness)[::-1], tuple(map(bool, witness))]
    adj = instance.adjacency
    n = instance.num_vertices
    out = [witness[1:], witness + witness[:1], witness + (n,), tuple(range(n)), (-1,)]
    for v in range(n):
        if v not in witness and not adj[v] >> witness[0] & 1:
            out.append((v,) + witness[1:])  # the first vertex swapped for a non-neighbour
            out.append(witness + (v,))  # a non-neighbour added
            break
    return out


@pytest.mark.parametrize("chain", ["planted", "gap"])
@pytest.mark.parametrize("seed", range(4))
def test_corrupted_witnesses_give_the_exact_value(chain, seed):
    _, run, witnesses = _planted("clique-spec", seed) if chain == "planted" else _gap(seed)
    lifted = _witnessed(run, witnesses)
    assert [kind for kind, _, _ in lifted] == run.kinds
    for kind, instance, witness in lifted:
        oracle = getattr(oracles, _ORACLE[kind])
        want = oracle(instance)
        assert oracle(instance, witness=witness) == want
        for bad in _corrupted(kind, instance, witness):
            assert oracle(instance, witness=bad) == want, (kind, bad)


def test_gap_chains_are_not_full():
    # The gap chain's witnesses fall short, so an oracle that trusted them
    # unchecked would answer m, |U| or more vertices than the clique number.
    for seed in range(4):
        formula, lc, graph = _gap(seed)[1].instances
        assert oracles.sat_max(formula) < formula.num_clauses
        assert oracles.max_cov(lc) < lc.left_size
        assert oracles.clique(graph) < graph.num_vertices


@pytest.mark.parametrize("name", ["clique-spec", "cr", "dks", "fglss"])
def test_verify_reports_the_same_with_and_without_witnesses(monkeypatch, name):
    (n, m), stages = PLANTED_CHAINS[name]
    spec = PipelineSpec(input={"kind": "gen-planted", "n": n, "m": m}, stages=tuple(stages),
                        seed=5)

    def report_of():
        report = verify_pipeline(spec)
        return report.input_values, [(s.status, s.detail, s.values) for s in report.stages]

    witnessed = report_of()
    monkeypatch.setattr(pipelines, "_lifted", lambda spec, run, witness: [None] * len(run.kinds))
    assert report_of() == witnessed
    assert all(status == "PASS" for status, _, _ in witnessed[1])


def test_gen_gap_formulas_carry_no_witness():
    formula = gen_gap_cnf(6, 5, 0.3, seed=2)
    assert formula not in pipelines._PLANTED


# ---------------------------------------------------------------------------
# Referees: the label-fit loops that LabelCover.fitting_labels replaced


def loop_covered(lc, labeling):
    """max_cov's witness check with its own loop: each vertex's first-edge
    labels, each tested on the vertex's other edges."""
    if not oracles._is_labeling(labeling, lc.right_size, lc.right_alphabet):
        return -1
    count = 0
    for u, nbrs in enumerate(lc.left_neighbors):
        allowed = lc.admissible[u]
        if not nbrs:
            count += bool(allowed)
            continue
        edges = [(lc.betas[u, v], labeling[v]) for v in nbrs]
        (first, b), rest = edges[0], edges[1:]
        count += any(
            mask >> b & 1 and a in allowed and all(masks.get(a, 0) >> c & 1 for masks, c in rest)
            for a, mask in first.items()
        )
    return count


def loop_lift_fglss(lc, p, sigma):
    """The fglss lift with its own loop: each admissible list narrowed edge by edge."""
    if len(sigma) != lc.right_size:
        return None
    clique, offset = [], 0
    for u, nbrs in enumerate(lc.left_neighbors):
        labels = fits = lc.admissible_list(u)
        for v in nbrs:
            masks, b = lc.betas[u, v], sigma[v]
            fits = [a for a in fits if masks.get(a, 0) >> b & 1]
        if fits:
            clique.append(offset + bisect.bisect_left(labels, fits[0]))
        offset += len(labels)
    return tuple(clique)


def pair_fitting_labels(lc, u, sigma):
    """The admissible labels a of u whose pair (a, sigma[v]) every edge (u, v) holds."""
    return [a for a in sorted(lc.admissible[u])
            if all((a, sigma[v]) in lc.relations[u, v] for v in lc.left_neighbors[u])]


def test_label_fit_matches_its_referees_on_random_covers(monkeypatch):
    seen = {"isolated": 0, "partial": 0, "stored, not admissible": 0, "no pair": 0}
    for seed in range(250):
        rng = random.Random(f"fit-{seed}")
        left, right, la, ra = (rng.randint(*bounds) for bounds in ((0, 5), (0, 3), (1, 4), (1, 3)))
        relations, admissible = pair_cover_fields(rng, left, right, la, ra)
        lc = LabelCover(left, right, la, ra, relations, admissible)
        sigma = tuple(rng.randrange(ra) for _ in range(right))
        for u in range(left):
            assert lc.fitting_labels(u, sigma) == pair_fitting_labels(lc, u, sigma), (seed, u)
            seen["isolated"] += not lc.left_neighbors[u]
            seen["partial"] += 0 < len(admissible[u]) < la
        for (u, v), masks in lc.betas.items():
            seen["stored, not admissible"] += bool(masks.keys() - admissible[u])
            seen["no pair"] += not any(mask >> sigma[v] & 1 for mask in masks.values())
        assert oracles._covered(lc, sigma) == loop_covered(lc, sigma), seed
        assert pipelines._lift_fglss(lc, {}, sigma) == loop_lift_fglss(lc, {}, sigma), seed
        # The witnessed max_cov reads the same count, so it charges the same nodes.
        got = _solve(monkeypatch, "lc", lc, witness=sigma)
        monkeypatch.setattr(oracles, "_covered", loop_covered)
        assert _solve(monkeypatch, "lc", lc, witness=sigma) == got, seed
        monkeypatch.undo()
    assert min(seen.values()) > 0, seen
