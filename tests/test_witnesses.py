"""Witnessed oracles: sat_max, max_cov and clique checked against themselves.

verify_pipeline lifts a gen-planted input's assignment through the stages and
hands each instance's witness to its oracle. A witness may only make a call
cheaper: with or without it, and whether it is right or corrupted, the value
is the same.
"""

import pytest

from gapred import oracles, pipelines
from gapred.pipelines import PipelineSpec, gen_gap_cnf, run_pipeline, verify_pipeline

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
