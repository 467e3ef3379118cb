"""Pipeline assembly, the verify harness, and the CLI driver."""

import argparse
import contextlib
import copy
import dataclasses
import inspect
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapred
from gapred import (
    GapredError,
    GenerationError,
    Graph,
    ParseError,
    SizeCapError,
    ValidationError,
    biclique_gadget,
    clique_to_inducedpath,
    cnf_to_labelcover,
    compress_left,
    compress_right,
    emit_cnf,
    emit_graph,
    emit_labelcover,
    max_cov,
    minlab_instance,
    minlab_to_setcov,
    parse_cnf,
    parse_graph,
    parse_labelcover,
    parse_setsystem,
    random_graph,
    sat_max,
    sat_to_dks,
)
from gapred import cli, oracles, pipelines
from gapred.cli import run_command

from corpus import complete_graph, path_graph, run_in_child
from gapred.instances import pairs_of
from gapred.pipelines import (
    PipelineSpec,
    gen_cnf_gap,
    gen_gap_cnf,
    gen_planted_cnf,
    run_pipeline,
    verify_pipeline,
    write_artifacts,
)


# ---------------------------------------------------------------------------
# Generators


def test_gen_planted_is_satisfiable():
    for seed in range(10):
        f = gen_planted_cnf(6, 8, seed)
        assert sat_max(f) == f.num_clauses


def test_gen_gap_is_certified():
    for seed in range(6):
        f = gen_gap_cnf(6, 6, 0.3, seed)
        assert sat_max(f) < 0.7 * f.num_clauses


def test_gen_cnf_gap_pair():
    planted, gap = gen_cnf_gap(6, 0.1, seed=3, num_clauses=8)
    assert sat_max(planted) == 8
    assert sat_max(gap) < 0.9 * 8


def test_gen_gap_reproducible():
    assert gen_gap_cnf(6, 6, 0.3, 5) == gen_gap_cnf(6, 6, 0.3, 5)


def test_gen_gap_impossible_target():
    # sat_max >= m/2 always, so eps close to 1 must exhaust its attempts.
    with pytest.raises(GenerationError):
        gen_gap_cnf(4, 4, 0.9, seed=0, max_attempts=25)


def test_planted_assignment_holds_every_bit():
    # The generator draws the assignment first; variable i + 1's value is bit i.
    for n in (0, 1, 64, 20_000):
        formula = gen_planted_cnf(n, 4 if n >= 3 else 0, seed=n)
        planted = random.Random(n).getrandbits(n) if n else 0
        assert pipelines._PLANTED[formula] == tuple(planted >> i & 1 for i in range(n))


@pytest.mark.parametrize("argv", [
    ["--mode", "planted", "--n", "-5", "--m", "0"],
    ["--mode", "planted", "--n", str(10**30), "--m", "1"],
    ["--mode", "random", "--n", str(10**21), "--m", "1"],
    ["--mode", "gap", "--n", str(10**21), "--m", "1"],
    ["--mode", "planted", "--n", "5", "--m", "500001"],
])
def test_cli_gen_cnf_refuses_counts_outside_the_cap(argv, capsys):
    assert run_command(["gen-cnf", *argv]) == 2
    assert "outside 0..500000" in capsys.readouterr().err


def test_cli_gen_cnf_writes_the_empty_formula(capsys):
    for mode in ("random", "planted"):
        assert run_command(["gen-cnf", "--mode", mode, "--n", "0", "--m", "0"]) == 0
        assert capsys.readouterr().out == "p cnf 0 0\n"
    # Clauses of three distinct variables still need three variables.
    assert run_command(["gen-cnf", "--mode", "random", "--n", "2", "--m", "1"]) == 2
    assert "at least 3 variables" in capsys.readouterr().err


def test_cli_gen_cnf_gap_writes_a_certified_formula_and_its_manifest(tmp_path):
    out = tmp_path / "g.cnf"
    argv = ["gen-cnf", "--mode", "gap", "--n", "8", "--m", "10", "--epsilon", "0.3",
            "--seed", "0", "--out", str(out)]
    assert run_command(argv) == 0
    manifest = tmp_path / "g.cnf.manifest.json"
    first = out.read_bytes(), manifest.read_bytes()
    # The bound is exact in epsilon's float value, as gen_gap_cnf takes it.
    assert sat_max(parse_cnf(first[0])) < (1 - Fraction(0.3)) * 10
    data = json.loads(first[1])
    assert (data["command"], data["mode"], data["seed"]) == ("gen-cnf", "gap", 0)
    assert data["params"] == {"n": 8, "m": 10, "epsilon": 0.3}
    assert run_command(argv) == 0
    assert (out.read_bytes(), manifest.read_bytes()) == first


@pytest.mark.parametrize("name, text, argv, message", [
    (None, None, ["disperser", "check"], "disperser check needs an input file"),
    ("empty.disp", lambda: "", ["disperser", "check"], "missing 'disp' header"),
    (None, None, ["disperser", "gen", "--m", "5"], "disperser gen/det needs --m --k --r --epsilon"),
    ("u.cnf", lambda: "p cnf 3 1\n1 2 3\n", ["cnf2lc"], "unterminated final clause (missing 0)"),
    ("f4.lc", lambda: emit_labelcover(cnf_to_labelcover(parse_cnf(
        "p cnf 4 2\n1 2 3 0\n-2 3 4 0\n"))),
     ["lc-compress-right", "--q", "9", "--gamma", "0.5", "--epsilon", "0.3"],
     "q=9 exceeds right size 4"),
    ("e.ss", lambda: "ss 2 0\n", ["setcov2domset"], "no sets to dominate with"),
], ids=["disperser-check", "disperser-check-empty", "disperser-gen", "cnf2lc", "compress-right",
        "setcov2domset"])
def test_cli_refuses_an_input_its_command_cannot_take(tmp_path, capsys, name, text, argv,
                                                      message):
    if name is not None:
        source = tmp_path / name
        source.write_text(text())
        argv = [*argv, str(source)]
    assert _exit_code(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# Pipeline specs


def test_spec_chain_validation(tmp_path):
    with pytest.raises(ValidationError):
        PipelineSpec(input={"kind": "gen-planted", "n": 5, "m": 4},
                     stages=({"op": "fglss"},))
    with pytest.raises(ValidationError):
        PipelineSpec(input={"kind": "gen-planted", "n": 5, "m": 4},
                     stages=({"op": "warp"},))
    with pytest.raises(ValidationError):
        PipelineSpec(input={"kind": "mystery"}, stages=())
    # Stage parameters are checked against the registry's schema when the spec loads.
    no_r = {"op": "compress-left", "k": 3, "epsilon": 0.2}
    with pytest.raises(ValidationError, match="'r'"):
        PipelineSpec(input={"kind": "gen-planted", "n": 5, "m": 4},
                     stages=({"op": "cnf2lc"}, no_r))
    with pytest.raises(ValidationError, match="'epsilon'"):
        PipelineSpec(input={"kind": "gen-planted", "n": 5, "m": 4},
                     stages=({"op": "cnf2lc"},
                             {"op": "compress-left", "k": 3, "r": 2, "epsilon": "x"}))
    spec_path = tmp_path / "pipe.json"
    spec_path.write_text(json.dumps({"input": {"kind": "gen-planted", "n": 5, "m": 4},
                                     "stages": [{"op": "cnf2lc"}, no_r]}))
    assert run_command(["verify", str(spec_path)]) == 2
    # A malformed spec file is refused when it loads, and the CLI exits 2.
    planted = {"kind": "gen-planted", "n": 5, "m": 4}
    for bad in ([],
                {"stages": [{"op": "cnf2lc"}]},
                {"input": planted, "budget": {"max_nodes": "x"}},
                {"input": planted, "stages": "cnf2lc"},
                {"input": {"kind": "gen-planted", "m": 4}},
                # A seed reaches random.Random, which takes no list or object.
                {"seed": [1], "input": planted, "stages": [{"op": "cnf2lc"}]},
                {"input": {**planted, "seed": {"a": 1}}, "stages": [{"op": "cnf2lc"}]},
                # Only the generators read an input seed; a file input refuses one.
                {"input": {"kind": "cnf-file", "path": "f.cnf", "seed": 5},
                 "stages": [{"op": "cnf2lc"}]},
                {"input": {"kind": "graph-file", "path": "g.graph", "seed": 0}, "stages": []},
                {"input": planted, "stages": [{"op": "cnf2lc"},
                                              {**no_r, "r": 2, "seed": [2]}]},
                # A key no schema declares is refused, not ignored.
                {"input": planted, "stages": [{"op": "sat2dks", "ell": 2, "prob": 0.5}]},
                {"input": planted, "stages": [{"op": "sat2dks", "ell": 2, "r": 3}]},
                {"input": {**planted, "bogus": 1}, "stages": [{"op": "cnf2lc"}]},
                {"input": planted, "budget": {"max_node": 10}},
                # NaN compares false, so it would lift the limit, not set one.
                {"input": planted, "budget": {"max_nodes": float("nan")}},
                {"input": planted, "budget": {"max_millis": float("nan")}},
                {"input": planted, "sead": 1},
                # A kind or op that is a list or an object is not a name.
                {"input": {**planted, "kind": ["gen-planted"]}, "stages": []},
                {"input": planted, "stages": [{"op": {"cnf2lc": 1}}]}):
        with pytest.raises((ParseError, ValidationError)):
            PipelineSpec.from_json(json.dumps(bad))
        spec_path.write_text(json.dumps(bad))
        assert run_command(["verify", str(spec_path)]) == 2
    # A seeded gen input and a top-level seed beside a file input are accepted.
    cnf_path = tmp_path / "f.cnf"
    cnf_path.write_text("p cnf 2 1\n1 2 0\n")
    for good in ({"input": {**planted, "seed": 5}, "stages": [{"op": "cnf2lc"}]},
                 {"input": {"kind": "gen-gap", "n": 4, "m": 4, "epsilon": 0.3, "seed": 5},
                  "stages": []},
                 {"seed": 5, "input": {"kind": "cnf-file", "path": str(cnf_path)},
                  "stages": [{"op": "cnf2lc"}]}):
        PipelineSpec.from_json(json.dumps(good))
        spec_path.write_text(json.dumps(good))
        assert run_command(["pipeline", str(spec_path)]) == 0


_SMALL_SPEC = {
    "seed": 1,
    "size_cap": 1000,
    "input": {"kind": "gen-gap", "n": 5, "m": 4, "epsilon": 0.3, "seed": 2},
    "stages": [{"op": "cnf2lc"},
               {"op": "compress-left", "k": 3, "r": 2, "epsilon": 0.2, "disperser": "random",
                "size_cap": None},
               {"op": "fglss"}],
    "budget": {"max_nodes": 1000, "max_millis": 500},
}
# JSON values that reach the spec's checks: names of kinds, ops and keys,
# numbers of every type, and nested lists and objects.
_NAMES = ["kind", "op", "seed", "input", "stages", "budget", "size_cap", "n", "m", "path",
          "epsilon", "gen-planted", "gen-gap", "cnf-file", "cnf2lc", "fglss", "sat2dks",
          "deterministic", "max_nodes", ""]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats()
    | st.sampled_from(_NAMES) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_NAMES) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_SPEC_EDIT = st.tuples(st.sampled_from(["set", "drop", "add"]),
                       st.lists(st.integers(0, 10**6), max_size=4), st.sampled_from(_NAMES), _JSON)
_TEXT_EDIT = st.tuples(st.integers(0, 10**6), st.integers(0, 3),
                       st.sampled_from(["", "[", "{", "}", "]", ",", '"', ":", "0", "-", "e9"]))


def _edit_spec(spec, edits):
    """Set, drop or add a value at a path in the spec; steps wrap around."""
    for op, steps, name, value in edits:
        node, parent, key = spec, None, None
        for step in steps:
            if not isinstance(node, (dict, list)) or not node:
                break
            parent, key = node, sorted(node)[step % len(node)] if isinstance(node, dict) \
                else step % len(node)
            node = parent[key]
        if op == "add" and isinstance(node, dict):
            node[name] = value
        elif op == "set" and parent is not None:
            parent[key] = value
        elif op == "drop" and parent is not None:
            del parent[key]
    return spec


@given(edits=st.lists(_SPEC_EDIT, max_size=3), text_edits=st.lists(_TEXT_EDIT, max_size=2))
@settings(max_examples=300, deadline=None)
def test_spec_from_json_raises_only_package_errors_on_mutated_specs(edits, text_edits):
    text = json.dumps(_edit_spec(copy.deepcopy(_SMALL_SPEC), edits))
    for pos, cut, insert in text_edits:
        pos %= len(text) + 1
        text = text[:pos] + insert + text[pos + cut:]
    try:
        PipelineSpec.from_json(text)
    except GapredError:
        pass


@given(edits=st.lists(_SPEC_EDIT, max_size=3), text_edits=st.lists(_TEXT_EDIT, max_size=2))
@settings(max_examples=60, deadline=None)
def test_verify_exits_with_a_documented_code_on_mutated_specs(edits, text_edits):
    text = json.dumps(_edit_spec(copy.deepcopy(_SMALL_SPEC), edits))
    for pos, cut, insert in text_edits:
        pos %= len(text) + 1
        text = text[:pos] + insert + text[pos + cut:]
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run_command(["verify", str(spec_path)]) in (0, 1, 2, 3)


@pytest.mark.parametrize("stages", [
    ({"op": "cnf2lc"}, {"op": "compress-left", "k": 3, "r": 2, "epsilon": 0.2}),
    ({"op": "cnf2lc"}, {"op": "compress-right", "q": 2, "gamma": 0.5, "epsilon": 0.3}),
    ({"op": "cnf2lc"}, {"op": "minlab", "q": 1, "r": 1, "epsilon": 0.3}),
    ({"op": "cnf2lc"}, {"op": "minlab", "q": 1, "r": 1, "epsilon": 0.3, "size_cap": 10**6},
     {"op": "minlab2setcov"}),
    ({"op": "sat2dks", "ell": 2},),
])
def test_a_null_stage_size_cap_means_the_specs(stages):
    source = {"kind": "gen-planted", "n": 5, "m": 4}
    nulled = stages[:-1] + ({**stages[-1], "size_cap": None},)
    spec = PipelineSpec(input=source, stages=stages, seed=3)
    run = run_pipeline(PipelineSpec(input=source, stages=nulled, seed=3))
    assert verify_pipeline(spec).render() == verify_pipeline(spec, run).render()
    with pytest.raises(SizeCapError):
        run_pipeline(PipelineSpec(input=source, stages=nulled, seed=3, size_cap=1))


@pytest.mark.parametrize("stage", [{"op": "fglss", "seed": 3}, {"op": "cnf2lc", "size_cap": 10}])
def test_a_stage_refuses_a_seed_or_size_cap_it_does_not_read(tmp_path, capsys, stage):
    stages = [{"op": "cnf2lc"}, stage] if stage["op"] == "fglss" else [stage]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 1, "input": {"kind": "gen-planted", "n": 5, "m": 4},
                                "stages": stages}))
    assert run_command(["verify", str(spec)]) == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_a_sat2dks_stage_refuses_lambda(tmp_path, capsys):
    # lambda changes no graph, so sat2dks does not declare it.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"input": {"kind": "gen-planted", "n": 5, "m": 4},
                                "stages": [{"op": "sat2dks", "ell": 2, "lambda": 0.1}]}))
    assert run_command(["verify", str(spec)]) == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_a_sat2dks_stage_seed_steers_its_subsample():
    formula = gen_planted_cnf(5, 4, 2)
    source = {"kind": "gen-planted", "n": 5, "m": 4, "seed": 2}

    def output(stage, spec_seed=3):
        spec = PipelineSpec(input=source, stages=({"op": "sat2dks", "ell": 2, "p": 0.5,
                                                   **stage},), seed=spec_seed)
        return spec, run_pipeline(spec).instances[1]

    # The stage's own seed draws the subsample, whatever the spec's seed.
    for seed in (5, 6):
        want = sat_to_dks(formula, ell=2, p=0.5, seed=seed)
        assert output({"seed": seed})[1] == output({"seed": seed}, spec_seed=4)[1] == want
    assert output({})[1] == sat_to_dks(formula, ell=2, p=0.5, seed=3)
    assert output({"seed": 5})[1] != output({"seed": 6})[1]
    # A null stage seed is unseeded, even under a seeded spec: nothing to replay.
    spec, _ = output({"seed": None})
    assert spec.stage_params(0)["seed"] is None
    assert verify_pipeline(spec).stages[0].status == "NOT-APPLICABLE"


def test_spec_output_kind():
    spec = PipelineSpec(
        input={"kind": "gen-planted", "n": 5, "m": 4},
        stages=({"op": "cnf2lc"}, {"op": "fglss"}),
        seed=1,
    )
    assert run_pipeline(spec).kinds[-1] == "graph"


def _clique_spec(kind, seed=3):
    source = {"kind": kind, "n": 6, "m": 5}
    if kind == "gen-gap":
        source["epsilon"] = 0.3
    return PipelineSpec(
        input=source,
        stages=(
            {"op": "cnf2lc"},
            {"op": "compress-left", "k": 3, "r": 2, "epsilon": 0.2},
            {"op": "fglss"},
        ),
        seed=seed,
    )


def test_verify_satisfiable_clique_pipeline():
    report = verify_pipeline(_clique_spec("gen-planted"))
    assert report.overall == "pass"
    by_name = {s.name: s for s in report.stages}
    assert by_name["compress-left"].values["value_out"] == 3
    assert by_name["fglss"].values["clique"] == 3


def test_verify_gap_clique_pipeline():
    report = verify_pipeline(_clique_spec("gen-gap"))
    assert report.overall == "pass"
    by_name = {s.name: s for s in report.stages}
    assert by_name["compress-left"].values["value_out"] < 2
    assert by_name["fglss"].values["clique"] < 2


def test_verify_compress_left_source_between_full_and_gap(tmp_path):
    # x1 and not x1 cannot both hold, so max_cov = 3 of 4: neither full nor
    # below (1 - 0.5) * 4 = 2, and compress-left claims nothing.
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 3 4\n1 0\n-1 0\n2 0\n3 0\n")
    spec = PipelineSpec(input={"kind": "cnf-file", "path": str(path)},
                        stages=({"op": "cnf2lc"},
                                {"op": "compress-left", "k": 3, "r": 2, "epsilon": 0.5}),
                        seed=1)
    stage = verify_pipeline(spec).stages[1]
    assert stage.status == "NOT-APPLICABLE"
    assert stage.detail == "source max_cov=3 is neither full (4) nor below 2.000"


def test_verify_compress_left_gap_with_a_failing_disperser_is_inconclusive():
    # Soundness rests on the disperser, so a run whose disperser has a small
    # r-union certifies nothing.
    spec = _clique_spec("gen-gap")
    run = run_pipeline(spec)
    assert verify_pipeline(spec, run).stages[1].status == "PASS"
    good = run.extras[1]["disperser"]
    small = dataclasses.replace(good, ell=1, subsets=(frozenset({0}),) * good.k)
    run.extras[1] = {"disperser": small}
    stage = verify_pipeline(spec, run).stages[1]
    assert stage.status == "INCONCLUSIVE"
    assert stage.detail.startswith("disperser unverified (witness (0, 1))")


def test_pipeline_budget_bounds_the_deterministic_disperser_search(tmp_path, capsys):
    # Every r-union of this search's candidates is checked, C(40, 6) of them,
    # which takes seconds; the spec's 500 ms budget must stop it.
    spec = tmp_path / "det.json"
    spec.write_text(json.dumps({
        "seed": 1, "budget": {"max_millis": 500},
        "input": {"kind": "gen-planted", "n": 12, "m": 16},
        "stages": [{"op": "cnf2lc"},
                   {"op": "compress-left", "k": 40, "r": 6, "epsilon": 0.9,
                    "disperser": "deterministic"}],
    }))
    start = time.perf_counter()
    assert run_command(["pipeline", str(spec)]) == 3
    assert time.perf_counter() - start < 2.5
    assert "time budget exceeded" in capsys.readouterr().err


def test_verify_time_budget_bounds_a_search_of_few_costly_nodes(tmp_path, capsys):
    # The independent_set and induced_matching searches on the 2,188-vertex
    # graphs take under 4,096 nodes each, each node coloring about 2,000
    # candidates. When the clock was read once per 4,096 nodes this spec ran
    # for seconds and passed; its 10 ms budget must leave it INCONCLUSIVE.
    spec = tmp_path / "costly.json"
    spec.write_text(json.dumps({
        "seed": 7, "input": {"kind": "gen-planted", "n": 8, "m": 1, "seed": 5},
        "stages": [{"op": "cnf2lc"}, {"op": "minlab2setcov"}, {"op": "setcov2domset"},
                   {"op": "is2im"}],
        "budget": {"max_nodes": 20000, "max_millis": 10},
    }))
    assert run_command(["verify", str(spec)]) == 3
    out = capsys.readouterr().out
    assert "INCONCLUSIVE (budget exceeded: time budget exceeded)" in out


def test_verify_minlab_pipeline():
    spec = PipelineSpec(
        input={"kind": "gen-planted", "n": 6, "m": 5},
        stages=({"op": "cnf2lc"}, {"op": "minlab", "q": 2, "r": 3, "epsilon": 0.3}),
        seed=4,
    )
    report = verify_pipeline(spec)
    assert report.overall == "pass"
    assert report.stages[-1].values["value_out"] == 2


def test_verify_detects_corruption():
    # A relation emptied after FGLSS built its graph breaks max_cov == clique,
    # and verifying that run must grade the FGLSS stage FAIL.
    spec = _clique_spec("gen-planted")
    run = run_pipeline(spec)
    lc = run.instances[2]
    edge = min(lc.relations)
    corrupted = dataclasses.replace(lc, relations={**lc.relations, edge: frozenset()},
                                    admissible=dict(lc.admissible))
    assert max_cov(corrupted) < max_cov(lc)
    run.instances[2] = corrupted
    report = verify_pipeline(spec, run)
    stage = report.stages[2]
    assert stage.status == "FAIL"
    assert stage.values["max_cov"] < stage.values["clique"] == 3
    assert "witness instance: stage03" in stage.detail
    assert report.overall == "fail"


def test_verify_computes_each_oracle_value_once(monkeypatch):
    calls = Counter()
    witnessed = set()
    for name in ("sat_max", "max_cov", "clique"):
        def counted(instance, *args, _name=name, _oracle=getattr(oracles, name), **kwargs):
            calls[_name, id(instance)] += 1
            if kwargs.get("witness") is not None:
                witnessed.add(_name)
            return _oracle(instance, *args, **kwargs)
        monkeypatch.setattr(oracles, name, counted)
    report = verify_pipeline(_clique_spec("gen-planted"))
    assert report.overall == "pass"
    assert max(calls.values()) == 1
    assert Counter(name for name, _ in calls) == {"sat_max": 1, "max_cov": 2, "clique": 1}
    # The planted assignment reaches every oracle of the chain as a witness.
    assert witnessed == {"sat_max", "max_cov", "clique"}
    # A gen-gap input's sat_max is certified by its generation and not computed
    # again. Generation calls sat_max through oracles.call too, so one patch
    # sees every call. Every formula solved is kept alive, so no two share an id.
    solved = []

    def solve_once(instance, *args, _oracle=oracles.sat_max):
        solved.append(instance)
        return _oracle(instance, *args)

    monkeypatch.setattr(oracles, "sat_max", solve_once)
    spec = _clique_spec("gen-gap")
    run = run_pipeline(spec)
    report = verify_pipeline(spec, run)
    assert report.overall == "pass"
    assert sum(f is run.instances[0] for f in solved) == 1
    assert report.input_values["sat_max"] < 0.7 * run.instances[0].num_clauses


def test_verify_gadget_pipeline():
    # Keep the FGLSS graph tiny: the sandwich check needs exact biclique of it.
    spec = PipelineSpec(
        input={"kind": "gen-planted", "n": 3, "m": 2},
        stages=(
            {"op": "cnf2lc"},
            {"op": "fglss"},
            {"op": "biclique-gadget"},
        ),
        seed=6,
    )
    report = verify_pipeline(spec)
    assert report.overall == "pass"


def test_verify_dks_pipeline():
    spec = PipelineSpec(
        input={"kind": "gen-planted", "n": 5, "m": 4},
        stages=({"op": "sat2dks", "ell": 2},),
        seed=8,
    )
    report = verify_pipeline(spec)
    assert report.overall == "pass"
    assert report.stages[0].status == "PASS"
    assert report.stages[0].values["clique"] == 10  # C(5, 2)


def test_verify_dks_fails_output_missing_a_window_pair():
    # Cutting every edge between two windows' vertices leaves no clique with
    # one vertex per window: clique drops from C(5, 2) = 10 to 9.
    spec = PipelineSpec(
        input={"kind": "gen-planted", "n": 5, "m": 4},
        stages=({"op": "sat2dks", "ell": 2},),
        seed=8,
    )
    run = run_pipeline(spec)
    out = run.instances[1]
    window = [i // 4 for i in range(out.num_vertices)]  # 2^ell vertices per window
    cut = {0, 1}
    adjacency = [
        mask & ~sum(1 << j for j in range(out.num_vertices) if {window[i], window[j]} == cut)
        for i, mask in enumerate(out.adjacency)
    ]
    run.instances[1] = Graph(out.num_vertices, pairs_of(adjacency))
    assert out.num_edges > run.instances[1].num_edges
    report = verify_pipeline(spec, run)
    assert report.stages[0].status == "FAIL"
    assert report.stages[0].values["clique"] == 9


def test_verify_dks_subsample_against_the_seeded_draw():
    # A subsample is graded as the p = 1 graph induced on the vertices the
    # seeded draw keeps, so an output stripped of its edges fails.
    spec = PipelineSpec(
        input={"kind": "gen-planted", "n": 5, "m": 4},
        stages=({"op": "sat2dks", "ell": 2, "p": 0.5},),
        seed=8,
    )
    run = run_pipeline(spec)
    out = run.instances[1]
    assert 0 < out.num_vertices < 40 and out.num_edges > 0
    assert verify_pipeline(spec, run).stages[0].status == "PASS"
    run.instances[1] = Graph(out.num_vertices)
    assert verify_pipeline(spec, run).stages[0].status == "FAIL"
    # Without a seed the draw cannot be replayed, so nothing is certified.
    unseeded = PipelineSpec(input=spec.input, stages=spec.stages)
    assert verify_pipeline(unseeded).stages[0].status == "NOT-APPLICABLE"


@pytest.mark.parametrize("p, want", [(1.0, "want 40"), (0.5, "the seeded draw keeps")])
def test_verify_dks_fails_a_wrong_vertex_count(p, want):
    spec = PipelineSpec(
        input={"kind": "gen-planted", "n": 5, "m": 4},
        stages=({"op": "sat2dks", "ell": 2, "p": p},),
        seed=8,
    )
    run = run_pipeline(spec)
    run.instances[1] = Graph(run.instances[1].num_vertices + 1)
    stage = verify_pipeline(spec, run).stages[0]
    assert stage.status == "FAIL"
    assert stage.detail.startswith("|V|=") and want in stage.detail


def test_verify_dks_subsample_costs_the_kept_pairs():
    # n=14, ell=6 has 192,192 vertices at p = 1; grading a small subsample
    # checks only the kept pairs, one budget node each, so a budget of
    # exactly C(kept, 2) nodes suffices and one fewer is INCONCLUSIVE.
    stages = ({"op": "sat2dks", "ell": 6, "p": 0.001},)
    spec = PipelineSpec(input={"kind": "gen-planted", "n": 14, "m": 20}, stages=stages, seed=3)
    run = run_pipeline(spec)
    kept = run.instances[1].num_vertices
    assert 50 < kept < 500
    pairs = kept * (kept - 1) // 2
    for max_nodes, status in ((pairs, "PASS"), (pairs - 1, "INCONCLUSIVE")):
        budgeted = dataclasses.replace(spec, budget=oracles.SolveBudget(max_nodes=max_nodes))
        assert verify_pipeline(budgeted, run).stages[0].status == status


def test_write_artifacts_roundtrip_and_determinism(tmp_path):
    spec = _clique_spec("gen-planted")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run = run_pipeline(spec)
        report = verify_pipeline(spec)
        write_artifacts(run, out, "verify", spec, report=report, version="test")
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["verification"]["overall"] == "pass"
    # Every emitted instance re-parses to the in-memory instance.
    from gapred.pipelines import _FORMATS

    run = run_pipeline(spec)
    for idx, (kind, instance) in enumerate(zip(run.kinds, run.instances)):
        text = (out1 / f"stage{idx:02d}.{_FORMATS[kind].extension}").read_text()
        assert _FORMATS[kind].parse(text) == instance


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_solve_roundtrip(tmp_path):
    cnf = tmp_path / "f.cnf"
    assert run_command(["gen-cnf", "--n", "6", "--m", "5", "--mode", "planted",
                        "--seed", "3", "--out", str(cnf)]) == 0
    lc = tmp_path / "f.lc"
    assert run_command(["cnf2lc", str(cnf), "--out", str(lc)]) == 0
    graph = tmp_path / "f.graph"
    assert run_command(["lc2clique", str(lc), "--out", str(graph)]) == 0
    assert run_command(["solve", "clique", str(graph)]) == 0
    assert run_command(["solve", "sat-max", str(cnf)]) == 0


def test_cli_solve_prints_value(tmp_path, capsys):
    graph = tmp_path / "k4.graph"
    graph.write_text("p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    assert run_command(["solve", "clique", str(graph)]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_cli_solve_infeasible(tmp_path, capsys):
    ss = tmp_path / "x.ss"
    ss.write_text("ss 2 1\ns 1 1 1\n")
    assert run_command(["solve", "set-cover", str(ss)]) == 0
    assert capsys.readouterr().out.strip() == "infeasible"


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 2 3 0\n")
    assert run_command(["cnf2lc", str(bad)]) == 2
    binary = tmp_path / "binary.cnf"
    binary.write_bytes(b"p cnf 1 1\n\xff\xfe 0\n")
    assert run_command(["cnf2lc", str(binary)]) == 2
    assert run_command(["solve", "sat-max", str(binary)]) == 2
    assert run_command(["disperser", "check", str(binary)]) == 2
    for count in (-1, 10**12):
        graph = tmp_path / f"count{count}.graph"
        graph.write_text(f"p edge {count} 0\n")
        assert run_command(["solve", "clique", str(graph)]) == 2
    for header in ("lc 3000000 1 1 1", "lc 1 30000000 1 1", "lc 1 1 200000000 1"):
        lc = tmp_path / "huge.lc"
        lc.write_text(header + "\n")
        assert run_command(["solve", "max-cov", str(lc)]) == 2
        assert run_command(["solve", "min-lab", str(lc)]) == 2
    for text in ("lc 1 1 1 100000000000\ne 1 1 1 0 99999999999\n",
                 f"lc 1 1 1 {'9' * 100}\ne 1 1 1 0 {2**64}\n"):
        lc = tmp_path / "wide.lc"
        lc.write_text(text)
        assert run_command(["solve", "max-cov", str(lc)]) == 2
        assert run_command(["lc2clique", str(lc)]) == 2


_MASKS_PAST = "neighbour masks pass 2^27 bits"


@pytest.mark.parametrize("text, argv, message", [
    ("p edge 200000 0\n", ["g2is2im"], _MASKS_PAST),
    ("p edge 200000 0\n", ["g2biclique-gadget"], _MASKS_PAST),
    ("p edge 200000 0\n", ["g2im-gadget"], _MASKS_PAST),
    ("p edge 1 0\n", ["clique2ipath", "--k", "2000", "--q", "2000"],
     "vertex count 8000000 outside 0..500000"),
])
def test_cli_graph_gadgets_refuse_outputs_past_the_graph_bounds(tmp_path, capsys, text, argv,
                                                                message):
    # The doubling and pendant gadgets of an empty 200,000-vertex graph would
    # hold 2n^2 to 3n^2 mask bits, and clique2ipath on one vertex would have
    # 8,000,000 vertices; each once died with a MemoryError or ran on.
    graph = tmp_path / "in.graph"
    graph.write_text(text)
    start = time.perf_counter()
    assert run_command([*argv, str(graph)]) == 2
    assert time.perf_counter() - start < 1
    assert message in capsys.readouterr().err


_WIDE_PAIRS = " ".join(f"{a} 0" for a in range(20))


@pytest.mark.parametrize("name, text, argv, message", [
    # 5,000 left vertices whose 20 labels all project to one right label:
    # 100,000 FGLSS vertices, nearly all pairwise adjacent.
    ("wide.lc", lambda: "lc 5000 1 20 1\n" + "".join(
        f"e {u} 1 20 {_WIDE_PAIRS}\n" for u in range(1, 5001)), ["lc2clique"], _MASKS_PAST),
    # A bare header: 25,000 isolated left vertices of 40 labels each.
    ("labels.lc", lambda: "lc 25000 1 40 1\n", ["lc2clique"],
     "vertex count 1000000 outside 0..500000"),
    # C(60, 3) * 2^3 = 273,760 partial assignments, each a mask that wide.
    ("p60.cnf", lambda: emit_cnf(gen_planted_cnf(60, 100, 1)), ["sat2dks", "--ell", "3"],
     _MASKS_PAST),
    ("one.ss", lambda: "ss 500000 1\ns 1 500000 " + " ".join(map(str, range(1, 500001))) + "\n",
     ["setcov2domset"], "vertex count 500001 outside 0..500000"),
    ("huge.cnf", lambda: "p cnf 100000000 2\n1 0\n-1 0\n", ["cnf2lc"],
     "line 1: variable count 100000000 outside 0..500000"),
    # One set per right vertex and right label: 10^100 of them.
    ("sigma.lc", lambda: f"lc 1 1 1 {10**100}\ne 1 1 1 0 5\n", ["minlab2setcov"],
     f"set count {10**100} outside 0..500000"),
], ids=["lc2clique", "lc2clique-header", "sat2dks", "setcov2domset", "cnf2lc", "minlab2setcov"])
def test_cli_refuses_graph_reductions_and_cnf_headers_past_the_bounds(tmp_path, capsys, name,
                                                                      text, argv, message):
    # The first three once died with a MemoryError after 9 s, 5 s and 30 s,
    # setcov2domset wrote a graph that parse_graph refuses, cnf2lc wrote a
    # label cover that lc-minlab refuses, and minlab2setcov died with an
    # OverflowError.
    source = tmp_path / name
    source.write_text(text())
    start = time.perf_counter()
    assert run_command([*argv, str(source)]) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


_DIAGONAL_PAIRS = " ".join(f"{a} 0" for a in range(20))
_MINLAB_SPEC = {"input": {"kind": "gen-planted", "n": 50, "m": 300}, "size_cap": 1_000_000,
                "stages": [{"op": "cnf2lc"}, {"op": "minlab2setcov"}]}


@pytest.mark.parametrize("name, text, argv, memory, message", [
    # 25,000 left vertices, each with 20 labels on its own right vertex: the
    # FGLSS state alone would hold about 6 * 10^9 bits. The parent built
    # 1.7 GB of it before refusing, and died with a MemoryError under 512 MB.
    ("diagonal.lc", "lc 25000 25000 20 1\n" + "".join(
        f"e {u} {u} 20 {_DIAGONAL_PAIRS}\n" for u in range(1, 25001)),
     ["lc2clique"], 512 << 20, "vertex masks pass 2^27 bits"),
    # 500,000 partial assignments, one mask per variable and bit: the parent
    # died with a MemoryError.
    ("wide.cnf", "p cnf 250000 1\n1 0\n", ["sat2dks", "--ell", "1"], 2 << 30,
     "vertex masks pass 2^27 bits"),
    # At this size cap the parent wrote an `ss 656100 100` stage that
    # `solve set-cover` refuses.
    ("minlab.json", json.dumps(_MINLAB_SPEC), ["pipeline"], 2 << 30,
     "universe size 656100 outside 0..500000"),
    # One beta mask just under 2^27 bits, copied into each of 40 super-vertices:
    # the parent built 871 MB of them, and wrote a file lc-minlab refuses.
    ("wide.lc", "lc 1 1 1 134217000\ne 1 1 1 0 134216999\n",
     ["lc-compress-left", "--k", "40", "--r", "2", "--epsilon", "0.5"], 512 << 20,
     "beta masks pass 2^27 bits"),
    # A one-element subset of a 10^12-element universe: its check once died
    # with a MemoryError building the subset's mask.
    ("big.disp", "disp 1000000000000 1 1 1 0.5\n1000000000000\n", ["disperser", "check"],
     2 << 30, "line 1: universe size 1000000000000 outside 0..500000"),
    # 500,000 one-element subsets at the universe's top: their masks would
    # hold 2.5 * 10^11 bits. This once died with a MemoryError after 4 s.
    ("wide.disp", "disp 500000 500000 1 1 0.5\n" + "500000\n" * 500_000, ["disperser", "check"],
     2 << 30, "element masks pass 2^27 bits"),
    # The complement of 200,000 isolated vertices: both runs once passed a
    # 40 s timeout relabelling it, one 200,000-character string per vertex.
    ("empty.graph", "p edge 200000 0\n", ["solve", "independent-set"], 2 << 30,
     "neighbour masks pass 2^27 bits"),
    ("empty.graph", "p edge 200000 0\n", ["solve", "max-induced", "--property", "edgeless"],
     2 << 30, "neighbour masks pass 2^27 bits"),
], ids=["lc2clique", "sat2dks", "minlab2setcov", "lc-compress-left", "disperser-check",
        "disperser-check-wide", "independent-set", "max-induced-edgeless"])
def test_cli_refuses_within_its_memory_what_the_size_rule_refuses(tmp_path, name, text, argv,
                                                                  memory, message):
    # Each run is a child process under an address-space limit, so a
    # MemoryError shows as exit 1 with a traceback instead of taking the
    # test process down.
    source, out = tmp_path / name, tmp_path / "out"
    source.write_text(text)
    result = run_in_child([*argv, source, "--out", out], memory=memory)
    assert result.returncode == 2 and "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {message}") and result.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    # These once died with a MemoryError after 0.2 s, 25 s and 4.3 s.
    (["gen", "--m", 10**12, "--k", 1, "--r", 1], "universe size 1000000000000 outside 0..500000"),
    (["gen", "--m", 10, "--k", 10**9, "--r", 1], "subset count 1000000000 outside 0..500000"),
    (["det", "--m", 10**12, "--k", 2, "--r", 1], "universe size 1000000000000 outside 0..500000"),
    # Both counts within the rule, but k subsets of l = m elements each: these
    # once died with a MemoryError after 21 s and 7.5 s.
    (["gen", "--m", 500_000, "--k", 500_000, "--r", 2], "element masks pass 2^27 bits"),
    (["det", "--m", 500_000, "--k", 500_000, "--r", 2], "element masks pass 2^27 bits"),
], ids=["gen-m", "gen-k", "det-m", "gen-k-ell", "det-k-ell"])
def test_cli_refuses_within_its_memory_the_disperser_counts_past_the_size_rule(tmp_path, argv,
                                                                                message):
    # The sibling of the test above for the runs that read no file.
    out = tmp_path / "out"
    result = run_in_child(["disperser", *argv, "--epsilon", 0.5, "--out", out])
    assert result.returncode == 2 and "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {message}") and result.stderr.count("\n") == 1
    assert not out.exists()


_DEEP_CHAINS = {
    "is2im.json": {"seed": 4, "input": {"kind": "gen-gap", "n": 6, "m": 7, "epsilon": 0.2},
                   "stages": [{"op": "cnf2lc"}, {"op": "minlab2setcov"},
                              {"op": "setcov2domset"}, {"op": "is2im"}]},
    "dks.json": {"seed": 1, "input": {"kind": "gen-planted", "n": 7, "m": 6},
                 "stages": [{"op": "sat2dks", "ell": 5}, {"op": "biclique-gadget"},
                            {"op": "is2im"}, {"op": "is2im"}]},
}


@pytest.mark.parametrize("name, text, argv, code, lines", [
    ("empty.graph", lambda: "p edge 1500 0\n", ["solve", "independent-set"], 0, ["1500"]),
    ("k1200.graph", lambda: emit_graph(complete_graph(1200)), ["solve", "clique"], 0, ["1200"]),
    ("path.graph", lambda: emit_graph(path_graph(1500)), ["solve", "induced-path"], 0, ["1500"]),
    # The last is2im stage searches the 2,331-vertex DomSet graph's complement.
    ("is2im.json", lambda: json.dumps(_DEEP_CHAINS["is2im.json"]), ["verify"], 0,
     ["  status:       PASS (IM=2320 >= MIS=2320)", "end-to-end: all PASS"]),
    # The node budget cuts the biclique stage short; the last is2im stage
    # still goes deep at once, and answers.
    ("dks.json", lambda: json.dumps(_DEEP_CHAINS["dks.json"]),
     ["verify", "--budget-nodes", "200000"], 3,
     ["  status:       INCONCLUSIVE (budget exceeded: node budget exceeded (200000))",
      "  status:       PASS (IM=1344 >= MIS=1344)",
      "end-to-end: PASS; INCONCLUSIVE; PASS; PASS"]),
], ids=["independent-set", "clique", "induced-path", "verify-is2im", "verify-dks"])
def test_cli_deep_searches_exit_without_a_traceback(tmp_path, name, text, argv, code, lines):
    # Each search once recursed past the recursion limit and exited 1 with a
    # RecursionError traceback, and then exited 3 as if out of budget. The
    # searches are loops now, so depth is no limit: only the node budget
    # leaves the dks chain's biclique stage INCONCLUSIVE.
    source = tmp_path / name
    source.write_text(text())
    result = run_in_child([*argv, source])
    assert result.returncode == code and result.stderr == ""
    out = result.stdout.splitlines()
    assert all(line in out for line in lines)
    if code == 3:
        assert sum("INCONCLUSIVE (" in line for line in out) == 1


def test_cli_compress_left_refuses_k_past_the_size_cap_before_drawing(tmp_path, capsys):
    # Drawing 10^8 subsets once ran for minutes before any cap was checked.
    cnf, lc = tmp_path / "f.cnf", tmp_path / "f.lc"
    cnf.write_text(emit_cnf(gen_planted_cnf(4, 3, 0)))
    assert run_command(["cnf2lc", str(cnf), "--out", str(lc)]) == 0
    start = time.perf_counter()
    argv = ["lc-compress-left", str(lc), "--k", str(10**8), "--r", "2", "--epsilon", "0.5"]
    assert run_command(argv) == 2
    assert time.perf_counter() - start < 1
    assert "100000000 left subsets exceed cap 500000" in capsys.readouterr().err


def test_cli_solve_biclique_searches_one_side_of_a_gadget_file(tmp_path, capsys):
    # The file carries no sides; biclique finds the 2-coloring and searches
    # the 16 left vertices in 180 nodes, where all 32 took 897.
    gadget = tmp_path / "gadget.graph"
    gadget.write_text(emit_graph(biclique_gadget(random_graph(16, 0.5, 0))))
    assert run_command(["solve", "biclique", str(gadget), "--budget-nodes", "500"]) == 0
    assert capsys.readouterr().out == "4\n"


@pytest.mark.parametrize("text", ["ss 10000000000 1\ns 1 1 10000000000\n",
                                  "ss 10000000000 0\n"])
def test_cli_refuses_a_huge_setsystem_universe(tmp_path, capsys, text):
    # Both files once escaped `solve set-cover` as a MemoryError traceback, exit 1.
    ss = tmp_path / "huge.ss"
    ss.write_text(text)
    assert run_command(["solve", "set-cover", str(ss)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "universe size 10000000000 outside" in err
    assert "Traceback" not in err


def test_cli_projection_violation_exit_code(tmp_path):
    lc = tmp_path / "np.lc"
    lc.write_text("lc 1 1 1 2\ne 1 1 2 0 0 0 1\n")
    assert run_command(["lc2clique", str(lc)]) == 2


def test_cli_budget_exit_code(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 6 4\n1 0\n-1 0\n2 0\n-2 0\n")
    assert run_command(["solve", "sat-max", str(cnf), "--budget-nodes", "3"]) == 3
    # The disperser search counts its candidate subsets against the node budget.
    argv = ["disperser", "det", "--m", "40", "--k", "8", "--r", "6", "--epsilon", "0.9",
            "--budget-nodes", "1"]
    capsys.readouterr()
    assert run_command(argv) == 3
    assert "C(13,8) candidate subsets exceed the search budget" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--budget-nodes", "--budget-millis"])
@pytest.mark.parametrize("command", ["solve", "verify", "gen-cnf", "disperser"])
def test_cli_refuses_a_zero_budget(tmp_path, capsys, command, flag):
    # 0 is a limit like any other, not "unset", so it is refused as -1 is.
    # gen-cnf and disperser read it in every mode, also where no oracle or
    # search runs: --mode random and 'gen' here.
    if command == "gen-cnf":
        argv = ["gen-cnf", "--n", "5", "--m", "4", "--mode", "random"]
    elif command == "disperser":
        argv = ["disperser", "gen", "--m", "12", "--k", "4", "--r", "2", "--epsilon", "0.5"]
    elif command == "solve":
        graph = tmp_path / "k4.graph"
        graph.write_text("p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
        argv = ["solve", "clique", str(graph)]
    else:
        spec = tmp_path / "pipe.json"
        spec.write_text(json.dumps({"seed": 2, "input": {"kind": "gen-planted", "n": 6, "m": 5},
                                    "stages": [{"op": "cnf2lc"}]}))
        argv = ["verify", str(spec)]
    assert run_command(argv + [flag, "0"]) == 2
    assert "budget limits must be positive" in capsys.readouterr().err


_BUDGET = {"--budget-nodes", "--budget-millis"}
_SEEDED = {"--out", "--seed", "--size-cap"}
# Each subcommand's flags: --seed, --size-cap and --budget-* only where its
# handler reads them.
_FLAGS = {
    "gen-cnf": {"--n", "--m", "--mode", "--epsilon", "--out", "--seed", *_BUDGET},
    "cnf2lc": {"--out"},
    "lc-compress-left": {*_SEEDED, "--k", "--r", "--epsilon", "--deterministic-disperser"},
    "lc-compress-right": {"--out", "--size-cap", "--q", "--gamma", "--epsilon"},
    "lc-minlab": {"--out", "--size-cap", "--q", "--r", "--epsilon"},
    "lc2clique": {"--out"},
    "minlab2setcov": {"--out", "--size-cap"},
    "setcov2domset": {"--out"},
    "g2biclique-gadget": {"--out"},
    "g2im-gadget": {"--out"},
    "g2is2im": {"--out"},
    "clique2ipath": {"--out", "--k", "--q"},
    "sat2dks": {*_SEEDED, "--ell", "--p"},
    "disperser": {"--m", "--k", "--r", "--epsilon", "--out", "--seed", *_BUDGET},
    "solve": {"--t", "--k", "--property", "--out", *_BUDGET},
    "pipeline": {"--out", "--seed", "--size-cap", *_BUDGET},
    "verify": {"--out", "--seed", "--size-cap", *_BUDGET},
}


def test_cli_subcommands_take_only_the_flags_they_read():
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    got = {
        name: {flag for action in parser._actions for flag in action.option_strings
               if flag not in ("-h", "--help")}
        for name, parser in subparsers.choices.items()
    }
    assert got == _FLAGS
    assert sum(map(len, got.values())) == 65
    # A transform offers --seed and --size-cap exactly where its row declares them.
    for stage in pipelines.STAGES.values():
        declared = {f"--{p.name.replace('_', '-')}" for p in stage.params
                    if p.name in ("seed", "size_cap")}
        assert got[stage.command] & {"--seed", "--size-cap"} == declared


def test_cli_solve_flags_come_from_the_oracle_table():
    # The solve problems and extra flags are generated from ORACLES, in table
    # order; each flag is unset by default, so a problem can refuse another's.
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    solve = subparsers.choices["solve"]
    problem = next(action for action in solve._actions if action.dest == "problem")
    assert problem.choices == sorted(
        ("sat-max", "max-cov", "min-lab", "clique", "independent-set", "biclique", "set-cover",
         "dom-set", "induced-matching", "induced-path", "count-ktt", "densest-k", "max-induced"))
    extras = [(action.option_strings, action.type, action.default, action.help)
              for action in solve._actions if action.option_strings
              and action.dest not in ("help", "out", "budget_nodes", "budget_millis")]
    assert extras == [(["--t"], int, None, "t for count-ktt"),
                      (["--k"], int, None, "k for densest-k"),
                      (["--property"], str, None, "property for max-induced")]


def _help_pages() -> str:
    """`gapred --help` and each subcommand's `--help`, as printed at 100 columns."""
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    pages = []
    for argv in (["--help"], *([name, "--help"] for name in subparsers.choices)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            run_command(argv)
        assert exc.value.code == 0
        pages.append(f"$ gapred {' '.join(argv)}\n{out.getvalue()}")
    return "".join(pages)


def test_cli_help_text_is_pinned(monkeypatch):
    # tests/pinned_help.txt holds the pages as argparse prints them under
    # Python 3.11; other versions lay out usage lines differently. To
    # regenerate after a deliberate CLI change, write _help_pages() to it.
    monkeypatch.setenv("COLUMNS", "100")
    expected = (Path(__file__).parent / "pinned_help.txt").read_text()
    assert _help_pages() == expected


def _exit_code(argv) -> int:
    """run_command's exit code, also where argparse exits."""
    try:
        return run_command(argv)
    except SystemExit as exc:
        return exc.code


def test_cli_calls_in_one_process_leave_no_state_behind(tmp_path, capsys):
    # One parser serves every run_command call of a process: nothing one call
    # parses reaches the next.
    spec_path = tmp_path / "pipe.json"
    spec_path.write_text(json.dumps({"seed": 3, "input": {"kind": "gen-planted", "n": 6, "m": 5},
                                     "stages": [{"op": "cnf2lc"}]}))
    assert run_command(["verify", str(spec_path), "--seed", "7", "--out", str(tmp_path / "a")]) == 0
    assert run_command(["verify", str(spec_path), "--out", str(tmp_path / "b")]) == 0
    assert [json.loads((tmp_path / side / "manifest.json").read_text())["seed"]
            for side in "ab"] == [7, 3]
    graph = tmp_path / "g.graph"
    graph.write_text(emit_graph(random_graph(12, 0.5, 0)))
    assert run_command(["solve", "clique", str(graph), "--budget-nodes", "1"]) == 3
    assert run_command(["solve", "clique", str(graph)]) == 0
    assert _exit_code(["solve", "clique", str(graph), "--budget-nodes"]) == 2
    assert run_command(["solve", "clique", str(graph)]) == 0
    capsys.readouterr()
    for _ in range(2):
        assert _exit_code(["--version"]) == 0
        assert capsys.readouterr().out == f"{gapred.__version__}\n"


def test_importing_the_cli_builds_no_parser():
    # A process that imports gapred.cli and parses nothing, as a library user
    # or the benchmark's set-up does, pays nothing for the parser.
    probe = ("import argparse\n"
             "made = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = lambda *a, **k: made.append(a) or init(*a, **k)\n"
             "import gapred.cli\n"
             "assert not made\n"
             "gapred.cli.build_parser()\n"
             "print(bool(made))\n")
    src = str(Path(gapred.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert (result.returncode, result.stdout, result.stderr) == (0, "True\n", "")


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["top", "verify"])
def test_cli_help_wraps_at_the_width_it_prints_at(monkeypatch, capsys, argv):
    # The shared parser prints each page as a fresh parser does at that width.
    pages = {}
    for columns in ("100", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        assert _exit_code(argv) == 0
        shared = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(argv)
        assert shared == capsys.readouterr().out
        pages[columns] = shared
    assert pages["100"] != pages["60"]


# The transform each stage with parameters builds with.
_TRANSFORMS = {
    "compress-left": compress_left,
    "compress-right": compress_right,
    "minlab": minlab_instance,
    "minlab2setcov": minlab_to_setcov,
    "clique2ipath": clique_to_inducedpath,
    "sat2dks": sat_to_dks,
}


def test_every_declared_parameter_is_a_keyword_of_its_transform(monkeypatch):
    # Every declared name reaches the transform as a keyword of the same name.
    assert {op for op, stage in pipelines.STAGES.items() if stage.params} == set(_TRANSFORMS)
    for op, transform in _TRANSFORMS.items():
        stage = pipelines.STAGES[op]
        declared = {p.name for p in stage.params}
        signature = inspect.signature(transform).parameters.values()
        keywords = {p.name for p in signature if p.kind in (p.POSITIONAL_OR_KEYWORD,
                                                              p.KEYWORD_ONLY)}
        assert declared <= keywords, op
        calls = []
        monkeypatch.setattr(pipelines, transform.__name__,
                            lambda source, **kw: calls.append(kw) or (None, None))
        stage.build("source", {p.name: p.name for p in stage.params})
        assert set(calls[0]) - {"budget"} == declared, op


@pytest.mark.parametrize("argv, message", [
    (["cnf2lc", "f.cnf", "--budget-nodes", "5"], "unrecognized arguments"),
    (["solve", "clique", "g.graph", "--seed", "1"], "unrecognized arguments"),
    (["sat2dks", "f.cnf", "--ell", "2", "--r", "3"], "unrecognized arguments"),
    # The solve flags are one parser's, so the handler refuses another problem's.
    (["solve", "clique", "g.graph", "--t", "3", "--k", "9", "--property", "bogus"],
     "solve clique does not read --t"),
    (["solve", "densest-k", "g.graph", "--property", "forest"],
     "solve densest-k does not read --property"),
    (["lc2clique", "f.lc", "--seed", "1"], "unrecognized arguments"),
    (["cnf2lc", "f.cnf", "--size-cap", "5"], "unrecognized arguments"),
    (["sat2dks", "f.cnf", "--ell", "2", "--lambda", "5"], "unrecognized arguments"),
], ids=[f"argv{i}" for i in range(8)])
def test_cli_refuses_a_flag_its_subcommand_does_not_read(argv, message, capsys):
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err


def test_cli_disperser_commands(tmp_path, capsys):
    disp = tmp_path / "d.disp"
    assert run_command(["disperser", "gen", "--m", "12", "--k", "4", "--r", "2",
                        "--epsilon", "0.5", "--seed", "1", "--out", str(disp)]) == 0
    assert run_command(["disperser", "check", str(disp)]) == 0
    assert capsys.readouterr().out.strip().endswith("pass")
    det = tmp_path / "det.disp"
    assert run_command(["disperser", "det", "--m", "8", "--k", "3", "--r", "2",
                        "--epsilon", "0.5", "--out", str(det)]) == 0


def test_cli_disperser_check_fail(tmp_path, capsys):
    disp = tmp_path / "bad.disp"
    disp.write_text("disp 4 2 2 2 0.25\n1 2\n1 2\n")
    assert run_command(["disperser", "check", str(disp)]) == 1
    assert "fail" in capsys.readouterr().out


def test_cli_verify_pipeline(tmp_path):
    spec_path = tmp_path / "pipe.json"
    spec_path.write_text(json.dumps({
        "seed": 3,
        "input": {"kind": "gen-planted", "n": 6, "m": 5},
        "stages": [
            {"op": "cnf2lc"},
            {"op": "compress-left", "k": 3, "r": 2, "epsilon": 0.2},
            {"op": "fglss"},
        ],
    }))
    out = tmp_path / "artifacts"
    assert run_command(["verify", str(spec_path), "--out", str(out)]) == 0
    assert (out / "report.txt").exists()
    assert (out / "ledger.json").exists()


def test_cli_verify_out_builds_once(tmp_path, monkeypatch):
    spec_path = tmp_path / "pipe.json"
    spec_path.write_text(json.dumps({
        "seed": 3,
        "input": {"kind": "gen-planted", "n": 6, "m": 5},
        "stages": [{"op": "cnf2lc"}, {"op": "fglss"}],
    }))
    builds = []
    original = pipelines.run_pipeline

    def counted(spec):
        builds.append(spec)
        return original(spec)

    monkeypatch.setattr(pipelines, "run_pipeline", counted)
    monkeypatch.setattr(cli, "run_pipeline", counted)
    assert run_command(["verify", str(spec_path), "--out", str(tmp_path / "out")]) == 0
    assert len(builds) == 1


def test_cli_pipeline_runs(tmp_path, capsys):
    spec_path = tmp_path / "pipe.json"
    spec_path.write_text(json.dumps({
        "seed": 1,
        "input": {"kind": "gen-planted", "n": 5, "m": 4},
        "stages": [{"op": "cnf2lc"}, {"op": "minlab", "q": 2, "r": 2, "epsilon": 0.3}],
    }))
    out = tmp_path / "artifacts"
    assert run_command(["pipeline", str(spec_path), "--out", str(out)]) == 0
    assert (out / "stage02.lc").exists()


def test_cli_transform_commands(tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    for cmd in ("g2biclique-gadget", "g2im-gadget", "g2is2im"):
        out = tmp_path / f"{cmd}.graph"
        assert run_command([cmd, str(graph), "--out", str(out)]) == 0
        parse_graph(out.read_text())
    out = tmp_path / "ipath.graph"
    assert run_command(["clique2ipath", str(graph), "--k", "2", "--q", "1",
                        "--out", str(out)]) == 0
    assert run_command(["solve", "induced-path", str(out)]) == 0


_SMALL_INPUTS = {
    "f.cnf": emit_cnf(gen_planted_cnf(4, 3, 0)),
    "f.lc": emit_labelcover(cnf_to_labelcover(gen_planted_cnf(4, 3, 0))),
    "f.ss": "ss 3 3\ns 1 2 1 2\ns 2 2 2 3\ns 3 1 3\n",
    "g.graph": "p edge 4 4\ne 1 2\ne 1 3\ne 2 3\ne 3 4\n",
}
# Each stage op on a small input, with the flags its subcommand is given.
_ONE_STAGE = [
    ("cnf2lc", "f.cnf", {}),
    ("compress-left", "f.lc", {"k": 2, "r": 2, "epsilon": 0.5}),
    ("compress-left", "f.lc", {"k": 2, "r": 2, "epsilon": 0.5, "disperser": "deterministic"}),
    ("compress-right", "f.lc", {"q": 2, "gamma": 0.5, "epsilon": 0.3}),
    ("minlab", "f.lc", {"q": 2, "r": 2, "epsilon": 0.3}),
    ("fglss", "f.lc", {}),
    ("minlab2setcov", "f.lc", {}),
    ("setcov2domset", "f.ss", {}),
    ("biclique-gadget", "g.graph", {}),
    ("im-gadget", "g.graph", {}),
    ("is2im", "g.graph", {}),
    ("clique2ipath", "g.graph", {"k": 2, "q": 1}),
    ("sat2dks", "f.cnf", {"ell": 2, "p": 0.5}),
]


def test_every_stage_op_has_a_one_stage_case():
    assert {op for op, _, _ in _ONE_STAGE} == set(pipelines.STAGES)


@pytest.mark.parametrize("op, source, given", _ONE_STAGE,
                         ids=[f"{op} {given.get('disperser', '')}".strip()
                              for op, _, given in _ONE_STAGE])
def test_a_transform_writes_what_its_one_stage_pipeline_writes(tmp_path, op, source, given):
    # A transform subcommand and `gapred pipeline` on the one-stage spec of
    # the same flags write the same bytes, and the manifest holds the resolved
    # parameters: the seed defaults to 0 and the size cap to 500,000.
    stage = pipelines.STAGES[op]
    path = tmp_path / source
    path.write_text(_SMALL_INPUTS[source])
    ext = pipelines._FORMATS[stage.output_kind].extension
    out = tmp_path / f"out.{ext}"
    argv = [stage.command, str(path), "--out", str(out)]
    for name, value in given.items():
        argv += ["--deterministic-disperser"] if name == "disperser" else [f"--{name}", str(value)]
    assert run_command(argv) == 0
    flags = {p.name: given.get(p.name, p.default) for p in stage.params}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "input": {"kind": f"{path.suffix[1:]}-file", "path": str(path)},
        "stages": [{"op": op, **flags}],
    }))
    assert run_command(["pipeline", str(spec), "--out", str(tmp_path / "run")]) == 0
    assert out.read_bytes() == (tmp_path / "run" / f"stage01.{ext}").read_bytes()
    if op == "compress-left":
        assert (tmp_path / "out.disp").read_bytes() == (tmp_path / "run/stage01.disp").read_bytes()
    manifest = json.loads((tmp_path / f"out.{ext}.manifest.json").read_text())
    want = {**flags, **{k: v for k, v in (("seed", 0), ("size_cap", 500_000)) if k in flags}}
    assert manifest["params"] == want
    assert manifest["command"] == stage.command and manifest["input"] == str(path)


def test_cli_missing_file_exit_code(tmp_path):
    assert run_command(["solve", "clique", "/nonexistent/g.graph"]) == 2
    assert run_command(["solve", "clique", str(tmp_path)]) == 2


def test_cli_verify_fail_exit_code(tmp_path):
    # clique2ipath at q=2 on a clique-free H: the gadget's paper-claimed
    # soundness bound is refuted by the construction itself, and the harness
    # reports the failure honestly (see the build notes).
    graph = tmp_path / "h.graph"
    graph.write_text("p edge 2 0\n")
    spec_path = tmp_path / "pipe.json"
    spec_path.write_text(json.dumps({
        "input": {"kind": "graph-file", "path": str(graph)},
        "stages": [{"op": "clique2ipath", "k": 2, "q": 2}],
    }))
    assert run_command(["verify", str(spec_path)]) == 1


def test_cli_verify_inconclusive_exit_code(tmp_path):
    spec_path = tmp_path / "pipe.json"
    spec_path.write_text(json.dumps({
        "seed": 2,
        "input": {"kind": "gen-planted", "n": 6, "m": 5},
        "stages": [{"op": "cnf2lc"}],
        "budget": {"max_nodes": 3},
    }))
    assert run_command(["verify", str(spec_path)]) == 3


def test_cli_specialized_solvers(tmp_path, capsys):
    graph = tmp_path / "p4.graph"
    graph.write_text("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    assert run_command(["solve", "count-ktt", str(graph), "--t", "1"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run_command(["solve", "densest-k", str(graph), "--k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2/3"
    assert run_command(["solve", "max-induced", str(graph), "--property", "forest"]) == 0
    assert capsys.readouterr().out.strip() == "4"

    # Every problem prints its oracle's value on the parsed file, to stdout or
    # to --out. The graph's six plain oracle values differ, and each extra flag
    # is set to a value whose answer differs from the default's, so a row wired
    # to the wrong oracle, instance kind or flag fails.
    cnf, lc, ss, g = (tmp_path / name for name in ("f.cnf", "f.lc", "f.ss", "g.graph"))
    cnf.write_text("p cnf 2 3\n1 2 0\n-1 0\n-2 0\n")
    lc.write_text(emit_labelcover(cnf_to_labelcover(parse_cnf(cnf.read_text()))))
    ss.write_text("ss 3 3\ns 1 2 1 2\ns 2 2 2 3\ns 3 1 3\n")
    g.write_text("p edge 9 6\ne 1 3\ne 2 3\ne 3 5\ne 4 8\ne 5 8\ne 7 9\n")
    parse = {cnf: parse_cnf, lc: parse_labelcover, ss: parse_setsystem, g: parse_graph}
    cases = {
        "sat-max": (cnf, (), oracles.sat_max, ()),
        "max-cov": (lc, (), oracles.max_cov, ()),
        "min-lab": (lc, (), oracles.min_lab, ()),
        "set-cover": (ss, (), oracles.set_cover, ()),
        "clique": (g, (), oracles.clique, ()),
        "independent-set": (g, (), oracles.independent_set, ()),
        "biclique": (g, (), oracles.biclique, ()),
        "dom-set": (g, (), oracles.dom_set, ()),
        "induced-matching": (g, (), oracles.induced_matching, ()),
        "induced-path": (g, (), oracles.induced_path, ()),
        "count-ktt": (g, ("--t", "2"), oracles.count_ktt, (2,)),
        "densest-k": (g, ("--k", "3"), oracles.densest_k, (3,)),
        "max-induced": (g, ("--property", "edgeless"), oracles.max_induced_with_property,
                        ("edgeless",)),
    }
    assert set(cases) == {row.problem for row in oracles.ORACLES.values()} - {None}
    printed = {}
    for problem, (path, flags, oracle, extra) in cases.items():
        want = f"{oracle(parse[path](path.read_bytes()), *extra)}\n"
        assert run_command(["solve", problem, str(path), *flags]) == 0
        assert capsys.readouterr().out == want, problem
        out = tmp_path / f"{problem}.txt"
        assert run_command(["solve", problem, str(path), *flags, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == want, problem
        printed[problem] = want
    assert run_command(["solve", "min-lab", str(lc), "--out", "-"]) == 0
    assert capsys.readouterr().out == printed["min-lab"] != printed["max-cov"]
    plain = ("clique", "independent-set", "biclique", "dom-set", "induced-matching", "induced-path")
    assert len({printed[problem] for problem in plain}) == len(plain)
    graph = parse_graph(g.read_text())
    assert printed["count-ktt"] != f"{oracles.count_ktt(graph, 1)}\n"
    assert printed["densest-k"] != f"{oracles.densest_k(graph, 2)}\n"
    assert printed["max-induced"] != f"{oracles.max_induced_with_property(graph, 'forest')}\n"
    # Without its flag, a problem takes the documented default.
    for problem, default in (("count-ktt", 1), ("densest-k", 2), ("max-induced", "forest")):
        assert run_command(["solve", problem, str(g)]) == 0
        assert capsys.readouterr().out == f"{cases[problem][2](graph, default)}\n", problem


def test_cli_gen_cnf_pair_mode(tmp_path, capsys):
    base = tmp_path / "inst"
    assert run_command(["gen-cnf", "--n", "6", "--m", "5", "--mode", "pair",
                        "--epsilon", "0.3", "--seed", "9", "--out", str(base)]) == 0
    sat = parse_cnf((tmp_path / "inst.sat.cnf").read_text())
    gap = parse_cnf((tmp_path / "inst.gap.cnf").read_text())
    assert sat_max(sat) == sat.num_clauses
    assert sat_max(gap) < 0.7 * gap.num_clauses
    # --budget-* bounds the gap formula's certification, as in --mode gap.
    assert run_command(["gen-cnf", "--n", "6", "--m", "5", "--mode", "pair", "--epsilon", "0.3",
                        "--seed", "9", "--out", str(base), "--budget-nodes", "5"]) == 3


def test_cli_gen_cnf_pair_mode_refuses_stdout(tmp_path, monkeypatch, capsys):
    # Pair mode writes two files named from a path stem, so '-' is no stem.
    monkeypatch.chdir(tmp_path)
    assert run_command(["gen-cnf", "--n", "6", "--m", "5", "--mode", "pair",
                        "--epsilon", "0.3", "--seed", "9", "--out", "-"]) == 2
    assert "path stem" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_fail_report_names_witness(tmp_path):
    graph = tmp_path / "h.graph"
    graph.write_text("p edge 2 0\n")
    spec = PipelineSpec(
        input={"kind": "graph-file", "path": str(graph)},
        stages=({"op": "clique2ipath", "k": 2, "q": 2},),
    )
    report = verify_pipeline(spec)
    assert report.overall == "fail"
    assert "witness instance: stage01" in report.stages[0].detail


def test_cli_spec_budget_bounds_gen_gap_input(tmp_path):
    # The spec's budget bounds each sat_max call of the gen-gap rejection loop,
    # so the first attempt exhausts it; without it all 5000 attempts would run
    # under the default budget and end in a GenerationError (exit 2).
    spec_path = tmp_path / "gap.json"
    spec_path.write_text(json.dumps({
        "seed": 3,
        "input": {"kind": "gen-gap", "n": 14, "m": 28, "epsilon": 0.3},
        "stages": [],
        "budget": {"max_nodes": 5},
    }))
    assert run_command(["pipeline", str(spec_path)]) == 3


def test_cli_budget_flag_overrides_spec(tmp_path):
    spec_path = tmp_path / "pipe.json"
    spec_path.write_text(json.dumps({
        "seed": 2,
        "input": {"kind": "gen-planted", "n": 6, "m": 5},
        "stages": [{"op": "cnf2lc"}],
    }))
    assert run_command(["verify", str(spec_path), "--budget-nodes", "3"]) == 3
    assert run_command(["verify", str(spec_path)]) == 0

    # --size-cap overrides the spec's size_cap: both refuse the compression (exit 2).
    stages = [{"op": "cnf2lc"}, {"op": "compress-left", "k": 2, "r": 2, "epsilon": 0.2}]
    compress = tmp_path / "compress.json"
    compress.write_text(json.dumps({"seed": 2, "input": {"kind": "gen-planted", "n": 6, "m": 5},
                                    "stages": stages}))
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps({"seed": 2, "size_cap": 1,
                                  "input": {"kind": "gen-planted", "n": 6, "m": 5},
                                  "stages": stages}))
    assert run_command(["verify", str(compress)]) == 0
    assert run_command(["verify", str(capped)]) == 2
    assert run_command(["verify", str(compress), "--size-cap", "1"]) == 2

    # --seed overrides the spec's seed: the artifacts equal those of a spec seeded so.
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps({"seed": 7, "input": {"kind": "gen-planted", "n": 6, "m": 5},
                                  "stages": stages}))
    flag, spec7, plain = tmp_path / "flag", tmp_path / "spec7", tmp_path / "plain"
    assert run_command(["pipeline", str(compress), "--seed", "7", "--out", str(flag)]) == 0
    assert run_command(["pipeline", str(seeded), "--out", str(spec7)]) == 0
    assert run_command(["pipeline", str(compress), "--out", str(plain)]) == 0
    names = sorted(p.name for p in spec7.iterdir())
    assert names == sorted(p.name for p in flag.iterdir())
    for name in names:
        assert (flag / name).read_bytes() == (spec7 / name).read_bytes()
    assert (flag / "stage00.cnf").read_bytes() != (plain / "stage00.cnf").read_bytes()
