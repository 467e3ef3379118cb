"""Gap ledger: map rendering, reports, the JSON round trip and the stage registry."""

import json
import math
from pathlib import Path

import pytest

from gapred import report
from gapred.gap_ledger import ledger_to_json
from gapred.oracles import ORACLES


def _entry(name="fglss", completeness=None, soundness=None, oracle="clique", params=None):
    """A ledger entry as run_pipeline builds one: a ledger.json stage."""
    return {
        "name": name,
        "params": params or {},
        "completeness": completeness or {"kind": "identity"},
        "soundness": soundness or {"kind": "identity"},
        "predicate": {"oracle": oracle, "comparison": "==", "target": "max_cov(source)"},
        "notes": [],
    }


def test_gap_map_kinds():
    text = report((_entry(completeness={"kind": "constant", "value": 4, "requires": 9.0},
                          soundness={"kind": "scale", "value": 0.5}),
                   _entry()))
    assert "  completeness: x -> 4\n  soundness:    x -> 0.5 * x\n" in text
    assert "  completeness: x -> x\n  soundness:    x -> x\n" in text


def test_report_empty():
    assert report(()) == "no stages\n"


def test_report_statuses():
    ledger = (_entry(params={"r": 2, "k": 3}),)
    text = report(ledger, {0: ("PASS", "clique=3")})
    assert "stage 1: fglss [k=3, r=2]" in text
    assert "PASS" in text and "all PASS" in text
    text = report(ledger, {0: ("FAIL", "witness: stage01.lc")})
    assert "FAIL" in text and "witness" in text
    text = report(ledger)
    assert "UNVERIFIED" in text


def _typed(value):
    """`value` with each leaf paired with its type, so 2 and 2.0, or a list and
    a tuple, compare unequal."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(item) for item in value]
    return type(value), value


def _round_trips(ledger):
    """The ledger that ledger_to_json wrote, read back, is the ledger, down to
    the type of every value."""
    return _typed(json.loads(ledger_to_json(ledger))["stages"]) == _typed(list(ledger))


def test_ledger_json_roundtrip():
    entry = _entry(
        "minlab",
        {"kind": "constant", "value": 2.0, "requires": 10.0},
        {"kind": "scale", "value": 0.25},
        "min_lab",
        params={"q": 2, "r": 4},
    )
    assert _round_trips((entry,))
    assert not _round_trips((dict(entry, notes=("a tuple",)),))


def test_pipeline_ledger_json_roundtrip():
    from gapred.pipelines import PipelineSpec, run_pipeline

    spec = PipelineSpec(
        input={"kind": "gen-planted", "n": 5, "m": 4},
        stages=(
            {"op": "cnf2lc"},
            {"op": "compress-left", "k": 2, "r": 2, "epsilon": 0.2},
            {"op": "fglss"},
        ),
        seed=5,
    )
    ledger = run_pipeline(spec).ledger
    assert len(ledger) == 3
    assert _round_trips(ledger)


# One spec per chain, together covering all 12 ops: a deterministic
# compress-left, a gap compress-right and minlab, and a subsampled sat2dks.
def _planted(n, m):
    return {"kind": "gen-planted", "n": n, "m": m}


_PINNED_SPECS = (
    (_planted(5, 4), 5, ({"op": "cnf2lc"},
                         {"op": "compress-left", "k": 2, "r": 2, "epsilon": 0.2,
                          "disperser": "deterministic"},
                         {"op": "fglss"}, {"op": "clique2ipath", "k": 2, "q": 1})),
    ({"kind": "gen-gap", "n": 6, "m": 5, "epsilon": 0.3}, 3,
     ({"op": "cnf2lc"}, {"op": "compress-right", "q": 2, "gamma": 0.5, "epsilon": 0.3},
      {"op": "minlab", "q": 1, "r": 2, "epsilon": 0.3})),
    (_planted(4, 3), 2, ({"op": "cnf2lc"}, {"op": "minlab", "q": 2, "r": 2, "epsilon": 0.3},
                         {"op": "minlab2setcov"}, {"op": "setcov2domset"})),
    (_planted(5, 4), 8, ({"op": "sat2dks", "ell": 2, "p": 0.5},)),
    (_planted(3, 2), 6, ({"op": "cnf2lc"}, {"op": "fglss"}, {"op": "biclique-gadget"},
                         {"op": "is2im"})),
    (_planted(3, 2), 6, ({"op": "cnf2lc"}, {"op": "fglss"}, {"op": "im-gadget"})),
)


def _pinned_ledgers() -> str:
    """Per pinned spec, the text of its ledger.json, then its verify report.

    The bytes are literal: a ledger entry's params, map values (ints where a
    compression claims an int, such as k, r, q or |U'|, and floats elsewhere,
    gamma*|U'| included), predicate and notes, and the report that prints
    them.
    """
    from gapred.pipelines import STAGES, PipelineSpec, run_pipeline, verify_pipeline

    parts, ops = [], set()
    for source, seed, stages in _PINNED_SPECS:
        spec = PipelineSpec(input=source, stages=stages, seed=seed)
        run = run_pipeline(spec)
        parts += [ledger_to_json(run.ledger) + "\n", verify_pipeline(spec, run).render()]
        ops.update(stage["op"] for stage in stages)
    assert ops == set(STAGES)
    return "".join(parts)


def test_every_op_emits_its_pinned_ledger_and_report():
    # To regenerate after a deliberate change to a stage's claim or ledger,
    # write _pinned_ledgers() to tests/pinned_ledgers.txt, and list every
    # changed line in CHANGES.md: bench/digests.json pins the compile
    # workload's ledger.json and report.txt bytes too.
    expected = (Path(__file__).parent / "pinned_ledgers.txt").read_text()
    assert _pinned_ledgers() == expected


def _well_formed(gap_map) -> bool:
    if gap_map["kind"] == "identity":
        return set(gap_map) == {"kind"}
    return (gap_map["kind"] in ("constant", "scale") and "value" in gap_map
            and set(gap_map) <= {"kind", "value", "requires"})


# STAGES is fixed data, so its checks run here once rather than on every
# run: the three tests below replace the validation that push_stage and the
# ledger classes did at run time.
def test_push_stage_order_and_validation():
    # A run appends one entry per stage, in stage order and named by its op,
    # and each STAGES predicate names an oracle of the table.
    from gapred.pipelines import STAGES, PipelineSpec, run_pipeline

    for source, seed, stages in _PINNED_SPECS:
        ledger = run_pipeline(PipelineSpec(input=source, stages=stages, seed=seed)).ledger
        assert [entry["name"] for entry in ledger] == [stage["op"] for stage in stages]
    for op, stage in STAGES.items():
        oracle, _comparison, _target = stage.predicate
        assert oracle in ORACLES, op


def test_predicate_comparison_validation():
    from gapred.pipelines import STAGES

    for op, stage in STAGES.items():
        _oracle, comparison, _target = stage.predicate
        assert comparison in ("==", "<", "<=", ">", ">="), op


def test_every_stage_emits_well_formed_maps():
    # Each map the pinned specs produce is identity, or constant or scale
    # with a value.
    from gapred.pipelines import PipelineSpec, run_pipeline

    assert not _well_formed({"kind": "constant"})
    assert not _well_formed({"kind": "warp", "value": 1.0})
    for source, seed, stages in _PINNED_SPECS:
        for entry in run_pipeline(PipelineSpec(input=source, stages=stages, seed=seed)).ledger:
            assert _well_formed(entry["completeness"]), entry
            assert _well_formed(entry["soundness"]), entry


@pytest.mark.parametrize("stage", [
    {"op": "compress-left", "k": 3, "r": 2, "epsilon": 0.3},
    {"op": "compress-right", "q": 2, "gamma": 0.5, "epsilon": 0.3},
    {"op": "minlab", "q": 2, "r": 2, "epsilon": 0.3},
], ids=lambda stage: stage["op"])
@pytest.mark.parametrize("source", [
    {"kind": "gen-planted", "n": 6, "m": 5},
    {"kind": "gen-gap", "n": 6, "m": 5, "epsilon": 0.3},
], ids=["full", "gap"])
def test_compression_maps_state_the_value_verify_grades(stage, source):
    # A compression's ledger maps are the claim its rule grades: a PASS from
    # a full source reaches the completeness map's value, and one from a gap
    # source meets the predicate's gap comparison against the soundness map's.
    from gapred.pipelines import PipelineSpec, run_pipeline, verify_pipeline

    spec = PipelineSpec(input=source, stages=({"op": "cnf2lc"}, stage), seed=3)
    run = run_pipeline(spec)
    result = verify_pipeline(spec, run).stages[1]
    entry = run.ledger[1]
    assert result.status == "PASS", result.detail
    got = result.values["value_out"]
    if source["kind"] == "gen-planted":
        assert result.detail.startswith("completeness: ")
        assert got == entry["completeness"]["value"]
        return
    assert result.detail.startswith("soundness: ")
    # The gap side of "... (full source) / <comparison> ... (gap source)".
    comparison = entry["predicate"]["target"].split(" / ")[1].split()[0]
    bound = entry["soundness"]["value"]
    # min_lab None: no labeling covers, so it lies above every bound.
    assert got < bound if comparison == "<" else (got is None or got > bound)


@pytest.mark.parametrize("source", [
    {"kind": "gen-planted", "n": 6, "m": 5},
    {"kind": "gen-gap", "n": 6, "m": 5, "epsilon": 0.3},
], ids=["full", "gap"])
def test_sat2dks_maps_state_the_value_verify_grades(source):
    # At p = 1 sat2dks's maps are the C(n, ell) its rule grades clique against:
    # reached from a satisfiable source, missed from an unsatisfiable one.
    from gapred.pipelines import PipelineSpec, run_pipeline, verify_pipeline

    spec = PipelineSpec(input=source, stages=({"op": "sat2dks", "ell": 2},), seed=3)
    run = run_pipeline(spec)
    result = verify_pipeline(spec, run).stages[0]
    entry = run.ledger[0]
    assert result.status == "PASS", result.detail
    assert entry["completeness"] == entry["soundness"] == {
        "kind": "constant", "value": math.comb(6, 2), "requires": 5.0}
    if source["kind"] == "gen-planted":
        assert result.detail.startswith("completeness: ")
        assert result.values["clique"] == entry["completeness"]["value"]
    else:
        assert result.detail.startswith("soundness: ")
        assert result.values["clique"] < entry["soundness"]["value"]
