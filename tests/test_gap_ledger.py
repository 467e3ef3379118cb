"""Gap ledger: maps, stage composition, reporting, JSON round trip."""

import json

import pytest

from gapred import (
    GapLedger,
    GapMap,
    LedgerError,
    StageEntry,
    StagePredicate,
    push_stage,
    report,
)
from gapred.gap_ledger import ledger_to_json
from gapred.oracles import ORACLES


def _entry(name, completeness, soundness, predicate=None, params=()):
    return StageEntry(
        name=name,
        params=params,
        completeness=completeness,
        soundness=soundness,
        predicate=predicate,
    )


def _identity_entry(name="fglss", oracle="clique"):
    return _entry(
        name,
        GapMap(kind="identity"),
        GapMap(kind="identity"),
        StagePredicate(oracle, "==", "max_cov(source)"),
    )


def test_gap_map_kinds():
    assert GapMap(kind="identity").describe() == "x -> x"
    assert GapMap(kind="constant", value=4).describe() == "x -> 4"
    assert GapMap(kind="scale", value=0.5).describe() == "x -> 0.5 * x"
    with pytest.raises(LedgerError):
        GapMap(kind="constant")
    with pytest.raises(LedgerError):
        GapMap(kind="warp")


def test_push_stage_order_and_validation():
    ledger = GapLedger()
    ledger = push_stage(ledger, _identity_entry("compress-left"))
    ledger = push_stage(ledger, _identity_entry("fglss"))
    assert [e.name for e in ledger.stages] == ["compress-left", "fglss"]
    # A predicate may name any oracle of the table, induced_path_at_least too.
    for oracle in ORACLES:
        assert push_stage(GapLedger(), _identity_entry(oracle=oracle)).stages

    bogus = _entry(
        "bad",
        GapMap(kind="identity"),
        GapMap(kind="identity"),
        StagePredicate("solve_everything", "==", "x"),
    )
    with pytest.raises(LedgerError):
        push_stage(ledger, bogus)


def test_predicate_comparison_validation():
    with pytest.raises(LedgerError):
        StagePredicate("clique", "~=", "x")


def test_report_empty():
    assert report(GapLedger()) == "no stages\n"


def test_report_statuses():
    ledger = push_stage(GapLedger(), _identity_entry())
    text = report(ledger, {0: ("PASS", "clique=3")})
    assert "PASS" in text and "all PASS" in text
    text = report(ledger, {0: ("FAIL", "witness: stage01.lc")})
    assert "FAIL" in text and "witness" in text
    text = report(ledger)
    assert "UNVERIFIED" in text


def ledger_from_json(text: str) -> GapLedger:
    """The referee of the round trip: the ledger that ledger_to_json wrote, read back."""
    data = json.loads(text)
    ledger = GapLedger()
    for item in data["stages"]:
        predicate = StagePredicate(**item["predicate"]) if "predicate" in item else None
        entry = StageEntry(
            name=item["name"],
            params=tuple(sorted(item["params"].items())),
            completeness=GapMap(**item["completeness"]),
            soundness=GapMap(**item["soundness"]),
            predicate=predicate,
            notes=tuple(item.get("notes", ())),
        )
        ledger = push_stage(ledger, entry)
    return ledger


def test_ledger_json_roundtrip():
    entry = _entry(
        "minlab",
        GapMap(kind="constant", value=2.0, requires=10.0),
        GapMap(kind="scale", value=0.25),
        StagePredicate("min_lab", ">", "r"),
        params=(("q", 2), ("r", 4)),
    )
    ledger = push_stage(GapLedger(), entry)
    assert ledger_from_json(ledger_to_json(ledger)) == ledger


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
    assert ledger_from_json(ledger_to_json(ledger)) == ledger


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


def test_every_op_emits_its_pinned_ledger_and_report():
    # The expected bytes are literal: a ledger entry's params, map values
    # (ints for compress-left's k and r, floats elsewhere), predicate and
    # notes, and the verify report that prints them.
    from pathlib import Path

    from gapred.pipelines import STAGES, PipelineSpec, run_pipeline, verify_pipeline

    parts, ops = [], set()
    for source, seed, stages in _PINNED_SPECS:
        spec = PipelineSpec(input=source, stages=stages, seed=seed)
        run = run_pipeline(spec)
        parts += [ledger_to_json(run.ledger) + "\n", verify_pipeline(spec, run).render()]
        ops.update(stage["op"] for stage in stages)
    assert ops == set(STAGES)
    expected = (Path(__file__).parent / "pinned_ledgers.txt").read_text()
    assert "".join(parts) == expected
