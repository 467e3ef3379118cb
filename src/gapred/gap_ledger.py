"""Bookkeeping for claimed gap transformations across pipeline stages.

Each stage records how a claimed completeness optimum and a claimed soundness
bound move through it, as named parameterized maps (serializable and
auditable, never arbitrary code), plus an oracle-checkable predicate that the
verification harness evaluates. Running-time content (the hardness-side
constants) is representable only as documentation notes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import LedgerError
from .oracles import ORACLES

__all__ = [
    "GapMap",
    "StagePredicate",
    "StageEntry",
    "GapLedger",
    "push_stage",
    "report",
    "ledger_to_json",
]

_MAP_KINDS = ("identity", "constant", "scale")


@dataclass(frozen=True)
class GapMap:
    """A named numeric map: identity, constant-c, or scale-by-gamma.

    `requires` pins the only input value the map is defined at (used by
    completeness maps that assume a fully coverable source).
    """

    kind: str
    value: float | None = None
    requires: float | None = None

    def __post_init__(self):
        if self.kind not in _MAP_KINDS:
            raise LedgerError(f"unknown map kind {self.kind!r}")
        if self.kind in ("constant", "scale") and self.value is None:
            raise LedgerError(f"map kind {self.kind!r} needs a value")

    def describe(self) -> str:
        if self.kind == "identity":
            return "x -> x"
        if self.kind == "constant":
            return f"x -> {self.value}"
        return f"x -> {self.value} * x"


@dataclass(frozen=True)
class StagePredicate:
    """An oracle-checkable claim: oracle(output) <comparison> target-expression."""

    oracle: str
    comparison: str
    target: str

    def __post_init__(self):
        if self.comparison not in ("==", "<", "<=", ">", ">="):
            raise LedgerError(f"unknown comparison {self.comparison!r}")


@dataclass(frozen=True)
class StageEntry:
    name: str
    params: tuple[tuple[str, float | int | str], ...]
    completeness: GapMap
    soundness: GapMap
    predicate: StagePredicate | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        object.__setattr__(self, "notes", tuple(self.notes))


@dataclass(frozen=True)
class GapLedger:
    stages: tuple[StageEntry, ...] = ()


def push_stage(ledger: GapLedger, entry: StageEntry) -> GapLedger:
    """Append a stage, validating that its predicate names an oracle of ORACLES."""
    if entry.predicate is not None and entry.predicate.oracle not in ORACLES:
        raise LedgerError(f"predicate names unknown oracle {entry.predicate.oracle!r}")
    return GapLedger(ledger.stages + (entry,))


def report(ledger: GapLedger, results: dict[int, tuple[str, str]] | None = None) -> str:
    """Human-readable per-stage table plus the end-to-end claim.

    `results` maps stage index to (status, detail) from the last verify run.
    """
    if not ledger.stages:
        return "no stages\n"
    results = results or {}
    lines = []
    for idx, entry in enumerate(ledger.stages):
        status, detail = results.get(idx, ("UNVERIFIED", ""))
        params = ", ".join(f"{k}={v}" for k, v in entry.params) or "-"
        lines.append(f"stage {idx + 1}: {entry.name} [{params}]")
        lines.append(f"  completeness: {entry.completeness.describe()}")
        lines.append(f"  soundness:    {entry.soundness.describe()}")
        if entry.predicate is not None:
            pred = entry.predicate
            lines.append(f"  predicate:    {pred.oracle}(out) {pred.comparison} {pred.target}")
        for note in entry.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  status:       {status}" + (f" ({detail})" if detail else ""))
    statuses = [results.get(i, ("UNVERIFIED", ""))[0] for i in range(len(ledger.stages))]
    lines.append("end-to-end: " + ("all PASS" if statuses and all(
        s in ("PASS", "NOT-APPLICABLE") for s in statuses
    ) else "; ".join(statuses)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON for manifests


def _map_to_json(m: GapMap) -> dict:
    return {key: val for key, val in asdict(m).items() if val is not None}


def ledger_to_json(ledger: GapLedger) -> str:
    stages = []
    for entry in ledger.stages:
        item = {
            "name": entry.name,
            "params": dict(entry.params),
            "completeness": _map_to_json(entry.completeness),
            "soundness": _map_to_json(entry.soundness),
            "notes": list(entry.notes),
        }
        if entry.predicate is not None:
            item["predicate"] = asdict(entry.predicate)
        stages.append(item)
    return json.dumps({"stages": stages}, indent=2, sort_keys=True)
