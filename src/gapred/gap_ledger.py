"""Bookkeeping for claimed gap transformations across pipeline stages.

A run's ledger is a tuple of plain dicts, one per stage, each shaped exactly
like a stage entry of `ledger.json`: its `name`; its `params`; how a claimed
completeness optimum and a claimed soundness bound move through it, as the
maps `completeness` and `soundness`; the oracle-checkable `predicate` (its
`oracle`, `comparison` and `target`) that the verification harness grades;
and `notes`. A map is `{"kind": "identity"}`, or `{"kind": "constant" or
"scale", "value": c}`, with `"requires": a` when it is defined only at the
input value a; it is data, never code. Running-time content (the
hardness-side constants) is representable only as notes.
"""

from __future__ import annotations

import json

__all__ = ["report", "ledger_to_json"]


def _describe(gap_map: dict) -> str:
    """A map as text: `x -> x`, `x -> c` or `x -> c * x`."""
    if gap_map["kind"] == "identity":
        return "x -> x"
    if gap_map["kind"] == "constant":
        return f"x -> {gap_map['value']}"
    return f"x -> {gap_map['value']} * x"


def report(ledger: tuple[dict, ...], results: dict[int, tuple[str, str]] | None = None) -> str:
    """Human-readable per-stage table plus the end-to-end claim.

    `results` maps stage index to (status, detail) from the last verify run.
    """
    if not ledger:
        return "no stages\n"
    results = results or {}
    lines = []
    for idx, entry in enumerate(ledger):
        status, detail = results.get(idx, ("UNVERIFIED", ""))
        params = ", ".join(f"{k}={v}" for k, v in sorted(entry["params"].items())) or "-"
        pred = entry["predicate"]
        lines += [
            f"stage {idx + 1}: {entry['name']} [{params}]",
            f"  completeness: {_describe(entry['completeness'])}",
            f"  soundness:    {_describe(entry['soundness'])}",
            f"  predicate:    {pred['oracle']}(out) {pred['comparison']} {pred['target']}",
        ]
        lines += [f"  note: {note}" for note in entry["notes"]]
        lines.append(f"  status:       {status}" + (f" ({detail})" if detail else ""))
    statuses = [results.get(i, ("UNVERIFIED", ""))[0] for i in range(len(ledger))]
    lines.append("end-to-end: " + ("all PASS" if all(
        s in ("PASS", "NOT-APPLICABLE") for s in statuses
    ) else "; ".join(statuses)))
    return "\n".join(lines) + "\n"


def ledger_to_json(ledger: tuple[dict, ...]) -> str:
    """The ledger as the text of `ledger.json`."""
    return json.dumps({"stages": list(ledger)}, indent=2, sort_keys=True)
