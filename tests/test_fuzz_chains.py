"""Random verify chains: generated inputs, composable stages, boundary parameters.

Each spec is drawn from a fixed seed, so the draws are the same on every run:
a gen-planted or gen-gap formula (n <= 8, m <= 10) followed by one to four
`STAGES` ops, each taking the kind the one before it gives. Every parameter
comes from a small set of boundary values (0, 1, -1 and 13 for integers; 0,
1, 1.5 and -0.2 for fractions; null and string seeds; size caps of 0, 1 and
50), with a few ordinary values mixed in so that some chains run to the end.
The budget is a node budget alone, so no exit code depends on the speed of
the machine. Each spec runs twice in process through `run_command`.
"""

import json
import random

from gapred.cli import run_command
from gapred.pipelines import STAGES

# Each kind of parameter: its boundary values, and the ordinary ones drawn
# otherwise. _ABSENT leaves an optional parameter out.
_ABSENT = object()
_VALUES = {
    "int": ((0, 1, -1, 13), (1, 2, 3)),
    "float": ((0, 1, 1.5, -0.2), (0.2, 0.5)),
    "seed": ((None, "fuzz"), (_ABSENT, 13)),
    "size_cap": ((0, 1, 50), (_ABSENT,)),
}
_BOUNDARY = 0.3  # the chance of a boundary value
_DRAWS = 30
_MAX_NODES = 20_000


def _draw(rng, kind):
    boundary, ordinary = _VALUES[kind]
    return rng.choice(boundary if rng.random() < _BOUNDARY else ordinary)


def _value(rng, param):
    if param.choices:
        return rng.choice(param.choices)
    if param.name in ("seed", "size_cap"):
        return _draw(rng, param.name)
    return _draw(rng, "float" if param.type is float else "int")


def _spec(rng):
    kind = rng.choice(("gen-planted", "gen-gap"))
    # Planting needs n >= 3, so n = 1 and 2 are boundary values.
    n = rng.randint(1, 2) if rng.random() < _BOUNDARY else rng.randint(3, 8)
    source = {"kind": kind, "n": n, "m": rng.randint(1, 10)}
    if kind == "gen-gap":
        source["epsilon"] = _draw(rng, "float")
    seed = _draw(rng, "seed")
    if seed is not _ABSENT:
        source["seed"] = seed
    stages, current = [], "cnf"
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(sorted(op for op, row in STAGES.items() if row.source_kind == current))
        stage = {"op": op}
        for param in STAGES[op].params:
            value = _value(rng, param)
            if value is not _ABSENT:
                stage[param.name] = value
        stages.append(stage)
        current = STAGES[op].output_kind
    return {"seed": rng.choice((0, 7, "fuzz")), "input": source, "stages": stages,
            "budget": {"max_nodes": _MAX_NODES}}


SPECS = [_spec(random.Random(f"chain {i}")) for i in range(_DRAWS)]


def _seeded(spec):
    """Whether every seed the spec gives is a value, not null."""
    return all(part.get("seed", 0) is not None for part in (spec["input"], *spec["stages"]))


def _failures(out):
    """(op, status line) of each FAIL stage of a verify report."""
    failed, op = [], None
    for line in out.splitlines():
        if line.startswith("stage "):
            op = line.split()[2]
        elif line.strip().startswith("status:") and "FAIL" in line:
            failed.append((op, line))
    return failed


def _run(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = run_command(["verify", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_random_chains_exit_with_their_documented_codes(tmp_path, capsys):
    codes = []
    for index, spec in enumerate(SPECS):
        code, out, err = _run(tmp_path, capsys, spec)
        why = (index, spec, out, err)
        statuses = [line for line in out.splitlines() if line.startswith("  status:")]
        if code == 1:
            # Criterion 8's known gap: clique2ipath's soundness branch can fail.
            failed = _failures(out)
            assert failed and all(op == "clique2ipath" and "<" in line.split("(", 1)[1]
                                  for op, line in failed), why
        elif code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, why
        elif code == 3:
            assert err.startswith("budget exceeded: ") or any(
                "INCONCLUSIVE (" in line for line in statuses), why
        else:
            assert code == 0 and err == "", why
            assert not any("FAIL" in line or "INCONCLUSIVE" in line for line in statuses), why
        if _seeded(spec):
            assert _run(tmp_path, capsys, spec) == (code, out, err), why
        codes.append(code)
    # The draws pass, refuse and run out of budget; exit 1 may or may not be drawn.
    assert set(codes) >= {0, 2, 3}
