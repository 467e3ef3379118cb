"""Command-line driver.

Exit codes: 0 success, 1 verification failure, 2 parse/validation error,
3 budget exceeded or inconclusive verification.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import __version__, oracles
from .dispersers import (
    deterministic_disperser,
    emit_disperser,
    parse_disperser,
    random_disperser,
    verify_disperser,
)
from .errors import BudgetExceededError, GapredError, ParseError
from .instances import emit_cnf, random_cnf
from .oracles import ORACLES, SolveBudget
from .pipelines import (
    _FORMATS,
    STAGES,
    PipelineSpec,
    gen_cnf_gap,
    gen_gap_cnf,
    gen_planted_cnf,
    run_pipeline,
    verify_pipeline,
    write_artifacts,
)

# Each `solve` problem's oracle, and the oracles whose extra argument is a flag.
_PROBLEMS = {row.problem: name for name, row in ORACLES.items() if row.problem is not None}
_FLAGGED = {name: row for name, row in ORACLES.items() if row.extra is not None}


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _manifest(out: str | None, data: dict):
    if out is None or out == "-":
        return
    path = Path(out)
    target = path.with_name(path.name + ".manifest.json")
    data = {"tool": "gapred", "version": __version__, **data}
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _budget(args, base: SolveBudget = SolveBudget()) -> SolveBudget:
    """`base`, with each limit a --budget-* flag sets replaced."""
    return SolveBudget(
        max_nodes=base.max_nodes if args.budget_nodes is None else args.budget_nodes,
        max_millis=base.max_millis if args.budget_millis is None else args.budget_millis,
    )


def _spec_with_cli_overrides(args) -> PipelineSpec:
    """Load a pipeline spec; explicit CLI seed, size-cap and budget flags override the file's."""
    spec = PipelineSpec.from_file(args.spec)
    changes = {"budget": _budget(args, spec.budget)}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.size_cap is not None:
        changes["size_cap"] = args.size_cap
    return dataclasses.replace(spec, **changes)


# Each subcommand takes --out, and --seed, --size-cap and --budget-* only
# where its handler reads them.
_OUT_HELP = "output path ('-' for stdout)"


def _add_budget(parser):
    parser.add_argument("--budget-nodes", type=int)
    parser.add_argument("--budget-millis", type=int)


def _add_param(parser, param):
    """The CLI flag of one stage parameter (see Param)."""
    if param.choices:
        default, switch = param.choices
        parser.add_argument(f"--{switch}-{param.name}", dest=param.name, action="store_const",
                            const=switch, default=default)
    else:
        flag = param.name.replace("_", "-")
        parser.add_argument(f"--{flag}", dest=param.name, type=param.type,
                            required=param.required,
                            default=None if param.required else param.default)


# Built on the first call and shared by every later one: its defaults are
# immutable, and each handler is bound here.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gapred", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-cnf", help="generate CNF instances (random, planted, or gap)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=("random", "planted", "gap", "pair"), default="random")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--out", help=f"{_OUT_HELP}; under --mode pair, a path stem, not '-'")
    p.add_argument("--seed", type=int, default=0)
    _add_budget(p)
    p.set_defaults(handler=_cmd_gen_cnf)

    for op, stage in STAGES.items():
        p = sub.add_parser(stage.command, help=stage.help)
        p.add_argument("input")
        for param in stage.params:
            _add_param(p, param)
        p.add_argument("--out", help=_OUT_HELP)
        p.set_defaults(op=op, handler=_cmd_transform)

    p = sub.add_parser("disperser", help="generate, check, or search dispersers")
    p.add_argument("action", choices=("gen", "check", "det"))
    p.add_argument("input", nargs="?", help="disperser file (for 'check')")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--out", help=_OUT_HELP)
    p.add_argument("--seed", type=int, default=0)
    _add_budget(p)
    p.set_defaults(handler=_cmd_disperser)

    p = sub.add_parser("solve", help="run an exact oracle on an instance file")
    p.add_argument("problem", choices=sorted(_PROBLEMS))
    p.add_argument("input")
    # Unset means the problem's default; a problem refuses the others' flags.
    for row in _FLAGGED.values():
        flag, flag_type, _ = row.extra
        p.add_argument(f"--{flag}", type=flag_type, help=f"{flag} for {row.problem}")
    p.add_argument("--out", help=_OUT_HELP)
    _add_budget(p)
    p.set_defaults(handler=_cmd_solve)

    for name, text, handler in (
        ("pipeline", "run a pipeline spec and write artifacts", _cmd_pipeline),
        ("verify", "run a pipeline spec and oracle-verify each stage", _cmd_verify),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("spec")
        p.add_argument("--out", help=_OUT_HELP)
        # Unset seed and size cap mean "as the spec says".
        p.add_argument("--seed", type=int)
        p.add_argument("--size-cap", type=int)
        _add_budget(p)
        p.set_defaults(handler=handler)

    return top


def _cmd_gen_cnf(args) -> int:
    # Read in every mode, so a bad --budget-* exits 2 even where no oracle runs.
    budget = _budget(args)
    if args.mode == "pair":
        if args.out == "-":
            raise ParseError("--mode pair writes two files: --out takes a path stem, not '-'")
        planted, gap = gen_cnf_gap(args.n, args.epsilon, args.seed, num_clauses=args.m,
                                   budget=budget)
        base = Path(args.out or "cnf")
        sat_path = base.parent / (base.stem + ".sat.cnf")
        gap_path = base.parent / (base.stem + ".gap.cnf")
        sat_path.write_text(emit_cnf(planted))
        gap_path.write_text(emit_cnf(gap))
        print(f"{sat_path}\n{gap_path}")
    elif args.mode == "gap":
        formula = gen_gap_cnf(args.n, args.m, args.epsilon, args.seed, budget=budget)
        _write(args.out, emit_cnf(formula))
    else:
        generate = random_cnf if args.mode == "random" else gen_planted_cnf
        _write(args.out, emit_cnf(generate(args.n, args.m, args.seed)))
    _manifest(args.out, {"command": "gen-cnf", "mode": args.mode, "seed": args.seed,
                         "params": {"n": args.n, "m": args.m, "epsilon": args.epsilon}})
    return 0


def _cmd_transform(args) -> int:
    """Run the one-stage spec of the subcommand's op on the input file."""
    stage = STAGES[args.op]
    source = {"kind": f"{_FORMATS[stage.source_kind].extension}-file", "path": args.input}
    flags = {p.name: getattr(args, p.name) for p in stage.params}
    run = run_pipeline(PipelineSpec(input=source, stages=({"op": args.op, **flags},)))
    if "disperser" in run.extras[0] and args.out not in (None, "-"):
        Path(args.out).with_suffix(".disp").write_text(emit_disperser(run.extras[0]["disperser"]))
    _write(args.out, _FORMATS[run.kinds[1]].emit(run.instances[1]))
    _manifest(args.out, {"command": args.command, "input": args.input, "params": run.params[0]})
    return 0


def _cmd_disperser(args) -> int:
    # Read in every action, so a bad --budget-* exits 2 even under 'gen'.
    budget = _budget(args)
    if args.action == "check":
        if args.input is None:
            raise ParseError("disperser check needs an input file")
        d = parse_disperser(Path(args.input).read_bytes())
        witness = verify_disperser(d, budget)
        if witness is None:
            print("pass")
            return 0
        print(f"fail: indices {tuple(i + 1 for i in witness)} have a small union")
        return 1
    if None in (args.m, args.k, args.r, args.epsilon):
        raise ParseError("disperser gen/det needs --m --k --r --epsilon")
    if args.action == "gen":
        d = random_disperser(args.m, args.k, args.r, args.epsilon, args.seed)
    else:
        d = deterministic_disperser(args.m, args.k, args.r, args.epsilon, budget)
    _write(args.out, emit_disperser(d))
    return 0


def _cmd_solve(args) -> int:
    oracle = _PROBLEMS[args.problem]
    extra = ()
    for name, row in _FLAGGED.items():
        flag, _, default = row.extra
        value = getattr(args, flag)
        if name == oracle:
            extra = (default if value is None else value,)
        elif value is not None:
            raise ParseError(f"solve {args.problem} does not read --{flag}")
    instance = _FORMATS[ORACLES[oracle].kind].parse(Path(args.input).read_bytes())
    value = oracles.call(oracle, instance, *extra, budget=_budget(args))
    _write(args.out, f"{'infeasible' if value is None else value}\n")
    return 0


def _cmd_pipeline(args) -> int:
    spec = _spec_with_cli_overrides(args)
    run = run_pipeline(spec)
    if args.out not in (None, "-"):
        write_artifacts(run, args.out, "pipeline", spec, version=__version__)
    print(f"ran {len(spec.stages)} stages; final kind: {run.kinds[-1]}")
    return 0


def _cmd_verify(args) -> int:
    spec = _spec_with_cli_overrides(args)
    run = run_pipeline(spec)
    report = verify_pipeline(spec, run)
    if args.out not in (None, "-"):
        write_artifacts(run, args.out, "verify", spec, report=report, version=__version__)
    sys.stdout.write(report.render())
    if report.overall == "fail":
        return 1
    if report.overall == "inconclusive":
        return 3
    return 0


def run_command(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (GapredError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
