"""Pipeline assembly, gap-instance generation, and the verification harness.

A pipeline is an input instance plus an ordered stage list whose input/output
kinds chain (cnf -> lc -> ... -> graph). Each stage op is defined once, in the
`STAGES` registry: its CLI subcommand, its kinds, its parameter schema, how it
builds its output and ledger entry, and how verify grades it. Instance formats
(`_FORMATS`) and input kinds (`_INPUTS`) are tables in the same way.
`run_pipeline` is the one place a stage is built (a CLI transform subcommand
runs a one-stage spec): it produces every intermediate instance, the resolved
parameters of each stage, and a gap ledger. Verifying a run additionally
computes source and target optima with the exact oracles and grades each
stage's completeness/soundness predicate PASS, FAIL, NOT-APPLICABLE (premise
unmet), or INCONCLUSIVE (budget exhausted or uncertified disperser).
"""

from __future__ import annotations

import bisect
import json
import math
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import gap_ledger as gl
from . import oracles
from .dispersers import Disperser, emit_disperser, verify_disperser
from .errors import (
    BudgetExceededError,
    GenerationError,
    ParseError,
    ValidationError,
)
from .graph_reductions import (
    _dks_kept,
    biclique_gadget,
    clique_to_inducedpath,
    dks_edge,
    fglss,
    im_gadget,
    is_to_im_gadget,
    minlab_to_setcov,
    sat_to_dks,
    setcov_to_domset,
)
from .instances import (
    _CNF_COUNTS,
    DEFAULT_SIZE_CAP,
    CnfFormula,
    _as_text,
    _check_counts,
    emit_cnf,
    emit_graph,
    emit_labelcover,
    emit_setsystem,
    parse_cnf,
    parse_graph,
    parse_labelcover,
    parse_setsystem,
)
from .lc_transforms import (
    _block_partition,
    cnf_to_labelcover,
    compress_left,
    compress_right,
    minlab_instance,
)
from .oracles import SolveBudget

__all__ = [
    "gen_planted_cnf",
    "gen_gap_cnf",
    "gen_cnf_gap",
    "Param",
    "Stage",
    "STAGES",
    "PipelineSpec",
    "PipelineRun",
    "run_pipeline",
    "StageVerification",
    "VerifyReport",
    "verify_pipeline",
    "write_artifacts",
]


# ---------------------------------------------------------------------------
# CNF generators for pipeline inputs


# The planted assignment of each formula gen_planted_cnf built (the value of
# variable i + 1 at index i), and sat_max of each formula gen_gap_cnf accepted:
# verify lifts the first through the stages as oracle witnesses and does not
# compute the second again. An entry lives as long as its formula.
_PLANTED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_CERTIFIED_SAT_MAX: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def gen_planted_cnf(num_vars: int, num_clauses: int, seed) -> CnfFormula:
    """Satisfiable by construction: sample 3-clauses, flipping one literal when
    the planted assignment misses, so every clause is satisfied by it."""
    _check_counts(*zip(_CNF_COUNTS, (num_vars, num_clauses)))
    if num_vars < 3 and num_clauses > 0:
        raise ValidationError("planting 3-clauses needs at least 3 variables")
    rng = random.Random(seed)
    planted = rng.getrandbits(num_vars) if num_vars else 0
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        lits = [v if rng.random() < 0.5 else -v for v in variables]
        if not any(((planted >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in lits):
            fix = rng.randrange(3)
            lits[fix] = -lits[fix]
        clauses.append(tuple(lits))
    formula = CnfFormula(num_vars, tuple(clauses))
    # Variable i + 1's bit, most significant last; [:n] as format(0, "00b") is "0".
    _PLANTED[formula] = tuple(map(int, format(planted, f"0{num_vars}b")[::-1][:num_vars]))
    return formula


def gen_gap_cnf(
    num_vars: int,
    num_clauses: int,
    eps: float,
    seed,
    max_attempts: int = 5000,
    budget: SolveBudget | None = None,
) -> CnfFormula:
    """Oracle-certified gap formula: sat_max < (1-eps)*m, by rejection sampling.

    Clause widths are mixed (units dominate): any width-3 clause is satisfied
    by a uniform random assignment with probability 7/8, so formulas built
    from 3-clauses alone always satisfy sat_max >= 7m/8 and can never certify
    eps > 1/8. Short clauses have no such floor.
    """
    _check_counts(*zip(_CNF_COUNTS, (num_vars, num_clauses)))
    if num_vars < 1 or num_clauses < 1 or not 0.0 < eps < 1.0:
        raise ValidationError("need num_vars >= 1, num_clauses >= 1, eps in (0,1)")
    rng = random.Random(seed)
    threshold = (1 - Fraction(eps)) * num_clauses
    for _ in range(max_attempts):
        clauses = []
        for _ in range(num_clauses):
            width = rng.choices((1, 2, 3), weights=(50, 25, 25))[0]
            width = min(width, num_vars)
            variables = rng.sample(range(1, num_vars + 1), width)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
        formula = CnfFormula(num_vars, tuple(clauses))
        value = oracles.call("sat_max", formula, budget=budget)
        if Fraction(value) < threshold:
            _CERTIFIED_SAT_MAX[formula] = value
            return formula
    raise GenerationError(
        f"no gap formula with sat_max < (1-{eps})*{num_clauses} in {max_attempts} attempts"
    )


def gen_cnf_gap(
    num_vars: int, eps: float, seed, num_clauses: int | None = None,
    budget: SolveBudget | None = None,
) -> tuple[CnfFormula, CnfFormula]:
    """One planted satisfiable formula and one oracle-certified gap formula."""
    m = num_clauses if num_clauses is not None else 2 * num_vars
    rng = random.Random(seed)
    planted = gen_planted_cnf(num_vars, m, rng.randrange(2**63))
    gap = gen_gap_cnf(num_vars, m, eps, rng.randrange(2**63), budget=budget)
    return planted, gap


# ---------------------------------------------------------------------------
# Instance kinds


class _Format(NamedTuple):
    """How one instance kind is stored: its file extension, parser and emitter."""

    extension: str
    parse: Callable
    emit: Callable


_FORMATS = {
    "cnf": _Format("cnf", parse_cnf, emit_cnf),
    "lc": _Format("lc", parse_labelcover, emit_labelcover),
    "graph": _Format("graph", parse_graph, emit_graph),
    "setsystem": _Format("ss", parse_setsystem, emit_setsystem),
}


# ---------------------------------------------------------------------------
# The stage registry: parameters and stage definitions

_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One stage parameter: its spec key, its type, and its default.

    A parameter without a default is required, and a null value is accepted
    when the default is null. A string parameter lists its `choices`, default
    first; the CLI takes it as the switch `--<choices[1]>-<name>`, and any
    other parameter as `--<name>` with dashes for underscores. `check`, when
    given, is (test, what a value must be), and takes the type test's place.
    """

    name: str
    type: type = int
    default: object = _REQUIRED
    choices: tuple[str, ...] = ()
    check: tuple[Callable, str] | None = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED

    def validate(self, where: str, value) -> None:
        if value is None and self.default is None:
            return
        if self.check is not None:
            ok, want = self.check[0](value), self.check[1]
        elif self.type is str and self.choices:
            ok, want = value in self.choices, f"one of {self.choices}"
        elif self.type is str:
            ok, want = isinstance(value, str), "a string"
        else:
            ok = isinstance(value, int if self.type is int else (int, float))
            ok = ok and not isinstance(value, bool)
            want = "a number" if self.type is float else "an integer"
        if not ok:
            raise ValidationError(
                f"{where}: parameter {self.name!r} must be {want}, got {value!r}"
            )


def _validate_params(where: str, params, given: dict, known=()) -> None:
    """Raise ValidationError unless `given` fits the parameter schema `params`.

    `known` names the other keys `given` may hold; any key outside both is
    refused, so a misspelt parameter cannot silently take its default.
    """
    unknown = set(given).difference(param.name for param in params).difference(known)
    if unknown:
        names = ", ".join(sorted(map(repr, unknown)))
        raise ValidationError(f"{where}: unknown parameter {names}")
    for param in params:
        if param.name in given:
            param.validate(where, given[param.name])
        elif param.required:
            raise ValidationError(f"{where} needs parameter {param.name!r}")


# The seed and the size cap, listed by the stages whose transform reads them.
# A seed (of a stage, an input or the spec) goes to random.Random, which takes
# every JSON value but a list or an object. A stage without the key takes the
# spec's value, and a null size cap means the spec's too; on the CLI the seed
# defaults to 0 and the cap to DEFAULT_SIZE_CAP. The ledger leaves both out.
_SEED = Param("seed", int, 0, check=(lambda v: not isinstance(v, (list, dict)),
                                     "a number, a string or null"))
_SIZE_CAP = Param("size_cap", int, None)

_GEN_PARAMS = (Param("n"), Param("m"))
# Each input kind: the instance kind it loads and the fields it reads (besides
# `kind`); only the generators read a seed. A file input is named after its
# extension.
_INPUTS = {
    **{f"{fmt.extension}-file": (kind, (Param("path", str),)) for kind, fmt in _FORMATS.items()},
    "gen-planted": ("cnf", _GEN_PARAMS + (_SEED,)),
    "gen-gap": ("cnf", _GEN_PARAMS + (Param("epsilon", float), _SEED)),
}

# The top-level fields of a spec file other than `seed`, `input`, `stages`
# and `budget`.
_SPEC_PARAMS = (Param("size_cap", default=DEFAULT_SIZE_CAP),)
_BUDGET_PARAMS = (
    Param("max_nodes", float, SolveBudget().max_nodes),
    Param("max_millis", float, SolveBudget().max_millis),
)


@dataclass(frozen=True)
class Stage:
    """One reduction: a row of `STAGES`, which only run_pipeline builds.

    `params` is the one declaration of what the stage reads; `seed` and
    `size_cap` are among them only where the transform reads them. A spec's
    stage is checked against it and resolved by `PipelineSpec.stage_params`.
    `build(instance, params, budget=None)` returns (output, extras), where
    `params` maps each declared name to its resolved value and `budget`, a
    pipeline's, bounds compress-left's disperser search. run_pipeline derives
    the stage's ledger entry from the row: `predicate` is its (oracle,
    comparison, target), `maps(source, params, output)`, when given, returns
    its (completeness, soundness) maps (else both are the identity), and
    `notes` are documentation. `verify(view)` grades the stage from a
    `_StageView` and returns (status, detail, values). `lift(instance, params,
    witness)`, when given, maps a witness of the source (an assignment, a right
    labeling) to one of the output that the build keeps optimal, or to None.
    """

    command: str
    help: str
    source_kind: str
    output_kind: str
    params: tuple[Param, ...]
    build: Callable
    verify: Callable
    predicate: tuple[str, str, str]
    maps: Callable | None = None
    notes: tuple[str, ...] = ()
    lift: Callable | None = None


# ---------------------------------------------------------------------------
# Stage builds (output instance, extras) and ledger maps


_IDENTITY = gl.GapMap(kind="identity")


def _calls(transform: str):
    """The build of a stage that calls the transform named `transform` on its
    source, with every parameter as a keyword. The transform is looked up by
    name on each call, so a wrapped one is seen."""

    def build(source, p, budget=None):
        return globals()[transform](source, **p), {}

    return build


def _constant(value, requires) -> gl.GapMap:
    return gl.GapMap(kind="constant", value=value, requires=float(requires))


def _gap_size(lc, p) -> Fraction:
    """(1 - epsilon)|U|: a label-cover source covering less is a gap source."""
    return (1 - Fraction(p["epsilon"])) * lc.left_size


def _build_compress_left(lc, p, budget=None):
    out, disperser = compress_left(lc, **p, budget=budget)
    return out, {"disperser": disperser}


# ---------------------------------------------------------------------------
# Witness lifts: the completeness direction of each stage, applied to the
# planted assignment. Each reads only its source and parameters, and gets the
# planted assignment or the previous stage's lift: one label per variable or
# right vertex of its source. The oracle that receives the result checks it
# against the output.


def _same_labeling(source, p, sigma):
    """cnf2lc and compress-left: right vertex v keeps its label (variable v + 1's bit)."""
    return sigma


def _lift_compress_right(lc, p, sigma):
    """Each block's label: sigma on the block in base ra, first vertex most significant."""
    labels = []
    for block in _block_partition(lc.right_size, p["q"]):
        label = 0
        for v in block:
            label = label * lc.right_alphabet + sigma[v]
        labels.append(label)
    return tuple(labels)


def _lift_fglss(lc, p, sigma):
    """Per left vertex, the FGLSS vertex of its first admissible label that holds
    sigma on every edge; a left vertex with no such label is left out."""
    clique, offset = [], 0
    for u in range(lc.left_size):
        labels, fits = lc.admissible_list(u), lc.fitting_labels(u, sigma)
        if fits:
            clique.append(offset + bisect.bisect_left(labels, fits[0]))
        offset += len(labels)
    return tuple(clique)


def _lift_sat2dks(formula, p, sigma):
    """The kept vertices (window, sigma on the window); an unseeded subsample
    cannot be replayed."""
    if p["p"] < 1.0 and p["seed"] is None:
        return None
    clique, window = [], None
    for i, (w, bits) in enumerate(_dks_kept(formula.num_vars, p["ell"], p["p"], p["seed"])):
        if w != window:
            window, want = w, sum(sigma[var] << t for t, var in enumerate(w))
        if bits == want:
            clique.append(i)
    return tuple(clique)


def _lifted(spec: "PipelineSpec", run: "PipelineRun", witness) -> list:
    """Per run instance, `witness` (of the input, or None) lifted to it, or
    None once a stage without a lift is passed."""
    witnesses = [witness]
    for idx, stage in enumerate(spec.stages):
        lift = STAGES[stage["op"]].lift
        if witness is not None and lift is not None:
            witness = lift(run.instances[idx], run.params[idx], witness)
        else:
            witness = None
        witnesses.append(witness)
    return witnesses


# ---------------------------------------------------------------------------
# Stage verify rules

def _oracle_value(memo: dict, instances: list, index: int, oracle: str, *args, budget,
                  witness=None):
    """oracles.call(oracle, instances[index], *args), computed once per memo.

    A witness cannot change the value, so the memo key leaves it out. A call
    that raises stores nothing.
    """
    key = (oracle, index, args)
    if key not in memo:
        memo[key] = oracles.call(oracle, instances[index], *args, budget=budget, witness=witness)
    return memo[key]


class _StageView:
    """What a verify rule sees of one stage: its resolved params, its source,
    output and extras, and the oracle values of its source (`src`) and output
    (`out`), memoized across one verify call and given the instances' witnesses."""

    def __init__(self, run: "PipelineRun", index: int, budget, memo: dict, witnesses: list):
        self.params = run.params[index]
        self.budget = budget
        self.source = run.instances[index]
        self.output = run.instances[index + 1]
        self.extra = run.extras[index]
        self._instances, self._index, self._memo = run.instances, index, memo
        self._witnesses = witnesses

    def src(self, oracle: str, *args):
        return _oracle_value(self._memo, self._instances, self._index, oracle, *args,
                             budget=self.budget, witness=self._witnesses[self._index])

    def out(self, oracle: str, *args):
        return _oracle_value(self._memo, self._instances, self._index + 1, oracle, *args,
                             budget=self.budget, witness=self._witnesses[self._index + 1])


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _equal(source_oracle: str, output_oracle: str) -> dict:
    """Rule and predicate of an exact reduction: the source and output optima are equal."""

    def rule(s):
        a, b = s.src(source_oracle), s.out(output_oracle)
        detail = f"{source_oracle}={a}, {output_oracle}={b}"
        return _status(a == b), detail, {source_oracle: a, output_oracle: b}

    return {"verify": rule, "predicate": (output_oracle, "==", f"{source_oracle}(source)")}


_HALF = gl.GapMap(kind="scale", value=0.5)


def _sandwich(output_oracle: str, label: str, key: str) -> dict:
    """Rule, predicate and maps of a doubling gadget:
    clique(source) <= value(output) <= 2*biclique(source)+1."""

    def rule(s):
        c, bi, got = s.src("clique"), s.src("biclique"), s.out(output_oracle)
        detail = f"clique={c} <= {label}={got} <= 2*{bi}+1"
        return _status(c <= got <= 2 * bi + 1), detail, {"clique": c, "biclique_in": bi, key: got}

    return {
        "verify": rule,
        "predicate": (output_oracle, ">=", "clique(source), and <= 2*biclique(source)+1"),
        "maps": lambda *_: (_IDENTITY, _HALF),
    }


def _graded(ok: bool, detail: str, values: dict, got):
    values["value_out"] = got
    return _status(ok), detail, values


def _compression(oracle: str, target, sound):
    """Rule of a label-cover compression, graded by its source's max_cov.

    A fully coverable source must give oracle(output) == target(view); a
    source below (1-epsilon)|U| is graded by sound(view, values).
    """

    def rule(s):
        m = s.source.left_size
        mc_in = s.src("max_cov")
        gap_bound = _gap_size(s.source, s.params)
        values = {"max_cov_in": mc_in, "left_size_in": m}
        if mc_in == m:
            want, got = target(s), s.out(oracle)
            return _graded(got == want, f"completeness: {oracle}={got}, want {want}", values, got)
        if Fraction(mc_in) < gap_bound:
            return sound(s, values)
        return (
            "NOT-APPLICABLE",
            f"source max_cov={mc_in} is neither full ({m}) nor below {float(gap_bound):.3f}",
            values,
        )

    return rule


def _compress_left_sound(s, values):
    witness = verify_disperser(s.extra["disperser"], s.budget)
    if witness is not None:
        return (
            "INCONCLUSIVE",
            f"disperser unverified (witness {witness}); soundness claim not certified",
            values,
        )
    got, r = s.out("max_cov"), s.params["r"]
    return _graded(got < r, f"soundness: max_cov={got}, want < {r}", values, got)


def _compress_right_sound(s, values):
    got = s.out("max_cov")
    bound = Fraction(s.params["gamma"]) * s.output.left_size
    detail = f"soundness: max_cov={got}, want < gamma*|U'|={float(bound):.3f}"
    return _graded(Fraction(got) < bound, detail, values, got)


def _minlab_sound(s, values):
    got, r = s.out("min_lab"), s.params["r"]
    return _graded(got is None or got > r, f"soundness: min_lab={got}, want > {r}", values, got)


def _verify_is2im(s):
    a, b = s.src("independent_set"), s.out("induced_matching")
    return _status(b >= a), f"IM={b} >= MIS={a}", {"mis": a, "im": b}


def _verify_clique2ipath(s):
    k, q = s.params["k"], s.params["q"]
    c = s.src("clique")
    if c >= k:
        ok = s.out("induced_path_at_least", 2 * q * k)
        found = "found" if ok else "missing"
        detail = f"clique={c} >= {k}: induced path of size {2 * q * k} {found}"
    else:
        ok = not s.out("induced_path_at_least", 4 * (k - 1) + 1)
        detail = f"clique={c} < {k}: no induced path above {4 * (k - 1)}"
    return _status(ok), detail, {"clique": c}


def _verify_sat2dks(s):
    source, output, p, seed = s.source, s.output, s.params["p"], s.params["seed"]
    n, ell = source.num_vars, s.params["ell"]
    full = math.comb(n, ell) << ell
    values = {"num_vertices": output.num_vertices}
    if p < 1.0:
        # A subsample is the p = 1 graph induced on the vertices sat_to_dks
        # keeps, which _dks_kept replays from the seed. Each pair of kept
        # vertices is graded by dks_edge, one meter tick a pair, so the check
        # costs the output's size, not the full graph's.
        if seed is None:
            detail = f"unseeded subsample ({output.num_vertices} of {full} vertices) is not replayable"
            return "NOT-APPLICABLE", detail, values
        kept = _dks_kept(n, ell, p, seed)
        if output.num_vertices != len(kept):
            detail = f"|V|={output.num_vertices}, want the {len(kept)} the seeded draw keeps"
            return "FAIL", detail, values
        meter = oracles._Meter(s.budget)
        for i, (window, bits) in enumerate(kept):
            row = output.adjacency[i]
            for j in range(i + 1, len(kept)):
                meter.tick()
                if (row >> j & 1) != dks_edge(source, window, bits, *kept[j]):
                    detail = f"subsampled: edge {i}-{j} disagrees with dks_edge"
                    return "FAIL", detail, values
        detail = (
            f"subsampled: {len(kept)} of {full} vertices, every pair agrees with dks_edge"
        )
        return "PASS", detail, values
    if output.num_vertices != full:
        return "FAIL", f"|V|={output.num_vertices}, want {full}", values
    # One vertex per window at most, so clique <= C(n, ell), with equality
    # for every satisfiable source; see sat_to_dks for when it is exact.
    windows = math.comb(n, ell)
    got = values["clique"] = s.out("clique")
    if s.src("sat_max") == source.num_clauses:
        detail = f"completeness: clique={got}, want C(n,ell)={windows}"
        return _status(got == windows), detail, values
    if ell < n and all(len(clause) <= 2 * ell for clause in source.clauses):
        detail = f"soundness: clique={got}/{windows}, want < {windows}"
        return _status(got < windows), detail, values
    return (
        "NOT-APPLICABLE",
        f"source unsatisfiable; clique={got}/{windows} separates only when ell < n "
        "and clauses have at most 2*ell literals",
        values,
    )


# ---------------------------------------------------------------------------
# The registry. Its order is the order of the CLI's transform subcommands.
# Builds and rules call transforms and oracles through module globals (or by
# oracle name), never through function objects stored here.


STAGES: dict[str, Stage] = {
    "cnf2lc": Stage(
        "cnf2lc", "clause-variable game: CNF to label cover", "cnf", "lc", (),
        _calls("cnf_to_labelcover"), **_equal("sat_max", "max_cov"),
        lift=_same_labeling,
    ),
    "compress-left": Stage(
        "lc-compress-left", "disperser-based left compression", "lc", "lc",
        (Param("k"), Param("r"), Param("epsilon", float),
         Param("disperser", str, "random", choices=("random", "deterministic")),
         _SEED, _SIZE_CAP),
        _build_compress_left,
        _compression("max_cov", lambda s: s.params["k"], _compress_left_sound),
        ("max_cov", "==", "k (full source) / < r (gap source)"),
        maps=lambda lc, p, out: (_constant(p["k"], lc.left_size),
                                 _constant(p["r"], _gap_size(lc, p))),
        notes=("running-time constants of the underlying hardness statement are out of scope",),
        lift=_same_labeling,
    ),
    "compress-right": Stage(
        "lc-compress-right", "block-merge right compression", "lc", "lc",
        (Param("q"), Param("gamma", float), Param("epsilon", float), _SIZE_CAP),
        _calls("compress_right"),
        _compression("max_cov", lambda s: s.output.left_size, _compress_right_sound),
        ("max_cov", "==", "|U'| (full) / < gamma*|U'| (gap)"),
        maps=lambda lc, p, out: (_constant(float(out.left_size), lc.left_size),
                                 _constant(p["gamma"] * out.left_size, _gap_size(lc, p))),
        lift=_lift_compress_right,
    ),
    "minlab": Stage(
        "lc-minlab", "right compression at gamma = (r/q)^-q", "lc", "lc",
        (Param("q"), Param("r"), Param("epsilon", float), _SIZE_CAP),
        _calls("minlab_instance"),
        _compression("min_lab", lambda s: s.params["q"], _minlab_sound),
        ("min_lab", "==", "q (full) / > r (gap)"),
        maps=lambda lc, p, out: (_constant(float(p["q"]), lc.left_size),
                                 _constant(float(p["r"]), _gap_size(lc, p))),
        notes=("gamma follows the power form (r/q)^-q",),
    ),
    "fglss": Stage(
        "lc2clique", "FGLSS graph of a projection label cover", "lc", "graph", (),
        _calls("fglss"), **_equal("max_cov", "clique"), lift=_lift_fglss,
    ),
    "minlab2setcov": Stage(
        "minlab2setcov", "hypercube set system of a MinLab instance", "lc", "setsystem",
        (_SIZE_CAP,), _calls("minlab_to_setcov"),
        **_equal("min_lab", "set_cover"),
    ),
    "setcov2domset": Stage(
        "setcov2domset", "set cover to dominating set", "setsystem", "graph", (),
        _calls("setcov_to_domset"), **_equal("set_cover", "dom_set"),
    ),
    "biclique-gadget": Stage(
        "g2biclique-gadget", "doubling gadget B_e[G]", "graph", "graph", (),
        _calls("biclique_gadget"),
        **_sandwich("biclique", "biclique(B_e)", "biclique_out"),
    ),
    "im-gadget": Stage(
        "g2im-gadget", "doubling gadget B_e[complement(G)]", "graph", "graph", (),
        _calls("im_gadget"), **_sandwich("induced_matching", "IM", "im_out"),
    ),
    "is2im": Stage(
        "g2is2im", "pendant gadget: independent set to induced matching", "graph", "graph", (),
        _calls("is_to_im_gadget"), _verify_is2im,
        ("induced_matching", ">=", "independent_set(source)"),
    ),
    "clique2ipath": Stage(
        "clique2ipath", "block-chained clique to induced path gadget", "graph", "graph",
        (Param("k"), Param("q")),
        _calls("clique_to_inducedpath"),
        _verify_clique2ipath,
        ("induced_path", ">=", "2qk if clique >= k, else <= 4(k-1)"),
        maps=lambda g, p, out: (_constant(float(2 * p["q"] * p["k"]), p["k"]),
                                _constant(float(4 * (p["k"] - 1)), p["k"])),
    ),
    "sat2dks": Stage(
        "sat2dks", "partial-assignment graph with optional subsampling", "cnf", "graph",
        (Param("ell"), Param("p", float, 1.0), _SEED, _SIZE_CAP),
        _calls("sat_to_dks"), _verify_sat2dks,
        ("clique", "==",
         "C(n,ell) iff sat_max(source) == m when ell < n and clause width <= 2*ell; "
         "otherwise C(n,ell) if sat_max(source) == m"),
        notes=(
            "occurrence bound 2^(4n) * (2^(-lam*ell^2/n) * C(n,ell))^(2t) is documentation only",
        ),
        lift=_lift_sat2dks,
    ),
}


# ---------------------------------------------------------------------------
# Pipeline specification


@dataclass(frozen=True)
class PipelineSpec:
    input: dict
    stages: tuple[dict, ...]
    seed: int | None = None
    size_cap: int = DEFAULT_SIZE_CAP
    budget: SolveBudget = SolveBudget()

    def __post_init__(self):
        if not isinstance(self.input, dict) or not all(isinstance(s, dict) for s in self.stages):
            raise ValidationError("a spec needs an input object, and each stage must be an object")
        object.__setattr__(self, "stages", tuple(dict(s) for s in self.stages))
        # Names are looked up by hash, so a list or an object must not reach the lookup.
        kind = self.input.get("kind")
        if not isinstance(kind, str) or kind not in _INPUTS:
            raise ValidationError(f"unknown input kind {kind!r}")
        _SEED.validate("spec", self.seed)
        current, fields = _INPUTS[kind]
        _validate_params(f"input {kind!r}", fields, self.input, ("kind",))
        for stage in self.stages:
            op = stage.get("op")
            if not isinstance(op, str) or op not in STAGES:
                raise ValidationError(f"unknown stage op {op!r}")
            definition = STAGES[op]
            if definition.source_kind != current:
                raise ValidationError(
                    f"stage {op!r} expects a {definition.source_kind} input but gets {current}"
                )
            _validate_params(f"stage {op!r}", definition.params, stage, ("op",))
            current = definition.output_kind

    def stage_params(self, index: int) -> dict:
        """The parameter dict stage `index` is built and graded with: each
        declared name's value in the stage, else this spec's seed or size cap,
        else its default; a null size cap means the spec's too."""
        stage = self.stages[index]
        run = {"seed": self.seed, "size_cap": self.size_cap}
        params = {p.name: stage.get(p.name, run.get(p.name, p.default))
                  for p in STAGES[stage["op"]].params}
        if "size_cap" in params and params["size_cap"] is None:
            params["size_cap"] = self.size_cap
        return params

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid pipeline spec JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ParseError("a pipeline spec must be a JSON object")
        if not isinstance(data.get("stages", []), list):
            raise ValidationError("a spec's 'stages' must be a list")
        budget_data = data.get("budget", {})
        if not isinstance(budget_data, dict):
            raise ValidationError("a spec's 'budget' must be an object")
        _validate_params("spec", _SPEC_PARAMS, data, ("seed", "input", "stages", "budget"))
        _validate_params("spec budget", _BUDGET_PARAMS, budget_data)
        limits = {p.name: budget_data.get(p.name, p.default) for p in _BUDGET_PARAMS}
        return cls(
            input=data.get("input"),
            stages=tuple(data.get("stages", ())),
            seed=data.get("seed"),
            size_cap=data.get("size_cap", DEFAULT_SIZE_CAP),
            budget=SolveBudget(**limits),
        )

    @classmethod
    def from_file(cls, path) -> "PipelineSpec":
        return cls.from_json(_as_text(Path(path).read_bytes()))


def _load_input(spec: PipelineSpec):
    info = spec.input
    kind = info["kind"]
    if kind.endswith("-file"):
        return _FORMATS[_INPUTS[kind][0]].parse(Path(info["path"]).read_bytes())
    seed = info.get("seed", spec.seed)
    if kind == "gen-planted":
        return gen_planted_cnf(info["n"], info["m"], seed)
    return gen_gap_cnf(info["n"], info["m"], info["epsilon"], seed, budget=spec.budget)


@dataclass
class PipelineRun:
    """Each instance of a run and its kind, input first; per stage, its
    extras and the resolved parameters it was built with; and the ledger."""

    kinds: list[str]
    instances: list
    ledger: gl.GapLedger
    extras: list[dict]
    params: list[dict]


def run_pipeline(spec: PipelineSpec) -> PipelineRun:
    """Build each stage of `spec` in turn: the one place a stage is built."""
    instance = _load_input(spec)
    run = PipelineRun([_INPUTS[spec.input["kind"]][0]], [instance], gl.GapLedger(), [], [])
    for idx, stage in enumerate(spec.stages):
        op = stage["op"]
        definition, params, source = STAGES[op], spec.stage_params(idx), run.instances[-1]
        out, extra = definition.build(source, params, spec.budget)
        maps = (_IDENTITY, _IDENTITY) if definition.maps is None else definition.maps(
            source, params, out)
        # The ledger entry is named after the op, and lists the resolved
        # values of its non-string parameters other than the seed and size cap.
        run.ledger = gl.push_stage(run.ledger, gl.StageEntry(
            name=op,
            params=tuple((p.name, params[p.name]) for p in definition.params
                         if p.type is not str and p not in (_SEED, _SIZE_CAP)),
            completeness=maps[0],
            soundness=maps[1],
            predicate=gl.StagePredicate(*definition.predicate),
            notes=definition.notes,
        ))
        run.instances.append(out)
        run.kinds.append(definition.output_kind)
        run.extras.append(extra)
        run.params.append(params)
    return run


# ---------------------------------------------------------------------------
# Verification harness


@dataclass
class StageVerification:
    index: int
    name: str
    status: str  # PASS | FAIL | NOT-APPLICABLE | INCONCLUSIVE
    detail: str
    values: dict = field(default_factory=dict)


@dataclass
class VerifyReport:
    stages: list[StageVerification]
    ledger: gl.GapLedger
    input_values: dict

    @property
    def overall(self) -> str:
        statuses = {s.status for s in self.stages}
        if "FAIL" in statuses:
            return "fail"
        if "INCONCLUSIVE" in statuses:
            return "inconclusive"
        return "pass"

    def render(self) -> str:
        results = {s.index: (s.status, s.detail) for s in self.stages}
        header = "".join(f"{k} = {v}\n" for k, v in sorted(self.input_values.items()))
        return header + gl.report(self.ledger, results)


def verify_pipeline(spec: PipelineSpec, run: PipelineRun | None = None) -> VerifyReport:
    """Grade every stage of `run` (built from `spec` when not given) by its verify rule.

    Within one call each oracle value of each run instance is computed at most
    once, and the sat_max gen_gap_cnf certified for a gen-gap input is not
    computed again. A gen-planted input's assignment, lifted through the
    stages that have a lift, is each instance's witness for sat_max, max_cov
    and clique. The report keeps no reference to the run's instances.
    """
    if run is None:
        run = run_pipeline(spec)
    memo: dict = {}
    planted = _PLANTED.get(run.instances[0]) if run.kinds[0] == "cnf" else None
    witnesses = _lifted(spec, run, planted)
    input_values = {}
    if run.kinds[0] == "cnf":
        if run.instances[0] in _CERTIFIED_SAT_MAX:
            memo["sat_max", 0, ()] = _CERTIFIED_SAT_MAX[run.instances[0]]
        try:
            input_values["sat_max"] = _oracle_value(memo, run.instances, 0, "sat_max",
                                                    budget=spec.budget, witness=witnesses[0])
            input_values["num_clauses"] = run.instances[0].num_clauses
        except BudgetExceededError:
            pass
    stages = []
    for idx, stage in enumerate(spec.stages):
        op = stage["op"]
        view = _StageView(run, idx, spec.budget, memo, witnesses)
        try:
            status, detail, values = STAGES[op].verify(view)
        except BudgetExceededError as exc:
            status, detail, values = "INCONCLUSIVE", f"budget exceeded: {exc}", {}
        if status == "FAIL":
            detail += f" [witness instance: stage{idx + 1:02d}]"
        stages.append(StageVerification(idx, op, status, detail, values))
    return VerifyReport(stages, run.ledger, input_values)


# ---------------------------------------------------------------------------
# Artifact output


def write_artifacts(
    run: PipelineRun,
    out_dir,
    command: str,
    spec: PipelineSpec,
    report: VerifyReport | None = None,
    version: str = "0",
) -> Path:
    """Write every stage instance, dispersers, the ledger, and a manifest.

    The manifest carries seeds, parameters, and oracle values; it contains no
    timestamps so repeated seeded runs are byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for idx, (kind, instance) in enumerate(zip(run.kinds, run.instances)):
        name = f"stage{idx:02d}.{_FORMATS[kind].extension}"
        (out / name).write_text(_FORMATS[kind].emit(instance))
        artifacts.append(name)
    for idx, extra in enumerate(run.extras):
        disperser = extra.get("disperser")
        if isinstance(disperser, Disperser):
            name = f"stage{idx + 1:02d}.disp"
            (out / name).write_text(emit_disperser(disperser))
            artifacts.append(name)
    (out / "ledger.json").write_text(gl.ledger_to_json(run.ledger) + "\n")
    artifacts.append("ledger.json")
    manifest = {
        "tool": "gapred",
        "version": version,
        "command": command,
        "seed": spec.seed,
        "size_cap": spec.size_cap,
        "input": spec.input,
        "stages": list(spec.stages),
        "artifacts": sorted(artifacts),
    }
    if report is not None:
        manifest["verification"] = {
            "overall": report.overall,
            "input_values": {k: repr(v) for k, v in report.input_values.items()},
            "stages": [
                {"name": s.name, "status": s.status, "detail": s.detail}
                for s in report.stages
            ],
        }
        (out / "report.txt").write_text(report.render())
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out / "manifest.json"
