"""The benchmark's workloads: seeded pools of pipeline specs with known answers.

A workload is a tuple of templates. A template is one reduction chain at fixed
sizes; the workload seed draws `draws` instances of it (the pool). Every known
answer comes from how an instance was built (a planted assignment, a planted
clique, the generator's certified gap, a construction's vertex count), never
from the stage under test. The program under test receives only the spec
files and input files written here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gapred
from gapred import cli, pipelines
from gapred.errors import BudgetExceededError, GenerationError, SizeCapError

# Outcomes that count as "no verdict" rather than a wrong one.
REFUSALS = (SizeCapError, BudgetExceededError, GenerationError)

EMITTERS = {
    "cnf": gapred.emit_cnf,
    "lc": gapred.emit_labelcover,
    "graph": gapred.emit_graph,
    "setsystem": gapred.emit_setsystem,
}


@dataclass(frozen=True)
class Template:
    """One reduction chain at fixed sizes.

    `make(rng, inputs)` returns (spec dict, facts): the pipeline spec the
    program reads, and what construction guarantees about its answer.
    `command` is None for in-process `verify_pipeline`, else the CLI
    subcommand. A `frontier` template is one the size cap refuses today; its
    refusal lowers decided_frac but does not count as a failed operation.
    """

    name: str
    why: str
    make: Callable[[random.Random, Path], tuple[dict, dict]]
    draws: int
    command: str | None = None
    frontier: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    limit_ms: float  # charged to every refused, crashed or wrong spec run
    templates: tuple[Template, ...]


@dataclass
class Case:
    """One drawn instance of a template."""

    template: Template
    draw: int
    spec_path: Path
    facts: dict
    out_dir: Path
    spec: object = None  # the loaded PipelineSpec (in-process cases)

    @property
    def name(self) -> str:
        return f"{self.template.name}#{self.draw}"

    def load(self):
        if self.template.command is None:
            self.spec = pipelines.PipelineSpec.from_file(self.spec_path)

    def run(self):
        """The timed call: one verdict. Returns a VerifyReport or an exit code."""
        if self.template.command is None:
            return pipelines.verify_pipeline(self.spec)
        argv = [self.template.command, str(self.spec_path), "--out", str(self.out_dir)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.run_command(argv)

    def judge(self, result) -> tuple[str, list[str]]:
        """Classify one run as ok / refused / wrong against the known answer."""
        if self.template.command is None:
            if result.overall == "inconclusive":
                return "refused", []
            problems = _check_report(result, self.facts)
        elif result == 3:
            return "refused", []
        elif result == 2:
            return "crash", ["exit code 2: parse or validation error"]
        else:
            problems = _check_artifacts(result, self.out_dir, self.facts)
        return ("wrong" if problems else "ok"), problems

    def signature(self, result):
        """What must repeat exactly when the same spec runs again."""
        if self.template.command is None:
            return tuple((s.status, s.detail) for s in result.stages)
        return result


def classify_error(exc: BaseException) -> str:
    return "refused" if isinstance(exc, REFUSALS) else "crash"


# ---------------------------------------------------------------------------
# Known-answer checks


_OPS = {
    "==": lambda got, want: got == want,
    "<=": lambda got, want: got is not None and got <= want,
    ">=": lambda got, want: got is not None and got >= want,
}


def _check_report(report, facts: dict) -> list[str]:
    problems = []
    if report.overall != facts["overall"]:
        problems.append(f"overall {report.overall}, want {facts['overall']}")
    for where, key, op, want in facts.get("values", ()):
        if where != "input" and where >= len(report.stages):
            problems.append(f"no stage {where} in the report")
            continue
        values = report.input_values if where == "input" else report.stages[where].values
        got = values.get(key)
        if not _OPS[op](got, want):
            problems.append(f"{where}.{key} = {got!r}, want {op} {want!r}")
    return problems


def _check_artifacts(code: int, out_dir: Path, facts: dict) -> list[str]:
    problems = []
    if code != facts["exit"]:
        return [f"exit code {code}, want {facts['exit']}"]
    for name, want in facts.get("headers", {}).items():
        with open(out_dir / name) as fh:
            got = fh.readline().strip()
        if got != want:
            problems.append(f"{name} header {got!r}, want {want!r}")
    if "verification" in facts:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        got = manifest.get("verification", {})
        want = facts["verification"]
        if got.get("overall") != want["overall"]:
            problems.append(f"verification {got.get('overall')}, want {want['overall']}")
        details = [s["detail"] for s in got.get("stages", ())]
        for idx, fragment in want["details"]:
            if idx >= len(details) or fragment not in details[idx]:
                problems.append(f"stage {idx} detail lacks {fragment!r}")
    return problems


# ---------------------------------------------------------------------------
# Output identity: digests of every emitted stage instance


def _sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]


def digest_run(run) -> dict[str, str]:
    """Digest each stage instance of a PipelineRun with the public emitters."""
    out = {}
    for idx, (kind, instance) in enumerate(zip(run.kinds, run.instances)):
        out[f"stage{idx:02d}.{kind}"] = _sha(EMITTERS[kind](instance))
    for idx, extra in enumerate(run.extras):
        if "disperser" in extra:
            out[f"stage{idx + 1:02d}.disp"] = _sha(gapred.emit_disperser(extra["disperser"]))
    return out


def digest_dir(out_dir: Path) -> dict[str, str]:
    return {p.name: _sha(p.read_bytes()) for p in sorted(out_dir.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# Spec and input generators


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _spec(seed: int, inp: dict, stages: list[dict], limit_ms: float) -> dict:
    # The per-call budget keeps a runaway oracle inside the refusal charge.
    return {"seed": seed, "input": inp, "stages": stages,
            "budget": {"max_millis": int(limit_ms)}}


def _write_graph(path: Path, graph) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(gapred.emit_graph(graph))
    return str(path)


def _planted_graph(n: int, p: float, rng: random.Random, clique: int = 0, independent: int = 0):
    """G(n, p) with a planted clique or a planted independent set."""
    base = gapred.random_graph(n, p, _seed(rng))
    edges = set(base.edges)
    members = sorted(rng.sample(range(n), max(clique, independent)))
    pairs = {(a, b) for a in members for b in members if a < b}
    edges = edges | pairs if clique else edges - pairs
    return gapred.Graph(n, frozenset(edges))


def _max_below(eps: float, m: int) -> int:
    """Largest integer strictly below (1 - eps) * m, as the gap generator certifies."""
    return math.ceil((1 - Fraction(eps)) * m) - 1


def compress_left_chain(n, m, k, limit_ms, disperser="random"):
    """Planted CNF -> cnf2lc -> compress-left -> fglss.

    Planted means satisfiable, so sat_max = m, the compressed instance covers
    all k super-vertices, and its FGLSS graph has a k-clique.
    """
    def make(rng, inputs):
        stages = [{"op": "cnf2lc"},
                  {"op": "compress-left", "k": k, "r": 2, "epsilon": 0.5,
                   "disperser": disperser},
                  {"op": "fglss"}]
        facts = {"overall": "pass",
                 "values": [("input", "sat_max", "==", m), (0, "max_cov", "==", m),
                            (1, "value_out", "==", k), (2, "clique", "==", k)]}
        return _spec(_seed(rng), {"kind": "gen-planted", "n": n, "m": m}, stages, limit_ms), facts
    return make


def compress_right_chain(n, m, q, gamma, eps, limit_ms):
    """Planted CNF -> cnf2lc -> compress-right: every one of the C(m, ell) left subsets is covered."""
    ell = max(1, math.ceil(math.log(1.0 / gamma) / eps))

    def make(rng, inputs):
        stages = [{"op": "cnf2lc"},
                  {"op": "compress-right", "q": q, "gamma": gamma, "epsilon": eps}]
        facts = {"overall": "pass",
                 "values": [("input", "sat_max", "==", m),
                            (1, "value_out", "==", math.comb(m, ell))]}
        return _spec(_seed(rng), {"kind": "gen-planted", "n": n, "m": m}, stages, limit_ms), facts
    return make


def minlab_chain(n, m, q, r, eps, limit_ms):
    """Planted CNF -> cnf2lc -> minlab -> minlab2setcov -> setcov2domset: all equal q."""
    def make(rng, inputs):
        stages = [{"op": "cnf2lc"}, {"op": "minlab", "q": q, "r": r, "epsilon": eps},
                  {"op": "minlab2setcov"}, {"op": "setcov2domset"}]
        facts = {"overall": "pass",
                 "values": [("input", "sat_max", "==", m), (1, "value_out", "==", q),
                            (2, "set_cover", "==", q), (3, "dom_set", "==", q)]}
        return _spec(_seed(rng), {"kind": "gen-planted", "n": n, "m": m}, stages, limit_ms), facts
    return make


def dks_chain(n, m, ell, limit_ms):
    """Planted CNF -> sat2dks: C(n, ell) * 2^ell vertices, witness restrictions pairwise adjacent."""
    def make(rng, inputs):
        stages = [{"op": "sat2dks", "ell": ell}]
        facts = {"overall": "pass",
                 "values": [(0, "num_vertices", "==", math.comb(n, ell) << ell)]}
        return _spec(_seed(rng), {"kind": "gen-planted", "n": n, "m": m}, stages, limit_ms), facts
    return make


def gap_chain(n, m, eps, limit_ms):
    """Gap CNF -> cnf2lc: the generator certifies sat_max < (1 - eps) * m."""
    def make(rng, inputs):
        below = _max_below(eps, m)
        facts = {"overall": "pass",
                 "values": [("input", "sat_max", "<=", below), (0, "max_cov", "<=", below)]}
        inp = {"kind": "gen-gap", "n": n, "m": m, "epsilon": eps}
        return _spec(_seed(rng), inp, [{"op": "cnf2lc"}], limit_ms), facts
    return make


def graph_chain(op, n, p, limit_ms, clique=0, independent=0, params=None, values=()):
    """Seeded graph file with a planted clique or independent set -> one gadget."""
    def make(rng, inputs):
        graph = _planted_graph(n, p, rng, clique=clique, independent=independent)
        path = _write_graph(inputs.with_suffix(".graph"), graph)
        facts = {"overall": "pass", "values": list(values)}
        stage = {"op": op, **(params or {})}
        return _spec(_seed(rng), {"kind": "graph-file", "path": path}, [stage], limit_ms), facts
    return make


def bipartite_ipath_chain(nh, k, limit_ms):
    """clique2ipath at q=1 on a random bipartite H: clique(H) <= 2 < k, so no induced
    path exceeds 4(k-1) vertices (the q=1 bound that holds).

    H has exactly half of the cross pairs as edges; a binomial edge count would
    move the search's cost from draw to draw by more than the bound allows.
    """
    def make(rng, inputs):
        half = nh // 2
        pairs = [(a, b) for a in range(half) for b in range(half, nh)]
        edges = frozenset(rng.sample(pairs, len(pairs) // 2))
        path = _write_graph(inputs.with_suffix(".graph"), gapred.Graph(nh, edges))
        stage = {"op": "clique2ipath", "k": k, "q": 1}
        return _spec(_seed(rng), {"kind": "graph-file", "path": path}, [stage], limit_ms), {
            "overall": "pass", "values": [(0, "clique", "<=", 2)]}
    return make


def criterion8_chain(limit_ms):
    """clique2ipath k=2, q=2 on an edgeless H: the stated 4(k-1) bound is refuted (FAIL)."""
    def make(rng, inputs):
        graph = gapred.Graph(rng.randint(1, 3))
        path = _write_graph(inputs.with_suffix(".graph"), graph)
        stage = {"op": "clique2ipath", "k": 2, "q": 2}
        return _spec(_seed(rng), {"kind": "graph-file", "path": path}, [stage], limit_ms), {
            "overall": "fail", "values": [(0, "clique", "<=", 1)]}
    return make


# Compile workload inputs: one dense graph and one large CNF per draw, shared by
# the templates of that draw.

def _shared(inputs: Path, name: str, build: Callable[[], str]) -> Path:
    path = inputs.parent / name
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(build())
    return path


def _compile_graph(inputs: Path, draw_seed: int, n: int) -> tuple[Path, int]:
    name = f"g{n}-{draw_seed}.graph"
    path = _shared(inputs, name, lambda: gapred.emit_graph(gapred.random_graph(n, 0.5, draw_seed)))
    with open(path) as fh:
        edges = int(fh.readline().split()[3])
    return path, edges


def gadget_pipeline(op, n, limit_ms):
    """CLI `pipeline --out` on a seeded G(n, 1/2) file; the gadget's size is fixed by construction."""
    def make(rng, inputs):
        path, e = _compile_graph(inputs, rng.draw_seed, n)
        out_edges = {"biclique-gadget": n + 2 * e,
                     "im-gadget": n + 2 * (n * (n - 1) // 2 - e),
                     "is2im": e + n}[op]
        facts = {"exit": 0, "headers": {"stage01.graph": f"p edge {2 * n} {out_edges}"}}
        spec = _spec(rng.draw_seed, {"kind": "graph-file", "path": str(path)}, [{"op": op}],
                     limit_ms)
        return spec, facts
    return make


def cnf_pipeline(n, m, limit_ms):
    """CLI `pipeline --out` lowering a seeded random 3-CNF file to label cover."""
    def make(rng, inputs):
        path = _shared(inputs, f"cnf{n}-{rng.draw_seed}.cnf",
                       lambda: gapred.emit_cnf(gapred.random_cnf(n, m, rng.draw_seed)))
        facts = {"exit": 0, "headers": {"stage01.lc": f"lc {m} {n} 8 2"}}
        spec = _spec(rng.draw_seed, {"kind": "cnf-file", "path": str(path)},
                     [{"op": "cnf2lc"}], limit_ms)
        return spec, facts
    return make


def verify_out_chain(n, m, k, limit_ms):
    """CLI `verify --out` on a small planted clique chain (runs the pipeline twice today)."""
    def make(rng, inputs):
        stages = [{"op": "cnf2lc"},
                  {"op": "compress-left", "k": k, "r": 2, "epsilon": 0.2},
                  {"op": "fglss"}]
        facts = {"exit": 0,
                 "verification": {"overall": "pass",
                                  "details": [(0, f"sat_max={m}, max_cov={m}"),
                                              (1, f"max_cov={k}, want {k}"),
                                              (2, f"clique={k}")]}}
        return _spec(_seed(rng), {"kind": "gen-planted", "n": n, "m": m}, stages, limit_ms), facts
    return make


# ---------------------------------------------------------------------------
# The workloads

# Per-spec limits, charged to a refused, crashed or wrong run: about ten times
# the slowest template's verdict. A run makes whole passes over its pool (8 to 12 s
# each at reference speed). The workload seed moves most templates' cost, so draw
# counts are high, and the in-process pools hold at least 100 specs, so that the
# p90 is the 90th percentile of the pool rather than its 11th-highest verdict.
# Draw counts also keep the p50 and p90 inside dense bands of verdict times: a
# percentile that falls in the gap between two templates' bands jumps with the seed.
_T_LIMIT = 3000.0
_O_LIMIT = 3000.0
_C_LIMIT = 5000.0

TRANSFORM = Workload(
    "transform",
    "In-process verify of planted chains whose time goes to lc_transforms and graph_reductions; "
    "2 frontier rungs are size-capped. Refusals charged 3000 ms",
    _T_LIMIT,
    (
        Template("cl-k3", "left compression, 3 super-vertices of 7^5 product tuples each",
                 compress_left_chain(7, 5, 3, _T_LIMIT), draws=12),
        Template("cl-k4", "left compression at k=4; kept tuples, hence fglss and oracle "
                 "cost, depend on the formula",
                 compress_left_chain(7, 5, 4, _T_LIMIT), draws=11),
        Template("cl-k5", "left compression at k=5 (7^5 tuples each)",
                 compress_left_chain(7, 5, 5, _T_LIMIT), draws=20),
        Template("cl-det", "deterministic disperser search plus its exhaustive verification",
                 compress_left_chain(7, 5, 4, _T_LIMIT, disperser="deterministic"),
                 draws=11),
        Template("cr", "right compression: 70 left subsets of 7^4 product tuples, 2 merged "
                 "blocks; the slowest template by far, so it has few draws: at about 10 % of "
                 "the samples it would put the p90 on the edge of its own cluster",
                 compress_right_chain(10, 8, 2, 0.3, 0.4, _T_LIMIT), draws=4),
        Template("minlab", "MinLab instance then hypercube set cover and dominating set; "
                 "its set_cover and dom_set calls are most of this workload's oracle time, "
                 "which is kept under a tenth",
                 minlab_chain(8, 7, 1, 2, 0.3, _T_LIMIT), draws=12),
        Template("dks", "partial-assignment graph at ell=3 and its witness check; its size "
                 "does not depend on the seed, and with cl-k5 and minlab it makes the dense "
                 "band of verdict times in which the p50 falls",
                 dks_chain(7, 6, 3, _T_LIMIT), draws=28),
        Template("front-n9", "frontier: 7^7 = 823,543 product tuples exceed the 500,000 size cap",
                 compress_left_chain(9, 7, 4, _T_LIMIT), draws=1, frontier=True),
        Template("front-n10", "frontier: 7^8 = 5,764,801 product tuples exceed the size cap",
                 compress_left_chain(10, 8, 4, _T_LIMIT), draws=1, frontier=True),
    ),
)

ORACLE = Workload(
    "oracle",
    "In-process verify of specs whose time goes to the exact oracles, the gen-gap rejection "
    "loop and repeated oracle calls. Refusals charged 3000 ms",
    _O_LIMIT,
    (
        Template("gap-n10", "gen-gap rejection sampling at n=10: a dozen 2^10 sat_max calls "
                 "per draw (geometric in the seed, hence many draws)",
                 gap_chain(10, 10, 0.15, _O_LIMIT), draws=30),
        Template("gap-n13", "gen-gap at n=13 through cnf2lc: full 2^13 sat_max and max_cov "
                 "enumerations, few rejections",
                 gap_chain(13, 18, 0.1, _O_LIMIT), draws=20),
        Template("bic", "biclique gadget: 2^16 subset DP for biclique of the source",
                 graph_chain("biclique-gadget", 16, 0.5, _O_LIMIT, clique=4,
                             values=[(0, "clique", ">=", 4), (0, "biclique_out", ">=", 4)]),
                 draws=20),
        Template("im", "induced-matching gadget: 2^17 biclique DP plus induced_matching",
                 graph_chain("im-gadget", 17, 0.5, _O_LIMIT, clique=4,
                             values=[(0, "clique", ">=", 4), (0, "im_out", ">=", 4)]),
                 draws=20),
        Template("ipath", "clique2ipath k=4, q=1 on a bipartite (so K4-free) H of 14 vertices: "
                 "induced_path_at_least must exhaust its search",
                 bipartite_ipath_chain(14, 4, _O_LIMIT), draws=20),
        Template("is2im", "pendant gadget on G(50, 0.3) with a planted 8-independent set: "
                 "independent_set and induced_matching via clique",
                 graph_chain("is2im", 50, 0.3, _O_LIMIT, independent=8,
                             values=[(0, "mis", ">=", 8), (0, "im", ">=", 8)]),
                 draws=20),
        Template("minlab", "min_lab, set_cover and dom_set on a small MinLab chain",
                 minlab_chain(6, 5, 1, 2, 0.3, _O_LIMIT), draws=20),
        Template("crit8", "known FAIL: the criterion-8 counterexample must stay a FAIL",
                 criterion8_chain(_O_LIMIT), draws=4),
    ),
)

COMPILE = Workload(
    "compile",
    "CLI runs with --out on large generated files: parse, gadget, emit and write_artifacts; "
    "verify --out runs the pipeline twice. Refusals charged 5000 ms",
    _C_LIMIT,
    (
        Template("biclique-gadget", "B_e[G] of a 400-vertex G(n,1/2) file",
                 gadget_pipeline("biclique-gadget", 400, _C_LIMIT), draws=6, command="pipeline"),
        Template("im-gadget", "B_e[complement G] of the same file",
                 gadget_pipeline("im-gadget", 400, _C_LIMIT), draws=6, command="pipeline"),
        Template("is2im", "pendant gadget of the same file",
                 gadget_pipeline("is2im", 400, _C_LIMIT), draws=6, command="pipeline"),
        Template("cnf2lc", "a 300-variable, 1,500-clause 3-CNF file lowered to label cover",
                 cnf_pipeline(300, 1500, _C_LIMIT), draws=6, command="pipeline"),
        Template("verify-out", "verify --out on a small planted clique chain",
                 verify_out_chain(6, 5, 3, _C_LIMIT), draws=6, command="verify"),
    ),
)

WORKLOADS = {w.name: w for w in (TRANSFORM, ORACLE, COMPILE)}


class _DrawRandom(random.Random):
    """A template's generator, plus the seed shared by every template of one draw."""

    def __init__(self, key: str, draw_seed: int):
        super().__init__(key)
        self.draw_seed = draw_seed


def build(workload: Workload, seed: int, work: Path, draws: int | None = None) -> list[list[Case]]:
    """Write the pool's specs and inputs under `work`; return it as sweeps.

    Sweep d holds draw d of every template that has one, so a pass over all
    sweeps runs each drawn spec once.
    """
    count = draws or max(t.draws for t in workload.templates)
    sweeps: list[list[Case]] = [[] for _ in range(count)]
    for t in workload.templates:
        for d in range(min(count, draws or t.draws)):
            draw_seed = random.Random(f"{workload.name}/{seed}/{d}").randrange(2**31)
            rng = _DrawRandom(f"{workload.name}/{t.name}/{seed}/{d}", draw_seed)
            spec, facts = t.make(rng, work / "inputs" / f"{t.name}-{d}")
            spec_path = work / "specs" / f"{t.name}-{d}.json"
            spec_path.parent.mkdir(parents=True, exist_ok=True)
            spec_path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")
            sweeps[d].append(Case(t, d, spec_path, facts, work / "out" / t.name))
    return sweeps
