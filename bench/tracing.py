"""Outside-in layer tracing for the benchmark's traced run.

The tracer wraps public functions at each layer boundary by replacing module
attributes: every gapred module that holds one of the functions, under any
name, gets the wrapper, so calls between modules go through it. No source
file changes. Each wrapper records a span (name, start, end, parent span,
verdict id) in memory; `layer_metrics` turns the spans into per-layer counts
and self times, where a span's self time is its duration minus its
children's.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# Wrapped functions, by module. Parsers and emitters in gapred.instances are
# deliberately not wrapped: their time shows as run_pipeline self time (parse)
# and write_artifacts self time (emit plus write).
TRACED = {
    "pipelines": ("gen_planted_cnf", "gen_gap_cnf", "run_pipeline", "verify_pipeline",
                  "write_artifacts"),
    "cli": ("run_command",),
    "lc_transforms": ("cnf_to_labelcover", "compress_left", "compress_right",
                      "minlab_instance"),
    "dispersers": ("random_disperser", "deterministic_disperser", "verify_disperser"),
    "graph_reductions": ("fglss", "sat_to_dks", "minlab_to_setcov", "setcov_to_domset",
                         "biclique_gadget", "im_gadget", "is_to_im_gadget",
                         "clique_to_inducedpath"),
    "oracles": ("sat_max", "max_cov", "min_lab", "clique", "independent_set", "biclique",
                "set_cover", "dom_set", "induced_matching", "induced_path_at_least"),
}

LAYERS = tuple(TRACED)

# Per-layer metrics the traced run reports, with units. Self times are given
# as a share of the traced sweep time, so a function that a workload never
# calls reads 0 % rather than a constant time.
PER_LAYER = (
    [(f"oracles.{f}.{s}", u) for f in TRACED["oracles"]
     for s, u in (("calls", "count"), ("self_pct", "%"))]
    + [("oracles.repeat_calls", "count"),
       ("pipelines.gen_gap_cnf.self_pct", "%"), ("pipelines.gen_gap_cnf.attempts", "count")]
    + [(f"dispersers.{f}.{s}", u) for f in TRACED["dispersers"]
       for s, u in (("calls", "count"), ("self_pct", "%"))]
    + [(f"lc_transforms.{f}.self_pct", "%") for f in TRACED["lc_transforms"]]
    + [("lc_transforms.compress_left.kept_frac", "ratio"),
       ("lc_transforms.compress_right.kept_frac", "ratio")]
    + [(f"graph_reductions.{f}.self_pct", "%") for f in TRACED["graph_reductions"]]
    + [("pipelines.run_pipeline.calls", "count"), ("pipelines.run_pipeline.self_pct", "%"),
       ("pipelines.write_artifacts.self_pct", "%"), ("pipelines.write_artifacts.bytes", "B"),
       ("pipelines.verify_pipeline.self_pct", "%"), ("cli.run_command.self_pct", "%")]
    + [("ir.lc.relation_pairs", "count"), ("ir.lc.left_labels", "count"),
       ("ir.graph.vertices", "count"), ("ir.graph.edges", "count"),
       ("ir.setsystem.elements", "count")]
    + [(f"layer.{layer}.self_pct", "%") for layer in LAYERS]
    + [("layer.outside.self_pct", "%"), ("trace.sweep_ms", "ms"), ("trace.overhead_pct", "%"),
       ("trace.spans", "count")]
)


@contextlib.contextmanager
def patched(replacements: dict):
    """Point every gapred module's reference to each key at its value, then restore."""
    by_id = {id(orig): new for orig, new in replacements.items()}
    saved = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "gapred" or name.startswith("gapred."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            new = by_id.get(id(value))
            if new is not None:
                saved.append((module, attr, value))
                setattr(module, attr, new)
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def _decoder_ratio(source, out) -> tuple[int, int]:
    """(kept tuples, product of member admissible sizes) over a compression's super-vertices."""
    kept = product = 0
    for decoder in out.left_decoders or ():
        kept += len(decoder.labels)
        size = 1
        for u in decoder.members:
            size *= len(source.admissible[u])
        product += size
    return kept, product


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, verdict]
        self.stack: list[int] = []
        self.verdict = -1
        self.counts: Counter = Counter()
        self._solved: dict = {}  # (oracle, instance id, args) -> instance, per verdict
        self._sized: set = set()  # verdicts whose stage outputs were measured

    def start_verdict(self, verdict: int):
        self.verdict = verdict
        self._solved.clear()

    def _open(self, name: str) -> list:
        span = [name, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.verdict]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[2] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        module, func = name.split(".")
        observe = getattr(self, f"_observe_{func}", None)
        is_oracle = module == "oracles"

        def wrapper(*args, **kwargs):
            if is_oracle:
                self._note_oracle(func, args)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                # Bookkeeping is a span of its own, so it is not charged to the caller.
                span = self._open("trace.observe")
                try:
                    observe(args, result)
                finally:
                    self._close(span)
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self):
        replacements = {}
        for module, funcs in TRACED.items():
            mod = importlib.import_module(f"gapred.{module}")
            for func in funcs:
                replacements[getattr(mod, func)] = self.wrap(f"{module}.{func}", getattr(mod, func))
        with patched(replacements):
            yield self

    def _note_oracle(self, func, args):
        key = (func, id(args[0]), tuple(a for a in args[1:] if isinstance(a, (int, float))))
        if key in self._solved:
            self.counts["oracles.repeat_calls"] += 1
        else:
            self._solved[key] = args[0]  # keeps the instance alive, so its id stays unique

    def _observe_compress_left(self, args, result):
        kept, product = _decoder_ratio(args[0], result[0])
        self.counts["compress_left.kept"] += kept
        self.counts["compress_left.product"] += product

    def _observe_compress_right(self, args, result):
        kept, product = _decoder_ratio(args[0], result)
        self.counts["compress_right.kept"] += kept
        self.counts["compress_right.product"] += product

    def _observe_run_pipeline(self, args, run):
        if self.verdict in self._sized:
            return  # a verdict that runs its pipeline twice builds the same outputs
        self._sized.add(self.verdict)
        for kind, instance in zip(run.kinds[1:], run.instances[1:]):
            if kind == "lc":
                self.counts["ir.lc.relation_pairs"] += sum(map(len, instance.relations.values()))
                self.counts["ir.lc.left_labels"] += sum(map(len, instance.admissible.values()))
            elif kind == "graph":
                self.counts["ir.graph.vertices"] += instance.num_vertices
                self.counts["ir.graph.edges"] += instance.num_edges
            elif kind == "setsystem":
                self.counts["ir.setsystem.elements"] += instance.universe_size

    def _observe_write_artifacts(self, args, manifest_path):
        out = Path(manifest_path).parent
        self.counts["pipelines.write_artifacts.bytes"] += sum(
            p.stat().st_size for p in out.iterdir() if p.is_file())

    def write_spans(self, path: Path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, verdict) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "verdict": verdict}) + "\n")


def self_times(spans: list[list]) -> tuple[Counter, Counter]:
    """Per span name: call count and total self time in ns."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, self_ns = Counter(), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
    return calls, self_ns


def layer_metrics(tracer: Tracer, passes: int, traced_ns: int, untraced_ns: float) -> dict:
    """Per-layer metrics, per pass over the pool, in PER_LAYER order."""
    calls, self_ns = self_times(tracer.spans)
    names = [s[0] for s in tracer.spans]
    attempts = 0
    for name, _, _, parent, _ in tracer.spans:
        if name == "oracles.sat_max":
            while parent >= 0 and names[parent] != "pipelines.gen_gap_cnf":
                parent = tracer.spans[parent][3]
            attempts += parent >= 0
    counts = tracer.counts

    def pct(ns):
        return 100.0 * ns / traced_ns

    def ratio(key):
        product = counts[f"{key}.product"]
        return counts[f"{key}.kept"] / product if product else 0.0

    values = {}
    for name, _ in PER_LAYER:
        parts = name.split(".")
        stat = parts[-1]
        if name == "pipelines.gen_gap_cnf.attempts":
            value = attempts / passes
        elif parts[0] == "layer":
            if parts[1] == "outside":
                value = pct(traced_ns - sum(self_ns.values()))
            else:
                value = pct(sum(ns for n, ns in self_ns.items() if n.startswith(parts[1] + ".")))
        elif parts[0] == "trace":
            value = {"sweep_ms": traced_ns / passes / 1e6,
                     "overhead_pct": 100.0 * (traced_ns / passes - untraced_ns) / untraced_ns,
                     "spans": len(tracer.spans) / passes}[stat]
        elif stat == "kept_frac":
            value = ratio(parts[1])
        elif stat == "calls":
            value = calls[".".join(parts[:2])] / passes
        elif stat == "self_pct":
            value = pct(self_ns[".".join(parts[:2])])
        else:
            value = counts[name] / passes
        values[name] = value
    return values


def report_table(tracer: Tracer, passes: int, traced_ns: int) -> list[str]:
    """Human-readable per-function table: calls, self ms and share, per pass."""
    calls, self_ns = self_times(tracer.spans)
    lines = [f"  {'span':44s} {'calls':>10s} {'self_ms':>11s} {'self_%':>7s}"]
    for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:44s} {calls[name] / passes:10.1f} {ns / passes / 1e6:11.3f} "
                     f"{100.0 * ns / traced_ns:7.2f}")
    outside = traced_ns - sum(self_ns.values())
    lines.append(f"  {'(outside any span)':44s} {'':>10s} {outside / passes / 1e6:11.3f} "
                 f"{100.0 * outside / traced_ns:7.2f}")
    return lines
