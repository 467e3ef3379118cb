#!/usr/bin/env python3
"""Time-to-verdict benchmark for gapred (standard library only).

Run from the repository root:

    python3 bench/run.py --workload transform --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload oracle --seed 1 --seconds 15 --trace 1
    python3 bench/run.py --compare parent.jsonl change.jsonl
    python3 bench/run.py --record-digests

A run builds its workload's spec pool from --seed (see bench/workloads.py),
measures the set-up cost in fresh interpreters, runs each template once at
the benchmark's reference seed to check emitted instances against the
digests committed in bench/digests.json, and then makes whole passes over
the pool, one spec at a time in this process (a closed loop with one client),
until --seconds of measured time are done. Garbage is collected, untimed,
before each verdict. Every verdict is checked against the answer its
construction guarantees.

Times are reported at reference speed (bench/reference.py): before and after
every verdict the benchmark times a fixed piece of pure-Python work of its
own and scales the verdict's time by REFERENCE_MS over the kernel's mean time;
each set-up interpreter times the kernel itself once set up. The tables also
print the unscaled medians and the kernel's time.

With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
each sweep twice, untraced and then with every layer boundary wrapped
(bench/tracing.py), prints the per-layer table and the tracing overhead, and
writes the spans to .bench_out/. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where "failed"
counts runs that crashed, gave a wrong answer, or were refused although the
spec is not a frontier rung. The exit code is nonzero when any verdict,
oracle value or digest contradicts a known answer, or a run crashed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from reference import REFERENCE_MS, reference_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = Path(".bench_out")
DIGESTS = BENCH / "digests.json"
REFERENCE_SEED = 0  # the seed whose emitted instances are committed in digests.json
SETUP_REPEATS = 5  # set-up samples before the first pass and after each pass

END_TO_END = (
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.p90", "ms"),
    ("verdict_ms.gmean", "ms"),
    ("verdicts_per_s", "1/s"),
    ("decided_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Set-up as every CLI call pays it: import the package and load the specs. Then,
# untimed, the child times the reference kernel: it may run on another CPU than
# this process, and the two can differ in speed.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gapred.cli
from gapred.pipelines import PipelineSpec
for path in sys.argv[3:]:
    PipelineSpec.from_file(path)
setup_s = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from reference import REFERENCE_MS, reference_ns
kernel_ns = sorted(reference_ns() for _ in range(5))[2]
print(setup_s * REFERENCE_MS * 1e6 / kernel_ns)
"""



def _import_program():
    """Import gapred from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "gapred" / "__init__.py").is_file():
        raise SystemExit(f"bench: no gapred sources under {src}")
    sys.path.insert(0, str(src))
    import gapred

    if Path(gapred.__file__).resolve().parent != (src / "gapred").resolve():
        raise SystemExit(f"bench: imported gapred from {gapred.__file__}, not {src}")


@dataclass
class Sample:
    case: object
    ns: int
    status: str  # ok | refused | wrong | crash
    problems: list = field(default_factory=list)
    ref_ns: float = 0.0  # reference_kernel's time, the mean of one run just before and one after


@dataclass
class Tally:
    """What a run saw, beyond the timings."""

    wrong: list = field(default_factory=list)  # messages, one per wrong verdict or digest
    crashes: int = 0


def run_case(case, tally: Tally, tracer=None, verdict=0):
    """One verdict: time case.run(), then judge it. Returns (Sample, result)."""
    from gapred.errors import GapredError

    import workloads

    if tracer is not None:
        tracer.start_verdict(verdict)
    result = None
    t0 = time.perf_counter_ns()
    try:
        result = case.run()
    except GapredError as exc:
        ns = time.perf_counter_ns() - t0
        status, problems = workloads.classify_error(exc), [f"{type(exc).__name__}: {exc}"]
    except Exception as exc:  # a crash is counted and reported, and the run goes on
        ns = time.perf_counter_ns() - t0
        status, problems = "crash", [f"{type(exc).__name__}: {exc}"]
        if tally.crashes == 0:
            traceback.print_exc()
    else:
        ns = time.perf_counter_ns() - t0
        status, problems = case.judge(result)
    if status == "crash":
        tally.crashes += 1
    return Sample(case, ns, status, problems), result


def run_sweep(sweep, tally: Tally, first: dict, samples: list, tracer=None):
    """Run each case of one sweep once; a repeat must reproduce its first result."""
    for case in sweep:
        # Untimed: each verdict starts without the last one's garbage, so it pays for
        # its own collections only, and the peak RSS is that of one verdict.
        gc.collect()
        before = reference_ns()
        sample, result = run_case(case, tally, tracer, len(samples))
        sample.ref_ns = (before + reference_ns()) / 2
        if sample.status == "ok":
            signature = case.signature(result)
            if first.setdefault(case.name, signature) != signature:
                sample.status = "wrong"
                sample.problems = ["result differs from the first run of this spec"]
        if sample.status == "wrong":
            tally.wrong.append(f"{case.name}: {'; '.join(sample.problems)}")
        samples.append(sample)


def run_passes(sweeps, seconds: float, tally: Tally, between=None) -> tuple[list, int]:
    """Whole passes over the pool until `seconds` of measured time.

    Only whole passes, so every spec of the pool weighs the same in the
    percentiles however fast the machine runs. `between()` runs after each
    pass, outside the measured time. Returns the samples and the pass count.
    """
    samples, first, measured, done = [], {}, 0.0, 0
    while done % len(sweeps) or measured < seconds:
        begin = time.perf_counter()
        run_sweep(sweeps[done % len(sweeps)], tally, first, samples)
        measured += time.perf_counter() - begin
        done += 1
        if between is not None and done % len(sweeps) == 0:
            between()
    return samples, done // len(sweeps)


def probe(workload, work: Path, tally: Tally, check_digests: bool = True) -> dict:
    """Run each template once at the reference seed, untimed; check digests. Warms caches too."""
    import workloads
    from gapred import pipelines
    from tracing import patched

    committed = json.loads(DIGESTS.read_text()).get(workload.name, {}) if DIGESTS.exists() else {}
    found = {}
    for case in workloads.build(workload, REFERENCE_SEED, work / "ref", draws=1)[0]:
        case.load()
        runs = []
        original = pipelines.run_pipeline

        def capture(spec):
            runs.append(original(spec))
            return runs[-1]

        with patched({original: capture}):
            sample, _ = run_case(case, tally)
        if sample.status == "wrong":
            tally.wrong.append(f"reference {case.name}: {'; '.join(sample.problems)}")
        if sample.status != "ok":
            found[case.template.name] = None
            continue
        if case.template.command is None:
            digests = workloads.digest_run(runs[0])
        else:
            digests = workloads.digest_dir(case.out_dir)
        found[case.template.name] = digests
        want = committed.get(case.template.name)
        if check_digests and want is not None and want != digests:
            changed = sorted(k for k in set(want) | set(digests) if want.get(k) != digests.get(k))
            tally.wrong.append(f"reference {case.name}: emitted instances changed: {changed}")
    return found


def measure_setup(spec_paths, times: list, repeats: int = SETUP_REPEATS):
    """Time `repeats` fresh interpreters that import gapred and load the specs.

    Each time is at reference speed, scaled by the median of five kernel runs
    in the same child.
    """
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(ROOT / "src"), str(BENCH),
           *map(str, spec_paths)]
    for _ in range(repeats):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip()))


def at_reference_speed(samples) -> list[float]:
    """Each verdict's time in ms, scaled by the kernel timed just before and after it."""
    return [s.ns / 1e6 * REFERENCE_MS * 1e6 / s.ref_ns for s in samples]


def tail(values: list[float]) -> tuple[float, float]:
    """The 90th percentile, or the highest one with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, min(math.ceil(0.9 * n), n - 10))
    return ordered[rank - 1], rank / n


def end_to_end(samples, limit_ms: float, setup_times: list) -> tuple[dict, list[str]]:
    """The end-to-end metrics, at reference speed."""
    scaled = at_reference_speed(samples)
    kernel_ms = statistics.median(s.ref_ns for s in samples) / 1e6
    charged = [ms if s.status == "ok" else max(ms, limit_ms) for s, ms in zip(samples, scaled)]
    per_spec = defaultdict(list)
    for sample, ms in zip(samples, charged):
        per_spec[sample.case.name].append(ms)
    ok = sum(s.status == "ok" for s in samples)
    p90, level = tail(charged)
    values = {
        "verdict_ms.p50": statistics.median(charged),
        "verdict_ms.p90": p90,
        "verdict_ms.gmean": math.exp(statistics.fmean(
            math.log(statistics.median(v)) for v in per_spec.values())),
        "verdicts_per_s": ok / (sum(scaled) / 1e3),
        "decided_frac": ok / len(samples),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"verdict_ms.p90 is the {100 * level:.1f}th percentile of {len(samples)} samples "
             f"over {len(per_spec)} specs; refusals are charged {limit_ms:.0f} ms",
             f"times are at reference speed; reference_kernel took {kernel_ms:.3f} ms "
             f"(median), {REFERENCE_MS} ms at reference speed",
             f"  {'template':16s} {'runs':>5s} {'median_ms':>10s} {'max_ms':>10s} "
             f"{'raw_median':>10s}  outcomes"]
    by_template = defaultdict(list)
    for sample, ms in zip(samples, scaled):
        by_template[sample.case.template.name].append((sample, ms))
    for name, group in by_template.items():
        times = [ms for _, ms in group]
        raw = statistics.median(s.ns / 1e6 for s, _ in group)
        outcomes = defaultdict(int)
        for s, _ in group:
            outcomes[s.status] += 1
        notes.append(f"  {name:16s} {len(group):5d} {statistics.median(times):10.2f} "
                     f"{max(times):10.2f} {raw:10.2f}  {dict(outcomes)}")
    return values, notes


def measure(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = OUT / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    try:
        sweeps = workloads.build(workload, args.seed, work)
        cases = [case for sweep in sweeps for case in sweep]
        spec_paths = [case.spec_path for case in cases]
        setup_times = []
        # The first child also writes the bytecode cache; users pay that once, so it is dropped.
        measure_setup(spec_paths, [], repeats=1)
        for case in cases:
            case.load()
        probe(workload, work, tally)
        if args.trace:
            metrics, lines, samples = traced(workload, sweeps, args, tally)
        else:
            # Set-up samples are spread over the run, so a slow spell of the machine
            # does not hit all of them.
            measure_setup(spec_paths, setup_times)
            samples, passes = run_passes(sweeps, args.seconds, tally,
                                         lambda: measure_setup(spec_paths, setup_times))
            values, notes = end_to_end(samples, workload.limit_ms, setup_times)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            lines = [f"{passes} passes over {len(cases)} specs; setup_s is the median of "
                     f"{len(setup_times)} fresh interpreters"] + notes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    refused = sum(s.status == "refused" for s in samples)
    failed = sum(s.status in ("wrong", "crash")
                 or (s.status == "refused" and not s.case.template.frontier) for s in samples)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.4f} {m['unit']}")
    ok = sum(s.status == "ok" for s in samples)
    print(f"  {'failed_frac':44s} {1 - ok / len(samples):14.4f} ratio  "
          f"({refused} refused, {failed} failed of {len(samples)} runs)")
    print(f"  {'wrong_verdicts':44s} {len(tally.wrong):14d} count")
    for message in tally.wrong[:20]:
        print(f"    wrong: {message}")
    correct = not tally.wrong and not tally.crashes
    result = {"correct": correct, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    if args.append:
        with open(args.append, "a") as fh:
            fh.write(json.dumps({"workload": workload.name, "seed": args.seed,
                                 "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def traced(workload, sweeps, args, tally):
    """Each sweep runs untraced, then traced, so drift in machine speed hits both alike.

    Passes continue until --seconds have gone by, counting a traced and an
    untraced pass as one, so the run lasts about as long as an untraced run.
    """
    from tracing import PER_LAYER, Tracer, layer_metrics, report_table

    plain, samples, first, passes = [], [], {}, 0
    tracer = Tracer()
    begin = time.perf_counter()
    while passes == 0 or time.perf_counter() - begin < args.seconds / 2:
        for sweep in sweeps:
            run_sweep(sweep, tally, first, plain)
            with tracer.active():
                run_sweep(sweep, tally, first, samples, tracer)
        passes += 1
    untraced_ns = sum(s.ns for s in plain) / passes
    traced_ns = sum(s.ns for s in samples)
    values = layer_metrics(tracer, passes, traced_ns, untraced_ns)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_spans(span_file)
    lines = [f"{passes} untraced and {passes} traced passes over {len(plain) // passes} specs; "
             f"{len(tracer.spans)} spans written to {span_file}",
             f"tracing overhead: {values['trace.overhead_pct']:+.1f} % of the untraced "
             f"pass ({untraced_ns / 1e6:.1f} ms untraced, {traced_ns / passes / 1e6:.1f} ms "
             f"traced)",
             "per-layer self time, per pass:"] + report_table(tracer, passes, traced_ns)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, lines, plain + samples


def record_digests() -> int:
    """Rewrite digests.json from the reference seed; for a change that means to alter outputs."""
    import workloads

    table = {}
    for name, workload in workloads.WORKLOADS.items():
        work = OUT / "work" / name
        shutil.rmtree(work, ignore_errors=True)
        tally = Tally()
        try:
            table[name] = probe(workload, work, tally, check_digests=False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if tally.wrong or tally.crashes:
            print("\n".join(tally.wrong), file=sys.stderr)
            return 1
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("transform", "oracle", "compile"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", metavar="FILE",
                        help="also append this run's result, tagged, to a JSONL result set")
    parser.add_argument("--compare", nargs="+", metavar="SET",
                        help="summarise one result set, or compare a parent and a change")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite bench/digests.json at the reference seed")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(BENCH))
    if args.compare:
        import compare

        return compare.main(args.compare, ROOT / "BENCHMARK.json")
    _import_program()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
