"""ruledgeom benchmark: closed loop, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Run from anywhere; the working directory becomes the checkout root and
every file the benchmark writes goes under .bench_out/ there.  The
program is imported from src/ of the same checkout, never from an
installed copy.

One caller issues one operation, waits for its result and checks it
before issuing the next (see workloads.py for the operations and the
output gate).  Set-up -- a fresh interpreter importing the program plus
generating the seeded inputs -- runs SETUP_REPS times; one untimed
warm-up operation follows; then operations run for --seconds, in whole
cycles of the workload's rotation, each followed by passes of the
workload's reference loop (reference.py).

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 the run is traced (spans.py) and it
carries the per-layer metrics, as per-operation means over the measured
operations.  The line before it is a JSON report with sample counts, tail
percentiles, the environment stamp and any failures.  --record-golden
rewrites golden.json from the current tree at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")
GOLDEN = HERE / "golden.json"
SETUP_REPS = 5
# After each operation the reference loop runs for about this share of
# the operation's time, at least once; the median pass is its pair.
REFERENCE_SHARE = 0.1
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import ruledgeom.cli"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Put the checkout's src/ first on sys.path and import ruledgeom."""
    if not (SRC / "ruledgeom" / "__init__.py").is_file():
        fail(f"no ruledgeom package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ruledgeom
    if Path(ruledgeom.__file__).resolve().parent != SRC / "ruledgeom":
        fail(f"imported ruledgeom from {ruledgeom.__file__}, not {SRC}")


def summary(values: list[float]) -> dict:
    """Unit, sample count, median, and the highest of p90/p99/p99.9 that
    has at least ten samples beyond it (absent when there are too few)."""
    out = {"unit": "s", "n": len(values), "median": statistics.median(values)}
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = ordered[int(len(values) * p / 100.0)]
            break
    return out


def setup(seed: int, reps: int) -> tuple[list[float], dict]:
    import inputs
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                       check=True, timeout=120)
        made = inputs.write_inputs(seed, OUT / "inputs")
        times.append(time.perf_counter() - start)
    return times, made


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def measure(wl, seconds: float, tracer=None) -> tuple[list, list, float]:
    """Run operations 1, 2, ... until `seconds` have passed and the
    workload's rotation is complete (operation 0 is the warm-up).  Returns
    the outcomes, the median reference pass after each, and the wall
    time."""
    outcomes, refs = [], []
    start = time.perf_counter()
    while True:
        i = len(outcomes) + 1
        if tracer is None:
            outcomes.append(wl.run(i))
        else:
            tracer.op = i
            with tracer.span("op"):
                outcomes.append(wl.run(i))
        passes = [wl.reference_loop()]
        while sum(passes) < REFERENCE_SHARE * outcomes[-1].seconds:
            passes.append(wl.reference_loop())
        refs.append(statistics.median(passes))
        if (time.perf_counter() - start >= seconds
                and len(outcomes) % len(wl.steps) == 0):
            return outcomes, refs, time.perf_counter() - start


def by_step(values: list[float], steps: tuple) -> dict[str, list[float]]:
    """Per-operation values grouped by the step of the workload's
    rotation (values[0] is operation 1; operation 0 was the warm-up)."""
    out: dict[str, list[float]] = {name: [] for name in steps}
    for i, v in enumerate(values, start=1):
        out[steps[i % len(steps)]].append(v)
    return out


def best_op(outcomes: list, steps: tuple) -> float:
    """Geometric mean over the workload's rotation of each step's fastest
    run, so that each step weighs the same whatever its length."""
    return statistics.geometric_mean(
        min(t) for t in by_step([o.seconds for o in outcomes], steps).values())


def op_vs_ref(outcomes: list, refs: list[float], steps: tuple) -> float:
    """Geometric mean over the workload's rotation of each step's median
    ratio of an operation's time to the reference passes right after it.

    The host's speed drifts by up to 2x over minutes, which moves any
    one run's times, fastest or median; the reference pass slows with it,
    so the paired ratio moves only with the program (see reference.py)."""
    ratios = [o.seconds / r for o, r in zip(outcomes, refs)]
    return statistics.geometric_mean(
        statistics.median(v) for v in by_step(ratios, steps).values())


def per_layer(bench: dict, tracer, outcomes: list, refs: list[float],
              steps: tuple) -> dict:
    """Per-operation means of the traced layer stats, in BENCHMARK.json's
    per_layer order; a layer the workload never entered reads 0."""
    import spans
    stats = spans.layer_stats(tracer.spans)
    n_ops = len(outcomes)
    compared = stats.get("offsets.verify_offset.n", 0.0)
    derived = {
        "offsets.compared_ratio": (stats.get("offsets.verify_offset.n_valid",
                                             0.0) / compared
                                   if compared else 0.0),
        "traced.op_vs_ref": op_vs_ref(outcomes, refs, steps),
        "trace.spans": (len(tracer.spans) - n_ops) / n_ops,
    }
    known = spans.known_names()
    metrics = {}
    for m in bench["per_layer"]:
        name = m["name"]
        if name in derived:
            value = derived[name]
        else:
            base, _, stat = name.rpartition(".")
            if base not in known or stat not in spans.STATS:
                fail(f"per_layer metric {name!r} names no traced span")
            value = stats.get(name, 0.0) / n_ops
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def tally(outcomes: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): an operation with any problem is a
    failed one."""
    failed = sum(1 for o in outcomes if o.problems)
    return len(outcomes), failed, [p for o in outcomes for p in o.problems]


def record_golden() -> None:
    import_program()
    import inputs
    import workloads
    os.chdir(ROOT)
    made = inputs.write_inputs(inputs.DEFAULT_SEED, OUT / "inputs")
    doc = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, made, OUT, None)
        if not isinstance(wl, workloads.CliWorkload):
            continue
        for i in range(len(wl.commands)):
            problems = wl.run(i).problems
            if problems:
                fail("; ".join(problems))
        doc[name] = wl.reference
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    if args.record_golden:
        return record_golden()

    os.chdir(ROOT)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    import envstamp
    import inputs
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    setup_times, made = setup(args.seed, 1 if args.trace else SETUP_REPS)
    golden = load_golden() if args.seed == inputs.DEFAULT_SEED else None
    wl = workloads.make(args.workload, made, OUT, golden)
    warmup = wl.run(0)
    if args.trace:
        tracer = spans.Tracer()
        with spans.installed(tracer):
            outcomes, refs, wall = measure(wl, seconds, tracer)
        tracer.dump(OUT / f"spans_{args.workload}_{args.seed}.tsv")
        metrics = per_layer(bench, tracer, outcomes, refs, wl.steps)
    else:
        outcomes, refs, wall = measure(wl, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        values = {"op_vs_ref": op_vs_ref(outcomes, refs, wl.steps),
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    # Each step's median, tail percentile and sample count, by the names
    # the ROADMAP uses (analyze_s, mesh_s, verify_s, ...).
    extra = {name: summary(times)
             for name, times in by_step([o.seconds for o in outcomes],
                                        wl.steps).items()}
    extra["op_best_s"] = best_op(outcomes, wl.steps)
    extra["reference_s"] = summary(refs)
    samples = sum(o.samples for o in outcomes)
    if samples:
        extra["pipeline_samples_per_s"] = samples / sum(
            o.seconds for o in outcomes)

    attempted, failed, problems = tally([warmup] + outcomes)
    for p in problems[:10]:
        print(f"perfbench: {p}", file=sys.stderr)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "measured_s": wall, "measured_ops": len(outcomes),
        "failed_ratio": failed / attempted,
        "setup_s": {**summary(setup_times), "samples": setup_times},
        "env": envstamp.stamp(ROOT, OUT), **extra,
        "problems": problems[:10],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
