"""Benchmark of cycalign: one command, three workloads.

    python3 perfbench/run.py --workload trial_large --seed 1 --seconds 35 --trace 0

The package is imported from ``src/`` beside this directory; without it
the command exits with code 2 and prints no result. Load comes from this
one single-threaded process, with BLAS/OpenMP threads pinned to 1.

``--trace 0`` runs passes of the workload through the program's public
entry points until ``--seconds`` would be exceeded (at least two; pass j
uses input set j // 2, so every second pass checks that a rerun is
deterministic) and reports the end-to-end metrics.

``--trace 1`` runs pairs of passes on the same inputs: one untraced,
one through the stage-by-stage mirror in ``workloads.py`` with a span
around every call into ``harness``, ``recovery``, ``oracle``, ``core``
and ``analysis``. The mirror must reproduce the untraced outputs byte
for byte. A last mirrored pass runs under ``tracemalloc`` for the
per-layer peaks. It reports the per-layer metrics and the tracing
overhead.

Every operation that raises or fails a check is counted in ``failed``
with its message and the remaining operations still run; ``correct``
is false only when an output fails a check. The last line of standard
output is the JSON result; everything else is for people. Spans and a
full report go to ``.perfbench/`` at the root of the checkout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, describe, per_root, timing_summary  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 10  # fresh interpreters timed for setup_s, besides this one

# Counts derived from sizes or arguments rather than read from the program.
COMPUTED = {"core.plan_bytes", "core.transcript_bytes", "recovery.votes",
            "analysis.dp_cells", "analysis.mc_draws", "analysis.mle_candidate_pairs"}
PLAN_SPANS = ("recovery.seed_rest_plan", "harness.full_pairwise_plan")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("trial_large", "sweep_boundary", "verify_small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine_info(np) -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}
    if hasattr(os, "sched_getaffinity"):
        info["usable_cpus"] = len(os.sched_getaffinity(0))
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), platform.processor())
    except OSError:
        info["cpu"] = platform.processor()
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [Path(index, f).read_text().strip() for f in ("level", "type", "size")]
        except OSError:
            continue
        caches.append("L{} {} {}".format(*fields))
    info["caches_per_cpu0"] = caches
    return info


def probe_setup(args) -> list[float]:
    """setup_s of SETUP_PROBES fresh interpreters, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    return [float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                                 timeout=120).stdout.split()[-1])
            for _ in range(SETUP_PROBES)]


def attempt(fn, *args):
    """(raw result, error message or None)."""
    try:
        return fn(*args), None
    except Exception as exc:  # a failing operation is data; the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def reproduces(ref, sig) -> bool:
    """sig carries every digest of ref (or the same error) unchanged."""
    if ref[0] != sig[0]:
        return False
    if ref[0] == "error":
        return ref[1] == sig[1]
    return all(sig[1].get(key) == value for key, value in ref[1].items())


class Ledger:
    """Attempted and failed operations, failure messages and output stats."""

    def __init__(self):
        self.attempted = self.failed = self.incorrect = 0
        self.messages = Counter()
        self.stats = Counter()
        self.first = {}  # (step, input set) -> signature of its first run
        self.digests = {}  # (step, input set) -> every digest any run gave

    def record(self, step, i, out, err, stats=True):
        """Count one operation: its output (or None) and its error (or None)."""
        self.attempted += 1
        sig = ("error", err) if err is not None else ("ok", out.digests)
        problems = [] if out is None else list(out.problems)
        if not reproduces(self.first.setdefault((step, i), sig), sig):
            problems.append(f"output on input set {i} differs from its first run")
        for message in problems + ([err] if err is not None else []):
            self.messages[f"{step}: {message}"] += 1
        self.incorrect += bool(problems)
        self.failed += bool(problems) or err is not None
        self.digests.setdefault((step, i), {}).update(sig[1] if out else {"error": err})
        if out is not None and stats:
            self.stats.update(out.stats)


def run_pass(wl, ledger, i, tracer=None, stats=True) -> float:
    """One pass over the workload's steps on input set i; returns its timed seconds."""
    timed = 0.0
    for name, step in wl.steps.items():
        start = time.perf_counter()
        raw, err = attempt(step.run, i) if tracer is None else attempt(step.mirror, i, tracer)
        timed += time.perf_counter() - start
        out = None
        if err is None:
            out, check_err = attempt(step.check, raw)
            if check_err is not None:  # output too malformed to check
                from workloads import StepOutput
                out = StepOutput(digests={}, problems=[f"check raised {check_err}"])
        del raw
        ledger.record(name, i, out, err, stats)
    return timed


def untraced(wl, ledger, seconds, limit):
    """Passes until the next would end after `seconds`; at least two."""
    walls = []
    start = time.perf_counter()
    while len(walls) < 2 or (len(walls) < 2 * limit and time.perf_counter() - start
                             + statistics.median(walls) <= seconds):
        walls.append(run_pass(wl, ledger, len(walls) // 2))
    return walls


def traced(wl, ledger, seconds, limit):
    """Pairs of untraced and mirrored passes, then one tracemalloc pass."""
    tracer = Tracer()
    walls, traced_walls = [], []
    start = time.perf_counter()
    while not walls or (len(walls) < limit and time.perf_counter() - start
                        + statistics.median(walls) + statistics.median(traced_walls) <= seconds):
        i = len(walls)
        walls.append(run_pass(wl, ledger, i))
        with tracer.span("pass"):
            traced_walls.append(run_pass(wl, ledger, i, tracer, stats=False))
    memory = Tracer(track_memory=True)
    tracemalloc.start()
    try:
        with memory.span("pass"):
            run_pass(wl, ledger, 0, memory, stats=False)
    finally:
        tracemalloc.stop()
    return walls, traced_walls, tracer, memory


def layer_metrics(aggs: list[dict], memory_agg: dict) -> dict:
    """Per-layer values: medians over the mirrored passes, peaks from the memory pass."""
    def med(fn):
        return statistics.median(fn(a) for a in aggs)

    names = sorted({n for a in aggs for n in a["total"]} - {"pass"})
    out = {}
    for name in names:
        out[f"{name}.s"] = (med(lambda a: a["total"].get(name, 0.0)), "s")
        if any(a["self"].get(name) != a["total"].get(name) for a in aggs):  # has children
            out[f"{name}.self_s"] = (med(lambda a: a["self"].get(name, 0.0)), "s")
        if name in memory_agg["peak"]:
            out[f"{name}.peak_mb"] = (memory_agg["peak"][name], "MB")
    for name in sorted({n for a in aggs for n in a["counts"]}):
        unit = "B" if name.endswith("_bytes") else "count"
        out[name] = (med(lambda a: a["counts"].get(name, 0)), unit)
    # Layers under one name on every workload: plan building is
    # seed_rest_plan in trials and full_pairwise_plan in the MLE check.
    out["core.query_plan.s"] = (med(lambda a: sum(a["total"].get(n, 0.0) for n in PLAN_SPANS)), "s")
    out["core.query_plan.peak_mb"] = (max(memory_agg["peak"].get(n, 0.0) for n in PLAN_SPANS), "MB")
    out["analysis.s"] = (med(lambda a: sum(v for n, v in a["total"].items()
                                           if n.startswith("analysis."))), "s")
    return out


def report_layers(report, walls, traced_walls, tracer, memory) -> dict:
    """Print every per-layer figure and the tracing overhead; write the spans."""
    roots = per_root(tracer.spans)
    aggs = [roots[s["id"]] for s in tracer.spans if s["parent"] is None]
    metrics = layer_metrics(aggs, per_root(memory.spans)[0])
    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    print(f"tracing overhead: {overhead:+.2%} (mirrored pass median "
          f"{statistics.median(traced_walls):.6g} s vs untraced {statistics.median(walls):.6g} s)")
    calls = defaultdict(list)
    for a in aggs:
        for n, durations in a["calls"].items():
            calls[n].extend(durations)
    for name, (value, unit) in metrics.items():
        base = name.rsplit(".", 1)[0]
        note = " (computed)" if name in COMPUTED else ""
        if name.endswith(".s") and len(calls[base]) > 1:
            note = f" per pass; per call {describe(timing_summary(calls[base]), 's')}"
        shown = f"{value:.6g}" if unit in ("s", "MB") else f"{round(value)}"
        print(f"layer {name} = {shown} {unit}{note}")
    report["tracing_overhead_frac"] = overhead
    report["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{report['workload']}-seed{report['seed']}-spans.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for kind, t in (("timed", tracer), ("memory", memory)):
            for s in t.spans:
                fh.write(json.dumps({"pass_kind": kind, **s}) + "\n")
    return metrics


def end_to_end(wl, ledger, walls, setups, traced: bool) -> dict:
    """Print and return the end-to-end figures of the untraced passes.

    In a traced run the passes are the untraced half of each pair, and
    the peak RSS is left out because tracemalloc inflates it.
    """
    wall = timing_summary(walls)
    stats = ledger.stats
    e2e = {"setup_s": (statistics.median(setups), "s"), "wall_s": (wall["median"], "s")}
    if not traced:
        e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    if wl.PASS_METRIC:
        e2e[wl.PASS_METRIC] = (wall["median"], "s")
    if wl.RATE:
        name, stat = wl.RATE
        e2e[name] = (stats[stat] / sum(walls), "1/s")
    if stats["trials"]:
        e2e["exact_recovery_rate"] = (stats["successes"] / stats["trials"], "ratio")
        e2e["mean_hamming"] = (stats["hamming"] / stats["trials"], "nodes")
    if stats["mle_trials"]:
        e2e["mle_agreement_rate"] = (stats["mle_agreements"] / stats["mle_trials"], "ratio")
    e2e["failed_ops_frac"] = (ledger.failed / ledger.attempted, "ratio")
    detail = {"setup_s": describe(timing_summary(setups), "s"),
              "wall_s": "per pass, " + describe(wall, "s")}
    if wl.PASS_METRIC:
        detail[wl.PASS_METRIC] = describe(wall, "s")
    for name, (value, unit) in e2e.items():
        extra = f" ({detail[name]})" if name in detail else ""
        print(f"metric {name} = {value:.6g} {unit}{extra}")
    return e2e


def golden_status(args, digests) -> str:
    """Compare input set 0's digests with golden.json; a change is shown, not failed."""
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    expected = golden["workloads"].get(args.workload)
    if args.seed != golden["seed"] or not expected:
        return f"golden digests: none recorded for {args.workload} --seed {args.seed}"
    changed = [f"{step}.{key}" for step, d in digests.items() for key, value in d.items()
               if key in expected.get(step, {}) and expected[step][key] != value]
    missing = [f"{step}.{key}" for step, d in expected.items() for key in d
               if key not in digests.get(step, {})]
    if changed or missing:
        return f"golden digests CHANGED: {', '.join(changed + missing)}"
    return "golden digests: unchanged"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    if not (SRC / "cycalign" / "__init__.py").is_file():
        print(f"error: no cycalign package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads
    if Path(workloads.harness.__file__).resolve().parent.parent != SRC:
        print(f"error: cycalign was imported from {workloads.harness.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup = time.perf_counter() - T0
    if args.setup_probe:
        print(repr(setup))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = [setup] + probe_setup(args)

    ledger = Ledger()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info(np),
              "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print(f"why: {report['why']}")
    print(f"machine: {json.dumps(report['machine'])}")

    if args.trace:
        walls, traced_walls, tracer, memory = traced(wl, ledger, args.seconds,
                                                      workloads.INPUT_SETS)
        metrics = report_layers(report, walls, traced_walls, tracer, memory)
        wanted = spec["per_layer"]
    else:
        walls = untraced(wl, ledger, args.seconds, workloads.INPUT_SETS)
        wanted = spec["end_to_end"]
    e2e = end_to_end(wl, ledger, walls, setups, traced=bool(args.trace))
    if not args.trace:
        metrics = e2e
    for message, count in sorted(ledger.messages.items()):
        print(f"failure x{count}: {message}")
    report["digests_input0"] = {step: d for (step, i), d in ledger.digests.items() if i == 0}
    print(golden_status(args, report["digests_input0"]))

    result = {"correct": ledger.incorrect == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                          for m in wanted}}
    report.update(end_to_end={k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
                  pass_walls=walls, setups=setups, failures=dict(ledger.messages),
                  result=result)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
