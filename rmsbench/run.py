#!/usr/bin/env python3
"""The repository benchmark.

    python3 rmsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the measuring program (rmsbench/main.cpp, linked against the
library modules under src/) into .bench_build/ (or $CARGO_TARGET_DIR),
runs one workload for about S seconds of repetitions, checks its
outputs, prints every metric by name and unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

    python3 rmsbench/run.py --emit-benchmark-json   # writes BENCHMARK.json's text

The metric tables below are the single source of BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUN_SECONDS = 25
RUN_TIMEOUT_S = 170
TAIL_MIN_BEYOND = 10
# The tail is taken over the last whole repetitions that hold at least
# TAIL_WINDOW unit latencies (main.cpp's kTailWindow runs enough
# repetitions for them): that fixes it at p90, and every unit of a
# repetition (each kind, each k) weighs the same in it.
TAIL_WINDOW = 100
# Nearest-rank percentiles tried for the tail, highest first, in 1/1000.
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750, 500)
KINDS = ("CENTRAL", "LOWEST", "RESERVE", "AUCTION", "S-I", "R-I", "Sy-I")

WORKLOADS = [
    ("tuned_campaign",
     "Fig. 1 procedure on Case 1 (calibrate E0, tune 7 kinds along k=1..3) "
     "on 2 lanes, cold caches per rep: the only load on opt/core/sessions/"
     "tree sharing/arrival hits/exec"),
    ("long_horizon",
     "one long streaming Case-1 run per kind, one build each, no tuner or "
     "reuse: kernel, policies, routing and the streaming path at full "
     "weight; the control for tuner/cache changes"),
    ("faulty_replicas",
     "fresh Case-2 (1000 nodes) runs, 7 kinds x 3 seeds, churn + net:drop "
     "faults and a coalescing control plane: cold routing, fault and ctrl "
     "layers, per-run latency"),
]

# name, unit, better, bound
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("evals_per_s", "1/s", "higher", 0.25),
    ("run_p50_ms", "ms", "lower", 0.25),
    ("peak_heap_mib", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

# Printed with the end-to-end metrics but not gated: on a shared 4-vCPU
# virtual machine, over 10 seeds, the tail's IQR reached 16-22% of its
# median on tuned_campaign and long_horizon, and one seed read 104 ms
# and 151 ms in two runs, too close to the 0.25 ceiling on a bound.
PRINTED_ONLY = [("run_tail_ms", "ms")]

# name, unit, better, kind (C = exact count, T = span time), the
# end-to-end metric it should move, and on which workload.
PER_LAYER = [
    ("sim.events", "count", "lower", "C", "events_per_s, wall_s", "all, most long_horizon"),
    ("sim.events_per_job", "count", "lower", "C", "events_per_s, wall_s", "all"),
    ("sim.ns_per_event", "ns", "lower", "T", "events_per_s, wall_s", "all, most long_horizon"),
    ("net.messages", "count", "lower", "C", "wall_s", "long_horizon, faulty_replicas"),
    ("net.messages_per_job", "count", "lower", "C", "wall_s", "long_horizon, faulty_replicas"),
    ("net.messages_dropped", "count", "lower", "C", "wall_s", "faulty_replicas"),
    ("net.tree_shares", "count", "higher", "C", "wall_s", "tuned_campaign (0 on faulty_replicas)"),
    ("net.tree_misses", "count", "lower", "C", "wall_s", "tuned_campaign"),
    ("net.tree_share_ratio", "ratio", "higher", "C", "wall_s", "tuned_campaign"),
    ("net.route_settle_ms", "ms", "lower", "T", "run_p50_ms", "faulty_replicas"),
    ("workload.jobs", "count", "higher", "C", "jobs_per_s", "all"),
    ("workload.arrival_hits", "count", "higher", "C", "wall_s", "tuned_campaign, faulty_replicas"),
    ("workload.arrival_misses", "count", "lower", "C", "wall_s", "tuned_campaign, faulty_replicas"),
    ("workload.pull_ns_per_job", "ns", "lower", "T", "jobs_per_s", "long_horizon"),
    ("grid.build_ms", "ms", "lower", "T", "setup_s; run_p50_ms", "long_horizon; faulty_replicas"),
    ("grid.reset_ms", "ms", "lower", "T", "wall_s", "tuned_campaign"),
    ("grid.run_s", "s", "lower", "T", "wall_s", "all"),
    ("grid.run_share", "ratio", "lower", "T", "wall_s", "all (bounds what in-run changes can move)"),
    ("grid.status_updates", "count", "lower", "C", "wall_s", "long_horizon"),
    ("grid.updates_suppressed_ratio", "ratio", "higher", "C", "wall_s", "long_horizon"),
    ("rms.decisions", "count", "lower", "C", "wall_s", "long_horizon"),
    ("rms.remote_ratio", "ratio", "lower", "C", "wall_s", "long_horizon"),
] + [
    ("rms.run_s." + kind, "s", "lower", "T", "wall_s", "tuned_campaign")
    for kind in KINDS
] + [
    ("rms.session_builds", "count", "lower", "C", "wall_s", "tuned_campaign"),
    ("rms.session_resets", "count", "higher", "C", "wall_s", "tuned_campaign"),
    ("rms.reuse_ratio", "ratio", "higher", "C", "wall_s", "tuned_campaign"),
    ("ctrl.updates_in", "count", "lower", "C", "run_p50_ms", "faulty_replicas"),
    ("ctrl.coalesced", "count", "higher", "C", "run_p50_ms", "faulty_replicas"),
    ("ctrl.coalescing_ratio", "ratio", "higher", "C", "run_p50_ms", "faulty_replicas"),
    ("ctrl.batches", "count", "lower", "C", "run_p50_ms", "faulty_replicas"),
    ("fault.crashes", "count", "lower", "C", "run_tail_ms", "faulty_replicas"),
    ("fault.jobs_killed", "count", "lower", "C", "run_tail_ms", "faulty_replicas"),
    ("fault.jobs_requeued", "count", "lower", "C", "run_tail_ms", "faulty_replicas"),
    ("fault.round_retries", "count", "lower", "C", "run_tail_ms", "faulty_replicas"),
    ("opt.evaluations", "count", "lower", "C", "evals_per_s, wall_s", "tuned_campaign"),
    ("opt.cache_hits", "count", "higher", "C", "evals_per_s, wall_s", "tuned_campaign"),
    ("opt.hit_ratio", "ratio", "higher", "C", "evals_per_s, wall_s", "tuned_campaign"),
    ("opt.simulations", "count", "lower", "C", "evals_per_s, wall_s", "tuned_campaign"),
    ("core.calibrate_ms", "ms", "lower", "T", "wall_s", "tuned_campaign"),
    ("core.points_feasible", "count", "higher", "C", "quality guard, not speed", "tuned_campaign"),
    ("exec.busy_ratio", "ratio", "higher", "T", "wall_s", "tuned_campaign"),
    ("obs.trace_overhead_pct", "%", "lower", "T", "traced minus untraced wall_s", "all"),
]

# Counts that depend on how the 2 lanes interleave; a traced
# tuned_campaign reports them from its serial reference pass (exact) and
# prints the 2-lane readings' range beside them.
LANE_DEPENDENT = ("net.tree_shares", "net.tree_misses",
                  "workload.arrival_hits", "workload.arrival_misses",
                  "rms.session_builds", "rms.session_resets")


def benchmark_json():
    """The text of BENCHMARK.json."""
    return {
        "command": ["python3", "rmsbench/run.py"],
        "paths": ["rmsbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, *_ in PER_LAYER],
    }


# --------------------------------------------------------------------------
# Statistics.

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(samples):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it (nearest rank): (percentile, value, n), or None when fewer
    than TAIL_MIN_BEYOND + 1 samples exist."""
    ordered = sorted(samples)
    n = len(ordered)
    for permille in TAIL_LADDER_PERMILLE:
        rank = (permille * n + 999) // 1000  # ceil, 1-based
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return permille / 10, ordered[rank - 1], n
    return None


def ratio(num, den):
    return num / den if den else 0.0


# --------------------------------------------------------------------------
# Metrics from the program's raw record.

def end_to_end(raw):
    """Every end-to-end metric: name -> (value, detail)."""
    reps = [r for r in raw["reps"] if not r["traced"]]
    work = raw["work"]
    walls = [r["wall_s"] for r in reps]
    out = {}

    def timing(name, values):
        q1, q2, q3 = quartiles(values)
        out[name] = (q2, f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")

    timing("wall_s", walls)
    timing("cpu_s", [r["cpu_s"] for r in reps])
    timing("events_per_s", [work["events"] / w for w in walls])
    timing("jobs_per_s", [work["jobs"] / w for w in walls])
    timing("evals_per_s", [work["evaluations"] / w for w in walls])
    units = [u for r in reps for u in r["unit_ms"]]
    timing("run_p50_ms", units)
    window = []
    for r in reversed(reps):
        if len(window) >= TAIL_WINDOW:
            break
        window = r["unit_ms"] + window
    t = tail(window)
    if t is None:
        raise ValueError(f"{len(window)} latency samples are too few for a tail")
    pct, value, n = t
    out["run_tail_ms"] = (value, f"p{pct:g} of the last {n} runs")
    timing("peak_heap_mib", [r["heap_bytes"] / 2**20 for r in reps])
    timing("setup_s", [r["setup_s"] for r in reps])
    return out


def per_layer(raw):
    """Every per-layer metric: name -> (value, detail)."""
    traced = [r["layer"] for r in raw["reps"] if r["traced"]]
    untraced = [r for r in raw["reps"] if not r["traced"]]
    walls = [r["wall_s"] for r in raw["reps"] if r["traced"]]
    if not traced or not untraced:
        raise ValueError("a traced run needs traced and untraced repetitions")
    reference = raw.get("reference_layer", {})

    def med(key):
        return median([layer.get(key, 0.0) for layer in traced])

    def count(key):
        return reference[key] if key in reference else med(key)

    def per_rep(fn):
        return median([fn(layer, wall) for layer, wall in zip(traced, walls)])

    events, jobs = med("sim.events"), med("workload.jobs")
    out = {}
    out["sim.events"] = events
    out["sim.events_per_job"] = ratio(events, jobs)
    out["sim.ns_per_event"] = per_rep(
        lambda l, w: 1e9 * ratio(l["grid.run_s"], l["grid.run_events"]))
    out["net.messages"] = med("net.messages")
    out["net.messages_per_job"] = ratio(med("net.messages"), jobs)
    out["net.messages_dropped"] = med("net.messages_dropped")
    shares, misses = count("net.tree_shares"), count("net.tree_misses")
    out["net.tree_shares"] = shares
    out["net.tree_misses"] = misses
    out["net.tree_share_ratio"] = ratio(shares, shares + misses)
    out["net.route_settle_ms"] = med("net.route_settle_ms")
    out["workload.jobs"] = jobs
    out["workload.arrival_hits"] = count("workload.arrival_hits")
    out["workload.arrival_misses"] = count("workload.arrival_misses")
    out["workload.pull_ns_per_job"] = med("workload.pull_ns_per_job")
    out["grid.build_ms"] = per_rep(
        lambda l, w: 1e3 * ratio(l["grid.build_s"], l["grid.builds"]))
    out["grid.reset_ms"] = per_rep(
        lambda l, w: 1e3 * ratio(l["grid.reset_s"], l["grid.resets"]))
    out["grid.run_s"] = med("grid.run_s")
    out["grid.run_share"] = per_rep(
        lambda l, w: ratio(l["grid.run_s"], l["exec.lanes"] * w))
    updates, suppressed = med("grid.status_updates"), med("grid.updates_suppressed")
    out["grid.status_updates"] = updates
    out["grid.updates_suppressed_ratio"] = ratio(suppressed, updates + suppressed)
    out["rms.decisions"] = med("rms.decisions")
    local, remote = med("rms.jobs_local"), med("rms.jobs_remote")
    out["rms.remote_ratio"] = ratio(remote, local + remote)
    for kind in KINDS:
        out["rms.run_s." + kind] = med("rms.run_s." + kind)
    builds, resets = count("rms.session_builds"), count("rms.session_resets")
    out["rms.session_builds"] = builds
    out["rms.session_resets"] = resets
    out["rms.reuse_ratio"] = ratio(resets, builds + resets)
    ctrl_in, coalesced = med("ctrl.updates_in"), med("ctrl.coalesced")
    out["ctrl.updates_in"] = ctrl_in
    out["ctrl.coalesced"] = coalesced
    out["ctrl.coalescing_ratio"] = ratio(coalesced, ctrl_in)
    out["ctrl.batches"] = med("ctrl.batches")
    for key in ("fault.crashes", "fault.jobs_killed", "fault.jobs_requeued",
                "fault.round_retries"):
        out[key] = med(key)
    evaluations, hits = med("opt.evaluations"), med("opt.cache_hits")
    out["opt.evaluations"] = evaluations
    out["opt.cache_hits"] = hits
    out["opt.hit_ratio"] = ratio(hits, evaluations)
    out["opt.simulations"] = med("opt.simulations")
    out["core.calibrate_ms"] = med("core.calibrate_ms")
    out["core.points_feasible"] = med("core.points_feasible")
    out["exec.busy_ratio"] = per_rep(
        lambda l, w: ratio(l["exec.busy_s"], l["exec.lanes"] * w))
    plain = median([r["wall_s"] for r in untraced])
    out["obs.trace_overhead_pct"] = 100.0 * (median(walls) - plain) / plain

    details = {}
    if reference:
        for key in LANE_DEPENDENT:
            readings = [layer.get(key, 0.0) for layer in traced]
            details[key] = (f"1 lane; at {raw['lanes']} lanes "
                            f"{min(readings):g}..{max(readings):g}")
    details["grid.build_ms"] = f"builds/rep {med('grid.builds'):g}"
    details["grid.reset_ms"] = f"resets/rep {med('grid.resets'):g}"
    details["obs.trace_overhead_pct"] = (
        f"traced {median(walls):.6g} s vs untraced {plain:.6g} s")
    return {k: (v, details.get(k, "")) for k, v in out.items()}


def golden_check(raw):
    """(attempted, failed, message) of the comparison with the recorded
    digest for this seed, when one is recorded."""
    goldens = json.loads((HERE / "goldens.json").read_text())
    expected = goldens["digests"].get(raw["workload"], {}).get(str(raw["seed"]))
    if expected is None:
        return 0, 0, None
    if expected == raw["digest"]:
        return 1, 0, None
    return 1, 1, (f"digest {raw['digest']} differs from the recorded "
                  f"{expected} for seed {raw['seed']}")


# --------------------------------------------------------------------------
# Build and run.

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "rmsbench"


def build():
    """Configure once and build incrementally; returns the program path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "rmsbench"


def run_program(exe, args):
    """Runs the measuring program with the SCAL_* knobs cleared, so only
    the generated configs reach it; returns its JSON record."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCAL_")}
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(raw, trace):
    """Prints the human-readable table and returns the result object."""
    attempted, failed = raw["attempted"], raw["failed"]
    errors = list(raw["errors"])
    g_attempted, g_failed, g_error = golden_check(raw)
    attempted += g_attempted
    failed += g_failed
    if g_error:
        errors.append(g_error)

    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER + PRINTED_ONLY}
    if trace:
        metrics = per_layer(raw)
        gated = [n for n, *_ in PER_LAYER]
    else:
        metrics = end_to_end(raw)
        gated = [n for n, *_ in END_TO_END]
    reps = len(raw["reps"])
    print(f"{raw['workload']}  seed {raw['seed']}  lanes {raw['lanes']}  "
          f"reps {reps}  trace {trace}  digest {raw['digest']}  "
          f"peak RSS {raw['peak_rss_bytes'] / 2**20:.6g} MiB")
    for name, (value, detail) in metrics.items():
        print(f"  {name:32s} {value:<14.6g} {units[name]:6s} {detail}")
    rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':32s} {rate:<14.6g} {'ratio':6s} "
          f"{failed} of {attempted} checks failed")
    for error in errors[:20]:
        print(f"  error: {error}")
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": units[n]}
                    for n in gated},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--emit-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.emit_benchmark_json:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        exe = build()
        raw = run_program(exe, args)
        result = report(raw, args.trace)
    except (OSError, ValueError, KeyError,
            IndexError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        print(f"rmsbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
