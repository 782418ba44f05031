#!/usr/bin/env python3
"""SoCFlow end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the harness in `perfbench/` (a cargo
package of its own that links the workspace crates), then runs
repetitions of the workload, one fresh process each: at least two, and
more until another would overrun `--seconds`. Every repetition's outputs
are checked; the last line of stdout is the verdict:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (medians over repetitions).
`--trace 1` runs one untraced and one traced repetition and reports the
per-layer metrics, the unattributed self time and the tracing overhead;
the traced run's spans and self-time tree are written under
`perfbench/out/`. See `perfbench/README.md` for every metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("mixed_vgg11", "fp32_groups8", "plan_fleet")
# Fixed worker-pool size per workload, never more than the host has.
# mixed_vgg11 runs on one lane: its group heuristic picks one, two or four
# replicas depending on the seed, and on two lanes a multi-replica run
# trains its replicas in parallel while a one-replica run cannot, so host
# time would follow the seed's topology rather than the code.
THREADS = {"mixed_vgg11": 1, "fp32_groups8": 2, "plan_fleet": 2}
# a run must end within 180 s after the build; no repetition may overrun this
DEADLINE_S = 150.0
MIN_REPS = 2

# Bounded end-to-end metrics: host clock, on every workload.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"))

# The other end-to-end numbers, reported by name in the table and, per
# seed, among the traced run's metrics (0 where a workload has no such
# number). They vary with the seed's topology (peak memory grows with the
# replica count the heuristic picks), or only exist on some workloads.
SPECIFIC = (
    ("peak_rss_mb", "MB"),
    ("train_samples_per_s", "1/s"),
    ("tune_plans_per_s", "1/s"),
    ("fleet_sim_hours_per_s", "1/s"),
    ("best_accuracy", "ratio"),
    ("sim_tta_s", "sim_s"),
    ("sim_epoch_s", "sim_s"),
    ("sim_energy_kj", "sim_kJ"),
    ("tuned_epoch_s", "sim_s"),
    ("fleet_mean_jct_s", "sim_s"),
    ("failed_share", "ratio"),
)

KERNEL_OPS = ("matmul", "matmul_at_b", "matmul_a_bt", "matmul_i8", "im2col", "col2im", "quant")
PER_LAYER = (
    (("data.generate_s", "s"),)
    + (("scheduler.plan_s", "s"), ("scheduler.probes", "count"), ("scheduler.groups", "count"))
    + (
        ("engine.run_s", "s"),
        ("engine.epoch_s.p50", "s"),
        ("engine.epoch_s.max", "s"),
        ("engine.kernel_share", "ratio"),
    )
    + tuple((f"tensor.{op}.{k}", u) for op in KERNEL_OPS for k, u in (("calls", "count"), ("s", "s")))
    + (("runtime.jobs", "count"), ("runtime.chunks", "count"), ("runtime.busy_share", "ratio"))
    + tuple((f"nn.{p}_step_ms.{q}", "ms") for p in ("fp32", "int8") for q in ("p50", "p95"))
    + (
        ("cluster.compute_share", "ratio"),
        ("cluster.sync_share", "ratio"),
        ("cluster.update_share", "ratio"),
        ("cluster.transfers", "count"),
        ("cluster.bytes_mb", "MB"),
        ("cluster.peak_link_util", "ratio"),
        ("cluster.scratch_acquires", "count"),
        ("cluster.scratch_misses", "count"),
        ("cluster.price_ms.p50", "ms"),
        ("cluster.price_ms.p95", "ms"),
    )
    + (
        ("autotune.evaluated", "count"),
        ("autotune.pruned", "count"),
        ("autotune.skipped", "count"),
        ("autotune.pass_s", "s"),
    )
    + (
        ("fleet.run_s", "s"),
        ("fleet.jobs_completed", "count"),
        ("fleet.preemptions", "count"),
        ("fleet.utilization", "ratio"),
    )
    + (
        ("checkpoint.persisted", "count"),
        ("checkpoint.bytes_mb", "MB"),
        ("checkpoint.save_s", "s"),
        ("checkpoint.load_s", "s"),
    )
    + (("telemetry.events", "count"),)
    + (("trace.unattributed_s", "s"), ("trace.overhead", "ratio"))
    + SPECIFIC
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the harness; returns its path, or None when it cannot."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=870)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(ROOT, target, "release", "socflow-perfbench")


def environment():
    """What the results depend on besides the code under test."""
    def first_line(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip().splitlines()[0] if done.returncode == 0 and done.stdout.strip() else None

    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if not any(part in ("target", "out") for part in os.path.relpath(d, ROOT).split(os.sep))
            for f in fs
        )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "rustc": first_line(["rustc", "-V"]),
        "git_revision": first_line(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
    }


def threads(workload):
    return min(THREADS[workload], os.cpu_count() or 1)


def repetition(harness, workload, seed, trace, deadline):
    """Runs one repetition in a fresh process; returns its report or None."""
    cmd = [harness, workload, "--seed", str(seed), "--threads", str(threads(workload)),
           "--trace", "1" if trace else "0", "--work-dir", OUT]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: repetition timed out")
        return None
    if done.returncode != 0:
        log(f"{workload} seed {seed}: harness exited {done.returncode}\n{done.stderr[-2000:]}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def specific_numbers(rep):
    """The workload-specific end-to-end numbers of one repetition."""
    merged = dict(rep["exact"])
    merged.update(rep["host"])
    merged["failed_share"] = rep["failed"] / rep["attempted"]
    # 0 where the workload has no such number, or a missed target left
    # it undefined
    return {name: merged.get(name) or 0.0 for name, _ in SPECIFIC}


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[int(s["parent"])].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for c in sorted(children[i], key=lambda c: spans[c]["start"]):
            lo, hi = max(spans[c]["start"], reach), min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def render_tree(spans, selfs):
    """Self-time tree, siblings of one name folded into one row."""
    rows = {}
    order = []
    paths = []
    for s in spans:
        parent = s["parent"]
        path = (paths[int(parent)] if parent is not None else ()) + (s["name"],)
        paths.append(path)
        if path not in rows:
            rows[path] = [0, 0.0, 0.0]
            order.append(path)
        row = rows[path]
        row[0] += 1
        row[1] += s["end"] - s["start"]
    for path, own in zip(paths, selfs):
        rows[path][2] += own
    lines = [f"{'span':<44} {'count':>6} {'total_s':>10} {'self_s':>10}"]
    for path in sorted(order, key=lambda p: (order.index(p[:1]), p)):
        count, total, own = rows[path]
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<44} {count:>6} {total:>10.4f} {own:>10.4f}")
        if len(path) == 1:
            lines.append(f"{'  unattributed':<44} {'':>6} {'':>10} {own:>10.4f}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    harness = build()
    if harness is None:
        return 1
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    env.update(workload=args.workload, seed=args.seed, threads=threads(args.workload))

    # repetitions: untraced until --seconds pass; a traced run adds one
    # traced repetition after a single untraced one
    reps = []
    crashed = 0  # a crashed or hung repetition counts as one failed operation
    measure_start = time.monotonic()
    while True:
        rep = repetition(harness, args.workload, args.seed, False, deadline)
        if rep is None:
            crashed += 1
        else:
            reps.append(rep)
        done = len(reps) + crashed
        elapsed = time.monotonic() - measure_start
        # stop once another repetition would overrun --seconds
        per_rep = elapsed / done
        if args.trace or (done >= MIN_REPS and elapsed + per_rep > args.seconds):
            break
        if time.monotonic() + per_rep > deadline:
            break
    if not reps:
        log(f"{args.workload} seed {args.seed}: no repetition completed")
        return 1
    traced = None
    if args.trace:
        traced = repetition(harness, args.workload, args.seed, True, deadline)
        if traced is None:
            return 1

    # correctness: exact outputs repeat bit for bit across repetitions and
    # between traced and untraced runs; no repetition reports a wrong output
    problems = []
    everyone = reps + ([traced] if traced else [])
    for i, rep in enumerate(everyone):
        problems += [f"repetition {i}: {e}" for e in rep["errors"]]
        if rep["exact"] != reps[0]["exact"]:
            problems.append(f"repetition {i}: exact outputs differ: {rep['exact']} != {reps[0]['exact']}")
        if rep["env"] != reps[0]["env"]:
            problems.append(f"repetition {i}: environment differs: {rep['env']} != {reps[0]['env']}")
    attempted = crashed + sum(r["attempted"] for r in everyone)
    failed = crashed + sum(r["failed"] for r in everyone)
    for i, rep in enumerate(everyone):
        for why in rep["failures"]:
            log(f"repetition {i}: failed: {why}")
    if all(r["failed"] > 0 for r in everyone):
        log(f"{args.workload} seed {args.seed}: no repetition succeeded")
        return 1

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {len(reps)} untraced repetition(s)"
          + (", 1 traced" if traced else ""))
    host = {name: statistics.median(r["host"][name] for r in reps) for name, _ in END_TO_END}
    units = dict(END_TO_END + SPECIFIC)
    for name in list(reps[0]["host"]) + list(reps[0]["exact"]):
        values = [r["host"][name] if name in r["host"] else r["exact"][name] for r in reps]
        shown = ", ".join(f"{v:.6g}" for v in values if v is not None)
        print(f"  {name:<24} {units.get(name, ''):<7} {shown}")
    record = {"environment": env, "repetitions": reps}
    if traced:
        layer = dict(traced["layer"])
        spans = traced["spans"]
        selfs = self_times(spans)
        layer["trace.unattributed_s"] = sum(
            own for s, own in zip(spans, selfs) if s["parent"] is None and s["name"] == "workload")
        layer["trace.overhead"] = traced["host"]["wall_s"] / reps[0]["host"]["wall_s"]
        layer.update(specific_numbers(reps[0]))
        # a layer that does no work on this workload reads 0
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
        tree = render_tree(spans, selfs)
        print("self-time tree of the traced repetition (host seconds):")
        for line in tree:
            print("  " + line)
        for name, m in metrics.items():
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
        record.update(traced=traced, self_time_tree=tree)
    else:
        metrics = {name: {"value": host[name], "unit": unit} for name, unit in END_TO_END}
    suffix = "traced" if traced else "untraced"
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-{suffix}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for p in problems:
        log(f"incorrect: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
