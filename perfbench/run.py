#!/usr/bin/env python3
"""Shoal++ benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/shoalpp_perf.exe
with dune, then runs one process per episode (see shoalpp_perf.ml) and
prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics: every end_to_end metric of
BENCHMARK.json with --trace 0, every per_layer metric with --trace 1.
The line before it is a JSON record with the per-episode details.

Workload parameters live in perfbench/workloads.json. A run repeats the
workload's episode while --seconds allows, at least twice, and reports
medians over the episodes; simulated repetitions of a seed must order the
same segment sequence with the same allocation count. The traced run pairs
an untraced episode with a traced one on the same seed: their difference
is the tracing overhead, and simulated runs must order exactly the same
segments in both.

Exits non-zero, without a result line, when the checkout cannot be built;
exits non-zero after printing a result with correct=false when a
correctness check fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/shoalpp_perf.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "shoalpp_perf.exe")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MAX_EPISODES = 12
EPISODE_TIMEOUT_S = 150
# End-to-end metrics every episode reports; setup_s is pooled separately.
EPISODE_METRICS = ("committed_tps", "commit_p50_ms", "commit_p99_ms", "alloc_words_per_tx",
                   "heap_peak_mwords")
# Per-layer metrics only one executor has: the simulator's engine and
# network, or the wall-clock executor and the node's own generator.
EXECUTOR_ONLY = {"sim": ("sim.",), "node": ("backend.", "workload.gen_lag")}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from the root of a full source checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # Keep the build inside the checkout: no shared dune cache, and the
    # compilers' temporary files under the benchmark's output directory.
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "--display", "quiet", TARGET],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=840)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed", 1)


def episode(spec, name, seed, traced):
    """Run one episode process and return its JSON record."""
    args = [EXE, "--name", name, "--kind", spec["kind"], "--n", str(spec["n"]),
            "--load", str(spec["load_tps"]),
            "--verify", "1" if spec["verify_signatures"] else "0",
            "--ckpt", str(spec["checkpoint_interval"]),
            "--warmup-ms", str(spec["warmup_ms"]), "--window-ms", str(spec["window_ms"]),
            "--limit-ms", str(spec["limit_ms"]),
            "--seed", str(seed), "--cluster-seed", str(spec["cluster_seed"]),
            "--traced", "1" if traced else "0"]
    crash = spec.get("crash")
    if crash:
        args += ["--crash", f"{crash['replica']},{crash['at_ms']},{crash['recover_ms']}"]
    if spec["kind"] == "node":
        args += ["--cap-load", str(spec["capacity_load_tps"]),
                 "--link-delay", str(spec["link_delay_ms"]),
                 "--cap-warmup-ms", str(spec["cap_warmup_ms"]),
                 "--cap-window-ms", str(spec["cap_window_ms"])]
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        args += ["--spans-out", os.path.join(OUT_DIR, f"{name}-seed{seed}.spans.tsv")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                              timeout=EPISODE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"episode timed out: {' '.join(args)}", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"episode exited {proc.returncode}: {' '.join(args)}", 1)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["elapsed_s"] = time.monotonic() - t0
    return record


def median(values):
    return statistics.median(values)


def end_to_end(spec, seed, seconds):
    """Untraced episodes; returns (metrics, correct, attempted, failed, details)."""
    # Repeat the episode while the budget allows, at least twice.
    episodes = []
    start = time.monotonic()
    while len(episodes) < MAX_EPISODES:
        episodes.append(episode(spec, spec["name"], seed, False))
        elapsed = time.monotonic() - start
        if len(episodes) >= 2 and elapsed + median([e["elapsed_s"] for e in episodes]) > seconds:
            break
    first = episodes[0]
    correct = all(e["correct"] for e in episodes)
    # A simulated seed is deterministic: every repetition must order the same
    # segments with the same number of allocated words.
    repeatable = spec["kind"] != "sim" or all(
        e["digest"] == first["digest"] and e["alloc_words_per_tx"] == first["alloc_words_per_tx"]
        for e in episodes)
    metrics = {name: median([e[name] for e in episodes]) for name in EPISODE_METRICS}
    metrics["setup_s"] = median([s for e in episodes for s in e["setup_s"]])
    attempted = first["attempted"] if spec["kind"] == "sim" else sum(e["attempted"] for e in episodes)
    failed = max(e["failed"] for e in episodes) if spec["kind"] == "sim" else sum(e["failed"] for e in episodes)
    details = {"episodes": episodes, "repeatable": repeatable}
    return metrics, correct and repeatable, attempted, failed, details


def per_layer(spec, seed, names):
    """An untraced and a traced episode on the same seed."""
    plain = episode(spec, spec["name"], seed, False)
    traced = episode(spec, spec["name"], seed, True)
    correct = plain["correct"] and traced["correct"]
    if spec["kind"] == "sim":
        # Tracing must not change what the simulation orders.
        same_order = plain["digest"] == traced["digest"]
        correct = correct and same_order
    else:
        same_order = None
    layers = dict(traced["layers"])
    # Host cost of the untraced episode: wall and CPU time swing by up to a
    # third between runs on a shared 2-core VM, more than any end-to-end
    # bound allows, so they are reported here rather than end to end.
    layers["host.capacity_tps"] = plain["capacity_tps"]
    layers["host.cpu_us_per_tx"] = plain["cpu_us_per_tx"]
    if spec["kind"] == "sim":
        layers["sim.wall_s"] = plain["wall_s"]
    # The executor the workload does not use reads as a structural zero;
    # any other missing metric is a bug in the benchmark.
    absent = EXECUTOR_ONLY["node" if spec["kind"] == "sim" else "sim"]
    missing = [n for n in names if n not in layers and not n.startswith(absent)]
    if missing:
        fail(f"traced episode did not report {', '.join(missing)}", 1)
    metrics = {n: layers.get(n, 0.0) for n in names}
    details = {"episodes": [plain, traced], "traced_same_order": same_order,
               "traced_cpu_ratio": traced["cpu_us_per_tx"] / plain["cpu_us_per_tx"]}
    return metrics, correct, traced["attempted"], traced["failed"], details


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default_seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_path):
        fail("BENCHMARK.json is missing")
    with open(bench_path) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        specs = json.load(f)["workloads"]
    if opts.workload not in specs:
        fail(f"unknown workload {opts.workload!r} (one of {', '.join(specs)})")
    spec = dict(specs[opts.workload], name=opts.workload)
    seed = spec["default_seed"] if opts.seed is None else opts.seed
    seconds = float(bench["run_seconds"] if opts.seconds is None else opts.seconds)

    build()
    if opts.trace:
        defs = bench["per_layer"]
        values, correct, attempted, failed, details = per_layer(
            spec, seed, [d["name"] for d in defs])
    else:
        defs = bench["end_to_end"]
        values, correct, attempted, failed, details = end_to_end(spec, seed, seconds)
    bad = [d["name"] for d in defs
           if not isinstance(values[d["name"]], (int, float)) or not math.isfinite(values[d["name"]])]
    if bad:
        fail(f"no finite value for {', '.join(bad)}", 1)
    if not correct:
        failed = attempted
    details.update(workload=opts.workload, seed=seed, seconds=seconds, trace=opts.trace)
    print(json.dumps(details))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
