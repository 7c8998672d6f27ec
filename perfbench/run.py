#!/usr/bin/env python3
"""The repository benchmark: builds idea_bench and measures one workload.

One measured run (what BENCHMARK.json's "command" runs):

  python3 perfbench/run.py --workload kv_macro --seed 7 --seconds 25 --trace 0

repeats episodes of the workload, each in a fresh idea_bench process, until
--seconds have passed (at least 2 x LOADS), checks that every episode
reproduced the earlier ones of its load seed exactly and passed its
consistency checks, and prints one JSON line: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run repeats
cycles of an untraced and a traced episode (plus an obs-off episode on
rw_loss and a threads=1 oracle episode on fleet_1000), so the tracing
overhead is measured too.

Episode i of a run offers load seed LOADS * seed + i % LOADS, so a run
averages its sim-clock metrics over LOADS different offered loads and
repeats each of them.  Wall-clock metrics are medians over every episode,
in reference seconds: each episode samples the host's speed while it runs
(idea_bench's SpeedProbe) and reports reference seconds per wall second.

The human-facing sweep:

  python3 perfbench/run.py --all [--reps 5] [--seed 2007] [--smoke]

runs every workload --reps times (each rep one episode per load seed),
interleaved round-robin, then one traced cycle per workload, prints each
end-to-end metric with its median, min, max and n over the reps, the
per-layer table, and exits non-zero if any check failed.  --smoke shortens
every workload tenfold and runs one rep.

The build lands in $CARGO_TARGET_DIR, else .bench_build, under the
repository root (a Release build of ../src plus perfbench/idea_bench.cpp).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

DEFAULT_SCALE = 0.25  # of each workload's full sim length
# Offered loads per run.  Sim-clock metrics are deterministic for a load
# seed but differ between seeds; averaging four halves that spread.
LOADS = 4
MIN_SAMPLES = 1000  # per op type: the 1% tail then holds >= 10 samples
EPISODE_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Worker threads of the episodes: two for the fleet, never more than the
# host has cores.  The fingerprint does not depend on the thread count.
THREADS = {"fleet_1000": min(2, os.cpu_count() or 1)}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "shard" / "sharded_cluster.hpp").is_file():
        raise BenchError(f"idea sources not found under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True,
             "timeout": BUILD_TIMEOUT_S}
    try:
        if not (build_dir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                            str(build_dir), "-DCMAKE_BUILD_TYPE=Release",
                            *generator], **quiet)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(build_dir), "--parallel",
                        jobs], **quiet)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}") from e
    return build_dir / "idea_bench"


def run_json(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=EPISODE_TIMEOUT_S)
    except subprocess.CalledProcessError as e:
        raise BenchError(f"{' '.join(cmd)} failed: {e.stderr.strip()}") from e
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{' '.join(cmd)} timed out") from e
    return json.loads(out.stdout.strip().splitlines()[-1])


def load_seed(seed, i):
    """The load seed of a run's i-th episode."""
    return LOADS * seed + i % LOADS


def episode(binary, workload, seed, scale, trace=False, **extra):
    flags = {"workload": workload, "seed": seed, "scale": scale,
             "trace": int(trace), "threads": THREADS.get(workload, 1),
             **extra}
    return run_json([str(binary)] + [arg for name, value in flags.items()
                                     for arg in (f"--{name}", str(value))])


def loads_round(binary, workload, seed, scale):
    """One untraced episode per load seed of the run."""
    return [episode(binary, workload, load_seed(seed, i), scale)
            for i in range(LOADS)]


def problems(episodes, min_samples):
    """Correctness checks over every episode of one workload and run."""
    found = []
    first = {}
    for e in episodes:
        tag = f"{e['workload']} seed {e['seed']} trace {e['trace']} " \
              f"threads {e['threads']}"
        ref = first.setdefault(e["seed"], e)
        if e["fingerprint"] != ref["fingerprint"]:
            found.append(f"{tag}: fingerprint {e['fingerprint']} differs "
                         f"from the first episode's {ref['fingerprint']}")
        if e["converged"] != e["files"]:
            found.append(f"{tag}: {e['converged']} of {e['files']} files "
                         "converged after the drain")
        if e["level_violations"]:
            found.append(f"{tag}: {e['level_violations']} reads broke "
                         "their declared consistency level")
        if min(e["read_samples"], e["write_samples"]) < min_samples:
            found.append(f"{tag}: {e['read_samples']} reads and "
                         f"{e['write_samples']} writes; need {min_samples}")
    return found


def ref_s(e):
    """An episode's measured phase in reference seconds."""
    return e["wall_s"] * e["ref_per_wall"]


def end_to_end(episodes):
    """Wall-clock metrics in reference seconds, as medians over every
    episode; sim-clock and count metrics over the first episode of each
    load seed (later ones reproduce it)."""
    by_seed = {}
    for e in episodes:
        by_seed.setdefault(e["seed"], e)
    firsts = list(by_seed.values())
    return {
        "sim_s_per_ref_s": median(e["sim_s"] / ref_s(e) for e in episodes),
        "setup_s": median(e["setup_s"] * e["ref_per_wall"]
                          for e in episodes),
        "peak_rss_mb": median(e["peak_rss_mb"] for e in episodes),
        "read_p50_ms": mean(e["read_p50_ms"] for e in firsts),
        "read_tail_ms": mean(e["read_tail_ms"] for e in firsts),
        "write_p50_ms": mean(e["write_p50_ms"] for e in firsts),
        "write_tail_ms": mean(e["write_tail_ms"] for e in firsts),
        "wire_msgs_per_op": sum(e["wire_msgs"] for e in firsts) /
        sum(e["attempted"] for e in firsts),
        "wire_bytes_per_op": sum(e["wire_bytes"] for e in firsts) /
        sum(e["attempted"] for e in firsts),
    }


def per_layer(cycles):
    """Per-layer metrics from traced cycles: dicts holding the untraced
    reference ("ref"), the traced episode ("traced") and, where the
    workload has them, an obs-off ("obs_off") or threads=1 ("oracle")
    episode.  Episodes are compared in reference seconds."""
    traced = [c["traced"] for c in cycles]
    first = traced[0]
    values = {name: median(e["layers"][name] for e in traced)
              for name in first["layers"]}
    values["setup.construct_ms"] = median(1e3 * e["construct_s"]
                                          for e in traced)
    values["setup.place_ms"] = median(1e3 * e["place_s"] for e in traced)
    values["sim.events_per_op"] = first["sim_events"] / first["attempted"]
    values["net.logical_msgs"] = first["logical_msgs"]
    values["net.wire_msgs"] = first["wire_msgs"]
    values["net.batch_factor"] = first["logical_msgs"] / first["wire_msgs"]
    values["client.read.stale_frac"] = first["stale_read_frac"]
    values["trace.overhead_frac"] = median(
        ref_s(c["traced"]) / ref_s(c["ref"]) - 1 for c in cycles)
    offs = [c for c in cycles if "obs_off" in c]
    values["obs.overhead_frac"] = median(
        ref_s(c["ref"]) / ref_s(c["obs_off"]) - 1
        for c in offs) if offs else 0.0
    oracles = [c["oracle"] for c in cycles if "oracle" in c]
    values["runtime.speedup_vs_1thread"] = (
        median(ref_s(o) for o in oracles) /
        median(ref_s(c["ref"]) for c in cycles)) if oracles else 0.0
    return values


def traced_cycle(binary, workload, seed, scale):
    """On the run's first load seed."""
    seed = load_seed(seed, 0)
    cycle = {"ref": episode(binary, workload, seed, scale),
             "traced": episode(binary, workload, seed, scale, trace=True)}
    if workload == "rw_loss":
        cycle["obs_off"] = episode(binary, workload, seed, scale, obs=0)
    if workload == "fleet_1000":
        cycle["oracle"] = episode(binary, workload, seed, scale, threads=1)
    return cycle


def measure(binary, workload, seed, seconds, trace, scale, min_samples):
    """Episodes until `seconds` have passed; returns (metrics, episodes,
    problems)."""
    start = time.monotonic()
    if not trace:
        episodes = []
        while len(episodes) < 2 * LOADS or \
                time.monotonic() - start < seconds:
            episodes.append(episode(binary, workload,
                                    load_seed(seed, len(episodes)), scale))
        return end_to_end(episodes), episodes, problems(episodes, min_samples)
    cycles = []
    while not cycles or time.monotonic() - start < seconds:
        cycles.append(traced_cycle(binary, workload, seed, scale))
    episodes = [e for c in cycles for e in c.values()]
    return per_layer(cycles), episodes, problems(episodes, min_samples)


def result_line(metrics, episodes, found, trace):
    spec = SPEC["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": not found,
        "attempted": sum(e["attempted"] for e in episodes),
        "failed": sum(e["failed"] for e in episodes),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in spec},
    }


# ---------------------------------------------------------------------------
# --all: every workload, interleaved reps, tables for people
# ---------------------------------------------------------------------------

def run_all(binary, seed, reps, scale, min_samples):
    runs = {w: [] for w in WORKLOADS}
    for rep in range(reps):
        for w in WORKLOADS:
            log(f"rep {rep + 1}/{reps}: {w}")
            runs[w].append(loads_round(binary, w, seed, scale))
    found = []
    summary = {}
    for w in WORKLOADS:
        log(f"traced: {w}")
        cycle = traced_cycle(binary, w, seed, scale)
        episodes = [e for rep in runs[w] for e in rep] + list(cycle.values())
        found += problems(episodes, min_samples)
        first = runs[w][0]
        print(f"\n== {w}  (seed {seed}: load seeds "
              f"{', '.join(str(e['seed']) for e in first)}; scale {scale}, "
              f"{reps} reps, {sum(e['attempted'] for e in first)} ops and "
              f"{sum(e['failed'] for e in first)} failed per rep)")
        print(f"   {'metric':22s} {'unit':14s} {'median':>12s} "
              f"{'min':>12s} {'max':>12s}  n")
        per_rep = [end_to_end(rep) for rep in runs[w]]
        medians = {}
        for m in SPEC["end_to_end"]:
            vals = [r[m["name"]] for r in per_rep]
            medians[m["name"]] = median(vals)
            print(f"   {m['name']:22s} {m['unit']:14s} "
                  f"{medians[m['name']]:12.6g} {min(vals):12.6g} "
                  f"{max(vals):12.6g}  {len(vals)}")
        layers = per_layer([cycle])
        print("   -- per layer (one traced cycle) --")
        for m in SPEC["per_layer"]:
            print(f"   {m['name']:34s} {m['unit']:12s} "
                  f"{layers[m['name']]:14.6g}")
        summary[w] = {"end_to_end": medians, "per_layer": layers}
    meta = runs[WORKLOADS[0]][0][0]
    print(f"\nhardware_cores {meta['hardware_cores']}, NDEBUG "
          f"{meta['ndebug']}, compiler {meta['compiler']}, seed {seed}, "
          f"reps {reps}")
    for p in found:
        print(f"CHECK FAILED: {p}")
    print("all checks passed" if not found else f"{len(found)} checks failed")
    print(json.dumps({"seed": seed, "reps": reps, "scale": scale,
                      "hardware_cores": meta["hardware_cores"],
                      "ndebug": meta["ndebug"], "compiler": meta["compiler"],
                      "workloads": summary}))
    return not found


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    scale = DEFAULT_SCALE / 10 if args.smoke else DEFAULT_SCALE
    min_samples = MIN_SAMPLES // 10 if args.smoke else MIN_SAMPLES
    try:
        binary = build()
        if args.all:
            ok = run_all(binary, args.seed, 1 if args.smoke else args.reps,
                         scale, min_samples)
            return 0 if ok else 1
        metrics, episodes, found = measure(binary, args.workload, args.seed,
                                           args.seconds, args.trace, scale,
                                           min_samples)
        for p in found:
            log(f"CHECK FAILED: {p}")
        print(json.dumps(result_line(metrics, episodes, found, args.trace)))
        return 0
    except BenchError as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
