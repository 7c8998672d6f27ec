#!/usr/bin/env python3
"""A/B two idea_bench binaries in alternating single-episode pairs.

  python3 bench/ab_pairs.py PARENT_BIN CHANGE_BIN [--workload rw_loss]
      [--pairs 10] [--seed 100] [--scale 0.25] [--threads N]
      [--metric sim_s_per_ref_s|setup_s|peak_rss_mb|wire_bytes_per_op|
                wire_msgs_per_op] [--json FILE]

Pair i runs one episode of each binary at load seed --seed + i; the order
alternates from pair to pair (parent first in even pairs), so a drift of
the host's speed does not favour one side.  Per side it prints the median
and quartiles of each episode's sim_s_per_ref_s (sim seconds per
reference second, the per-episode value perfbench/run.py takes the median
of), setup_s (reference seconds) and peak_rss_mb, and the medians of the
raw readings behind the first two: wall_s and setup (construct_s +
place_s) in wall seconds, and the speed probe's ref_per_wall.  A change
that speeds the probe moves the reference-second metrics without moving
the raw ones.  Each pair's line and the summary also give the paired
ratios change/parent of wall_s and of ref_per_wall (the summary with
their median and quartiles): per-side medians of a noisy host can hide
how far raw time moved pair by pair, and only the paired view shows
whether raw time moved or only the speed probe did.  --metric may also
name wire_bytes_per_op or wire_msgs_per_op: the episode's wire_bytes or
wire_msgs over its attempted operations (deterministic per load seed),
whose quartiles are then printed too.  Then it prints how many pairs the change won and lost
on --metric (default sim_s_per_ref_s; "won" in the direction
BENCHMARK.json gives the metric, and a pair with equal values counts for
neither side), how many pairs had identical fingerprints, and
perfbench/README.md's gain verdict: a gain only when the change wins at
least nine pairs in ten and its median beats the parent's by more than
the parent's interquartile range.

Exits 1 if any episode reports a failed operation or an unconverged file,
2 on a usage or run error.  It reads only idea_bench's JSON output.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

EPISODE_TIMEOUT_S = 300
METRICS = ("sim_s_per_ref_s", "setup_s", "peak_rss_mb")
PER_OP = {"wire_bytes_per_op": "wire_bytes", "wire_msgs_per_op": "wire_msgs"}
RAW = ("wall_s", "raw_setup_s", "ref_per_wall")
PAIRED = ("wall_s", "ref_per_wall")
SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())
HIGHER_IS_BETTER = {m["name"]: m["better"] == "higher"
                    for m in SPEC["end_to_end"]}


def episode(binary, workload, seed, scale, threads):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--scale", str(scale), "--trace", "0", "--threads", str(threads)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=EPISODE_TIMEOUT_S)
    e = json.loads(out.stdout.strip().splitlines()[-1])
    e["sim_s_per_ref_s"] = e["sim_s"] / (e["wall_s"] * e["ref_per_wall"])
    e["raw_setup_s"] = e["construct_s"] + e["place_s"]
    e["setup_s"] = e["setup_s"] * e["ref_per_wall"]
    for name, count in PER_OP.items():
        e[name] = e[count] / e["attempted"]
    return e


def quartiles(values):
    """(q1, median, q3), inclusive method so a handful of runs works."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", default="rw_loss")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--scale", type=float, default=0.25)
    ap.add_argument("--threads", type=int, default=0,
                    help="worker threads (default: 2 for fleet_1000, "
                         "capped by the host's cores, else 1)")
    ap.add_argument("--metric", choices=METRICS + tuple(PER_OP),
                    default=METRICS[0],
                    help="the metric the wins and the gain verdict judge")
    ap.add_argument("--json", help="also write every episode here")
    args = ap.parse_args()
    metric = args.metric
    higher = HIGHER_IS_BETTER[metric]
    threads = args.threads or (min(2, os.cpu_count() or 1)
                               if args.workload == "fleet_1000" else 1)

    sides = {"parent": [], "change": []}
    problems = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            binary = getattr(args, side)
            try:
                e = episode(binary, args.workload, seed, args.scale, threads)
            except (subprocess.SubprocessError, OSError, ValueError) as err:
                print(f"{side} episode at seed {seed} failed: {err}",
                      file=sys.stderr)
                return 2
            sides[side].append(e)
            if e["failed"] > 0:
                problems.append(f"{side} seed {seed}: {e['failed']} failed ops")
            if e["converged"] != e["files"]:
                problems.append(f"{side} seed {seed}: {e['converged']} of "
                                f"{e['files']} files converged")
        p, c = sides["parent"][-1], sides["change"][-1]
        same = p["fingerprint"] == c["fingerprint"]
        print(f"pair {i + 1:2d} seed {seed}: {metric} parent "
              f"{p[metric]:8.4g}  change {c[metric]:8.4g}  change/parent "
              + "  ".join(f"{m} {c[m] / p[m]:.3f}" for m in PAIRED)
              + f"  {'same' if same else 'DIFFERENT'} fingerprint",
              flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, scale {args.scale}, "
          f"threads {threads}:")
    shown = METRICS if metric in METRICS else METRICS + (metric,)
    stats = {}
    for side, episodes in sides.items():
        stats[side] = {m: quartiles([e[m] for e in episodes]) for m in shown}
        print(f"  {side:6s} " + "  ".join(
            f"{m} {q2:.4g} [{q1:.4g}, {q3:.4g}]"
            for m, (q1, q2, q3) in stats[side].items()))
        print("         raw: " + "  ".join(
            f"{m} {median(e[m] for e in episodes):.4g}" for m in RAW))
    pairs = list(zip(sides["parent"], sides["change"]))
    ratios = {m: quartiles([c[m] / p[m] for p, c in pairs]) for m in PAIRED}
    print("  paired change/parent: " + "  ".join(
        f"{m} {q2:.4f} [{q1:.4f}, {q3:.4f}]"
        for m, (q1, q2, q3) in ratios.items()))
    sign = 1 if higher else -1
    wins = sum(sign * (c[metric] - p[metric]) > 0 for p, c in pairs)
    losses = sum(sign * (c[metric] - p[metric]) < 0 for p, c in pairs)
    same = sum(c["fingerprint"] == p["fingerprint"] for p, c in pairs)
    p_q1, p_med, p_q3 = stats["parent"][metric]
    c_med = stats["change"][metric][1]
    gap, iqr = sign * (c_med - p_med), p_q3 - p_q1
    gain = wins >= 0.9 * len(pairs) and gap > iqr
    print(f"  {metric} ({'higher' if higher else 'lower'} is better): "
          f"change won {wins}/{len(pairs)} pairs and lost {losses} "
          f"({len(pairs) - wins - losses} equal); "
          f"{same}/{len(pairs)} pairs had identical fingerprints")
    print(f"  median {p_med:.4g} -> {c_med:.4g} "
          f"({100 * (c_med - p_med) / p_med:+.1f} %), improvement {gap:+.4g}, "
          f"parent IQR {iqr:.4g}: "
          f"{'GAIN' if gain else 'no gain shown'} "
          "(needs >= 9/10 wins and a median improvement above the "
          "parent's IQR)")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(sides, f, indent=1)
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
