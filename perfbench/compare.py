#!/usr/bin/env python3
"""Record, summarize and compare pm2bench results (bench_compare).

A results file holds one JSON object per line:
    {"workload": ..., "seed": ..., "trace": 0|1, "result": {...}}
where "result" is the last line a run of perfbench/run.py printed.

Subcommands (run from the repository root):

  record OUT --seeds 1-10 [--workloads a,b] [--trace 0|1]
      Run perfbench/run.py once per (workload, seed) and append to OUT.
  spread FILE
      Per workload and metric: median, quartiles and the spread
      (q3 - q1) / median, against each metric's bound in BENCHMARK.json.
  diff BASE NEW
      Per workload and metric: the medians of both files and a verdict.
  selfcheck --seed N [--workloads a,b]
      Run every workload twice with one seed, untraced and traced, and
      check that every virtual metric and per-layer counter repeats exactly.

Verdicts of diff, for end-to-end metrics (bounds from BENCHMARK.json):
  identical   a virtual-clock metric with equal values on every common seed
  unresolved  the spread of BASE or NEW is wider than the bound
  worse       NEW's median is worse than BASE's by more than the bound
  improved    NEW's median is better by more than BASE's spread and NEW wins
              at least 9 of 10 seed-paired runs
  same        none of the above
Per-layer metrics have no bound; diff reports their relative change only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Metrics on the host clock or of the host process; every other metric is
# computed from the virtual clock and the layers' counters, and repeats
# exactly for a seed. The buffer pool is process-wide and shared by the
# engine's worker threads, so its reuse ratio depends on their timing.
HOST_METRICS = {
    "setup_s", "sim_msgs_per_host_s", "host_ms_p50", "peak_rss_mb",
    "simcore.host_ns_per_event", "simnet.pool_hit_ratio",
    "nmad.isend_host_ns_p50", "nmad.irecv_host_ns_p50",
    "obs.trace_overhead_ratio", "cluster.ctor_ms", "cluster.run_ms",
    "cluster.run_self_ms", "cluster.dtor_ms",
}


def clock(name):
    return "host" if name in HOST_METRICS else "virtual"


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs():
    s = spec()
    return {m["name"]: m for m in s["end_to_end"] + s["per_layer"]}


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def values(recs, name):
    return {r["seed"]: r["result"]["metrics"][name]["value"] for r in recs
            if name in r["result"]["metrics"]}


def quartiles(vals):
    vals = sorted(vals)
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, trace, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"compare.py: run failed ({done.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1])


def cmd_record(a):
    s = spec()
    workloads = a.workloads.split(",") if a.workloads else [
        w["name"] for w in s["workloads"]]
    with open(a.out, "a") as out:
        for w in workloads:
            for seed in parse_seeds(a.seeds):
                res = run_once(w, seed, a.trace, s["run_seconds"])
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "trace": a.trace, "result": res}) + "\n")
                out.flush()
                print(f"{w} seed={seed} trace={a.trace} "
                      f"correct={res['correct']}", file=sys.stderr)


def cmd_spread(a):
    specs = metric_specs()
    worst = 0.0
    for (w, trace), recs in sorted(load(a.file).items()):
        print(f"== {w} (trace {trace}, {len(recs)} runs)")
        for name in recs[0]["result"]["metrics"]:
            vals = list(values(recs, name).values())
            q1, med, q3 = quartiles(vals)
            bound = specs.get(name, {}).get("bound")
            sp = spread(vals)
            flag = ""
            if bound is not None:
                worst = max(worst, sp / bound)
                flag = ("OVER BOUND" if sp > bound else
                        "over bound/3" if sp > bound / 3 else "ok")
            print(f"  {name:36s} {clock(name):7s} median {med:14.6g}  "
                  f"q1 {q1:14.6g}  q3 {q3:14.6g}  spread {sp:8.4f}"
                  + (f"  bound {bound:5.3f} {flag}" if bound is not None
                     else ""))
    print(f"largest spread / bound: {worst:.3f}")


def verdict(name, m, base, new):
    common = sorted(set(base) & set(new))
    if clock(name) == "virtual" and common and all(
            base[s] == new[s] for s in common):
        return "identical"
    bound = m["bound"]
    if spread(list(base.values())) > bound or spread(list(new.values())) > bound:
        return "unresolved"
    bmed = statistics.median(base.values())
    nmed = statistics.median(new.values())
    sign = 1 if m["better"] == "lower" else -1
    change = sign * (nmed - bmed) / abs(bmed)  # > 0: worse
    if change > bound:
        return "worse"
    wins = sum(1 for s in common if sign * (new[s] - base[s]) < 0)
    if (-change > spread(list(base.values())) and common
            and wins >= 0.9 * len(common)):
        return "improved"
    return "same"


def cmd_diff(a):
    specs = metric_specs()
    base_runs, new_runs = load(a.base), load(a.new)
    for key in sorted(set(base_runs) & set(new_runs)):
        w, trace = key
        print(f"== {w} (trace {trace})")
        for name in base_runs[key][0]["result"]["metrics"]:
            base = values(base_runs[key], name)
            new = values(new_runs[key], name)
            if not base or not new:
                continue
            bmed = statistics.median(base.values())
            nmed = statistics.median(new.values())
            rel = (nmed - bmed) / abs(bmed) if bmed else float("nan")
            m = specs.get(name, {})
            v = verdict(name, m, base, new) if "bound" in m else ""
            print(f"  {name:36s} {bmed:14.6g} -> {nmed:14.6g}  "
                  f"{rel:+8.2%}  {v}")


def cmd_selfcheck(a):
    s = spec()
    workloads = a.workloads.split(",") if a.workloads else [
        w["name"] for w in s["workloads"]]
    bad = 0
    for w in workloads:
        for trace in (0, 1):
            r1 = run_once(w, a.seed, trace, a.seconds)
            r2 = run_once(w, a.seed, trace, a.seconds)
            differ = [name for name, v in r1["metrics"].items()
                      if clock(name) == "virtual"
                      and v["value"] != r2["metrics"][name]["value"]]
            for name in differ:
                print(f"{w} trace={trace} {name}: "
                      f"{r1['metrics'][name]['value']} vs "
                      f"{r2['metrics'][name]['value']}")
            bad += len(differ)
            print(f"{w} trace={trace}: virtual metrics "
                  f"{'DIFFER' if differ else 'repeat'}")
    sys.exit(1 if bad else 0)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("out")
    r.add_argument("--seeds", required=True)
    r.add_argument("--workloads")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("spread")
    p.add_argument("file")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    c = sub.add_parser("selfcheck")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--workloads")
    c.add_argument("--seconds", type=float, default=2)
    a = ap.parse_args()
    {"record": cmd_record, "spread": cmd_spread, "diff": cmd_diff,
     "selfcheck": cmd_selfcheck}[a.cmd](a)


if __name__ == "__main__":
    main()
