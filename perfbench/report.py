"""Run the benchmark over seeds and print every metric with its unit.

    python3 perfbench/report.py                      # one run per workload
    python3 perfbench/report.py --runs 10 --sets 2 --traced 2

Each run is ``python3 perfbench/run.py`` as BENCHMARK.json names it, with
the run length BENCHMARK.json fixes.  Set k uses seeds k*runs+1 .. (k+1)*runs.
For every end-to-end metric the report gives, per set, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median; with
two sets it gives the shift of the second median against the first, in the
metric's worse direction, beside the metric's bound.  Traced runs give the
per-layer metrics and whether their counts repeat exactly.  Runs whose
configuration (kernel backend, CPU count, affinity) differs from the most
common one are listed and left out of the comparison.  Everything is also
written to perfbench/out/report.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "config": detail["config"],
            "samples": detail["samples"], **result}


def config_key(run):
    c = run["config"]
    return json.dumps({k: c.get(k) for k in ("backend", "cpu_count", "affinity", "env")},
                      sort_keys=True)


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med),
            "n": len(values)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=1, help="seeds per workload and set")
    p.add_argument("--sets", type=int, default=1, choices=[1, 2])
    p.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    p.add_argument("--workload", action="append", help="limit to these workloads")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    e2e = bench["end_to_end"]

    runs = []
    for s in range(args.sets):
        for i in range(args.runs):
            for w in names:
                seed = s * args.runs + i + 1
                r = run_once(bench, w, seed, 0)
                r["set"] = s
                runs.append(r)
                print(f"set {s + 1} seed {seed:3d} {w:28s} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                      + f" attempted={r['attempted']} failed={r['failed']}"
                      + f" host_steal={r['samples'].get('host_steal_share', float('nan')):.3f}"
                      + ("" if r["correct"] else " INCORRECT"), flush=True)
    ref = Counter(config_key(r) for r in runs).most_common(1)[0][0] if runs else None
    odd = [r for r in runs if config_key(r) != ref]
    runs = [r for r in runs if config_key(r) == ref]
    for r in odd:
        print(f"different configuration, not compared: {r['workload']} seed {r['seed']} "
              f"{config_key(r)}")

    report = {"configuration": json.loads(ref) if ref else None,
              "run_seconds": bench["run_seconds"], "end_to_end": {}, "per_layer": {},
              "runs": [{"set": r["set"] + 1, "seed": r["seed"], "workload": r["workload"],
                        "host_steal_share": r["samples"].get("host_steal_share"),
                        **{k: v["value"] for k, v in r["metrics"].items()}}
                       for r in runs]}
    for w in names:
        rows = {}
        print(f"\n## {w}")
        print(f"{'metric':16s} {'unit':7s} {'bound':>6s}  "
              + "  ".join(f"set {s + 1}: median [q1, q3] spread" for s in range(args.sets))
              + ("  shift" if args.sets == 2 else ""))
        per_set = [[r for r in runs if r["workload"] == w and r["set"] == s]
                   for s in range(args.sets)]
        for m in e2e:
            sets = [stats([r["metrics"][m["name"]]["value"] for r in rs]) for rs in per_set]
            line = f"{m['name']:16s} {m['unit']:7s} {m['bound']:6.2f}  " + "  ".join(
                f"{st['median']:.6g} [{st['q1']:.6g}, {st['q3']:.6g}] {st['spread']:.4f}"
                for st in sets)
            row = {"unit": m["unit"], "bound": m["bound"], "sets": sets}
            if args.sets == 2:
                sign = 1.0 if m["better"] == "lower" else -1.0
                shift = sign * (sets[1]["median"] - sets[0]["median"]) / abs(sets[0]["median"])
                row["shift"] = shift
                ok = shift <= m["bound"] and (m["name"] == "setup_s" or all(
                    st["spread"] <= m["bound"] for st in sets))
                line += f"  {shift:+.4f} {'ok' if ok else 'OUT OF BOUND'}"
            rows[m["name"]] = row
            print(line)
        counts = [(sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs))
                  for rs in per_set]
        print("operations: " + "  ".join(
            f"set {s + 1}: attempted {a} failed {f}" for s, (a, f) in enumerate(counts))
            + ("" if all(r["correct"] for rs in per_set for r in rs) else "  INCORRECT"))
        report["end_to_end"][w] = {"metrics": rows, "operations": counts,
                                   "correct": all(r["correct"] for rs in per_set for r in rs),
                                   "seeds": [[r["seed"] for r in rs] for rs in per_set]}

    for w in names if args.traced else []:
        traced = [run_once(bench, w, seed, 1) for seed in range(1, args.traced + 1)]
        first = traced[0]["metrics"]
        repeat = all(
            t["metrics"][k]["value"] == v["value"]
            for t in traced for k, v in first.items() if not k.endswith("_s"))
        repeat = repeat and all(t["samples"]["counts_repeat"] for t in traced)
        print(f"\n## {w} (traced, {len(traced)} runs, counts repeat exactly: {repeat})")
        layers = {}
        for k, v in first.items():
            vals = [t["metrics"][k]["value"] for t in traced]
            layers[k] = {"unit": v["unit"], "median": statistics.median(vals), "values": vals}
            print(f"{k:40s} {v['unit']:12s} {statistics.median(vals):.6g}")
        shapes = {k: v for k, v in traced[0]["samples"]["counts"].items()
                  if k.startswith("shape")}
        print(f"kernel shapes: {shapes}")
        report["per_layer"][w] = {"counts_repeat": repeat, "metrics": layers,
                                  "kernel_shapes": shapes,
                                  "spans": traced[0]["samples"]["spans"]}

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
