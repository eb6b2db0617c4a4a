"""Benchmark of the weylprior pipeline: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Every measurement is made in a fresh worker process whose
environment has WEYLPRIOR_THREADS and WEYLPRIOR_PURE_PYTHON removed, so the
run measures the program's defaults.

--trace 0: a warm-up and SETUP_PROBES set-up probes, then one process that
runs whole rounds of the workload, starting another only while it would end
within S seconds if it took as long as the last (at least one round); prints
the end-to-end metrics (medians over the rounds, and over the set-up probes).
Times are scaled to a reference host speed measured while they run; see
hostspeed.py.
--trace 1: pairs of processes, one untraced round and one traced round, for
as many pairs as fit in S seconds (at least one); prints the per-layer
metrics of BENCHMARK.json, including trace.overhead_s.

The last line of stdout is the result object; the line before it carries the
configuration and every sample.  Exit status 2: no program source here, or
a worker process failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8            # set-up-only processes per run, after one warm-up
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEYLPRIOR_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(mode, workload, seed, env, outdir, seconds=0.0):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", workload.name, "--model", workload.model_id,
           "--seed", str(seed), "--outdir", str(outdir), "--seconds", repr(seconds)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_steal_ticks():
    """(steal, total) CPU ticks of the whole machine from /proc/stat, or None.

    Steal is time the hypervisor ran something else while this machine's
    CPUs had work; the share over a run tells a disturbed run from a slow
    program.
    """
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (ticks[7], sum(ticks)) if len(ticks) == 8 else None


def setup_probes(run):
    """SETUP_PROBES set-up processes, each timed while the host-speed sampler
    runs here, with ``setup_s`` scaled to the reference host speed (the raw
    figure stays as ``raw_setup_s``)."""
    probes = []
    with hostspeed.Sampler() as sampler:
        time.sleep(0.3)         # its first pieces run cold
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            w = run("setup")
            window = sampler.window(t0, time.perf_counter())
            if window is None:
                raise WorkerError("no host-speed sample fell within a set-up probe")
            w["raw_setup_s"] = w["setup_s"]
            w["setup_s"] *= hostspeed.REFERENCE_S / window[0]
            probes.append(w)
    return probes


def traced_pairs(seconds, run):
    """(untraced, traced) worker pairs until the next would end past ``seconds``."""
    start = time.monotonic()
    pairs = []
    while True:
        p0 = time.monotonic()
        pairs.append((run("single"), run("traced")))
        now = time.monotonic()
        if now + (now - p0) > start + seconds:
            return pairs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "weylprior" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'weylprior'}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = clean_env()
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)

    def run(mode, seconds=0.0):
        return spawn(mode, wl, args.seed, env, outdir, seconds)

    try:
        if args.trace:
            pairs = traced_pairs(args.seconds, run)
            workers = [w for pair in pairs for w in pair]
        else:
            run("setup")    # warm-up: byte-compiles the sources on a fresh checkout
            probes = setup_probes(run)
            ticks0 = host_steal_ticks()
            workers = [run("rounds", args.seconds)]
            ticks1 = host_steal_ticks()
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    rounds = [r for w in workers for r in w["rounds"]]
    configs = {json.dumps(w["config"], sort_keys=True) for w in workers}
    config = json.loads(configs.pop()) if len(configs) == 1 else {"mixed": sorted(configs)}
    for x in [x for r in rounds for x in r["problems"] + r["errors"]][:10]:
        print(f"perfbench: {x}", file=sys.stderr)
    result = {"correct": all(r["correct"] for r in rounds),
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds)}

    if args.trace:
        untraced = [a["rounds"][0]["wall_s"] for a, _ in pairs]
        traced = [b for _, b in pairs]
        counts = [{k: v for k, v in t["layers"].items() if not k.endswith("_s")}
                  for t in traced]
        layers = {}
        for name, (value, unit) in traced[0]["layers"].items():
            if name.endswith("_s"):
                value = statistics.median(t["layers"][name][0] for t in traced)
            layers[name] = {"value": value, "unit": unit}
        traced_wall = [t["rounds"][0]["wall_s"] for t in traced]
        layers["trace.overhead_s"] = {
            "value": statistics.median(traced_wall) - statistics.median(untraced),
            "unit": "s"}
        samples = {"counts_repeat": all(c == counts[0] for c in counts),
                   "functions": traced[0]["trace"]["functions"],
                   "counts": traced[0]["trace"]["counts"],
                   "spans": traced[0]["trace"]["spans"],
                   "wall_s": {"untraced": untraced, "traced": traced_wall}}
        result["metrics"] = layers
    else:
        samples = {k: [r[k] for r in rounds]
                   for k in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s",
                             "piece_s", "oracle_error")}
        samples["setup_s"] = [w["setup_s"] for w in probes]
        samples["raw_setup_s"] = [w["raw_setup_s"] for w in probes]
        samples["peak_rss_mb"] = workers[0]["peak_rss_mb"]
        if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
            samples["host_steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
        result["metrics"] = {
            "wall_s": {"value": statistics.median(samples["wall_s"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(samples["cpu_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(samples["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": samples["peak_rss_mb"], "unit": "MB"},
            "oracle_digits": {"value": min(r["oracle_digits"] for r in rounds),
                              "unit": "digits"},
        }
    print(f"perfbench: {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"backend={config.get('backend')} cpus={config.get('cpu_count')} "
          f"affinity={config.get('affinity')}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "config": config, "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
