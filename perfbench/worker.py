"""One fresh benchmark process: a set-up probe, whole rounds of a workload
(times scaled to the reference host speed), or one round, plain or traced.

Started by run.py with the program's environment cleaned; prints one JSON
line.  ``--spawned`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so set-up time covers the interpreter start,
``import weylprior`` and ``get_model``.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def configuration():
    from weylprior import kernels
    return {"backend": kernels.backend_name(), "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "env": {k: v for k, v in os.environ.items() if k.startswith("WEYLPRIOR_")}}


def one_round(wl_class, seed, model, outdir, oracles):
    """Build the seeded inputs, time one round of calls, then check the outputs."""
    from workloads import Ops
    workdir = tempfile.mkdtemp(prefix="work-", dir=outdir)
    try:
        wl = wl_class(seed, workdir)
        ops = Ops()
        c0 = time.process_time()
        t0 = time.perf_counter()
        wl.run(ops, model)
        t1 = time.perf_counter()
        c1 = time.process_time()
        try:
            err = wl.check()
        except Exception as exc:  # an unreadable output fails the check, not the run
            wl.problems.append(f"check raised {type(exc).__name__}: {exc}")
            err = 1.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"wall_s": t1 - t0, "cpu_s": c1 - c0, "span": (t0, t1), "oracle_error": err,
            "oracle_digits": oracles.digits(err), "correct": not wl.problems,
            "problems": wl.problems[:10], "attempted": ops.attempted,
            "failed": ops.failed, "errors": ops.errors[:10]}


def scale_host_speed(r, sampler):
    """Scale a round's times to the host speed of hostspeed.REFERENCE_S.

    The raw times stay in the round as ``raw_wall_s`` and ``raw_cpu_s``; the
    sampler thread's CPU time during the round is not the program's and is
    taken out of ``cpu_s`` first.
    """
    import hostspeed
    window = sampler.window(*r.pop("span"))
    if window is None:      # a round shorter than the sampling interval
        raise RuntimeError("no host-speed sample fell within a round")
    piece, sampler_cpu = window
    factor = hostspeed.REFERENCE_S / piece
    r.update(raw_wall_s=r["wall_s"], raw_cpu_s=r["cpu_s"], piece_s=piece)
    r["wall_s"] = r["raw_wall_s"] * factor
    r["cpu_s"] = (r["raw_cpu_s"] - sampler_cpu) * factor


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=["setup", "rounds", "single", "traced"],
                   required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="rounds mode: length of the measured interval")
    args = p.parse_args(argv)

    import weylprior.cli  # noqa: F401  (the CLI is part of the program's import cost)
    from weylprior import models
    model = models.get_model(args.model)
    result = {"setup_s": time.monotonic() - args.spawned, "config": configuration()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import oracles
    from workloads import WORKLOADS
    wl_class = WORKLOADS[args.workload]
    if args.mode in ("single", "traced"):
        if args.mode == "traced":
            from tracer import Tracer, layer_metrics
            tracer = Tracer()
            tracer.install()
        result["rounds"] = [one_round(wl_class, args.seed, model, args.outdir, oracles)]
        del result["rounds"][0]["span"]
        if args.mode == "traced":
            summary = tracer.summary()
            result["layers"] = layer_metrics(summary, wl_class.points)
            result["trace"] = summary
            tracer.save(os.path.join(args.outdir, f"trace-{args.workload}.npz"))
    else:
        # whole rounds while the next, if as long as the last, ends within
        # --seconds, with the host-speed sampler running throughout
        import hostspeed
        result["rounds"] = []
        with hostspeed.Sampler() as sampler:
            time.sleep(0.5)     # its first pieces run cold; keep them out of round 1
            start = time.monotonic()
            last = 0.0
            while not result["rounds"] or time.monotonic() - start + last <= args.seconds:
                r0 = time.monotonic()
                result["rounds"].append(one_round(wl_class, args.seed, model,
                                                  args.outdir, oracles))
                last = time.monotonic() - r0
        for r in result["rounds"]:
            scale_host_speed(r, sampler)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
