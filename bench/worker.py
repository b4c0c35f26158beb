"""One fresh benchmark process: import nss, build the inputs, run the jobs.

Started by ``run.py`` once per round, so every round pays the import and
meets cold caches the way a CLI command does.  Prints one JSON line.

    python3 bench/worker.py --workload search --seed 1 --t0 <CLOCK_MONOTONIC at spawn>
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def monotonic() -> float:
    # system-wide on Linux, so comparable with the spawning process's reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true",
                    help="check every output; without it only the digest is reported")
    ap.add_argument("--parallel", action="store_true",
                    help="search only: also time jobs=min(2, nproc) on the first input")
    args = ap.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    t_import = time.perf_counter()
    import nss.cli  # noqa: F401  -- the whole package, as the CLI loads it
    import_s = time.perf_counter() - t_import
    if not Path(nss.__file__).resolve().is_relative_to(src.resolve()):
        print(f"nss imported from {nss.__file__}, not from {src}", file=sys.stderr)
        return 2

    import random
    import calibration
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    jobs = wl.inputs(random.Random(args.seed))
    setup_s = monotonic() - args.t0
    cal_s = [calibration.kernel() for _ in range(calibration.SETUP_SAMPLES)]
    slow = calibration.slowdown(cal_s)
    out = {"setup_s": setup_s, "setup_ref_s": setup_s / slow, "import_ref_s": import_s / slow}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl.prepare()

    outputs, job_s, work = [], [], 0
    if tracer:
        tracer.start()
    for job in jobs:
        j0 = time.perf_counter()
        try:
            result, units = wl.run(job)
        except Exception as exc:  # a raising job is a failed job; keep running
            traceback.print_exc(file=sys.stderr)
            result, units = exc, 0
        job_s.append(time.perf_counter() - j0)
        outputs.append(result)
        work += units
        cal_s.append(calibration.kernel())
    if tracer:
        tracer.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    info, problems, failed = {}, [], 0
    digest = hashlib.sha256()
    for job, result in zip(jobs, outputs):
        if isinstance(result, Exception):
            found = [f"{type(result).__name__}: {result}"]
        else:
            digest.update(wl.digest(result).encode())
            found = wl.check(job, result, info) if args.check else []
        if found:
            failed += 1
            problems.extend(f"{wl.describe(job)}: {p}" for p in found)

    slow = calibration.slowdown(cal_s)
    job_ref_s = [t / slow for t in job_s]
    out.update(wall_s=sum(job_s), wall_ref_s=sum(job_ref_s), job_ref_s=job_ref_s,
               slowdown=slow, work=work, peak_rss_mb=peak_rss_mb,
               attempted=len(jobs), failed=failed, problems=problems[:20],
               checked=args.check, digest=digest.hexdigest(),
               jobs=[wl.describe(j) for j in jobs], info=info)
    if args.parallel and not isinstance(outputs[0], Exception):
        out["parallel"] = time_parallel(jobs[0], job_s[0], outputs[0])
    if tracer:
        from layers import layer_metrics
        layers, mismatches = layer_metrics(tracer, wl, jobs, info, slow)
        out["layers"] = layers
        out["problems"].extend(mismatches)
    print(json.dumps(out))
    return 0


def time_parallel(job, serial_s: float, serial_hits) -> dict:
    """Parallel efficiency of the search: serial time / (workers * parallel time)."""
    from nss import gates
    from workloads import SEARCH_MAX_LEN, SEARCH_MAX_POWER, SEARCH_THRESHOLD

    workers = min(2, len(os.sched_getaffinity(0)))
    t0 = time.perf_counter()
    hits = gates.search_low_leakage(job, SEARCH_MAX_LEN, SEARCH_THRESHOLD,
                                    jobs=workers, max_power=SEARCH_MAX_POWER)
    parallel_s = time.perf_counter() - t0
    return {"workers": workers, "serial_s": serial_s, "parallel_s": parallel_s,
            "efficiency": serial_s / (workers * parallel_s),
            "same_hits": [h.word for h in hits] == [h.word for h in serial_hits]}


if __name__ == "__main__":
    sys.exit(main())
