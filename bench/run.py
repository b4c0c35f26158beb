"""Benchmark of nss, end to end and per layer.

    python3 bench/run.py --workload search --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from anywhere; nss is imported from ``src/`` next to this directory.
Every round is a fresh ``worker.py`` process, one at a time, so nothing
(mpmath precision, the letter memo) carries over between rounds or
workloads.

``--trace 0`` repeats the workload's fixed job list in fresh processes for
about ``--seconds`` (at least three rounds) and reports medians of the
end-to-end metrics.  The first round checks every output; later rounds must
reproduce its outputs exactly.  Times are reported in reference seconds (see
calibration.py); the human-readable lines also print the measured ones.  ``--trace 1`` runs one untraced and one traced round
and reports the per-layer metrics, including the tracing overhead.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Exit code 2 when the nss sources are missing.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "recursion", "verify", "braid4q")
UNITS = {"search": "nodes", "recursion": "steps", "verify": "checks", "braid4q": "letters"}
END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MB"}
MIN_ROUNDS = 3
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170.0
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one fresh worker process to completion and return its JSON."""
    env = dict(os.environ, **CHILD_ENV)
    t0 = monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), *flags]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"{workload} worker passed the {RUN_LIMIT_S:.0f} s limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def machine() -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = ", ".join(f"{pkg} {importlib.metadata.version(pkg)}" for pkg in ("numpy", "mpmath"))
    return (f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu}, "
            f"python {platform.python_version()}, {versions}")


def correct_of(rounds) -> bool:
    return all(r["failed"] == 0 and not r["problems"] for r in rounds)


def failed_ratio(rounds) -> tuple[float, str]:
    """Jobs that raised, failed their check or reported a failing check.

    Unchecked rounds repeat a checked round's outputs exactly, so only the
    checked rounds are counted.
    """
    rounds = [r for r in rounds if r["checked"]]
    attempted = sum(r["attempted"] for r in rounds)
    bad = sum(r["failed"] + r["info"].get("defect_jobs", 0) for r in rounds)
    by_check = {}
    for r in rounds:
        for name, n in r["info"].get("defect_checks", {}).items():
            by_check[name] = by_check.get(name, 0) + n
    detail = f"{bad} of {attempted} jobs"
    if by_check:
        detail += "; failing checks: " + ", ".join(f"{k} x{v}" for k, v in sorted(by_check.items()))
    return bad / attempted, detail


def untraced(workload: str, seed: int, seconds: int, deadline: float):
    spawn(workload, seed, deadline, "--setup-only")    # warm the file cache
    start = monotonic()
    rounds, durations = [], []
    while True:
        t = monotonic()
        # the first round checks every output; the rest must repeat its outputs
        r = spawn(workload, seed, deadline, *(() if rounds else ("--check",)))
        durations.append(monotonic() - t)
        if rounds and r["digest"] != rounds[0]["digest"]:
            r["problems"].append(f"round {len(rounds) + 1} outputs differ from round 1")
        rounds.append(r)
        if len(rounds) >= MIN_ROUNDS and (
                monotonic() - start + statistics.median(durations) > seconds):
            break
    setups = list(rounds)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, deadline, "--setup-only"))

    metrics = {
        "setup_s": statistics.median(r["setup_ref_s"] for r in setups),
        "wall_s": statistics.median(r["wall_ref_s"] for r in rounds),
        "job_p50_s": statistics.median(
            statistics.median(r["job_ref_s"][j] for r in rounds)
            for j in range(len(rounds[0]["job_ref_s"]))),
        "work_per_s": statistics.median(r["work"] / r["wall_ref_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    ratio, detail = failed_ratio(rounds)
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"median of {len(rounds)} rounds, one fresh process each",
        "job_p50_s": f"median over the {len(rounds[0]['job_ref_s'])} jobs of each job's "
                     f"median over rounds",
        "work_per_s": f"{UNITS[workload]} per second",
        "peak_rss_mb": "median peak resident memory of a round",
    }
    lines = [f"  {name:<13} {metrics[name]:<12.6g} {unit:<5} {notes[name]}"
             for name, unit in END_TO_END.items()]
    lines.append(f"  {'failed_ratio':<13} {ratio:<12.6g} {'ratio':<5} {detail}")
    lines.append("  measured round wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
    lines.append("  machine slowdown per round (1 = reference): "
                 + " ".join(f"{r['slowdown']:.3f}" for r in rounds))
    return rounds, metrics, lines


def traced(workload: str, seed: int, deadline: float):
    flags = ("--parallel",) if workload == "search" else ()
    plain = spawn(workload, seed, deadline, "--check", *flags)
    rounds = [plain, spawn(workload, seed, deadline, "--check", "--trace")]
    from layers import PER_LAYER
    layers = dict(rounds[1]["layers"])
    par = plain.get("parallel")
    layers["gates.search.ns_per_node"] = (
        plain["wall_ref_s"] / plain["work"] * 1e9 if workload == "search" else 0.0)
    layers["gates.search.parallel_efficiency"] = par["efficiency"] if par else 0.0
    layers["cli.import_s"] = statistics.median(r["import_ref_s"] for r in rounds)
    layers["tracing_overhead_s"] = rounds[1]["wall_ref_s"] - plain["wall_ref_s"]
    layers["failed_ratio"], detail = failed_ratio(rounds)
    if par and not par["same_hits"]:
        plain["problems"].append(f"jobs={par['workers']} search returned other hits")

    metrics = {name: layers[name] for name in PER_LAYER}
    lines = [f"  {name:<44} {value:<14.6g} {PER_LAYER[name][0]}"
             for name, value in metrics.items()]
    lines.append(f"  measured wall_s untraced {plain['wall_s']:.4f} s, traced "
                 f"{rounds[1]['wall_s']:.4f} s; machine slowdown {plain['slowdown']:.3f}, "
                 f"{rounds[1]['slowdown']:.3f}; failed: {detail}")
    if par:
        lines.append(f"  search jobs=1 {par['serial_s']:.3f} s, jobs={par['workers']} "
                     f"{par['parallel_s']:.3f} s")
    return rounds, {name: (v, PER_LAYER[name][0]) for name, v in metrics.items()}, lines


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    deadline = monotonic() + RUN_LIMIT_S
    if trace:
        rounds, metrics, lines = traced(workload, seed, deadline)
    else:
        rounds, metrics, lines = untraced(workload, seed, seconds, deadline)
        metrics = {name: (v, END_TO_END[name]) for name, v in metrics.items()}
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: "
          f"{len(rounds)} rounds of {rounds[0]['attempted']} jobs")
    print("  jobs: " + "; ".join(rounds[0]["jobs"]))
    for r in rounds[0]["info"].get("search_jobs", []):
        print(f"  search alpha {r['alpha']}: {r['hits']} hits, {r['distinct']} distinct "
              f"up to phase")
    for line in lines:
        print(line)
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems[:20]:
        print(f"  PROBLEM {p}")
    return {"correct": correct_of(rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "nss" / "__init__.py").is_file():
        print(f"no nss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"machine: {machine()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        res = results[names[0]]
    else:
        res = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    res["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
