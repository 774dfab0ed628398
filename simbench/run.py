#!/usr/bin/env python3
"""Outside-in benchmark of the DSM simulator (see simbench/README.md).

    python3 simbench/run.py --workload radix-ccnuma --seed 1 --seconds 10 --trace 0

Builds simbench/ (and with it the simulator from src/) into .bench_build/,
then runs repetitions of one workload, one process per repetition, for
--seconds seconds. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics. Metric names and units come from BENCHMARK.json.

Every repetition passes the workload's verify() and the coherence checker,
and must produce the same simulation digest as every other repetition of
the run; the last stdout line is the JSON result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "simbench"
BUILD_DIR = ROOT / ".bench_build" / "simbench"
BINARY = BUILD_DIR / "simbench"
WORKLOADS = ("radix-ccnuma", "raytrace-migrep", "ocean-rnuma", "radix-mesh64-chaos")
BUCKETS = ("mem.l1_hit", "dsm.node_local", "dsm.remote", "dsm.page_op")
MIN_REPS = 3         # untraced reps per run, whatever --seconds says
MIN_TRACED_REPS = 2  # traced (and as many untraced) reps with --trace 1
DEADLINE_S = 150     # the whole measurement loop, minimum reps or not
# Host-speed probe time (RepResult::cal_mem_s) of the reference host
# that refs_per_s is quoted for: about what the 4-vCPU Xeon VM the
# benchmark was tuned on measures. Fixed, so runs on one host stay
# comparable.
CAL_REF_S = 0.009


def die(msg, code=1):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(prog="simbench/run.py", allow_abbrev=False,
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="fault-plan seed (FaultConfig::seed)")
    p.add_argument("--seconds", type=int, default=10,
                   help="measurement time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics, 1: per-layer metrics")
    args = p.parse_args()
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be in [0, 2^64)")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def build():
    """Configure and build simbench/ under a lock (runs may share a checkout)."""
    if not (ROOT / "src" / "harness" / "runner.cpp").is_file():
        die(f"simulator sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR.parent / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for cmd in steps:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if res.returncode != 0:
                die(f"build failed: {' '.join(cmd)}")


def benchmark_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    return spec


def run_rep(workload, seed, traced, timeout):
    """One repetition in its own process; returns (record or None, error)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if res.returncode != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exit code {res.returncode}: {tail[0]}"
    try:
        rec = json.loads(res.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "no record on stdout"
    if rec["refs"] <= 0 or rec["sim_cycles"] <= 0 or rec["run_s"] <= 0:
        return None, "empty simulation"
    return rec, None


def context():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    h = hashlib.sha256()
    for d in ("src", "simbench"):
        for f in sorted((ROOT / d).rglob("*")):
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
            "source_sha256": h.hexdigest()}


def quiet_run_s(reps):
    """Engine::run seconds with every slice at its fastest across reps.

    Each rep records when it crossed 1024 equal shares of its references,
    and the simulation is deterministic, so slice k is the same work in
    every rep. Other load on the host can only slow a slice down, and
    it comes in bursts far shorter than a rep, so the fastest copy of
    each slice, summed, is the run time of a quiet host.
    """
    cps = [[0.0] + r["checkpoints_s"] for r in reps]
    return sum(min(c[k + 1] - c[k] for c in cps)
               for k in range(len(cps[0]) - 1))


def host_speed(reps):
    """How much faster than the reference host this one ran the probe.

    Other tenants also slow the host for minutes at a time, and then
    every slice is slower; the probe, taken in every rep, slows with it.
    """
    return CAL_REF_S / median([r["cal_mem_s"] for r in reps])


def end_to_end(reps):
    return {
        "refs_per_s": reps[0]["refs"] / quiet_run_s(reps) / host_speed(reps),
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(reps):
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    m = {}
    for b in BUCKETS:
        for k in ("calls", "host_s", "ns_p50", "ns_p99"):
            m[f"{b}.{k}"] = median([r["access"][b][k] for r in traced])
    m["sim.self_s"] = median([r["run_s"] - r["access_s"] for r in traced])
    m["setup.system_s"] = median([r["setup_system_s"] for r in reps])
    m["setup.workload_s"] = median([r["setup_workload_s"] for r in reps])
    m["trace.overhead"] = (median([r["run_s"] for r in traced]) /
                           median([r["run_s"] for r in plain]))
    m.update(traced[0]["counts"])  # deterministic when the gate passes
    return m


def main():
    args = parse_args()
    build()
    spec = benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    reps, errors = [], []
    start = time.monotonic()
    n_plain = n_traced = 0
    rep_wall = 0.0
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= DEADLINE_S:
            break
        # Stop before a rep that would end past --seconds, so a run lasts
        # --seconds whatever the length of its workload's reps.
        due = elapsed + rep_wall >= args.seconds
        if args.trace:
            if (due and n_plain >= MIN_TRACED_REPS
                    and n_traced >= MIN_TRACED_REPS):
                break
            traced = n_traced < n_plain
        else:
            if due and n_plain >= MIN_REPS:
                break
            traced = False
        rec, err = run_rep(args.workload, args.seed, traced,
                           DEADLINE_S - elapsed)
        rep_wall = time.monotonic() - start - elapsed
        n_traced += traced
        n_plain += not traced
        reps.append(rec)
        if err:
            errors.append(f"rep {len(reps)} ({'traced' if traced else 'untraced'}): {err}")

    # Correctness gate: every rep ran to completion (verify + coherence
    # check inside the process) and produced the digest the untraced reps
    # agree on; tracing must not change the simulation.
    done = [r for r in reps if r is not None]
    digests = [r["digest"] for r in done if not r["traced"]]
    reference = max(set(digests), key=digests.count) if digests else None
    for i, r in enumerate(reps):
        if r is not None and r["digest"] != reference:
            errors.append(f"rep {i + 1}: digest {r['digest']} != {reference}")
    failed = len(reps) - sum(r["digest"] == reference for r in done)
    for e in errors:
        print(f"simbench: FAILED {e}", file=sys.stderr)

    ctx = context()
    ctx["build"] = done[0]["build"] if done else None
    print(f"# context {json.dumps(ctx)}")
    if not digests or (args.trace and all(not r["traced"] for r in done)):
        die("no usable repetitions")
    first = next(r for r in done if r["digest"] == reference)
    c = first["counts"]
    print(f"# {args.workload} seed={args.seed} reps={len(reps)} failed={failed} "
          f"digest={reference} sim_cycles={first['sim_cycles']} refs={first['refs']}")
    print("# bytes data={} control={} page_op={} recovery={}".format(
        c["net.bytes.data"], c["net.bytes.control"], c["net.bytes.page_op"],
        c["net.bytes.recovery"]))

    plain = [r for r in done if not r["traced"]]
    print(f"# median rep {median([r['refs'] / r['run_s'] for r in plain]):.6g} refs/s, "
          f"quiet (per-slice) {plain[0]['refs'] / quiet_run_s(plain):.6g} refs/s, "
          f"host speed {host_speed(plain):.4f}x reference")
    values = per_layer(done) if args.trace else end_to_end(done)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            die(f"BENCHMARK.json names metric {m['name']} that the benchmark does not produce")
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"# {m['name']:32s} {v:>16.6g} {m['unit']}")

    record_dir = ROOT / ".bench_build" / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = {"context": ctx, "args": vars(args), "errors": errors,
              "metrics": metrics, "reps": reps}
    (record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
