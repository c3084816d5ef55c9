#!/usr/bin/env python3
"""Benchmark of the gadget-planner pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--obf-seed <n>]

Run from the repository root. Builds perfbench_driver (perfbench/
CMakeLists.txt, into .bench_build/perfbench), runs one workload in its own
process with the workload's thread count pinned through GP_THREADS, checks
every output, prints a human-readable report and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced passes; --trace 1
alternates untraced and traced passes and reports the per-layer metrics
plus the tracing overhead. See perfbench/README.md for the workloads and
for which end-to-end metric each per-layer metric should move.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402

# Thread counts are pinned per workload: results depend on GP_THREADS.
# obf_seed is the obfuscation seed the workload's images are built with.
WORKLOADS = {
    "plan-llvm-obf": {"threads": 4, "obf_seed": 5},
    "census": {"threads": 4, "obf_seed": 7},
}
BUILD_TYPE = "RelWithDebInfo"

# The end-to-end metric (and workload) each per-layer metric should move.
# BENCHMARK.json, which names the metrics, has no field for this, so it is
# kept here and printed beside each value.
PLANNING = "jobs_per_s_ref, job_p50_s_ref on plan-llvm-obf"
MOVES = {
    "core.job_seconds": "jobs_per_s_ref, all workloads",
    "compile.seconds": "setup_s, all workloads",
    "compile.code_bytes": "setup_s, all workloads",
    "x86.decode_attempts": "job_p50_s_ref on census",
    "x86.decode_failures": "job_p50_s_ref on census",
    "x86.decodes_per_offset": "job_p50_s_ref on census",
    "extract.offsets_scanned": "job_p50_s_ref on census",
    "sym.steps": "job_p50_s_ref on census",
    "expr.interned": "job_p50_s_ref on census",
    "extract.seconds": "job_p50_s_ref on census",
    "extract.share": "job_p50_s_ref on census",
    "extract.gadgets_per_offset": "job_p50_s_ref on census",
    "extract.wait_s": "job_p50_s_ref on census",
    "subsume.seconds": "jobs_per_s_ref on census",
    "subsume.pair_tests": "jobs_per_s_ref on census",
    "subsume.removed": "jobs_per_s_ref on census",
    "subsume.removed_per_pair_test": "jobs_per_s_ref on census",
    "subsume.structural_hits": "jobs_per_s_ref on census",
    "subsume.budget_exhausted_jobs": "jobs_per_s_ref on census",
    "solver.checks": PLANNING,
    "solver.sat": PLANNING,
    "solver.unsat": PLANNING,
    "solver.unknown": PLANNING,
    "solver.cache_hits": PLANNING,
    "payload.concretize_calls": PLANNING,
    "payload.validated": PLANNING,
    "payload.validated_per_call": PLANNING,
    "plan.seconds": PLANNING,
    "plan.share": PLANNING,
    "plan.expansions": "job_p50_s_ref on plan-llvm-obf",
    "plan.dead_ends": "job_p50_s_ref on plan-llvm-obf",
    "plan.dead_ends_per_expansion": "job_p50_s_ref on plan-llvm-obf",
    "plan.index_hits": "job_p50_s_ref on plan-llvm-obf",
    "plan.nogood_hits": "job_p50_s_ref on plan-llvm-obf",
    "plan.index_seconds": "job_p50_s_ref on plan-llvm-obf",
    "plan.precheck_seconds": "job_p50_s_ref on plan-llvm-obf",
    "plan.unreachable_goals": "job_p50_s_ref on plan-llvm-obf",
    "plan.failure_budget_cuts": "job_p50_s_ref on plan-llvm-obf",
    "plan.deadline_cuts": "job_p50_s_ref on plan-llvm-obf",
    "core.session_overhead_s": "jobs_per_s_ref, all workloads",
    "pool.lane_utilization": "pool.concurrent_jobs_per_s, all workloads",
    "pool.concurrent_jobs_per_s": "none (4 sessions, not gated)",
    "pool.steals": "job_p50_s_ref on the GP_THREADS=4 workloads",
    "pool.stage_utilization": "job_p50_s_ref on the GP_THREADS=4 workloads",
    "emu.revalidate_seconds": "failed_share",
    "emu.revalidate_failures": "failed_share",
    "determinism.digest_mismatches": "none (a count, not a gate)",
    "trace.jobs_per_s": "tracing overhead",
    "trace.untraced_jobs_per_s": "tracing overhead",
    "trace.overhead_share": "tracing overhead",
    "host.reference_ms": "none (the host's speed, which the _ref "
                         "metrics divide out)",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Configure and build perfbench_driver; returns its path."""
    src = os.path.join(root, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail(f"no library sources at {src}; run from the repository root")
    bdir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", bdir, "--target", "perfbench_driver",
              "-j", jobs]]
    # A configured tree re-runs its own configure step when a CMake file
    # changes; only the first run has to configure explicitly.
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", bdir,
                         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_driver")


def run_driver(driver, root, args, spec):
    out = os.path.join(root, ".bench_build", "perfbench",
                       f"run-{args.workload}-{args.seed}-{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    # Only the knobs the benchmark pins reach the program: an inherited
    # GP_STORE_DIR, GP_FAULT or budget would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GP_")}
    env["GP_THREADS"] = str(spec["threads"])
    env["GP_METRICS"] = "1"
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--obf-seed", str(args.obf_seed), "--seconds", str(args.seconds),
           "--traced", str(args.trace), "--out", out]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=160)
    except subprocess.TimeoutExpired:
        fail("driver timed out")  # subprocess.run killed and reaped it
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    with open(out) as f:
        return json.load(f)


def report(doc, e2e, layers, bench, bad):
    print(f"workload {doc['workload']}  seed {doc['seed']}  obf-seed "
          f"{doc['obf_seed']}  GP_THREADS {doc['threads']}  lanes "
          f"{doc['lanes']}  nproc {doc['nproc']}  build {doc['build_type']}")
    for i, p in enumerate(doc["passes"]):
        kind = "traced" if p["traced"] else "untraced"
        if p["lanes"] != doc["lanes"]:
            kind += f", {p['lanes']} sessions"
        digest = 0
        for j in p["jobs"]:
            digest ^= int(j["digest"], 16)
            print(f"  pass {i} {kind:8} {j['program']:14} "
                  f"{j['obfuscation']:9} {j['status']:8} "
                  f"{j['seconds']:8.3f} s  {j['chains']:3} chains  "
                  f"{j['pool_raw']:6} gadgets  digest {j['digest']}")
        print(f"  pass {i} {kind} workload digest {digest:016x}  "
              f"analysis wall {metrics.analysis_wall(p['jobs']):.3f} s")
        if p.get("trace_dropped"):
            print(f"  pass {i}: {p['trace_dropped']} program spans lost to "
                  f"trace ring wrap")
    print(f"setup_s        {e2e['setup_s']:.4f} s (median of "
          f"{len(doc['setup_s'])}, at the reference kernel's "
          f"{metrics.REF_NOMINAL_S * 1e3:.0f} ms; {e2e['setup_raw_s']:.4f} s "
          f"as measured)")
    print(f"jobs_per_s_ref {e2e['jobs_per_s_ref']:.4f} 1/s (at the "
          f"reference kernel's {metrics.REF_NOMINAL_S * 1e3:.0f} ms)")
    print(f"job_p50_s_ref  {e2e['job_p50_s_ref']:.4f} s (same speed)")
    print(f"jobs_per_s     {e2e['jobs_per_s']:.4f} 1/s (as measured)")
    print(f"job_p50_s      {e2e['job_p50_s']:.4f} s (as measured)")
    print(f"job_tail_s     {e2e['job_tail_s']:.4f} s (p{e2e['job_tail_pct']}"
          f" of {e2e['job_samples']} samples, {metrics.TAIL_BEYOND} beyond)")
    print(f"chains_found   {e2e['chains_found']:.0f} count (re-validated)")
    print(f"gadgets_found  {e2e['gadgets_found']:.0f} count (raw pools)")
    print(f"peak_rss_mb    {e2e['peak_rss_mb']:.1f} MB (VmHWM)")
    print(f"failed_share   {e2e['failed_share']:.4f} ({e2e['failed']} failed "
          f"of {e2e['attempted']} attempted jobs and chains)")
    if layers:
        print(f"{'per-layer metric':32} {'value':>14} {'unit':15} moves")
        for m in bench["per_layer"]:
            print(f"{m['name']:32} {layers[m['name']]:14.4f} {m['unit']:15} "
                  f"{MOVES[m['name']]}")
    for b in bad:
        print(f"CHECK FAILED: {b}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--obf-seed", type=int, default=None)
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]
    if args.obf_seed is None:
        args.obf_seed = spec["obf_seed"]

    root = os.getcwd()
    # The metrics reported, with their units, are the ones BENCHMARK.json
    # names: end_to_end with --trace 0, per_layer with --trace 1.
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    driver = build(root)
    doc = run_driver(driver, root, args, spec)

    e2e = metrics.end_to_end(doc)
    layers = metrics.per_layer(doc) if args.trace else None
    bad = metrics.check_outputs(doc["passes"])
    report(doc, e2e, layers, bench, bad)
    values, listed = (layers, bench["per_layer"]) if args.trace \
        else (e2e, bench["end_to_end"])
    print(json.dumps({
        "correct": not bad,
        "attempted": e2e["attempted"],
        "failed": e2e["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))


if __name__ == "__main__":
    main()
