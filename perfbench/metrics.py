"""Arithmetic of the benchmark: from the driver's raw passes to metrics.

Everything here is a pure function of the driver's JSON so that
test_metrics.py can check it without building or running the program.
"""

import statistics

# job_tail_s is the highest percentile with at least this many samples
# beyond it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail(samples, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, n). The value is the sample with exactly
    `beyond` samples ranked above it; its percentile is the share of
    samples at or below it, rounded down to a whole percent. With too few
    samples for any such percentile, the minimum is returned as p0.
    """
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return 0.0, 0, 0
    if n <= beyond:
        return s[0], 0, n
    idx = n - beyond - 1
    return s[idx], (100 * (idx + 1)) // n, n


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start, end, children):
    """A span's duration minus the part its child intervals cover."""
    return (end - start) - covered(start, end, children)


def lane_utilization(job_seconds, wall, lanes):
    """Busy lane-seconds over available lane-seconds."""
    return sum(job_seconds) / (wall * lanes) if wall > 0 and lanes > 0 else 0.0


def analysis_wall(jobs):
    return max((j["end"] for j in jobs), default=0.0) - \
        min((j["start"] for j in jobs), default=0.0)


def failures(passes):
    """(attempted, failed) operations over every pass of a run.

    An operation is a job or a returned chain. A job fails when its status
    is not ok (deadline, budget, fault, cancellation, internal); a chain
    fails when it does not survive re-validation.
    """
    attempted = failed = 0
    for p in passes:
        for j in p["jobs"]:
            attempted += 1 + j["chains"]
            failed += (j["status"] != "ok") + j["revalidate_failures"]
    return attempted, failed


def digest_mismatches(passes):
    """Jobs whose result digest is not the same in every pass."""
    seen = {}
    for p in passes:
        for j in p["jobs"]:
            seen.setdefault((j["program"], j["obfuscation"]), set()).add(
                j["digest"])
    return sum(len(d) > 1 for d in seen.values())


def check_outputs(passes):
    """Invariants every job must satisfy; returns a list of violations."""
    bad = []
    for i, p in enumerate(passes):
        # One-session untraced passes time the reference kernel before the
        # first job and after every job.
        ref = p.get("reference_s", [])
        if not p.get("traced") and p.get("lanes") == 1 and \
                len(ref) != len(p["jobs"]) + 1:
            bad.append(f"pass {i}: {len(ref)} reference times for "
                       f"{len(p['jobs'])} jobs")
        # Figures derived from program spans need every span of the pass.
        if p.get("trace_dropped"):
            bad.append(f"pass {i}: {p['trace_dropped']} program spans lost "
                       f"to trace ring wrap")
        for j in p["jobs"]:
            who = f'{j["program"]}/{j["obfuscation"]}'
            if j["pool_raw"] != j["extract_gadgets"]:
                bad.append(f"{who}: raw pool {j['pool_raw']} != "
                           f"{j['extract_gadgets']} extracted gadgets")
            if j["subsume_input"] != j["pool_raw"] or \
                    j["subsume_input"] - j["subsume_removed"] != \
                    j["pool_minimized"]:
                bad.append(f"{who}: subsumption does not reconcile")
            if j["offsets_scanned"] + j["offsets_skipped"] != j["code_bytes"]:
                bad.append(f"{who}: scanned+skipped offsets "
                           f"{j['offsets_scanned'] + j['offsets_skipped']} "
                           f"!= {j['code_bytes']} code bytes")
            if j["revalidate_failures"]:
                bad.append(f"{who}: {j['revalidate_failures']} chains fail "
                           f"re-validation")
    return bad


def plain_passes(doc):
    """Untraced passes at the workload's own session count."""
    return [p for p in doc["passes"]
            if not p["traced"] and p["lanes"] == doc["lanes"]]


def jobs_per_s(passes):
    """Jobs over analysis wall, both summed over `passes`."""
    wall = sum(analysis_wall(p["jobs"]) for p in passes)
    return sum(len(p["jobs"]) for p in passes) / wall if wall > 0 else 0.0


# The reference kernel's time on the host this benchmark was sized on.
# Rescaled latencies are seconds on a host where the kernel takes this long.
REF_NOMINAL_S = 0.025


def latencies(passes):
    """(job, seconds) for every job of every pass."""
    return [((j["program"], j["obfuscation"]), j["seconds"])
            for p in passes for j in p["jobs"]]


def rescaled_latencies(passes):
    """(job, seconds) with each latency rescaled to the nominal host speed.

    A one-session pass times the reference kernel before its first job and
    after every job. A job's latency is multiplied by REF_NOMINAL_S over
    the mean of the kernel's two times around it, so a stretch in which
    the shared host runs slow lengthens both and cancels out.
    """
    out = []
    for p in passes:
        ref = p["reference_s"]
        for j, before, after in zip(p["jobs"], ref, ref[1:]):
            out.append(((j["program"], j["obfuscation"]),
                        j["seconds"] * 2 * REF_NOMINAL_S / (before + after)))
    return out


def throughput(samples):
    """Jobs over their summed latency: with one session the jobs run back
    to back, so this is a pass's rate without the kernel between jobs."""
    busy = sum(s for _, s in samples)
    return len(samples) / busy if busy > 0 else 0.0


def p50_of_job_means(samples):
    """Median over jobs of each job's latency averaged over its passes.

    Averaging first spreads each job's samples over the whole run, so the
    figure does not follow the stretch in which one pass ran the median
    job.
    """
    per_job = {}
    for key, s in samples:
        per_job.setdefault(key, []).append(s)
    return median([statistics.fmean(v) for v in per_job.values()])


def end_to_end(doc):
    """End-to-end metrics from the untraced passes of one driver run."""
    plain = plain_passes(doc)
    raw, ref = latencies(plain), rescaled_latencies(plain)
    tail_value, tail_pct, n = tail([s for _, s in raw])
    attempted, failed = failures(doc["passes"])
    setup_ref = [s * REF_NOMINAL_S / r
                 for s, r in zip(doc["setup_s"], doc["setup_reference_s"])]
    return {
        "setup_s": median(setup_ref),
        "setup_raw_s": median(doc["setup_s"]),
        "jobs_per_s_ref": throughput(ref),
        "job_p50_s_ref": p50_of_job_means(ref),
        "jobs_per_s": throughput(raw),
        "job_p50_s": p50_of_job_means(raw),
        "job_tail_s": tail_value,
        "job_tail_pct": tail_pct,
        "job_samples": n,
        "chains_found": median([sum(j["chains"] - j["revalidate_failures"]
                                    for j in p["jobs"]) for p in plain]),
        "gadgets_found": median([sum(j["pool_raw"] for j in p["jobs"])
                                 for p in plain]),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 0.0,
    }


def _dur(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _ratio(a, b):
    return a / b if b else 0.0


def layers_of_pass(p, threads):
    """Per-layer metrics of one traced pass."""
    jobs, spans, prog = p["jobs"], p["spans"], p["program_spans"]
    c = p["counters"]
    tot = lambda key: sum(j[key] for j in jobs)  # noqa: E731
    busy = sum(j["seconds"] for j in jobs)
    offsets = tot("offsets_scanned")
    pair_tests = tot("subsume_pair_tests")
    expansions = tot("plan_expansions")
    calls = tot("plan_concretize_calls")

    shards = [(e["start"], e["end"]) for e in prog
              if e["name"] == "extract.shard"]
    extract_spans = [s for s in spans if s["name"] == "session.extract"]
    wait = sum(self_time(s["start"], s["end"], shards) for s in extract_spans)

    # Session overhead: each job span minus the program's own stage-attempt
    # spans of that session (the supervised stage bodies). What remains is
    # session set-up and teardown, canonicalize_pool and library build.
    overhead = 0.0
    for s in spans:
        if s["name"] == "job":
            session = jobs[s["job"]]["session"]
            attempts = [(e["start"], e["end"]) for e in prog
                        if e["cat"] == "attempt" and e["session"] == session]
            overhead += self_time(s["start"], s["end"], attempts)

    # Stage parallelism: thread time spent in extraction shards and
    # subsumption buckets, over the wall time of those stages times the
    # thread count.
    parallel = _dur(prog, "extract.shard") + _dur(prog, "subsume.bucket")

    compile_s = sum(_dur(spans, n) for n in (
        "minic.compile_source", "obf.obfuscate", "codegen.compile"))
    extract_s = _dur(spans, "session.extract")
    subsume_s = _dur(spans, "session.subsume")
    plan_s = _dur(spans, "session.find_chains")
    return {
        "core.job_seconds": busy,
        "compile.seconds": compile_s,
        "compile.code_bytes": tot("code_bytes"),
        "x86.decode_attempts": c.get("decode.attempts", 0),
        "x86.decode_failures": c.get("decode.failures", 0),
        "x86.decodes_per_offset": _ratio(c.get("decode.attempts", 0), offsets),
        "extract.offsets_scanned": offsets,
        "sym.steps": c.get("sym.steps", 0),
        "expr.interned": c.get("expr.interned", 0),
        "extract.seconds": extract_s,
        "extract.share": _ratio(extract_s, busy),
        "extract.gadgets_per_offset": _ratio(tot("extract_gadgets"), offsets),
        "extract.wait_s": wait,
        "subsume.seconds": subsume_s,
        "subsume.pair_tests": pair_tests,
        "subsume.removed": tot("subsume_removed"),
        "subsume.removed_per_pair_test": _ratio(tot("subsume_removed"),
                                                pair_tests),
        "subsume.structural_hits": tot("subsume_structural_hits"),
        "subsume.budget_exhausted_jobs": tot("subsume_budget_exhausted"),
        "solver.checks": c.get("solver.checks", 0),
        "solver.sat": c.get("solver.sat", 0),
        "solver.unsat": c.get("solver.unsat", 0),
        "solver.unknown": c.get("solver.unknown", 0),
        "solver.cache_hits": c.get("solver.cache_hits", 0),
        "payload.concretize_calls": calls,
        "payload.validated": tot("plan_validated"),
        "payload.validated_per_call": _ratio(tot("plan_validated"), calls),
        "plan.seconds": plan_s,
        "plan.share": _ratio(plan_s, busy),
        "plan.expansions": expansions,
        "plan.dead_ends": tot("plan_dead_ends"),
        "plan.dead_ends_per_expansion": _ratio(tot("plan_dead_ends"),
                                               expansions),
        "plan.index_hits": tot("plan_index_hits"),
        "plan.nogood_hits": tot("plan_nogood_hits"),
        "plan.index_seconds": _dur(prog, "plan.index"),
        "plan.precheck_seconds": tot("plan_precheck_s"),
        "plan.unreachable_goals": tot("plan_unreachable_goals"),
        "plan.failure_budget_cuts": tot("plan_failure_budget_cuts"),
        "plan.deadline_cuts": tot("plan_deadline_cuts"),
        "core.session_overhead_s": overhead,
        "pool.steals": c.get("pool.steals", 0),
        "pool.stage_utilization": _ratio(parallel,
                                         (extract_s + subsume_s) * threads),
        "emu.revalidate_seconds": _dur(spans, "payload.validate"),
        "emu.revalidate_failures": tot("revalidate_failures"),
        "trace.jobs_per_s": _ratio(len(jobs), busy),
    }


def per_layer(doc):
    """Per-layer metrics: medians over the traced passes of a run, lane
    sharing from its concurrent-sessions passes, the run-wide determinism
    count and the tracing overhead."""
    traced = [layers_of_pass(p, doc["threads"])
              for p in doc["passes"] if p["traced"]]
    out = {k: median([t[k] for t in traced]) for k in traced[0]} \
        if traced else {}
    concurrent = [p for p in doc["passes"] if p["lanes"] != doc["lanes"]]
    out["pool.lane_utilization"] = median([
        lane_utilization([j["seconds"] for j in p["jobs"]],
                         analysis_wall(p["jobs"]), p["lanes"])
        for p in concurrent])
    out["pool.concurrent_jobs_per_s"] = jobs_per_s(concurrent)
    plain = plain_passes(doc)
    untraced = throughput(latencies(plain))
    out["trace.untraced_jobs_per_s"] = untraced
    out["host.reference_ms"] = 1e3 * median(
        [r for p in plain for r in p["reference_s"]])
    out["trace.overhead_share"] = \
        1.0 - _ratio(out.get("trace.jobs_per_s", 0.0), untraced)
    out["determinism.digest_mismatches"] = digest_mismatches(doc["passes"])
    return out
