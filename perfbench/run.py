#!/usr/bin/env python3
"""End-to-end benchmark of the m3lc compile job.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root. Builds perfbench_e2e (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR, or .bench_build when unset, runs one workload, checks
every output, and prints each metric with its unit, then the full result
record as one JSON line, then the summary JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Workloads, metrics and what each should move are described
in perfbench/spec.json. Exit code 0 means every job was correct.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
# p99 is left out: on shape-sweep, the one workload with over 1000 samples,
# it rests on 10-20 jobs and moved by up to 30% between runs on a shared
# 4-CPU machine, more than any bound allows.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.9)
TAIL_MIN_BEYOND = 10
# Share of the timed loop's segments the timing metrics use: the slowest
# quarter (by wall time per job) is dropped, so a burst of load from other
# tenants of the machine covering up to a quarter of the run moves nothing.
KEEP_SEGMENTS = 0.75
# m3batch's default pool width (BatchConfig::Parallel).
BATCH_WORKERS = 4
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(HERE, "spec.json")) as f:
        return json.load(f)


# --- statistics ---------------------------------------------------------


def geomean(values):
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rank(pct, n):
    """ceil(pct/100 * n) in exact arithmetic (pct has one decimal)."""
    return -(-round(pct * 10) * n // 1000)


def nearest_rank(values, pct):
    """The pct-th percentile by nearest rank: the rank(pct, n)-th smallest."""
    ordered = sorted(values)
    return ordered[max(1, rank(pct, len(ordered))) - 1]


def grouped_quantile(values, q):
    """Quantile q of whole-number samples taken as 1-wide bins.

    Journal wall times are whole milliseconds; the quantile interpolates
    inside the bin that holds it (the grouped-data median formula).
    """
    ordered = sorted(values)
    target = q * len(ordered)
    below = 0
    i = 0
    while i < len(ordered):
        v = ordered[i]
        j = i
        while j < len(ordered) and ordered[j] == v:
            j += 1
        if below + (j - i) > target or j == len(ordered):
            return v - 0.5 + (target - below) / (j - i)
        below = j
        i = j
    raise ValueError("no samples")


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples beyond it."""
    best = None
    for pct in TAIL_LADDER:
        if n - rank(pct, n) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def tail(values, grouped=False):
    """(percentile, value, beyond) for the tail rule; None below 20 samples."""
    pct = tail_percentile(len(values))
    if pct is None:
        return None
    beyond = len(values) - rank(pct, len(values))
    if grouped:
        return pct, grouped_quantile(values, pct / 100.0), beyond
    return pct, nearest_rank(values, pct), beyond


def by_program(samples, key):
    out = {}
    for s in samples:
        out.setdefault(s["program"], []).append(s[key])
    return out


def per_program_p50(samples, key):
    """Geometric mean over programs of each program's median."""
    groups = by_program(samples, key)
    return geomean(statistics.median(v) for v in groups.values())


def per_program_tail(samples, key):
    """Tail of per-program-normalized samples, scaled back by program medians.

    Returns (percentile, value, n, beyond) or None.
    """
    groups = by_program(samples, key)
    ratios = []
    for v in groups.values():
        med = statistics.median(v)
        ratios.extend(x / med for x in v)
    t = tail(ratios)
    if t is None:
        return None
    pct, ratio, beyond = t
    return pct, per_program_p50(samples, key) * ratio, len(ratios), beyond


# --- validation ---------------------------------------------------------


def check_metric_name(name):
    if not NAME_RE.match(name) or len(name) > 64:
        raise ValueError("bad metric name %r" % name)
    return name


def check_workers(workers, nproc):
    """Refuses a batch wider than the machine."""
    if workers < 1 or workers > nproc:
        raise ValueError(
            "refusing %d batch workers on %d CPUs" % (workers, nproc))
    return workers


def batch_workers(nproc):
    return check_workers(min(BATCH_WORKERS, nproc), nproc)


# --- build --------------------------------------------------------------


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(bdir):
    """Configures (once) and builds perfbench_e2e; returns its path."""
    for need in ("src/CMakeLists.txt", "tools/CompileJobs.h"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise RuntimeError("missing %s: run from a full checkout" % need)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise RuntimeError("build failed: %s" % " ".join(cmd))
    return os.path.join(bdir, "perfbench_e2e")


def source_digest():
    """Hash of everything that decides the program's outputs."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "tools", "CompileJobs.h")]
    for r in roots:
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


# --- metrics ------------------------------------------------------------


def kept_segments(segments):
    """Indices of the fastest KEEP_SEGMENTS of the segments that ran jobs."""
    ran = [i for i, g in enumerate(segments) if g["jobs"]]
    ran.sort(key=lambda i: segments[i]["wall_ns"] / segments[i]["jobs"])
    return sorted(ran[:max(1, math.ceil(KEEP_SEGMENTS * len(ran)))])


def end_to_end(raw, workload):
    """End-to-end metrics of a --trace 0 run, plus notes for the record."""
    kept = kept_segments(raw["segments"])
    segs = [raw["segments"][i] for i in kept]
    keep = set(kept)
    job_ms = [{"program": s["program"], "job": s["job_ns"] / 1e6,
               "compile": s["compile_ns"] / 1e6}
              for s in raw["samples"] if s["segment"] in keep]
    compile_src = job_ms
    journal = workload == "shape-sweep"
    if journal:
        # The journal has no compile time: in-process replays between rounds.
        compile_src = [{"program": s["program"],
                        "compile": s["compile_ns"] / 1e6}
                       for s in raw["untraced_samples"]
                       if s["segment"] in keep]
    if workload in ("golden", "paper-suite"):
        p50 = per_program_p50(job_ms, "job")
        compile_p50 = per_program_p50(compile_src, "compile")
        t = per_program_tail(job_ms, "job")
    else:
        jobs = [s["job"] for s in job_ms]
        p50 = (grouped_quantile(jobs, 0.5) if journal
               else statistics.median(jobs))
        compile_p50 = statistics.median(s["compile"] for s in compile_src)
        t = tail(jobs, grouped=journal)
        if t:
            t = (t[0], t[1], len(jobs), t[2])
    if t is None:
        raise ValueError("fewer than 20 samples for job_ms.tail")
    q = raw["quality"]
    metrics = {
        "jobs_per_s": statistics.median(
            g["jobs"] / (g["wall_ns"] / 1e9) for g in segs),
        "job_ms.p50": p50,
        "job_ms.tail": t[1],
        "compile_ms.p50": compile_p50,
        "cpu_ms_per_job": statistics.median(
            g["cpu_ns"] / 1e6 / g["jobs"] for g in segs),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(raw["setup_s"]),
        "sim_cycles": geomean(x["sim_cycles"] for x in q),
        "dyn_heap_loads": geomean(x["dyn_heap_loads"] for x in q),
        "code_size_instrs": geomean(x["code_size_instrs"] for x in q),
    }
    notes = {
        "job_ms.tail": {"percentile": t[0], "samples": t[2], "beyond": t[3]},
        "segments": {"kept": len(kept),
                     "ran": sum(1 for g in raw["segments"] if g["jobs"])},
    }
    return metrics, notes


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(raw, workload):
    n = raw["traced_jobs"]
    c = raw["counts"]
    self_ns = raw["self_ns"]

    def ms(span):
        return self_ns.get(span, 0) / 1e6 / n

    def per_job(key):
        return c.get(key, 0.0) / n

    m = {
        "lang.lex_ms": ms("lang.lex"),
        "lang.parse_ms": ms("lang.parse"),
        "lang.sema_ms": ms("lang.sema"),
        "lang.tokens": per_job("lang.tokens"),
        "ir.lower_ms": ms("ir.lower"),
        "ir.verify_ms": ms("ir.verify"),
        "ir.instrs_lowered": per_job("ir.instrs_lowered"),
        "core.context_ms": ms("core.context"),
        "core.intern_ms": ms("core.intern"),
        "core.partition_ms": ms("core.partition"),
        "core.locs": per_job("core.locs"),
        "core.build_queries": per_job("core.build_queries"),
        "core.partitions_built": per_job("core.partitions_built"),
        "core.slow_path_ratio": ratio(
            c.get("core.slow_path", 0.0),
            c.get("core.fast_answers", 0.0) + c.get("core.slow_path", 0.0)),
        "analysis.callgraph_ms": ms("analysis.callgraph"),
        "analysis.modref_ms": ms("analysis.modref"),
        "analysis.computes": per_job("analysis.computes"),
        "analysis.hit_ratio": ratio(
            c.get("analysis.hits", 0.0),
            c.get("analysis.hits", 0.0) + c.get("analysis.computes", 0.0)),
        "opt.devirt_ms": ms("opt.devirt"),
        "opt.inline_ms": ms("opt.inline"),
        "opt.rle_ms": ms("opt.rle"),
        "opt.copyprop_ms": ms("opt.copyprop"),
        "opt.pre_ms": ms("opt.pre"),
        "opt.oracle_queries": per_job("opt.oracle_queries"),
        "opt.calls_inlined": per_job("opt.calls_inlined"),
        "opt.loads_hoisted": per_job("opt.loads_hoisted"),
        "opt.loads_replaced": per_job("opt.loads_replaced"),
        "opt.pre_inserted": per_job("opt.pre_inserted"),
        "exec.init_ms": ms("exec.init"),
        "exec.run_ms": ms("exec.run"),
        "exec.ops": per_job("exec.ops"),
        "exec.ns_per_op": ratio(self_ns.get("exec.run", 0),
                                c.get("exec.ops", 0.0)),
        "exec.calls": per_job("exec.calls"),
        "sim.overhead_ms": per_job("sim.overhead_ns") / 1e6,
        "sim.miss_ratio": ratio(c.get("sim.misses", 0.0),
                                c.get("sim.accesses", 0.0)),
        "limit.overhead_ms": per_job("limit.overhead_ns") / 1e6,
        "limit.redundant_fraction": ratio(c.get("limit.redundant", 0.0),
                                          c.get("limit.orig_heap_loads", 0.0)),
        "service.makespan_ms": c.get("service.makespan_ms", 0.0),
        "service.dispatch_ms": 0.0,
        "service.attempts_per_job": ratio(c.get("service.attempts", 0.0),
                                          c.get("service.jobs", 0.0)),
        "service.worker_rss_mb": c.get("service.worker_rss_mb", 0.0),
        "trace.unattributed_ms": ms("job"),
    }
    traced = [{"program": s["program"], "job": s["job_ns"] / 1e6}
              for s in raw["samples"]]
    untraced = [{"program": s["program"], "job": s["job_ns"] / 1e6}
                for s in raw["untraced_samples"]]
    if workload in ("golden", "paper-suite"):
        m["trace.overhead_ratio"] = (per_program_p50(traced, "job") /
                                     per_program_p50(untraced, "job"))
    else:
        m["trace.overhead_ratio"] = (
            statistics.median(s["job"] for s in traced) /
            statistics.median(s["job"] for s in untraced))
    if c.get("service.jobs"):
        replay_ms = statistics.mean(s["job"] for s in untraced)
        m["service.dispatch_ms"] = (c["service.journal_wall_ms"] /
                                    c["service.jobs"] - replay_ms)
    return m


def deterministic_counts(raw, metrics, spec):
    """The counts that must repeat exactly for one program and seed."""
    keys = set(spec["deterministic"])
    out = {k: v for k, v in metrics.items() if k in keys}
    if not raw["trace"]:
        out["per_program"] = raw["quality"]
    return out


def check_determinism(bdir, digest, workload, seed, trace, counts):
    """Compares counts with an earlier run of the same program and seed."""
    store = os.path.join(bdir, "determinism")
    os.makedirs(store, exist_ok=True)
    key = hashlib.sha256(("%s/%s/%d/%d" % (digest, workload, seed, trace))
                         .encode()).hexdigest()[:32]
    path = os.path.join(store, key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        drift = sorted(k for k in set(before) | set(counts)
                       if before.get(k) != counts.get(k))
        return ["determinism: %s changed since an earlier run at seed %d"
                % (k, seed) for k in drift]
    with open(path, "w") as f:
        json.dump(counts, f, sort_keys=True)
    return []


def make_record(args, raw, metrics, notes, errors):
    """The full result of one run, with the environment it ran in."""
    env = raw["env"]
    for key in ("nproc", "compiler", "build_type", "asserts"):
        if key not in env:
            raise ValueError("result lacks env.%s" % key)
    attempted = max(1, int(raw["attempted"]))
    failed = min(attempted, len(errors))
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "metrics": metrics,
        "notes": notes, "pool_exhausted": raw["pool_exhausted"],
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "errors": errors[:20],
    }


# --- driver -------------------------------------------------------------


def main(argv):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    try:
        binary = build(bdir)
    except RuntimeError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    nproc = os.cpu_count() or 1
    workers = batch_workers(nproc)
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--workers", str(workers)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % args.workload)
        return 3
    if proc.returncode != 0:
        sys.stderr.write("perfbench: perfbench_e2e exited %d\n"
                         % proc.returncode)
        return 3
    raw = json.loads(proc.stdout)

    errors = list(raw["errors"])
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    notes = {}
    try:
        if args.trace:
            values = per_layer(raw, args.workload)
        else:
            values, notes = end_to_end(raw, args.workload)
    except (ValueError, ZeroDivisionError, statistics.StatisticsError) as e:
        values = {}
        errors.append("metrics: %s" % e)
    metrics = {}
    for m in wanted:
        name = check_metric_name(m["name"])
        v = values.get(name)
        if v is None or not math.isfinite(v):
            errors.append("metric %s has no value" % name)
            continue
        metrics[name] = {"value": v, "unit": units[name]}
    if not errors:
        errors += check_determinism(
            bdir, source_digest(), args.workload, args.seed, args.trace,
            deterministic_counts(raw, values, spec))

    record = make_record(args, raw, metrics, notes, errors)
    attempted, failed = record["attempted"], record["failed"]
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    with open(stem + ".raw.json", "w") as f:
        json.dump(raw, f)

    for name, m in metrics.items():
        print("%-26s %16.6f %s" % (name, m["value"], m["unit"]))
    for e in errors[:20]:
        print("FAIL %s" % e)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
