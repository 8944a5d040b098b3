#!/usr/bin/env python3
"""End-to-end benchmark of `fcdpm_cli sweep`, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload merge-sweep --seed 7 --trace 0
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --workload all --trace 1  # per-layer ledger
    python3 perfbench/run.py --self-test             # checker self-test

The script builds the library, the CLI and the layer probe from source
into `.bench_build/` (or `$CARGO_TARGET_DIR` when it points inside the
checkout), generates the workload's trace from `--seed`, and runs the
CLI as a child process in a closed loop: one client, and the next
invocation starts only after the previous one has exited. Every grid
point of every invocation is compared bit for bit with a reference-engine
`--jobs 1` run of the same grid made before timing. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The command exits non-zero when any point fails. See BENCHMARK.md in
this directory for the metric -> layer -> workload map.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

POLICIES = "conv,asap,fcdpm,oracle"
RHO_COARSE = ",".join(f"{k / 10:g}" for k in range(1, 10))
CAPACITIES_32 = ",".join(f"{2 * k:g}" for k in range(1, 33))

# Each workload is one CLI command line over a generated trace. The
# trace length (slots) sizes each invocation to a few tenths of a second
# without changing which layer does the work.
WORKLOADS = {
    "merge-sweep": {
        "slots": 480,
        "policies": POLICIES, "rhos": RHO_COARSE,
        "capacities": CAPACITIES_32, "storm_seeds": "",
        "flags": ["--engine", "batched", "--jobs", "4",
                  "--serial-check", "off"],
        "engine": "batched", "jobs": 4,
    },
    "storm-sweep": {
        "slots": 240,
        "policies": POLICIES, "rhos": RHO_COARSE,
        "capacities": "3,6,12,24", "storm_seeds": "1,2,3,4,5,6,7,8",
        "flags": [],
        "engine": "reference", "jobs": 1,
    },
}

# Observable result fields compared bit for bit (17-digit JSON text).
FIELDS = ("fuel", "bled", "unserved", "duration", "storage_end", "latency",
          "slots", "sleeps")
KEY = ("policy", "rho", "capacity", "storm_seed")

# `fcdpm_cli run --policy fcdpm` on the paper's Experiment-1 trace.
GOLDEN = re.compile(r"^FC-DPM\s+fuel\s+826\.82 A-s", re.M)

CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build


def build_dir():
    """`$CARGO_TARGET_DIR` if inside the checkout, else .bench_build."""
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    root = os.path.realpath(ROOT)
    path = os.path.realpath(os.path.join(root, path))
    if os.path.commonpath([path, root]) != root:
        path = os.path.join(root, ".bench_build")
    return path


def build(out_dir):
    """Configure (once) and build; returns the tool paths."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(os.path.join(out_dir, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out_dir, "-j", jobs])
        for step in steps:
            try:
                code = subprocess.call(step, stdout=log, stderr=log,
                                       timeout=840)
            except (OSError, subprocess.TimeoutExpired) as err:
                raise BenchError(f"build step failed: {err}") from err
            if code != 0:
                if step[:2] == ["cmake", "-S"]:
                    # A failed configure leaves no usable cache behind.
                    try:
                        os.remove(os.path.join(out_dir, "CMakeCache.txt"))
                    except OSError:
                        pass
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build failed ({' '.join(step)}):\n{tail}")
    tools = {name: os.path.join(out_dir, name)
             for name in ("fcdpm_cli", "fcdpm_probe")}
    for path in tools.values():
        if not os.access(path, os.X_OK):
            raise BenchError(f"missing build output {path}")
    return tools


def environment(out_dir, workload, seed):
    """The stamp every result carries, so a number has its context."""
    cache = {}
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(
                    r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)$",
                    line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    files_dir = os.path.join(out_dir, "CMakeFiles")
    if os.path.isdir(files_dir):
        for entry in sorted(os.listdir(files_dir)):
            info = os.path.join(files_dir, entry, "CMakeCXXCompiler.cmake")
            if os.path.exists(info):
                text = open(info).read()
                cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
                ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
                if cid and ver:
                    compiler = f"{cid.group(1)} {ver.group(1)}"
    git_sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            git_sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git_sha = None
    w = WORKLOADS[workload]
    return {
        "workload": workload,
        "seed": seed,
        "hardware_threads": os.cpu_count(),
        "usable_threads": len(os.sched_getaffinity(0)),
        "jobs": w["jobs"],
        "engine": w["engine"],
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": compiler,
        "git_sha": git_sha,
        "source_sha256": source_digest(),
    }


def source_digest():
    """Content hash of what the benchmark builds (the checkout need not be
    a git repository, so this identifies the code under test)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE,
             os.path.join(ROOT, "examples", "fcdpm_cli.cpp")]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def host_ticks():
    """Aggregate CPU ticks from /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:]]


def host_share(before, after):
    """Shares of host CPU time spent waiting on I/O and stolen by the
    hypervisor between two host_ticks() readings: the context a noisy
    number needs."""
    if before is None or after is None or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8]) or 1
    return {"iowait": delta[4] / total, "steal": delta[7] / total}


# ---------------------------------------------------------- child runs


class Child:
    """One finished CLI process: exit code, wall, CPU and peak RSS."""

    def __init__(self, code, wall_s, cpu_s, rss_kb):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_kb = rss_kb


def spawn(argv, cwd, stdout_path):
    """Run one child to completion; wall time spans spawn to exit."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss)


def read_report(path):
    """The CLI's --out JSON with floats kept as their 17-digit text."""
    with open(path) as f:
        return json.load(f, parse_float=str)


def count_failures(reference, report, expected):
    """Points of `report` that are missing, quarantined or differ from
    `reference` (grid order) in any observable field."""
    if report is None:
        return expected
    rows = report.get("results", [])
    if len(rows) != expected:
        return expected
    failed = 0
    for ref, row in zip(reference, rows):
        if (not row.get("ok", False)
                or any(ref[k] != row.get(k) for k in KEY)
                or any(ref[k] != row.get(k) for k in FIELDS)):
            failed += 1
    return failed


def tamper(path):
    """Nudge the first row's fuel in a report file (checker self-test)."""
    with open(path) as f:
        text = f.read()
    m = re.search(r'"fuel":([-0-9.eE+]+)', text)
    nudged = "%.17g" % (float(m.group(1)) * (1 + 1e-12) + 1e-9)
    with open(path, "w") as f:
        f.write(text[:m.start(1)] + nudged + text[m.end(1):])


class Workload:
    """Trace, reference rows and command lines of one workload and seed."""

    def __init__(self, name, seed, tools, work):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.tools = tools
        self.work = work
        self.trace = os.path.join(work, f"{name}-{seed}.csv")
        self.attempted = 0
        self.failed = 0
        gen = subprocess.run(
            [tools["fcdpm_probe"], "gen", "--seed", str(seed),
             "--slots", str(self.spec["slots"]),
             "--out", self.trace], capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if gen.returncode != 0:
            raise BenchError(
                f"trace generation failed: {gen.stdout}{gen.stderr}")
        storms = self.spec["storm_seeds"]
        self.points = (len(self.spec["policies"].split(","))
                       * len(self.spec["rhos"].split(","))
                       * len(self.spec["capacities"].split(","))
                       * (len(storms.split(",")) if storms else 1))
        ref = self.run_cli(self.grid_args(), ["--engine", "reference",
                                              "--jobs", "1"], "reference")
        if ref[0].code != 0 or ref[1] is None:
            raise BenchError("reference run failed")
        self.reference = ref[1]["results"]
        if len(self.reference) != self.points or not all(
                r.get("ok") for r in self.reference):
            raise BenchError("reference run is incomplete")
        self.one_point_reference = [self.reference[0]]

    def base_args(self):
        args = [self.tools["fcdpm_cli"], "sweep", "--trace", self.trace]
        return args

    def grid_args(self, one_point=False):
        s = self.spec
        pick = (lambda v: v.split(",")[0]) if one_point else (lambda v: v)
        args = ["--policies", pick(s["policies"]), "--rhos", pick(s["rhos"]),
                "--capacities", pick(s["capacities"])]
        if s["storm_seeds"]:
            args += ["--storm-seeds", pick(s["storm_seeds"])]
        return args

    def run_cli(self, grid, flags, tag, extra=()):
        out = os.path.join(self.work, f"{tag}.json")
        if os.path.exists(out):
            os.remove(out)
        argv = self.base_args() + grid + flags + list(extra) + ["--out", out]
        child = spawn(argv, self.work,
                      os.path.join(self.work, f"{tag}.stdout"))
        report = None
        if child.code == 0 and os.path.exists(out):
            report = read_report(out)
        return child, report, out

    def check(self, child, report, reference, expected, out=None,
              do_tamper=False):
        if do_tamper and out is not None and os.path.exists(out):
            tamper(out)
            report = read_report(out)
        self.attempted += expected
        failed = expected if child.code != 0 else count_failures(
            reference, report, expected)
        self.failed += failed
        return failed

    def invoke_main(self, do_tamper=False):
        """One closed-loop step: the workload's command, checked."""
        child, report, out = self.run_cli(self.grid_args(), self.spec["flags"],
                                          "main")
        self.check(child, report, self.reference, self.points, out, do_tamper)
        return child, report

    def invoke_journaled(self):
        """The workload's command with --journal, the journal cut at half
        its bytes (a simulated crash), then --resume. Returns both
        reports; the resume must replay part of the grid and re-run the
        rest."""
        journal = os.path.join(self.work, "sweep.journal")
        if os.path.exists(journal):
            os.remove(journal)
        first = self.run_cli(self.grid_args(), self.spec["flags"], "journaled",
                             ["--journal", journal])
        self.check(first[0], first[1], self.reference, self.points)
        if first[1] is None:
            raise BenchError("journaled CLI run failed")
        os.truncate(journal, os.path.getsize(journal) // 2)
        second = self.run_cli(self.grid_args(), self.spec["flags"], "resume",
                              ["--resume", journal])
        self.check(second[0], second[1], self.reference, self.points)
        if second[1] is None:
            raise BenchError("resumed CLI run failed")
        res = second[1].get("resilience", {})
        self.attempted += 1
        if (res.get("replayed", 0) == 0
                or res.get("replayed", 0) + res.get("scheduled", 0)
                != self.points):
            # The resume recomputed everything or lost points: crash
            # recovery did not happen.
            self.failed += 1
        return first[1], second[1]

    def invoke_setup(self):
        """The same command on a one-point grid: what every invocation
        pays before grid work."""
        child, report, _ = self.run_cli(self.grid_args(one_point=True),
                                        self.spec["flags"], "setup")
        self.check(child, report, self.one_point_reference, 1)
        return child

    def golden(self):
        out = os.path.join(self.work, "golden.stdout")
        child = spawn([self.tools["fcdpm_cli"], "run", "--policy", "fcdpm"],
                      self.work, out)
        with open(out) as f:
            text = f.read()
        self.attempted += 1
        if child.code != 0 or not GOLDEN.search(text):
            self.failed += 1


def engine_mix(report):
    """Points each engine actually ran, from the CLI's own JSON."""
    if report is None:
        return None
    points = int(report.get("points", 0))
    batched = int(report.get("batch", {}).get("points", 0))
    return {"points": points, "batched": batched,
            "per_point": points - batched}


# ------------------------------------------------------- untraced run


def run_timed(w, seconds, do_tamper):
    """Closed loop for `seconds`. Throughput and CPU per point come from
    the median invocation: on a shared host, CPU and disk stalls arrive
    in bursts that would otherwise decide the mean."""
    w.golden()
    w.invoke_main()  # warm-up: page cache, binary load
    w.invoke_setup()
    mains = []
    setups = []
    mix = None
    ticks = host_ticks()
    start = time.perf_counter()
    while not mains or time.perf_counter() - start < seconds:
        child, report = w.invoke_main(do_tamper and not mains)
        if mix is None:
            mix = engine_mix(report)
        mains.append(child)
        setups.append(w.invoke_setup())
    walls = [c.wall_s for c in mains]
    metrics = {
        "points_per_s": w.points / statistics.median(walls),
        "setup_s": statistics.median(c.wall_s for c in setups),
        "peak_rss_mb": statistics.median(c.rss_kb for c in mains) / 1024.0,
        "cpu_per_point_us": 1e6 * statistics.median(c.cpu_s for c in mains)
        / w.points,
    }
    ordered = sorted(walls)
    detail = {
        "invocations": len(mains),
        "points_per_invocation": w.points,
        "invocation_wall_s": {
            "p50": statistics.median(ordered),
            "p90": ordered[-(-9 * len(ordered) // 10) - 1],
            "all": [round(x, 5) for x in walls],
        },
        "points_per_s_mean": w.points * len(mains) / sum(walls),
        "setup_invocations": len(setups),
        "host": host_share(ticks, host_ticks()),
        "engine_mix": [mix],
        "error_rate": w.failed / w.attempted,
    }
    return metrics, detail


# --------------------------------------------------------- traced run


def layer_self_times(spans):
    """Per layer (span name up to the first '.'): span count and self
    time, where a span's self time is its duration minus its children's."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    layers = {}
    for k, s in enumerate(spans):
        layer = s["name"].split(".")[0]
        dur = s["end_ns"] - s["start_ns"]
        entry = layers.setdefault(layer, {"spans": 0, "self_s": 0.0})
        entry["spans"] += 1
        entry["self_s"] += (dur - child_ns[k]) * 1e-9
    return layers


def traced_iteration(w, probe_jobs):
    """One pass of the traced run: the CLI command once, its journaled
    variant (run, cut, resume), then the layer probe. Returns (metrics,
    absent counters, detail)."""
    s = w.spec
    child, main_report = w.invoke_main()
    if main_report is None:
        raise BenchError("traced CLI run failed")
    proc_wall = child.wall_s
    sweep_wall = float(main_report["wall_s"])
    journaled_report, resume_report = w.invoke_journaled()

    probe_dir = os.path.join(w.work, "probe")
    probe_cmd = [w.tools["fcdpm_probe"], "layers", "--seed", str(w.seed),
                 "--slots", str(s["slots"]), "--trace", w.trace,
                 "--policies", s["policies"],
                 "--rhos", s["rhos"], "--capacities", s["capacities"],
                 "--engine", s["engine"], "--jobs", str(probe_jobs),
                 "--out", probe_dir]
    if s["storm_seeds"]:
        probe_cmd += ["--storm-seeds", s["storm_seeds"]]
    probe = subprocess.run(probe_cmd, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    w.attempted += 1
    if probe.returncode != 0:
        w.failed += 1
        raise BenchError(f"probe failed: {probe.stderr.strip()}")
    p = json.loads(probe.stdout.strip().splitlines()[-1])

    # Probe outputs are checked like CLI outputs: the uncached sweeps
    # against the reference rows; the per-point runs against each other
    # and, when the grid has no storm axis, against the reference too.
    for tag in ("par_jobs1_rows", "par_jobsN_rows"):
        w.attempted += w.points
        w.failed += count_failures(
            w.reference, read_report(os.path.join(probe_dir, tag + ".json")),
            w.points)
    # The B = 1 probe must really have run the batched engine.
    w.attempted += 1
    if p["batch.b1_batched"] != p["batch.samples"]:
        w.failed += 1
    sim_rows = read_report(os.path.join(probe_dir, "sim_rows.json"))
    batch_rows = read_report(os.path.join(probe_dir, "batch_rows.json"))
    clean = sim_rows["results"] if s["storm_seeds"] else w.reference
    for rows in (sim_rows, batch_rows):
        w.attempted += len(clean)
        w.failed += count_failures(clean, rows, len(clean))
    with open(os.path.join(probe_dir, "spans.json")) as f:
        spans = json.load(f)

    absent = []

    def counter(report, *path):
        node = report
        for key in path:
            if not isinstance(node, dict) or key not in node:
                absent.append(".".join(path))
                return 0.0
            node = node[key]
        return float(node)

    hits = counter(main_report, "cache", "hits")
    misses = counter(main_report, "cache", "misses")
    merged = counter(main_report, "batch", "merged_lane_slots")
    uncached_same_jobs = (p["par.sweep_s_jobsN"] if s["jobs"] == probe_jobs
                          else p["par.sweep_s_jobs1"])
    metrics = {
        "workload.gen_s": p["workload.gen_s"],
        "workload.load_s": p["workload.load_s"],
        "workload.slots": p["workload.slots"],
        "core.solve_ns": p["core.solve_ns"],
        "core.solves": hits + misses,
        "sim.point_us_p50": p["sim.point_us_p50"],
        "sim.point_us_p90": p["sim.point_us_p90"],
        "sim.samples": p["sim.samples"],
        "batch.point_us_p50": p["batch.point_us_p50"],
        "batch.point_us_p90": p["batch.point_us_p90"],
        "batch.samples": p["batch.samples"],
        "batch.points_batched": counter(main_report, "batch", "points"),
        "batch.merge_sets": counter(main_report, "batch", "merge_sets"),
        "batch.merged_lane_slots": merged,
        "batch.splits": counter(main_report, "batch", "splits"),
        "batch.journal_hits": counter(main_report, "batch", "journal_hits"),
        "batch.merged_share": merged / (w.points * s["slots"]),
        "par.sweep_s_jobs1": p["par.sweep_s_jobs1"],
        "par.sweep_s_jobsN": p["par.sweep_s_jobsN"],
        "par.scaling": p["par.sweep_s_jobs1"] / p["par.sweep_s_jobsN"],
        "par.driver_s": p["par.driver_sweep_s"] - p["sim.total_s"],
        "par.cache_cost_s": sweep_wall - uncached_same_jobs,
        "par.cache_hits": hits,
        "par.cache_misses": misses,
        "par.cache_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "resilience.append_us": p["resilience.append_us"],
        "resilience.load_s": p["resilience.load_s"],
        "resilience.load_cut_s": p["resilience.load_cut_s"],
        "resilience.journal_bytes": p["resilience.probe_bytes"],
        "resilience.scheduled": counter(resume_report, "resilience",
                                        "scheduled"),
        "resilience.replayed": counter(resume_report, "resilience",
                                       "replayed"),
        "resilience.torn_bytes_dropped": counter(
            resume_report, "resilience", "torn_bytes_dropped"),
        "report.json_s": p["report.json_s"],
        "report.json_bytes": p["report.json_bytes"],
        "report.table_s": p["report.table_s"],
        "cli.outside_sweep_s": proc_wall - sweep_wall,
        "ledger.coverage": (p["workload.load_s"] + sweep_wall
                            + p["report.json_s"] + p["report.table_s"])
        / proc_wall,
    }
    detail = {
        "cli_process_wall_s": proc_wall,
        "cli_sweep_wall_s": sweep_wall,
        "engine_mix": [engine_mix(main_report), engine_mix(journaled_report),
                       engine_mix(resume_report)],
        "layers": layer_self_times(spans),
        "probe": p,
    }
    return metrics, absent, detail


def run_traced(w, seconds):
    """Repeat traced passes for `seconds` (at least one); report medians."""
    probe_jobs = max(w.spec["jobs"], min(4, len(os.sched_getaffinity(0))))
    passes = []
    absent = set()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        metrics, missing, detail = traced_iteration(w, probe_jobs)
        passes.append(metrics)
        absent.update(missing)
    metrics = {k: statistics.median(m[k] for m in passes) for k in passes[0]}
    detail.update({"passes": len(passes), "probe_jobs_n": probe_jobs,
                   "absent": sorted(absent),
                   "error_rate": w.failed / w.attempted})
    return metrics, detail


# ---------------------------------------------------------------- main


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [x["name"] for x in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads do not match run.py")
    return spec


def run_one(name, seed, seconds, traced, tools, out_dir, do_tamper, spec):
    work = os.path.join(out_dir, "work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment(out_dir, name, seed)
    if WORKLOADS[name]["jobs"] > min(env["hardware_threads"] or 1,
                                     env["usable_threads"]):
        raise BenchError(
            f"{name} runs --jobs {WORKLOADS[name]['jobs']} but only "
            f"{env['usable_threads']} hardware threads are usable; refusing")
    try:
        w = Workload(name, seed, tools, work)
        if traced:
            metrics, detail = run_traced(w, seconds)
            wanted = spec["per_layer"]
        else:
            metrics, detail = run_timed(w, seconds, do_tamper)
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
        result = {
            "correct": w.failed == 0,
            "attempted": w.attempted,
            "failed": w.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in wanted},
        }
        record = {"env": env, "detail": detail, "result": result}
        os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
        with open(os.path.join(out_dir, "results",
                               f"{name}-seed{seed}-trace{int(traced)}.json"),
                  "w") as f:
            json.dump(record, f, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return env, detail, result


def describe(name, env, detail, result):
    print("env " + json.dumps(env, sort_keys=True))
    print(f"engine_mix {name} " + json.dumps(detail["engine_mix"]))
    if detail.get("host"):
        print(f"host {name} " + json.dumps(detail["host"]))
    cells = [f"{k} {v['value']:.6g} {v['unit']}"
             for k, v in result["metrics"].items()]
    cells.append(f"error_rate {detail['error_rate']:.6g} ratio "
                 f"({result['failed']}/{result['attempted']})")
    if "layers" in detail:
        for layer, e in sorted(detail["layers"].items()):
            print(f"layer {name} {layer:<11} spans {e['spans']:>6} "
                  f"self {e['self_s']:.6f} s")
        if detail["absent"]:
            print(f"absent {name} (reported as 0): "
                  + ", ".join(detail["absent"]))
    print(f"{name} seed {env['seed']}: " + " | ".join(cells))


def self_test():
    """A tampered row must give failed > 0 and a non-zero exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           "storm-sweep", "--seed", "7", "--seconds", "1", "--trace", "0",
           "--tamper"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    caught = (proc.returncode != 0 and result.get("failed", 0) > 0
              and result.get("correct") is False)
    print(f"self-test: tampered row -> exit {proc.returncode}, "
          f"failed {result.get('failed')}/{result.get('attempted')}: "
          + ("caught" if caught else "NOT CAUGHT"))
    return 0 if caught else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one timed row (checker self-test)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        out_dir = build_dir()
        tools = build(out_dir)
        names = (sorted(WORKLOADS) if args.workload == "all"
                 else [args.workload])
        results = {}
        for name in names:
            env, detail, result = run_one(name, args.seed, seconds,
                                          bool(args.trace), tools, out_dir,
                                          args.tamper, spec)
            describe(name, env, detail, result)
            results[name] = result
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
