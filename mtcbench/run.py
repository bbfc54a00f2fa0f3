#!/usr/bin/env python3
"""MTraceCheck repository benchmark.

    python3 mtcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the tools and the traced replay driver from the checkout
(mtcbench/CMakeLists.txt, into .bench_build), then runs one workload.

--trace 0 times the shipped tools (mtc_validate, mtc_check,
mtc_coordinator) as child processes for S seconds and prints the
end-to-end metrics. --trace 1 replays the same units through the
layers' public functions in mtcbench_replay, with a span around every
layer call, and prints the per-layer metrics.

Every tool run and every replay is held to the golden values in
mtcbench/golden.json: the deterministic report lines (per-config and
campaign digests), the per-unit signature-set digests and verdicts,
and the work counters. A mismatch fails every unit of that run and
the command exits 1. The last line of stdout is the result JSON.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

# A workload's inputs are a function of seed mod GOLDEN_SEEDS, so that
# every seed has golden values to be held to.
GOLDEN_SEEDS = 64

# Configs and modes are fixed by the benchmark's definition; sizes are
# chosen so one tool run takes a few seconds and averages over enough
# tests that the seed moves throughput little.
WORKLOADS = {
    "tso_execute": {
        "runner": "validate", "mode": "inprocess",
        "configs": ["x86-4-100-64"], "tests": 16, "iterations": 1024,
    },
    "rmo_offline_check": {
        "runner": "campaign", "mode": "offline",
        "configs": ["ARM-7-200-128"], "tests": 8, "iterations": 512,
    },
    "arm_sandboxed": {
        "runner": "validate", "mode": "sandbox", "workers": 3,
        "configs": ["ARM-4-100-64"], "tests": 24, "iterations": 1024,
    },
    "mixed_fabric": {
        "runner": "campaign", "mode": "fabric", "workers": 3,
        "configs": ["ARM-4-100-64", "x86-4-100-64"], "tests": 16,
        "iterations": 1024,
    },
}

TOOLS = ["mtc_validate", "mtc_check", "mtc_coordinator", "mtcbench_replay"]
SETUP_REPS = 21
UNTRACED_REPS_IN_TRACE_RUN = 3
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120

# Per-layer metrics of the traced run: name -> unit. Layers are named
# after the src/ module whose public function the span wraps.
PER_LAYER = {
    "testgen.generate_ms": "ms", "core.instrument_ms": "ms",
    "sim.execute_ms": "ms", "sim.ns_per_iter": "ns",
    "sim.ns_per_sim_cycle": "ns", "sim.sim_cycles": "count",
    "sim.batch_calls": "count", "core.encode_ms": "ms",
    "core.accumulate_ms": "ms", "core.sort_unique_ms": "ms",
    "core.unique_signatures": "count", "core.unique_per_iter": "1/iter",
    "core.decode_ms": "ms", "core.slices_decoded": "count",
    "core.slice_reuse_rate": "frac", "graph.derive_ms": "ms",
    "graph.edges_changed_per_sig": "1/sig", "core.check_ms": "ms",
    "core.check_work": "count", "core.complete_sort_frac": "frac",
    "core.no_resort_frac": "frac", "core.affected_frac": "frac",
    "harness.unit_ms.p50": "ms", "harness.unit_ms.ptail": "ms",
    "harness.trace_read_ms": "ms", "harness.trace_write_ms": "ms",
    "harness.trace_bytes": "bytes", "support.journal_append_ms": "ms",
    "support.journal_bytes": "bytes",
    "harness.sandbox.fleet_start_ms": "ms",
    "harness.sandbox.dispatch_ms_per_unit": "ms",
    "harness.sandbox.worker_busy_frac": "frac",
    "dist.fleet_start_ms": "ms", "dist.dispatch_ms_per_unit": "ms",
    "dist.worker_busy_frac": "frac", "dist.leases": "count",
    "dist.heartbeats": "count", "dist.units_reassigned": "count",
    "trace_overhead_frac": "frac", "unattributed_frac": "frac",
}


# The `measure` launcher (set once the build has produced it).
MEASURE = None


class BenchError(Exception):
    """The benchmark could not run (build failure, missing sources)."""


# --- build and host -----------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure and build the tools and the replay driver; returns the
    directory of each binary by name."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("repository sources not found next to mtcbench/")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out)])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target"]
                 + TOOLS)
    with open(log, "w") as fh:
        for step in steps:
            if subprocess.run(step, stdout=fh, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build failed; see " + str(log))
    bins = {}
    for name in TOOLS:
        hits = [p for p in out.rglob(name) if p.is_file()
                and os.access(p, os.X_OK)]
        if not hits:
            raise BenchError("build produced no " + name)
        bins[name] = str(hits[0])
    global MEASURE
    MEASURE = bins["mtcbench_replay"]
    return bins


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout it
    runs in is not a git repository)."""
    h = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "mtcbench"):
        paths += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def fingerprint():
    info = {}
    try:
        info = json.loads((build_dir() / "build_info.json").read_text())
    except (OSError, ValueError):
        pass
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "flags": info.get("flags", "unknown"),
        "MTC_SIMD": info.get("mtc_simd", "unknown"),
        "commit": commit,
        "source_digest": source_digest(),
    }


# --- child processes -----------------------------------------------------

def invoke(argv, work, tag):
    """Run one child to completion under `mtcbench_replay measure`.
    Returns (rc, stdout, wall_s, cpu_s, maxrss_kb); cpu and maxrss
    cover the child and the descendants it reaped (sandbox and fabric
    workers)."""
    out_path = work / (tag + ".out")
    err_path = work / (tag + ".err")
    usage_path = work / (tag + ".usage")
    usage_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([MEASURE, "measure", str(usage_path), "--"]
                                + argv, cwd=work, stdout=out, stderr=err,
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    try:
        usage = json.loads(usage_path.read_text())
    except (OSError, ValueError):
        usage = {"exit": proc.returncode or 1, "wall_s": 0.0,
                 "cpu_s": 0.0, "maxrss_kb": 0}
    if usage["exit"] != 0:
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    return (usage["exit"], out_path.read_text(errors="replace"),
            usage["wall_s"], usage["cpu_s"], usage["maxrss_kb"])


ROW = re.compile(r"^\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(yes|no)\s+\S+\s*$")


def report_lines(runner, stdout):
    """The deterministic lines of a tool's report: mtc_validate's
    per-test rows (minus the wall-clock column) and summary, or the
    `campaign ` summary and digest lines of mtc_coordinator and
    mtc_check."""
    lines = []
    for line in stdout.splitlines():
        if runner == "validate":
            m = ROW.match(line)
            if m:
                lines.append(" ".join(m.groups()))
            elif line.startswith("campaign summary:"):
                lines.append(line)
        elif line.startswith("campaign "):
            lines.append(line)
    return lines


def sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()
                          ).hexdigest()[:16]


def unit_key(units):
    return sorted([u["config"], u["test"], u["ok"], u["iterations"],
                   u["unique"], u["violating"], u["assertions"],
                   u["crashes"], u["sim_cycles"], u["slices_decoded"],
                   u["check_work"], u["sig_digest"]]
                  for u in units)


class Workload:
    """One workload's campaign at one seed: argument lists for the tool
    and the replay, and the files they leave for checking."""

    def __init__(self, name, seed, bins, work):
        self.name = name
        self.spec = WORKLOADS[name]
        self.campaign_seed = seed % GOLDEN_SEEDS
        self.bins = bins
        self.work = work
        self.key = work / "fabric.key"
        self.key.write_text(hashlib.sha256(
            b"mtcbench-%d" % seed).hexdigest() + "\n")

    def iterations_per_run(self):
        s = self.spec
        return len(s["configs"]) * s["tests"] * s["iterations"]

    def units_per_run(self):
        return len(self.spec["configs"]) * self.spec["tests"]

    def campaign_args(self, iterations):
        args = []
        for cfg in self.spec["configs"]:
            args += ["--config", cfg]
        return args + ["--tests", str(self.spec["tests"]),
                       "--iterations", str(iterations),
                       "--seed", str(self.campaign_seed)]

    def trace_path(self, iterations):
        return self.work / ("campaign-%d.trace" % iterations)

    def dump(self, iterations):
        """Set-up of the offline workload: the build under test dumps
        the campaign's trace (untimed). Returns its exit code and
        report lines."""
        path = self.trace_path(iterations)
        rc, out, *_ = invoke([self.bins["mtc_coordinator"], "--serial"]
                             + self.campaign_args(iterations)
                             + ["--dump-trace", str(path)],
                             self.work, "dump")
        return rc, report_lines("campaign", out)

    def tool_argv(self, iterations):
        s, b = self.spec, self.bins
        if s["mode"] == "inprocess":
            return ([b["mtc_validate"], "--threads", "1", "--verbose"]
                    + self.campaign_args(iterations))
        if s["mode"] == "sandbox":
            journal = self.work / "campaign.journal"
            journal.unlink(missing_ok=True)
            return ([b["mtc_validate"], "--sandbox", "--threads",
                     str(s["workers"]), "--journal", str(journal),
                     "--verbose"] + self.campaign_args(iterations))
        if s["mode"] == "fabric":
            return ([b["mtc_coordinator"], "--workers", str(s["workers"]),
                     "--fabric-key-file", str(self.key), "--dump-trace",
                     str(self.work / "fabric.trace")]
                    + self.campaign_args(iterations))
        return [b["mtc_check"], "--threads", "1",
                str(self.trace_path(iterations))]

    def units_file(self):
        """The per-unit records a tool run leaves (journal or trace)."""
        mode = self.spec["mode"]
        if mode == "sandbox":
            return ["--journal", str(self.work / "campaign.journal")]
        if mode == "fabric":
            return ["--trace", str(self.work / "fabric.trace")]
        if mode == "offline":
            return ["--trace", str(self.trace_path(self.spec["iterations"]))]
        return None

    def replay_argv(self):
        s = self.spec
        argv = [self.bins["mtcbench_replay"], "run", "--mode", s["mode"]]
        if s["mode"] == "offline":
            return argv + ["--trace",
                           str(self.trace_path(s["iterations"]))]
        argv += self.campaign_args(s["iterations"])
        if s["mode"] == "sandbox":
            journal = self.work / "replay.journal"
            journal.unlink(missing_ok=True)
            argv += ["--workers", str(s["workers"]),
                     "--journal", str(journal)]
        if s["mode"] == "fabric":
            argv += ["--workers", str(s["workers"]), "--key-file",
                     str(self.key), "--dump-trace",
                     str(self.work / "replay.trace")]
        return argv

    def tool_units(self):
        """Per-unit records of the last tool run, or None."""
        where = self.units_file()
        if where is None:
            return None
        rc, out, *_ = invoke([self.bins["mtcbench_replay"], "units"]
                             + where, self.work, "units")
        if rc != 0:
            return []
        return json.loads(out.splitlines()[-1])["units"]


def golden_entry(name, seed):
    try:
        table = json.loads(GOLDEN.read_text())
    except (OSError, ValueError) as err:
        raise BenchError("cannot read golden values: %s" % err)
    entry = table.get(name, {}).get(str(seed % GOLDEN_SEEDS))
    if entry is None:
        raise BenchError("no golden values for %s at seed %d"
                         % (name, seed % GOLDEN_SEEDS))
    return entry


def check_tool_run(wl, gold, rc, stdout):
    """Hold one tool run to the golden values. Returns the mismatches
    (empty = correct) and the work counters the run produced."""
    problems = []
    if rc != 0:
        problems.append("exit code %d" % rc)
    report = report_lines(wl.spec["runner"], stdout)
    if sha(report) != gold["report_sha"]:
        problems.append("report lines differ from golden")
    units = wl.tool_units()
    if units is None:
        # mtc_validate in-process leaves no unit records; its per-test
        # rows give the unique signatures.
        rows = [line.split() for line in report if line[0].isdigit()]
        return problems, {"units": len(rows), "unique_signatures":
                          sum(int(row[1]) for row in rows)}
    if sha(unit_key(units)) != gold["units_sha"]:
        problems.append("per-unit signature-set digests differ from golden")
    return problems, {
        "units": len(units),
        "iterations": sum(u["iterations"] for u in units),
        "unique_signatures": sum(u["unique"] for u in units),
        "sim_cycles": sum(u["sim_cycles"] for u in units),
        "slices_decoded": sum(u["slices_decoded"] for u in units),
        "check_work": sum(u["check_work"] for u in units),
    }


def check_replay(gold, rep):
    """Hold one replay to the golden values. Returns the mismatches and
    the work counters the replay produced."""
    problems = []
    if sha(rep["report"]) != gold["report_sha"]:
        problems.append("replay report lines differ from golden")
    if sha(unit_key(rep["units"])) != gold["units_sha"]:
        problems.append("replay per-unit digests differ from golden")
    layers = rep["layers"]
    counters = {
        "units": len(rep["units"]),
        "iterations": int(rep["iterations"]),
        "unique_signatures": int(layers["core.unique_signatures"]),
        "sim_cycles": int(rep["sim_cycles_total"]),
        "slices_decoded": int(layers["core.slices_decoded"]),
        "check_work": int(layers["core.check_work"]),
    }
    if "dist.leases" in layers:
        counters["leases"] = int(layers["dist.leases"])
    return problems, counters


def settle_counters(samples, gold):
    """The work counters of a set of runs, which must repeat exactly:
    returns the first run's counters, the golden value of each counter
    that differs from it, and the drift problems found."""
    if not samples:
        return {}, {}, []
    counters, problems = samples[0], []
    for other in samples[1:]:
        drift = sorted(k for k in counters if other.get(k) != counters[k])
        if drift:
            problems.append("work counters drifted between runs: "
                            + ", ".join(drift))
            break
    golden = {k: gold[k] for k in counters
              if k in gold and gold[k] != counters[k]}
    problems += ["%s=%d but golden is %d" % (k, counters[k], v)
                 for k, v in golden.items()]
    return counters, golden, problems


# --- measurement -----------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it, and
    its value (the maximum when there are ten samples or fewer)."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return 100.0, (xs[-1] if xs else 0.0)
    return 100.0 * (len(xs) - 10) / len(xs), xs[len(xs) - 11]


def measure_end_to_end(wl, gold, seconds, setup_problems):
    """Time the tool runs. A failure in set-up (`setup_problems`, or a
    set-up campaign that fails here) fails every unit of the run."""
    units = wl.units_per_run()
    iters = wl.iterations_per_run()
    # Iteration-independent cost: the same campaign at one iteration
    # per unit, set up several times; the median is reported.
    if wl.spec["mode"] == "offline":
        rc, _ = wl.dump(1)
        if rc != 0:
            setup_problems.append("set-up trace dump exit code %d" % rc)
    setup = []
    for _ in range(SETUP_REPS):
        rc, _, wall, _, _ = invoke(wl.tool_argv(1), wl.work, "setup")
        if rc != 0:
            setup_problems.append("set-up campaign exit code %d" % rc)
        setup.append(wall)

    runs, failed, problems, samples = [], 0, [], []
    t_end = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < t_end:
        rc, out, wall, cpu, rss = invoke(wl.tool_argv(wl.spec["iterations"]),
                                         wl.work, "run")
        bad, counters = check_tool_run(wl, gold, rc, out)
        if bad:
            failed += units
            problems += bad
        else:
            samples.append(counters)
        runs.append((wall, cpu, rss))

    counters, golden, bad = settle_counters(samples, gold)
    attempted = units * len(runs)
    if bad or setup_problems:
        failed = attempted
        problems += bad + setup_problems
    metrics = {
        "iters_per_s": (median([iters / w for w, _, _ in runs]), "1/s"),
        "setup_s": (median(setup), "s"),
        "cpu_us_per_iter": (median([c * 1e6 / iters for _, c, _ in runs]),
                            "us"),
        "peak_rss_mb": (median([r / 1024.0 for _, _, r in runs]), "MB"),
        "unit_ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    detail = {
        "tool_runs": len(runs),
        "setup_runs": len(setup),
        "wall_s": [round(w, 4) for w, _, _ in runs],
    }
    return metrics, attempted, failed, problems, detail, counters, golden


def parse_replay(rc, out):
    if rc != 0:
        return None
    try:
        return json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return None


def measure_layers(wl, gold, seconds, setup_problems):
    """Replay the units under spans. The untraced tool runs that give
    the overhead baseline are held to the goldens too."""
    units = wl.units_per_run()
    untraced, problems, failed = [], [], 0
    for _ in range(UNTRACED_REPS_IN_TRACE_RUN):
        rc, out, wall, *_ = invoke(wl.tool_argv(wl.spec["iterations"]),
                                   wl.work, "run")
        bad, _ = check_tool_run(wl, gold, rc, out)
        if bad:
            failed += units
            problems += bad
        untraced.append(wall)

    replays, samples = [], []
    t_end = time.perf_counter() + seconds
    while len(replays) < MIN_RUNS or time.perf_counter() < t_end:
        rc, out, wall, *_ = invoke(wl.replay_argv(), wl.work, "replay")
        rep = parse_replay(rc, out)
        if rep is None:
            bad = ["replay exit code %d" % rc]
        else:
            bad, counters = check_replay(gold, rep)
            if not bad:
                samples.append(counters)
        if bad:
            failed += units
            problems += bad
        replays.append((wall, rep))

    good = [rep for _, rep in replays if rep is not None]
    metrics = {}
    for name in PER_LAYER:
        values = [rep["layers"][name] for rep in good
                  if name in rep["layers"]]
        metrics[name] = median(values)
    unit_ms = [ms for rep in good for ms in rep["unit_ms"]]
    metrics["harness.unit_ms.p50"] = median(unit_ms)
    pct, metrics["harness.unit_ms.ptail"] = tail_percentile(unit_ms)
    baseline = median(untraced)
    metrics["trace_overhead_frac"] = (
        median([w for w, _ in replays]) / baseline - 1.0 if baseline else 0.0)
    metrics["unattributed_frac"] = median(
        [1.0 - rep["attributed_ms"] / rep["wall_ms"] for rep in good])
    counters, golden, bad = settle_counters(samples, gold)
    attempted = units * (len(untraced) + len(replays))
    if bad or setup_problems:
        failed = attempted
        problems += bad + setup_problems
    detail = {
        "replays": len(replays),
        "untraced_runs": len(untraced),
        "unit_ms_samples": len(unit_ms),
        "unit_ms_tail_percentile": round(pct, 1),
    }
    return metrics, attempted, failed, problems, detail, counters, golden


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bins = build()
        gold = golden_entry(args.workload, args.seed)
    except BenchError as err:
        print("mtcbench: " + str(err), file=sys.stderr)
        return 2

    work = build_dir() / "work" / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = Workload(args.workload, args.seed, bins, work)
        # A set-up fault of the build under test is a correctness
        # failure of the whole run, not a failure to benchmark.
        setup_problems = []
        if wl.spec["mode"] == "offline":
            rc, lines = wl.dump(wl.spec["iterations"])
            if rc != 0:
                setup_problems.append("set-up trace dump exit code %d" % rc)
            elif sha(lines) != gold["report_sha"]:
                setup_problems.append("the dumped trace's report lines "
                                      "differ from golden")
        if args.trace:
            metrics, attempted, failed, problems, detail, counters, golden \
                = measure_layers(wl, gold, args.seconds, setup_problems)
            metrics = {n: (v, PER_LAYER[n]) for n, v in metrics.items()}
        else:
            metrics, attempted, failed, problems, detail, counters, golden \
                = measure_end_to_end(wl, gold, args.seconds, setup_problems)
    except BenchError as err:
        print("mtcbench: " + str(err), file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("mtcbench %s seed=%d (campaign seed %d) trace=%d"
          % (args.workload, args.seed, wl.campaign_seed, args.trace))
    print("golden: %s" % gold["summary"])
    for name, (value, unit) in metrics.items():
        print("  %-38s %16.6g %s" % (name, value, unit))
    print("work counters per %s: " % ("replay" if args.trace else "tool run")
          + (", ".join("%s=%d%s" % (k, v, " (golden %d)" % golden[k]
                                    if k in golden else "")
                       for k, v in counters.items()) or "none (every run "
             "failed)"))
    for problem in sorted(set(problems)):
        print("MISMATCH: " + problem)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": fingerprint(), "counters": counters, "detail": detail,
        "metrics": {n: v for n, (v, _) in metrics.items()},
    }
    if golden:
        record["golden_counters"] = golden
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
